import csv
import json

import pytest

from delsim.cli import main


def write_config(path, L=8, V=32, seed=7, max_new_tokens=64, **extra):
    profile = [0.3] * L
    profile[1] = 0.95
    profile[L - 1] = 1.0
    cfg = {
        "session": {"L": L, "V": V, "seed": seed, "max_new_tokens": max_new_tokens,
                    "prefill_window": 16},
        "model": {
            "kind": "agreement",
            "agreement_profile": profile,
            "confidence_match": {"dist": "beta", "a": 12, "b": 3},
            "confidence_mismatch": {"dist": "beta", "a": 3, "b": 12},
        },
        "run": {"prompts": 2, "prompt_len": 12},
    }
    for key, val in extra.items():
        if isinstance(val, dict):
            cfg[key].update(val)
        else:
            cfg[key] = val
    path.write_text(json.dumps(cfg))
    return path


def test_run_happy_path_writes_summary_and_traces(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "results"
    code = main(["run", "--config", str(cfg_file), "--policy", "del", "--out", str(out)])
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "traces" / "del-0.jsonl").exists()
    assert (out / "traces" / "del-1.jsonl").exists()
    with (out / "summary.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2
    assert "mean_etpl" in capsys.readouterr().out


def test_run_static_policy_flags(tmp_path):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "r"
    code = main(["run", "--config", str(cfg_file), "--policy", "ls",
                 "--exit-layer", "2", "--gamma", "6", "--out", str(out)])
    assert code == 0
    trace = (out / "traces" / "ls-0.jsonl").read_text().splitlines()
    first = json.loads(trace[0])
    assert first["E"] == 2 and first["planned_len"] == 6


def test_run_missing_model_is_usage_error(tmp_path, capsys):
    code = main(["run", "--policy", "del", "--L", "8", "--V", "32",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "model.kind" in capsys.readouterr().err


def test_run_missing_session_field_names_it(tmp_path, capsys):
    code = main(["run", "--policy", "del", "--model-kind", "deterministic_toy",
                 "--V", "16", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "session.L" in capsys.readouterr().err


def test_run_missing_policy_param_is_usage_error(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    code = main(["run", "--config", str(cfg_file), "--policy", "ls",
                 "--gamma", "4", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "exit_layer" in capsys.readouterr().err


def test_run_invalid_session_value(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    code = main(["run", "--config", str(cfg_file), "--policy", "del",
                 "--omega", "1.2", "--out", str(tmp_path / "x")])
    assert code == 1
    assert "omega" in capsys.readouterr().err


def test_sweep_grid_shape(tmp_path):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "sw"
    code = main(["sweep", "--config", str(cfg_file), "--ell", "1..4", "--d", "0,2,4",
                 "--prompts", "2", "--out", str(out)])
    assert code == 0
    rows = (out / "grid.csv").read_text().splitlines()
    assert rows[0].startswith("ell\\d,0,2,4")
    assert len(rows) == 1 + 4


def test_sweep_segmented(tmp_path):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "sw2"
    code = main(["sweep", "--config", str(cfg_file), "--ell", "1..2", "--d", "0,4",
                 "--prompts", "1", "--segment-len", "32", "--out", str(out)])
    assert code == 0
    text = (out / "grid.csv").read_text()
    assert text.count("segment,") == 2


def test_sweep_empty_range_is_usage_error(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    code = main(["sweep", "--config", str(cfg_file), "--ell", "", "--d", "0..2",
                 "--out", str(tmp_path / "x")])
    assert code == 1


def test_sweep_out_of_bounds_range(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    code = main(["sweep", "--config", str(cfg_file), "--ell", "1..8", "--d", "0..2",
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "--ell" in capsys.readouterr().err


def test_oracle_expected_tokens(capsys):
    code = main(["oracle", "--alpha", "0.5", "--d", "2", "--trials", "200000"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "closed_form=1.75" in out


def test_oracle_zero_trials_is_usage_error(capsys):
    assert main(["oracle", "--alpha", "0.5", "--d", "2", "--trials", "0"]) == 1


def test_oracle_distribution_check(capsys):
    code = main(["oracle", "--distribution-check", "--vocab", "3", "--horizon", "2",
                 "--trials", "20000"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_omega_sweep_command(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "om"
    code = main(["omega-sweep", "--config", str(cfg_file), "--omegas", "0.9,1.0",
                 "--prompts", "1", "--out", str(out)])
    assert code == 0
    assert (out / "omega.csv").exists()
    assert "omega=0.90" in capsys.readouterr().out


def test_replay_roundtrip_and_tamper(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "rr"
    assert main(["run", "--config", str(cfg_file), "--policy", "del", "--out", str(out)]) == 0
    assert main(["replay", "--dir", str(out)]) == 0

    trace = out / "traces" / "del-0.jsonl"
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[0])
    rec["layers_loaded"] += 5
    lines[0] = json.dumps(rec)
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--dir", str(out)]) == 2


def test_replay_same_seed_recomputes_identical_etpl(tmp_path):
    cfg_file = write_config(tmp_path / "exp.json")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["run", "--config", str(cfg_file), "--policy", "del",
                     "--out", str(out)]) == 0
        with (out / "summary.csv").open() as f:
            outs.append([row["etpl"] for row in csv.DictReader(f)])
    assert outs[0] == outs[1]


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg_file = write_config(tmp_path / "exp.json")
    monkeypatch.setenv("DELSIM_OUT", str(tmp_path / "env_out"))
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--config", str(cfg_file), "--policy", "vanilla"]) == 0
    assert (tmp_path / "env_out" / "summary.csv").exists()


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["fly"]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "delsim" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, extra, field",
    [
        (["run", "--policy", "del", "--profile", "0.5,x,1"], {}, "--profile"),
        (["run", "--policy", "del", "--model-kind", "deterministic_toy", "--toy-map", "1,2,x"],
         {}, "--toy-map"),
        (["sweep", "--ell", "1..2", "--d", "0,2", "--segment-len", "0"], {}, "--segment-len"),
        (["sweep", "--ell", "1..2", "--d", "0,2", "--segment-len", "-3"], {}, "--segment-len"),
        (["run", "--policy", "del"], {"session": {"omega": "x"}}, "omega"),
        (["run", "--policy", "ls", "--gamma", "4"], {"run": {"exit_layer": "two"}}, "exit_layer"),
        (["run", "--policy", "del"], {"run": {"prompts": "many"}}, "run.prompts"),
        (["run", "--policy", "del"], {"model": {"agreement_profile": "abc"}}, "model.agreement_profile"),
        (["run", "--policy", "del"], {"model": {"horizon": "x"}}, "model.horizon"),
        (["run", "--policy", "del"], {"model": {"regimes": [[5]]}}, "model.regimes"),
        (["run", "--policy", "del"], {"model": {"confidence_match": {"dist": "beta"}}},
         "confidence_match.a"),
        (["run", "--policy", "del"], {"session": 5}, "session"),
        (["run"], {"run": {"policy": "ls", "exit_layer": 2.7, "gamma": 2}}, "exit_layer"),
        (["run", "--policy", "del"], {"model": 5}, "model"),
        (["run", "--policy", "del"], {"run": {"prompts": 2.5}}, "run.prompts"),
        (["run", "--policy", "del"], {"model": {"confidence_mismatch": {"dist": "beta", "a": 0, "b": 2}}},
         "confidence_mismatch"),
        (["run", "--policy", "del"],
         {"model": {"base_process": {"kind": "dirichlet", "concentration": "x"}}},
         "base_process.concentration"),
        (["run", "--policy", "del"], {"model": {"horizon": -1}}, "model.horizon"),
        (["run", "--policy", "del"], {"model": {"horizon": 5}}, "model.horizon"),
        (["sweep", "--ell", "1..2", "--d", "0,2"], {"model": {"horizon": 5}}, "model.horizon"),
    ],
    ids=["profile", "toy-map", "segment-len-zero", "segment-len-negative", "session-omega",
         "run-exit-layer", "run-prompts", "model-profile-string", "model-horizon",
         "model-regimes-short", "confidence-beta-missing-a", "session-not-object",
         "run-exit-layer-fractional", "model-not-object", "run-prompts-fractional",
         "confidence-beta-zero", "base-process-concentration", "model-horizon-negative",
         "model-horizon-below-prompt-len", "sweep-horizon-below-prompt-len"],
)
def test_bad_input_exits_1_naming_the_field(tmp_path, capsys, argv, extra, field):
    cfg_file = write_config(tmp_path / "exp.json", **extra)
    code = main(argv + ["--config", str(cfg_file), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert field in captured.err
    assert "Traceback" not in captured.err + captured.out

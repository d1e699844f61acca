import contextlib
import csv
import io
import json
import re
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import toy_spec

from delsim.cli import SESSION_FLAGS, main
from delsim.harness import replay_check


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
    code = main(["run", "--policy", "del", "--model-kind", "agreement",
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


def test_sweep_prints_each_segments_best_cell_and_names_empty_ones(tmp_path, capsys):
    # the toy's layers all agree, so a d=6 round emits 7 tokens and some
    # 4-token windows start no round
    toy = tmp_path / "toy.json"
    toy.write_text(json.dumps({"model": toy_spec(4, 8).to_dict()}))
    code = main(["sweep", "--config", str(toy), "--L", "4", "--V", "8",
                 "--ell", "1,2", "--d", "6", "--segment-len", "4", "--max-new-tokens", "40",
                 "--prompts", "1", "--out", str(tmp_path / "sw")])
    captured = capsys.readouterr()
    assert code == 0 and "Traceback" not in captured.err
    lines = captured.out.splitlines()
    assert len(lines) == 10 + 1
    empty = [i for i, line in enumerate(lines[:10])
             if line == f"best cell (segment {i}): none, no round started in this segment"]
    assert empty == [2, 4, 6, 9]
    for i in set(range(10)) - set(empty):
        assert lines[i].startswith(f"best cell (segment {i}): exit_layer=1 gamma=6 etpl=")


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


def test_a_rerun_into_one_directory_leaves_no_stale_trace_and_bad_input_touches_nothing(tmp_path, capsys):
    example = Path(__file__).resolve().parents[1] / "examples" / "compare_policies.json"
    out = tmp_path / "rr"
    run = ["run", "--config", str(example), "--max-new-tokens", "24", "--out", str(out)]
    assert main(run + ["--prompts", "2"]) == 0
    (out / "notes.txt").write_text("kept")
    (out / "traces" / "notes.txt").write_text("kept")
    assert main(run + ["--prompts", "1"]) == 0
    traces = sorted(p.name for p in (out / "traces").glob("*.jsonl"))
    assert traces == [f"{name}-0.jsonl" for name in ("del", "dv", "fs", "ls", "vanilla")]
    with (out / "summary.csv").open() as f:
        assert len(list(csv.DictReader(f))) == 5
    assert (out / "notes.txt").exists() and (out / "traces" / "notes.txt").exists()
    (out / "notes.txt").unlink()
    (out / "traces" / "notes.txt").unlink()
    # a run that its input stops leaves the earlier run's files as they were
    files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    assert main(run + ["--policy", "ls", "--exit-layer", "2", "--gamma", "99"]) == 1
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files
    capsys.readouterr()
    assert main(["replay", "--dir", str(out)]) == 0, capsys.readouterr().err


def test_a_run_that_fails_mid_way_leaves_the_earlier_directory_as_it_was(tmp_path, capsys):
    example = json.loads((Path(__file__).resolve().parents[1] / "examples" / "compare_policies.json").read_text())
    example["run"]["prompts"] = 1
    example["session"]["max_new_tokens"] = 16
    good = tmp_path / "good.json"
    good.write_text(json.dumps(example))
    example["model"]["horizon"] = 40
    short = tmp_path / "short.json"
    short.write_text(json.dumps(example))
    out = tmp_path / "rr"
    assert main(["run", "--config", str(good), "--out", str(out)]) == 0
    files = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
    capsys.readouterr()
    # the 32-token prompt's 16 new tokens step past the horizon
    assert main(["run", "--config", str(short), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "exceeds horizon 40" in err and "Traceback" not in err
    assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == files
    # nothing is left beside it either
    assert sorted(p.name for p in tmp_path.iterdir()) == ["good.json", "rr", "short.json"]
    assert main(["replay", "--dir", str(out)]) == 0, capsys.readouterr().err


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


POLICIES = [["vanilla", {}], ["ls", {"exit_layer": 2, "gamma": 4}], ["dv", {"exit_layer": 2}],
            ["del", {}]]


def test_run_policies_runs_each_in_the_given_order(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json", run={"policies": POLICIES})
    assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "r")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [f"policy={p}" for p, _ in POLICIES]
    assert all(" runs=2 mean_etpl=" in line for line in lines[:-1])
    assert lines[0].endswith("mean_sim_speedup=1.0000")  # vanilla loads all L layers per token
    echo = json.loads((tmp_path / "r" / "config.json").read_text())
    assert echo["run"]["policies"] == POLICIES


def test_policy_flag_overrides_run_policies(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json", run={"policies": POLICIES})
    out = tmp_path / "r"
    assert main(["run", "--config", str(cfg_file), "--policy", "fs", "--exit-layer", "2",
                 "--gamma", "3", "--out", str(out)]) == 0
    assert capsys.readouterr().out.startswith("policy=fs runs=2 ")
    assert json.loads((out / "config.json").read_text())["run"]["policies"] == [
        ["fs", {"exit_layer": 2, "gamma": 3}]]


@pytest.mark.parametrize("argv, decode_mode", [
    ([], "greedy"),
    (["--policy", "dv", "--exit-layer", "2", "--dv-threshold", "0.4"], "sampling"),
], ids=["greedy-policies", "sampling-flags"])
def test_a_results_config_json_reruns_to_the_same_bytes(tmp_path, argv, decode_mode):
    cfg_file = write_config(tmp_path / "exp.json", session={"decode_mode": decode_mode},
                            run={"policies": POLICIES})
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["run", "--config", str(cfg_file), "--out", str(first)] + argv) == 0
    assert main(["run", "--config", str(first / "config.json"), "--out", str(second)]) == 0
    files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert len(files) == 3 + 2 * (1 if argv else len(POLICIES))
    for rel in files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel


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
        # a removed flag
        (["run", "--policy", "del", "--toy-map", "1,2,x"], {}, "--toy-map"),
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
        # 1e400 reads as infinity, which would build a NaN transition matrix
        (["run", "--policy", "vanilla"],
         {"session": {"decode_mode": "sampling"},
          "model": {"base_process": {"kind": "dirichlet", "concentration": 1e400}}},
         "base_process.concentration"),
        (["run", "--policy", "del"], {"model": {"horizon": -1}}, "model.horizon"),
        (["run", "--policy", "del"], {"model": {"horizon": 5}}, "model.horizon"),
        (["sweep", "--ell", "1..2", "--d", "0,2"], {"model": {"horizon": 5}}, "model.horizon"),
        (["run", "--policy", "del"], {"run": {"del_per_layer_window": False}},
         "del_per_layer_window"),
        (["run", "--policy", "del", "--del-per-layer-window"], {}, "--del-per-layer-window"),
        # a removed session field, as an old config.json echoes it
        (["run", "--policy", "del"], {"session": {"default_threshold": 0.5}}, "default_threshold"),
        (["run", "--policy", "del", "--default-threshold", "0.5"], {}, "--default-threshold"),
        (["run", "--policy", "del"], {"session": {"alpha_clamp_eps": 1e-6}}, "alpha_clamp_eps"),
        (["run", "--policy", "del", "--alpha-clamp-eps", "1e-6"], {}, "--alpha-clamp-eps"),
        # a removed model kind, as an old config.json echoes it
        (["run", "--policy", "del"], {"model": {"kind": "deterministic_toy"}}, "model.kind must be one of"),
        (["run", "--policy", "del", "--model-kind", "deterministic_toy"], {}, "model.kind must be one of"),
        (["run", "--policy", "dv", "--exit-layer", "2", "--dv-step", "nan"], {}, "step"),
        # a range's ends are checked before it is expanded
        (["sweep", "--ell", "1..99999999999", "--d", "0,2"], {}, "--ell"),
        (["sweep", "--ell", "1..2", "--d", "-99999999999..2"], {}, "--d"),
        # a JSON true is a bool, which Python counts as the int 1
        (["run", "--policy", "del"], {"session": {"max_new_tokens": True}}, "max_new_tokens"),
        (["run", "--policy", "del"], {"session": {"d_max": True}}, "d_max"),
        (["run", "--policy", "del"], {"session": {"prefill_window": True}}, "prefill_window"),
        (["run", "--policy", "del"], {"run": {"prompts": True}}, "run.prompts"),
        (["run", "--policy", "del"], {"run": {"prompt_len": True}}, "run.prompt_len"),
        (["run", "--policy", "del"], {"model": {"context_hash_window": True}}, "context_hash_window"),
        (["run", "--policy", "del"],
         {"model": {"kind": "regime_switching", "agreement_profile": None,
                    "regimes": [[True, [0.5] * 7 + [1.0]], [4, [0.5] * 7 + [1.0]]]}},
         "segment length"),
        (["run"], {"run": {"policy": "ls", "exit_layer": True, "gamma": 2}}, "exit_layer"),
        (["run"], {"run": {"policy": "fs", "exit_layer": 2, "gamma": True}}, "gamma"),
        (["run"], {"run": {"policy": "dv", "exit_layer": 2, "dv_threshold": True}}, "threshold"),
        (["run"], {"run": {"policy": "del", "policies": [["del", {}]]}},
         "run.policy and run.policies"),
        (["run"], {"run": {"policies": []}}, "run.policies"),
        (["run"], {"run": {"policies": {"del": {}}}}, "run.policies"),
        (["run"], {"run": {"policies": [["del", {}], ["ls"]]}}, "run.policies[1]"),
        (["run"], {"run": {"policies": [["del", {}], [5, {}]]}}, "run.policies[1]"),
        (["run"], {"run": {"policies": [["del", []]]}}, "run.policies[0]"),
        (["run"], {"run": {"policies": [["warp", {}]]}}, "run.policies[0]: unknown policy"),
        (["run"], {"run": {"policies": [["ls", {"exit_layer": 2}]]}}, "run.policies[0]: gamma"),
        (["run"], {"run": {"policies": [["dv", {"exit_layer": 2, "theshold": 0.3}]]}},
         "run.policies[0]: unknown policy parameter(s) ['theshold']"),
        (["run"], {"run": {"policies": [["del", {"cfg": 1}]]}},
         "run.policies[0]: unknown policy parameter(s) ['cfg']"),
        (["run"], {"run": {"policies": [["ls", {"exit_layer": 2, "gamma": 2}],
                                        ["ls", {"exit_layer": 3, "gamma": 2}]]}},
         "run.policies[1] repeats policy 'ls'"),
        (["run", "--exit-layer", "2"], {"run": {"policies": [["dv", {"exit_layer": 3}]]}},
         "need --policy"),
        (["run"], {"run": {"policies": [["del", {}]], "gamma": 4}}, "need --policy"),
        (["run", "--policy", "del"], {"run": {"bogus": 1}}, "unknown run field(s): ['bogus']"),
        (["sweep", "--ell", "1..2", "--d", "0,2"], {"run": {"bogus": 1}}, "bogus"),
        (["run", "--policy", "del"], {"sesion": 5}, "unknown config section(s): ['sesion']"),
        # size fields past their stated upper bounds
        (["run", "--policy", "del"], {"session": {"d_max": 2**63}}, "d_max"),
        (["run", "--policy", "del"], {"model": {"context_hash_window": 10**30}},
         "model.context_hash_window"),
        (["run", "--policy", "vanilla"],
         {"session": {"decode_mode": "sampling"}, "run": {"prompt_len": 10**30}}, "prompt_len"),
        (["run", "--policy", "vanilla"], {"session": {"V": 10**12}}, "V must be an integer in [2, 4096]"),
        # math.lgamma overflows, and no beta_table node sees the CDF rise
        (["run", "--policy", "del"],
         {"model": {"confidence_match": {"dist": "beta", "a": 12, "b": 1e308}}}, "confidence_match.b"),
        (["run", "--policy", "del"],
         {"model": {"confidence_match": {"dist": "beta", "a": 1e300, "b": 1e300}}},
         "confidence_match.a"),
    ],
    ids=["profile", "toy-map", "segment-len-zero", "segment-len-negative", "session-omega",
         "run-exit-layer", "run-prompts", "model-profile-string", "model-horizon",
         "model-regimes-short", "confidence-beta-missing-a", "session-not-object",
         "run-exit-layer-fractional", "model-not-object", "run-prompts-fractional",
         "confidence-beta-zero", "base-process-concentration",
         "base-process-concentration-infinite", "model-horizon-negative",
         "model-horizon-below-prompt-len", "sweep-horizon-below-prompt-len",
         "run-del-per-layer-window", "del-per-layer-window-flag",
         "session-default-threshold", "default-threshold-flag", "session-alpha-clamp-eps",
         "alpha-clamp-eps-flag", "model-kind-deterministic-toy", "model-kind-flag-deterministic-toy",
         "dv-step-nan", "sweep-ell-range-huge",
         "sweep-d-range-huge", "session-max-new-tokens-true", "session-d-max-true",
         "session-prefill-window-true", "run-prompts-true", "run-prompt-len-true",
         "model-context-hash-window-true", "regime-segment-length-true",
         "run-exit-layer-true", "run-gamma-true", "run-dv-threshold-true",
         "run-policy-and-policies", "run-policies-empty", "run-policies-not-list",
         "run-policies-short-entry", "run-policies-name-not-str", "run-policies-params-not-object",
         "run-policies-unknown-policy", "run-policies-missing-param",
         "run-policies-misspelt-param", "run-policies-param-named-cfg", "run-policies-repeated-name",
         "run-policies-with-param-flag", "run-policies-with-param-key", "run-unknown-key",
         "sweep-run-unknown-key", "unknown-section", "session-d-max-huge",
         "model-context-hash-window-huge", "sampling-prompt-len-huge", "session-V-huge",
         "confidence-beta-b-huge", "confidence-beta-a-b-huge"],
)
def test_bad_input_exits_1_naming_the_field(tmp_path, capsys, argv, extra, field):
    cfg_file = write_config(tmp_path / "exp.json", **extra)
    code = main(argv + ["--config", str(cfg_file), "--out", str(tmp_path / "x")])
    captured = capsys.readouterr()
    assert code == 1
    assert field in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_nan_entries_are_rejected_naming_the_field(tmp_path, capsys):
    nan = float("nan")
    profile = [0.5] * 7 + [1.0]
    cases = [
        (["--profile", "nan," + ",".join(map(str, profile[1:]))], {}, "agreement_profile"),
        ([], {"model": {"kind": "regime_switching",
                        "regimes": [[4, profile], [4, profile[:3] + [nan] + profile[4:]]]}},
         "regimes[1] profile"),
        ([], {"model": {"base_process": {"kind": "table", "probs": [[nan] * 32] * 32}}},
         "base_process.probs"),
    ]
    for flags, extra, field in cases:
        cfg_file = write_config(tmp_path / "exp.json", **extra)
        code = main(["run", "--policy", "del", "--config", str(cfg_file),
                     "--out", str(tmp_path / "x")] + flags)
        err = capsys.readouterr().err
        assert code == 1 and field in err and "Traceback" not in err


@pytest.mark.parametrize("edit", [
    None,
    lambda text: "{not json",
    lambda text: '{"session": {"V": 32}}',
    # it parses and has session.L, so only the re-run rejects it
    lambda text: text.replace('"model": {', '"model": {"shape": "round",', 1),
], ids=["missing", "not-json", "no-session-L", "unknown-model-field"])
def test_replay_reports_a_missing_or_bad_config_as_a_mismatch(tmp_path, capsys, edit):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "rr"
    assert main(["run", "--config", str(cfg_file), "--policy", "vanilla", "--out", str(out)]) == 0
    path = out / "config.json"
    if edit is None:
        path.unlink()
    else:
        path.write_text(edit(path.read_text()))
    assert main(["replay", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "replay mismatch: " in err and str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("kind", ["missing", "file"])
def test_replay_of_a_path_that_is_not_a_directory_is_bad_input(tmp_path, capsys, kind):
    path = tmp_path / "nowhere"
    if kind == "file":
        path.write_text("summary\n")
    assert main(["replay", "--dir", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "--dir" in err and str(path) in err
    assert "Traceback" not in err and "mismatch" not in err


def test_replay_reports_malformed_summary_rows_as_mismatches(tmp_path, capsys):
    cfg_file = write_config(tmp_path / "exp.json")
    out = tmp_path / "rr"
    assert main(["run", "--config", str(cfg_file), "--policy", "vanilla", "--out", str(out)]) == 0
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    # a count that is not an int, and a row cut short
    first = lines[1].split(",")
    first[lines[0].split(",").index("tokens_emitted")] = "many"
    lines[1] = ",".join(first)
    lines[2] = lines[2].split(",")[0]
    summary.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("not a whole summary row") == 2 and "Traceback" not in err


def run_del(tmp_path):
    """A ``del`` run's output directory, which replays clean."""
    out = tmp_path / "rr"
    assert main(["run", "--config", str(write_config(tmp_path / "exp.json")), "--policy", "del",
                 "--out", str(out)]) == 0
    assert main(["replay", "--dir", str(out)]) == 0
    return out


def replay_mismatches(out, capsys) -> list[str]:
    """The mismatch lines of a replay of ``out``, which must exit 2."""
    capsys.readouterr()
    assert main(["replay", "--dir", str(out)]) == 2
    *lines, last = capsys.readouterr().err.splitlines()
    assert last.startswith("invariant violation: ")
    assert all(line.startswith("replay mismatch: ") for line in lines)
    return [line.removeprefix("replay mismatch: ") for line in lines]


@pytest.mark.parametrize("field", ["alpha_snapshot", "tau", "planned_len"])
def test_replay_reports_a_well_formed_but_wrong_field(tmp_path, capsys, field):
    out = run_del(tmp_path)
    trace = out / "traces" / "del-0.jsonl"
    lines = trace.read_text().splitlines()
    # the field's value, or the estimate's first entry
    m = re.search(rf'"{field}": \[?([^,\]]+)', lines[1])
    new = str(int(m[1]) + 1) if field == "planned_len" else repr(float(m[1]) / 2)
    lines[1] = lines[1][:m.start(1)] + new + lines[1][m.end(1):]
    trace.write_text("\n".join(lines) + "\n")
    # the totals check does not read the field; the re-run does
    assert replay_check(out) == []
    [err] = replay_mismatches(out, capsys)
    assert err.startswith(f"{trace} line 2: ") and new in err


def test_replay_names_a_broken_line_then_a_corrupted_estimate_before_it(tmp_path, capsys):
    # the totals check reads every line before the re-run: a broken line
    # is named first, and the earlier estimate once that line is mended
    out = run_del(tmp_path)
    trace = out / "traces" / "del-0.jsonl"
    lines = trace.read_text().splitlines()
    corrupted = lines[1].replace('"alpha_snapshot": [', '"alpha_snapshot": [01, ', 1)
    trace.write_text("\n".join([lines[0], corrupted, lines[2], lines[3][:-1]] + lines[4:]) + "\n")
    [err] = replay_mismatches(out, capsys)
    assert err == f"del-0: {trace} line 4: not a whole trace record"
    trace.write_text("\n".join([lines[0], corrupted] + lines[2:]) + "\n")
    [err] = replay_mismatches(out, capsys)
    assert err.startswith(f"{trace} line 2: ")


def test_replay_reports_a_missing_or_extra_file(tmp_path, capsys):
    out = run_del(tmp_path)
    (out / "aggregate.csv").rename(out / "notes.csv")
    assert replay_mismatches(out, capsys) == [
        f"{out / 'aggregate.csv'}: missing; the re-run writes it",
        f"{out / 'notes.csv'}: the re-run writes no such file",
    ]


def test_oracle_negative_seed_is_usage_error(capsys):
    assert main(["oracle", "--alpha", "0.5", "--d", "2", "--seed", "-1"]) == 1
    assert "--seed" in capsys.readouterr().err


ORACLE_CHECKS = {"monte-carlo": ["--alpha", "0.5", "--d", "2", "--trials", "200"],
                 "distribution": ["--distribution-check", "--vocab", "3", "--horizon", "2",
                                  "--trials", "200"]}


@pytest.mark.parametrize("check", sorted(ORACLE_CHECKS))
@pytest.mark.parametrize("seed", [-1, 2**64, 10**31])
def test_oracle_seed_outside_64_bits_exits_1_naming_the_flag_on_both_paths(capsys, check, seed):
    assert main(["oracle"] + ORACLE_CHECKS[check] + ["--seed", str(seed)]) == 1
    err = capsys.readouterr().err
    assert f"--seed must be in [0, 2**64), got {seed}" in err


@pytest.mark.parametrize("check", sorted(ORACLE_CHECKS))
@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_oracle_seed_at_either_end_of_64_bits_runs_on_both_paths(capsys, check, seed):
    assert main(["oracle"] + ORACLE_CHECKS[check] + ["--seed", str(seed)]) in (0, 2)
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    # numpy's "Maximum allowed dimension exceeded"
    (["--alpha", "0.5", "--d", str(10**31)], "--d"),
    # a RecursionError in the enumeration
    (["--distribution-check", "--horizon", "1000"], "--horizon"),
    # vocab ** (horizon + d_max), computed before any work
    (["--distribution-check", "--horizon", str(10**31)], "--horizon"),
], ids=["d-huge", "horizon-deep", "horizon-huge"])
def test_oracle_sizes_past_their_bounds_exit_1_naming_the_flag(capsys, argv, flag):
    assert main(["oracle"] + argv) == 1
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err


# -- bad input of any kind ---------------------------------------------------------

NAN, INF = float("nan"), float("inf")
# wrong for most fields: not a number, not finite, fractional, negative, zero,
# past every bound, or a list where one value is wanted
BAD_TEXT = ["", "x", "nan", "inf", "-inf", "-1", "0", "1", "2.5", "1e308", "-0.0",
            "99999999999999999999", "-99999999999999999999", "1,2", "0..3", "3..0",
            "1..99999999999", "-99999999999..2", "1..2..3", ",,"]
# the same as config file values, of every JSON type
BAD_JSON = [None, True, False, "x", "", -1, 0, 1, 2.5, 1e308, NAN, INF, -INF, 2**70, -(2**70),
            [], {}, [1, 2], {"kind": "x"}, [[1]], "0.5"]
# fields whose valid values set the work a run does, with the largest value
# each takes: they take small ints, so that a valid value keeps the run
# short, or the wrong kinds of value
SIZE_FIELDS = {"L": 6, "V": 16, "d_max": 8, "max_new_tokens": 8, "prompts": 2, "prompt_len": 8}
SIZE_FLAGS = {"--L": 6, "--V": 16, "--d-max": 8, "--max-new-tokens": 8, "--prompts": 2,
              "--prompt-len": 8, "--trials": 200, "--vocab": 4, "--horizon": 2}
SIZE_TEXT = [t for t in BAD_TEXT if not t.lstrip("-").isdigit()]
SIZE_JSON = [v for v in BAD_JSON if not (isinstance(v, (int, float)) and abs(v) > 100)]
PROFILE = [0.3, 0.9, 0.3, 0.3, 0.3, 1.0]
# malformed model parts: NaN and out-of-range entries, short rows, bad laws
BAD_MODEL_PARTS = [
    [0.5, NAN, 0.3, 0.3, 0.3, 1.0], [0.5, 1.5, 0.3, 0.3, 0.3, 1.0], PROFILE[:5], PROFILE[:5] + [0.9],
    [[4, PROFILE], [4, PROFILE[:2] + [NAN] + PROFILE[3:]]], [[0, PROFILE]], [[2.5, PROFILE]],
    [[4]], [[4, PROFILE, 1]], {"kind": "table", "probs": [[NAN] * 8] * 8},
    {"kind": "table", "probs": [[0.5] * 8] * 8}, {"kind": "table", "probs": [[1.0] + [0.0] * 7]},
    {"kind": "dirichlet", "concentration": NAN}, {"kind": "next_map", "map": [9] * 8},
    {"kind": "next_map", "map": [1.5] * 8}, {"kind": "uniform"}, {"kind": "shift", "by": NAN},
    {"dist": "beta", "a": NAN, "b": 1}, {"dist": "beta", "a": INF, "b": 1},
    {"dist": "fixed", "value": NAN}, {"dist": "fixed", "value": 1.5},
    {"dist": "uniform", "lo": NAN}, {"dist": "uniform", "lo": 0.9, "hi": 0.1}, {"dist": "x"},
]

SECTION_KEYS = {
    "session": ["L", "V", "d_max", "omega", "prefill_window", "max_new_tokens", "decode_mode",
                "seed", "draft_cap_mode", "alpha_clamp_eps", "default_threshold", "bogus"],
    "model": ["kind", "base_process", "agreement_profile", "confidence_match",
              "confidence_mismatch", "regimes", "horizon", "context_hash_window", "bogus"],
    "run": ["policy", "policies", "exit_layer", "gamma", "dv_target_rate", "dv_step", "dv_threshold",
            "prompts", "prompt_len", "del_per_layer_window", "bogus"],
}
# run.policies lists: well formed, and with a bad name, parameter or shape
POLICY_LISTS = [
    [["del", {}]], [["vanilla", {}], ["ls", {"exit_layer": 2, "gamma": 2}]],
    [["dv", {"exit_layer": 2, "threshold": 0.3}], ["fs", {"exit_layer": 1, "gamma": 1}]],
    [["ls", {"exit_layer": 9, "gamma": 2}]], [["ls", {"exit_layer": 2, "gamma": NAN}]],
    [["dv", {"exit_layer": 2, "step": INF}]], [["dv", {"exit_layer": 2, "thresold": 0.3}]],
    [["del", {}], ["del", {}]], [["del", {"cfg": 1}]], [["del"]], [["del", {}, 1]], [[None, {}]],
]
MODEL_FLAGS = ["--model-kind", "--profile"]
SESSION_FLAG_NAMES = [flag for flag, _, _ in SESSION_FLAGS]
COMMAND_FLAGS = {
    "run": SESSION_FLAG_NAMES + MODEL_FLAGS + [
        "--policy", "--exit-layer", "--gamma", "--dv-target-rate", "--dv-step", "--dv-threshold",
        "--prompts", "--prompt-len"],
    "sweep": SESSION_FLAG_NAMES + MODEL_FLAGS + [
        "--ell", "--d", "--segment-len", "--prompts", "--prompt-len"],
    "omega-sweep": SESSION_FLAG_NAMES + MODEL_FLAGS + ["--omegas", "--prompts", "--prompt-len"],
    "oracle": ["--alpha", "--d", "--trials", "--vocab", "--horizon", "--seed"],
}
WORDS = ["agreement", "regime_switching", "deterministic_toy", "greedy", "sampling", "algorithm1",
         "plan_capped", "vanilla", "ls", "fs", "dv", "del"]


def _flag_value(command: str, flag: str):
    # oracle's --d sizes its Monte-Carlo draws; sweep's --d is a range
    bound = 8 if (command, flag) == ("oracle", "--d") else SIZE_FLAGS.get(flag)
    if bound is not None:
        return st.one_of(st.sampled_from(SIZE_TEXT), st.integers(-2, bound).map(str))
    lists = st.lists(st.sampled_from(["0.5", "1", "0", "nan", "-0.1", "1.5", "inf", "x", "7", ""]),
                     min_size=1, max_size=8).map(",".join)
    return st.one_of(st.sampled_from(BAD_TEXT + WORDS), lists,
                     st.integers(-(2**65), 2**65).map(str))


def _config_value(key: str):
    if key in SIZE_FIELDS:
        return st.one_of(st.sampled_from(SIZE_JSON), st.integers(-2, SIZE_FIELDS[key]))
    if key == "policies":
        return st.sampled_from(POLICY_LISTS + BAD_JSON + BAD_MODEL_PARTS)
    return st.sampled_from(BAD_JSON + BAD_MODEL_PARTS + WORDS)


@st.composite
def bad_invocations(draw):
    """A small valid invocation of a command and its config file, with one
    to three flags or config fields (or whole sections) set to bad values."""
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    policy = draw(st.sampled_from(["vanilla", "ls", "fs", "dv", "del"]))
    config = {
        "session": {"L": 6, "V": 8, "seed": 7, "max_new_tokens": 8, "prefill_window": 4,
                    "d_max": 4, "decode_mode": draw(st.sampled_from(["greedy", "sampling"]))},
        "model": {"kind": "agreement", "agreement_profile": list(PROFILE)},
        "run": {"policy": policy, "exit_layer": 2, "gamma": 2, "prompts": 2, "prompt_len": 4},
    }
    argv = {
        "run": [command],
        "sweep": [command, "--ell", "1..2", "--d", "0,2"],
        "omega-sweep": [command, "--omegas", "0.5,1.0"],
        "oracle": [command, "--alpha", "0.5", "--d", "2", "--trials", "200", "--vocab", "3",
                   "--horizon", "1"] + draw(st.sampled_from([[], ["--distribution-check"]])),
    }[command]
    for _ in range(draw(st.integers(1, 3))):
        where = draw(st.sampled_from(["flag", "field", "section"] if command != "oracle" else ["flag"]))
        if where == "flag":
            flag = draw(st.sampled_from(COMMAND_FLAGS[command]))
            argv += [flag, draw(_flag_value(command, flag))]
        elif where == "field":
            section = draw(st.sampled_from(sorted(SECTION_KEYS)))
            key = draw(st.sampled_from(SECTION_KEYS[section]))
            if isinstance(config[section], dict):
                config[section][key] = draw(_config_value(key))
                if key == "policies":
                    # a list stands in for the policy and its parameter keys
                    for single in ("policy", "exit_layer", "gamma"):
                        config[section].pop(single, None)
        else:
            config[draw(st.sampled_from(sorted(SECTION_KEYS)))] = draw(st.sampled_from(BAD_JSON))
    return argv, config


@settings(max_examples=300, deadline=None)
@given(bad_invocations())
def test_bad_flags_and_config_sections_end_in_an_exit_code(invocation):
    argv, config = invocation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if argv[0] != "oracle":
            path = Path(tmp) / "exp.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path), "--out", str(Path(tmp) / "out")]
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# -- the examples and the commands' arguments, mutated ------------------------------

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
# each example with the command it is written for
EXAMPLE_COMMANDS = {"compare_policies.json": "run", "deterministic_toy.json": "run",
                    "omega_sensitivity.json": "omega-sweep", "regime_adaptation.json": "run"}
# the fields whose valid values set the work a run does, set small; a mutant
# of one is invalid or small (``MUTANTS`` less its huge positive numbers),
# since a valid huge value legitimately runs for ever
SMALL_RUN = {("run", "prompts"): 1, ("run", "prompt_len"): 4, ("session", "max_new_tokens"): 8}
# type swaps, non-finite values, huge ints and floats, small ints, empty containers
MUTANTS = [None, True, "x", "", NAN, INF, -INF, 2**70, -(2**70), 10**31, 1e300, 1e308, -1e308,
           -1, 0, 1, [], {}, [1, 2]]
SMALL_MUTANTS = [v for v in MUTANTS if not (isinstance(v, (int, float)) and 100 < v < INF)]
# the arguments each command is given, and the flags whose values are mutated
ARGS = {
    "sweep": ["--ell", "1..2", "--d", "0,2"],
    "omega-sweep": ["--omegas", "0.5,1.0"],
    "oracle": ["--alpha", "0.5", "--d", "2", "--trials", "200", "--vocab", "3", "--horizon", "2"],
}
MUTATED_FLAGS = {
    "sweep": ["--ell", "--d", "--segment-len"],
    "omega-sweep": ["--omegas"],
    "oracle": ["--alpha", "--d", "--trials", "--vocab", "--horizon", "--seed"],
}
FLAG_MUTANTS = ["", "x", "nan", "inf", "-inf", "-1", "0", "1", "2.5", "1e308", str(10**31),
                str(-(10**31)), "1..2", "0..3", "3..0", "1,2", ",,", "0.5,x"]


def _example(name: str) -> dict:
    config = json.loads((EXAMPLES / name).read_text())
    for (section, key), value in SMALL_RUN.items():
        config[section][key] = value
    return config


def _paths(value, path=()):
    """Every field of a config below ``path``: object keys and list
    indices, not descending into a transition table."""
    if path:
        yield path
    if path and path[-1] == "probs":
        return
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _paths(sub, path + (key,))


def field_name(path: tuple) -> str:
    """How an error names the field at ``path``: its last run of object
    keys, without the section unless the section is the field, so
    ``model.confidence_match.b`` is ``confidence_match.b`` and
    ``run.policies[1][1].gamma`` is ``gamma``."""
    parts = list(path[1:] or path)
    while isinstance(parts[-1], int):
        parts.pop()
    names = []
    for part in reversed(parts):
        if isinstance(part, int):
            break
        names.insert(0, part)
    return ".".join(names)


def mutated(name: str, edits: dict) -> dict:
    """Example ``name``, made small, with the value at each path of
    ``edits`` replaced."""
    config = _example(name)
    for path, value in edits.items():
        parent = config
        for part in path[:-1]:
            parent = parent[part]
        parent[path[-1]] = value
    return config


EXAMPLE_PATHS = {name: list(_paths(_example(name))) for name in EXAMPLE_COMMANDS}


# a result directory's damage: the kind, and what it is given
BAD_CONFIG_TEXT = ["", "{", "x", "[]", "null", '{"session": 1}', '{"session": {"L": "x"}}']
REPLAY_DAMAGE = ["no-config", "bad-config", "summary", "trace-edit", "trace-cut", "no-traces",
                 "file"]


@st.composite
def result_dir_damage(draw):
    """One kind of damage to a result directory (``damaged_result_dir``):
    config.json missing or not JSON, a summary cell or a trace line edited,
    a trace line cut, traces/ missing, or ``--dir`` naming a file."""
    kind = draw(st.sampled_from(REPLAY_DAMAGE))
    if kind == "bad-config":
        return kind, draw(st.sampled_from(BAD_CONFIG_TEXT))
    if kind == "summary":
        return kind, (draw(st.integers(1, 5)), draw(st.integers(0, 7)),
                      draw(st.sampled_from(FLAG_MUTANTS)))
    if kind in ("trace-edit", "trace-cut"):
        return kind, (draw(st.integers(0, 4)), draw(st.integers(0, 99)),
                      draw(st.integers(0, 999)), draw(st.sampled_from(FLAG_MUTANTS)))
    return kind, None


def damaged_result_dir(clean: Path, tmp: Path, damage) -> Path:
    """A copy of the result directory ``clean`` under ``tmp`` with
    ``damage`` done to it, and the path ``replay --dir`` is given. An
    index past the rows, lines or characters there wraps round."""
    kind, arg = damage
    out = tmp / "out"
    shutil.copytree(clean, out)
    if kind == "no-config":
        (out / "config.json").unlink()
    elif kind == "bad-config":
        (out / "config.json").write_text(arg)
    elif kind == "summary":
        row, col, value = arg
        lines = (out / "summary.csv").read_text().split("\n")
        cells = lines[row].split(",")
        cells[col % len(cells)] = value
        lines[row] = ",".join(cells)
        (out / "summary.csv").write_text("\n".join(lines))
    elif kind in ("trace-edit", "trace-cut"):
        trace, line, pos, value = arg
        traces = sorted((out / "traces").iterdir())
        path = traces[trace % len(traces)]
        lines = path.read_text().split("\n")
        line %= len(lines) - 1  # the text after the last newline is empty
        text = lines[line]
        pos %= len(text) + 1
        lines[line] = text[:pos] if kind == "trace-cut" else text[:pos] + value + text[pos + 1:]
        path.write_text("\n".join(lines))
    elif kind == "no-traces":
        shutil.rmtree(out / "traces")
    elif kind == "file":
        return out / "summary.csv"
    return out


@pytest.fixture(scope="module")
def result_dir(tmp_path_factory) -> Path:
    """A small example's result directory, as ``delsim run`` writes it."""
    tmp = tmp_path_factory.mktemp("result")
    path = tmp / "exp.json"
    path.write_text(json.dumps(_example("compare_policies.json")))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--config", str(path), "--out", str(tmp / "out")]) == 0
    return tmp / "out"


@st.composite
def mutated_invocations(draw):
    """A command, its config (or None) and the names one of which an exit-1
    message must hold: an example run with one or two of its fields
    mutated, a command with one or two of its own flags mutated, or
    ``replay`` on a damaged result directory (its damage for a config)."""
    command = draw(st.sampled_from(["run", "run", "sweep", "omega-sweep", "oracle", "replay"]))
    if command == "replay":
        return ["replay"], draw(result_dir_damage()), ["--dir"]
    if command == "run":
        name = draw(st.sampled_from(sorted(EXAMPLE_COMMANDS)))
        edits = {}
        for _ in range(draw(st.integers(1, 2))):
            path = draw(st.sampled_from(EXAMPLE_PATHS[name]))
            # no path inside another's: each edit lands where it was drawn
            if any(path[: len(p)] == p or p[: len(path)] == path for p in edits):
                continue
            edits[path] = draw(st.sampled_from(SMALL_MUTANTS if path in SMALL_RUN else MUTANTS))
        argv = [EXAMPLE_COMMANDS[name]] + ARGS.get(EXAMPLE_COMMANDS[name], [])
        return argv, mutated(name, edits), [field_name(p) for p in edits]
    argv = [command] + ARGS[command]
    config = None if command == "oracle" else _example(
        draw(st.sampled_from(sorted(EXAMPLE_COMMANDS))))
    if command == "oracle" and draw(st.booleans()):
        argv.append("--distribution-check")
    flags = []
    for _ in range(draw(st.integers(1, 2))):
        flag = draw(st.sampled_from(MUTATED_FLAGS[command]))
        mutants = [m for m in FLAG_MUTANTS if flag != "--trials" or m != str(10**31)]
        argv += [flag, draw(st.sampled_from(mutants))]
        flags.append(flag)
    return argv, config, flags


# the named beta and oracle cases above, as mutants
BIG_BETA_B = mutated("compare_policies.json", {("model", "confidence_match", "b"): 1e308})
BIG_BETA_AB = mutated("compare_policies.json", {("model", "confidence_match", "a"): 1e300,
                                                ("model", "confidence_match", "b"): 1e300})


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mutated_invocations())
@example((["run"], BIG_BETA_B, ["confidence_match.b"]))
@example((["run"], BIG_BETA_AB, ["confidence_match.a", "confidence_match.b"]))
@example((["oracle", "--alpha", "0.5", "--d", str(10**31)], None, ["--d"]))
@example((["oracle", "--distribution-check", "--horizon", "1000"], None, ["--horizon"]))
@example((["oracle", "--distribution-check", "--horizon", str(10**31)], None, ["--horizon"]))
@example((["replay"], ("no-config", None), ["--dir"]))
@example((["replay"], ("bad-config", "{"), ["--dir"]))
@example((["replay"], ("summary", (1, 3, "x")), ["--dir"]))
@example((["replay"], ("trace-edit", (0, 0, 2, "x")), ["--dir"]))
@example((["replay"], ("trace-cut", (0, 0, 5, "")), ["--dir"]))
@example((["replay"], ("no-traces", None), ["--dir"]))
@example((["replay"], ("file", None), ["--dir"]))
def test_mutated_examples_and_arguments_exit_0_1_or_2_naming_the_field(result_dir, invocation):
    argv, config, names = invocation
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        if argv[0] == "replay":
            argv = argv + ["--dir", str(damaged_result_dir(result_dir, Path(tmp), config))]
        elif config is not None:
            path = Path(tmp) / "exp.json"
            path.write_text(json.dumps(config))
            argv = argv + ["--config", str(path), "--out", str(Path(tmp) / "out")]
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        # a flag that sets a session field may be named by the field
        assert any(n in err.getvalue() or n.lstrip("-").replace("-", "_") in err.getvalue()
                   for n in names), err.getvalue()

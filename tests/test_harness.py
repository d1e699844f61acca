import json
from collections import Counter
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import TIGHT_CONF, make_cfg, profile_with, toy_spec

from delsim import harness
from delsim.baselines import make_policy
from delsim.cli import main
from delsim.config import GREEDY, SAMPLING, ConfigError
from delsim.engine import CostLedger
from delsim.harness import (
    bootstrap_ci,
    compute_etpl,
    expected_tokens_closed_form,
    grid_sweep,
    make_prompts,
    mc_expected_tokens,
    omega_sweep,
    replay_check,
    run_experiment,
    run_session,
    trace_totals,
    write_grid_csv,
    write_trace,
)
from delsim.model import AGREEMENT, REGIME_SWITCHING, LayeredModel, ModelSpec, build_model
from delsim.types import InvariantViolation
from reference import TRACE_RECORD


def spec_with_profile(profile, **over) -> ModelSpec:
    return ModelSpec(kind=AGREEMENT, agreement_profile=tuple(profile), **{**TIGHT_CONF, **over})


# -- etpl ---------------------------------------------------------------------

def test_compute_etpl_ratio():
    assert compute_etpl(CostLedger(tokens_emitted=300, layers_loaded=3000)) == 0.1


def test_compute_etpl_rejects_zero_layers():
    with pytest.raises(ValueError):
        compute_etpl(CostLedger())


# -- monte carlo oracle ----------------------------------------------------------

def test_mc_expected_tokens_anchor():
    got = mc_expected_tokens(0.5, 2, 1_000_000, seed=1)
    assert got == pytest.approx(1.75, rel=0.01)


def test_mc_expected_tokens_degenerate_cases():
    assert mc_expected_tokens(0.0, 5, 1000) == 1.0
    assert mc_expected_tokens(1.0, 5, 1000) == 6.0
    assert mc_expected_tokens(0.3, 0, 1000) == 1.0


def test_mc_expected_tokens_draws_bounded_blocks_equal_to_one_block(monkeypatch):
    alpha, d, trials = 0.9, 64, 3 * (250_000 // 64) + 5
    # one block of every trial: what the oracle drew before it bounded its blocks
    flags = np.random.default_rng(3).random((trials, d)) < alpha
    want = np.logical_and.accumulate(flags, axis=1).sum() / trials + 1.0
    blocks = []
    real = np.random.default_rng

    class Recording:
        def __init__(self, seed):
            self.rng = real(seed)

        def random(self, shape):
            blocks.append(shape)
            return self.rng.random(shape)

    monkeypatch.setattr(np.random, "default_rng", Recording)
    assert mc_expected_tokens(alpha, d, trials, seed=3) == want
    assert len(blocks) >= 4 and sum(n for n, _ in blocks) == trials
    assert all(n * width <= 250_000 for n, width in blocks)


def test_mc_expected_tokens_validation():
    with pytest.raises(ValueError):
        mc_expected_tokens(0.5, 2, 0)
    with pytest.raises(ValueError):
        mc_expected_tokens(1.5, 2, 10)


def test_closed_form_matches_geometric_sum():
    for alpha in (0.0, 0.3, 0.99, 1.0):
        for d in (0, 1, 7):
            assert expected_tokens_closed_form(alpha, d) == pytest.approx(
                sum(alpha**i for i in range(d + 1))
            )


# -- grid sweep -------------------------------------------------------------------

def test_grid_sweep_finds_the_specialist_layer_stably():
    profile = [0.15] * 8
    profile[4] = 0.95
    profile[7] = 1.0
    spec = spec_with_profile(profile)
    ells = [1, 2, 3, 4, 5, 6, 7]
    ds = [0, 1, 2, 4, 6, 9, 12]
    for seed in (3, 4):
        cfg = make_cfg(L=8, V=32, seed=seed, max_new_tokens=96)
        grid = grid_sweep(spec, cfg, ells, ds, 4, 16)
        best_ell, best_d, best_val = grid.best_cell()
        assert best_ell == 5, f"seed {seed}"
        assert best_d > 0
    # vanilla column is exactly 1/L in every cell
    assert np.allclose(grid.values[0, :, 0], 1 / cfg.L)


def test_grid_sweep_rejects_empty_ranges():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        grid_sweep(spec_with_profile(profile_with(8, best=2)), cfg, [], [0], 1, 8)


@pytest.mark.parametrize("segment_len", [0, -4])
@pytest.mark.parametrize("mode", [GREEDY, SAMPLING])
def test_grid_sweep_rejects_a_segment_len_below_one(segment_len, mode):
    cfg = make_cfg(L=4, V=8, max_new_tokens=8, decode_mode=mode)
    with pytest.raises(ConfigError, match=f"segment_len .--segment-len. must be >= 1, got {segment_len}"):
        grid_sweep(spec_with_profile((0.5, 0.5, 0.5, 1.0)), cfg, [1], [2], 1, 4, segment_len=segment_len)


def test_segmented_sweep_tracks_regime_change(tmp_path):
    # regime A favors layer 2, regime B favors layer 5: per-segment grids of a
    # two-segment run must disagree about the best layer
    L = 8
    profA = [0.15] * L
    profA[1] = 0.95
    profA[7] = 1.0
    profB = [0.15] * L
    profB[4] = 0.95
    profB[7] = 1.0
    cfg = make_cfg(L=L, V=32, seed=5, max_new_tokens=128, prefill_window=16)
    spec = ModelSpec(
        kind=REGIME_SWITCHING,
        regimes=((16 + 64, tuple(profA)), (10**6, tuple(profB))),
        **TIGHT_CONF,
    )
    grid = grid_sweep(spec, cfg, [1, 2, 3, 4, 5, 6], [2, 4, 6], 4, 16, segment_len=64)
    assert grid.segments == 2
    bestA = grid.best_cell(segment=0)
    bestB = grid.best_cell(segment=1)
    assert bestA[0] == 2
    assert bestB[0] == 5
    write_grid_csv(grid, tmp_path / "grid.csv")
    text = (tmp_path / "grid.csv").read_text()
    assert text.count("segment") == 2


# -- omega sweep -------------------------------------------------------------------

def test_omega_sweep_stationary_insensitivity():
    from conftest import STABLE_CONF

    cfg = make_cfg(L=8, V=32, seed=8, max_new_tokens=384)
    spec = spec_with_profile(profile_with(8, best=1, peak=0.95), **STABLE_CONF)
    rows = omega_sweep(spec, cfg, [0.5, 0.8, 0.95, 1.0], 3, 16)
    speedups = [r["sim_speedup"] for r in rows]
    assert max(speedups) > 1.5  # drafting actually helps
    assert (max(speedups) - min(speedups)) / max(speedups) < 0.05
    w1 = next(r for r in rows if r["omega"] == 1.0)
    w95 = next(r for r in rows if r["omega"] == 0.95)
    assert abs(w1["sim_speedup"] - w95["sim_speedup"]) / w1["sim_speedup"] < 0.02


def test_omega_zero_switches_exits_more_than_default():
    L = 8
    profA = profile_with(L, best=2, base=0.25)
    profB = profile_with(L, best=5, base=0.25)
    cfg = make_cfg(L=L, V=32, seed=13, max_new_tokens=512, prefill_window=16)
    spec = ModelSpec(
        kind=REGIME_SWITCHING,
        regimes=((128, profA), (128, profB)),
        **TIGHT_CONF,
    )
    rows = omega_sweep(spec, cfg, [0.0, 0.95], 3, 16)
    by_omega = {r["omega"]: r["exit_switches"] for r in rows}
    assert by_omega[0.0] > by_omega[0.95]


def per_omega_reference(spec, cfg, omegas, n_prompts, prompt_len) -> list[dict]:
    """omega_sweep's rows from one model and one batch of sessions per omega."""
    from delsim import derive_seed, make_policy, run_session

    rows = []
    for omega in omegas:
        cfg_w = cfg.replace(omega=omega)
        model = build_model(spec, cfg_w)
        tokens = layers = switches = 0
        for i, prompt in enumerate(make_prompts(model, cfg_w, n_prompts, prompt_len)):
            seed = derive_seed(cfg.seed, "engine", "del", i)
            res = run_session(model, make_policy("del", cfg_w), cfg_w, prompt, seed)
            tokens += res.ledger.tokens_emitted
            layers += res.ledger.layers_loaded
            es = [rec["E"] for rec in res.records]
            switches += sum(a != b for a, b in zip(es, es[1:]))
        rows.append({"omega": omega, "etpl": tokens / layers,
                     "sim_speedup": tokens / layers * cfg.L, "exit_switches": switches})
    return rows


@pytest.mark.parametrize("mode, max_new_tokens", [("greedy", 256), (SAMPLING, 48)])
def test_omega_sweep_equals_per_omega_runs_and_steps_each_context_once(
    mode, max_new_tokens, monkeypatch, draws
):
    from delsim.model import LayeredModel

    cfg = make_cfg(L=16, V=64, seed=3, max_new_tokens=max_new_tokens, prefill_window=16,
                   decode_mode=mode)
    spec = spec_with_profile(profile_with(16, best=3))
    omegas = [0.5, 0.7, 0.9, 0.95, 1.0]
    expected = per_omega_reference(spec, cfg, omegas, 4, 16)
    draws.clear()

    stepped: set[tuple] = set()
    real_step = LayeredModel.step

    def step(self, context, prev=None):
        stepped.add(tuple(context))
        return real_step(self, context, prev)

    monkeypatch.setattr(LayeredModel, "step", step)
    assert omega_sweep(spec, cfg, omegas, 4, 16) == expected
    if mode == "greedy":
        # every omega's session on a prompt walks one path, and the memo
        # computes each context the sweep steps once
        assert len(draws) == len(stepped)


# -- run_experiment ----------------------------------------------------------------

def test_run_experiment_outputs_and_replay(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=17, max_new_tokens=96)
    spec = spec_with_profile(profile_with(8, best=2))
    out = tmp_path / "exp"
    reports = run_experiment(
        spec, cfg,
        [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 4}), ("del", {})],
        n_prompts=3, prompt_len=16, out_dir=out,
    )
    assert len(reports) == 9
    assert (out / "summary.csv").exists()
    assert (out / "aggregate.csv").exists()
    assert (out / "config.json").exists()
    assert (out / "traces" / "del-0.jsonl").exists()
    for r in reports:
        assert r.sim_speedup == r.etpl * cfg.L
    assert replay_check(out) == []

    vanilla = [r for r in reports if r.policy == "vanilla"]
    assert all(r.etpl == 1 / cfg.L for r in vanilla)


def test_run_experiment_rejects_a_repeated_policy_name(tmp_path):
    # the second ls would reuse the first's engine seeds and overwrite its
    # traces, and replay would then report the first's totals as wrong
    cfg = make_cfg(L=8, V=32, seed=17, max_new_tokens=32)
    spec = spec_with_profile(profile_with(8, best=2))
    policies = [("ls", {"exit_layer": 2, "gamma": 2}), ("ls", {"exit_layer": 6, "gamma": 6})]
    out = tmp_path / "exp"
    with pytest.raises(ConfigError, match=r"policy_specs\[1\] repeats policy 'ls'"):
        run_experiment(spec, cfg, policies, n_prompts=1, prompt_len=8, out_dir=out)
    assert not out.exists()


def test_run_experiment_is_byte_deterministic(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=23, max_new_tokens=64)
    spec = spec_with_profile(profile_with(8, best=2))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_experiment(spec, cfg, [("del", {})], 2, 16, out)
        outs.append(out)
    assert (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    for t in sorted((outs[0] / "traces").iterdir()):
        assert t.read_bytes() == (outs[1] / "traces" / t.name).read_bytes()


def test_run_experiment_losslessness_hook_fires(tmp_path, monkeypatch):
    import delsim.harness as harness

    cfg = make_cfg(L=8, V=32, seed=29, max_new_tokens=32)
    spec = spec_with_profile(profile_with(8, best=2))

    real = harness.run_session

    def corrupted(model, policy, cfg_, prompt, seed):
        res = real(model, policy, cfg_, prompt, seed)
        if getattr(policy, "name", "") == "ls":
            res.output = list(res.output)
            res.output[-1] = (res.output[-1] + 1) % cfg_.V
        return res

    monkeypatch.setattr(harness, "run_session", corrupted)
    with pytest.raises(InvariantViolation):
        run_experiment(spec, cfg, [("ls", {"exit_layer": 2, "gamma": 4})], 1, 8, tmp_path / "x")


def test_replay_detects_tampering(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=31, max_new_tokens=48)
    spec = spec_with_profile(profile_with(8, best=2))
    out = tmp_path / "exp"
    run_experiment(spec, cfg, [("ls", {"exit_layer": 2, "gamma": 4})], 1, 8, out)
    trace = out / "traces" / "ls-0.jsonl"
    lines = [json.loads(l) for l in trace.read_text().splitlines()]
    lines[0]["layers_loaded"] += 1
    trace.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
    errors = replay_check(out)
    assert errors and "layers" in errors[0]


def test_replay_reports_a_truncated_trace_line(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=31, max_new_tokens=48)
    spec = spec_with_profile(profile_with(8, best=2))
    out = tmp_path / "exp"
    run_experiment(spec, cfg, [("ls", {"exit_layer": 2, "gamma": 4}), ("del", {})], 1, 8, out)
    assert replay_check(out) == []
    trace = out / "traces" / "del-0.jsonl"
    lines = trace.read_text().splitlines()
    # cut the second record inside its alpha snapshot, after both totals
    cut = lines[1].index('"alpha_snapshot"') + 30
    trace.write_text("\n".join([lines[0], lines[1][:cut]] + lines[2:]) + "\n")
    errors = replay_check(out)
    assert len(errors) == 1
    assert errors[0].startswith("del-0: ") and "del-0.jsonl line 2" in errors[0]


@pytest.mark.parametrize("alpha", ["[0.5, nan]", "[0.5,", "[0.5]]", "[1,2]", "[01]", "[.5]", "[1e]",
                                   "[1.]", "[+1]"],
                         ids=["nan", "cut-off", "extra-bracket", "no-space", "leading-zero",
                              "no-integer-part", "no-exponent-digits", "no-fraction-digits", "plus"])
def test_replay_reports_a_corrupted_estimate(tmp_path, capsys, alpha):
    # an estimate outside the line pattern's characters breaks the line for
    # replay_check; one inside them differs from the re-run's line
    cfg = make_cfg(L=8, V=32, seed=31, max_new_tokens=48)
    spec = spec_with_profile(profile_with(8, best=2))
    out = tmp_path / "exp"
    run_experiment(spec, cfg, [("del", {})], 1, 8, out)
    trace = out / "traces" / "del-0.jsonl"
    lines = trace.read_text().splitlines()
    head, rest = lines[2].split('"alpha_snapshot": ')
    lines[2] = head + '"alpha_snapshot": ' + alpha + rest[rest.index("]") + 1:]
    trace.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--dir", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("replay mismatch: ")
    assert f"{trace} line 3" in err[0]


def test_replay_reports_an_edited_emitted_len(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=31, max_new_tokens=48)
    spec = spec_with_profile(profile_with(8, best=2))
    out = tmp_path / "exp"
    run_experiment(spec, cfg, [("del", {})], 1, 8, out)
    trace = out / "traces" / "del-0.jsonl"
    lines = trace.read_text().splitlines()
    rec = json.loads(lines[3])
    lines[3] = lines[3].replace(f'"emitted_len": {rec["emitted_len"]},',
                                f'"emitted_len": {rec["emitted_len"] + 1},')
    assert json.loads(lines[3])["emitted_len"] == rec["emitted_len"] + 1
    trace.write_text("\n".join(lines) + "\n")
    errors = replay_check(out)
    assert len(errors) == 1 and errors[0].startswith("del-0: tokens")


def test_sampling_mode_skips_losslessness_hook(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=37, max_new_tokens=32, decode_mode=SAMPLING)
    spec = spec_with_profile(profile_with(8, best=2))
    reports = run_experiment(spec, cfg, [("del", {})], 1, 8, tmp_path / "s")
    assert len(reports) == 1


# -- trace layout ------------------------------------------------------------------

TRACE_FIELDS = [name for name, _ in harness.TRACE_LAYOUT]

# floats whose repr or six-digit text changes notation or rounds
NOTABLE_FLOATS = (1e-05, 1e-06, 0.0001, 1e16, 5e-324, 0.1 + 0.2, 0.9999995, 1.0, 0.0)
trace_floats = st.sampled_from(NOTABLE_FLOATS) | st.floats(
    min_value=0.0, allow_nan=False, allow_infinity=False
)
trace_counts = st.integers(min_value=0)
# a record as the session loop builds one: counts, the plan's threshold (a
# float, or the int 0 a hand-built plan may carry), and a dynamic policy's
# estimate and window index or a baseline's two Nones
trace_records = st.tuples(
    *[trace_counts] * 7,
    st.just(0) | trace_floats,
    st.none() | st.lists(trace_floats, max_size=80),
    st.none() | trace_counts,
).map(lambda values: dict(zip(TRACE_FIELDS, values)))


@settings(max_examples=200, deadline=None)
@given(st.lists(trace_records, max_size=6))
def test_write_trace_writes_each_record_as_json(tmp_path_factory, records):
    # every field is exact JSON but the estimate, whose entries are printed
    # at six significant digits
    path = tmp_path_factory.getbasetemp() / "trace.jsonl"
    write_trace(path, records)
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) == len(records)
    for line, rec in zip(lines, records):
        # replay reads this line, and the v1 line that printed each entry's repr
        assert harness._RECORD.fullmatch(line.strip())
        assert harness._RECORD.fullmatch(json.dumps(rec))
        got = json.loads(line)
        assert list(got) == TRACE_FIELDS
        assert all(got[name] == rec[name] for name in TRACE_FIELDS if name != "alpha_snapshot")
        alpha = rec["alpha_snapshot"]
        if alpha is None:
            assert line == json.dumps(rec) + "\n"
            continue
        assert len(got["alpha_snapshot"]) == len(alpha)
        for printed, value in zip(got["alpha_snapshot"], alpha):
            assert abs(printed - value) <= 5e-6 * value
            assert (printed == 0) == (value == 0)
    assert trace_totals(path) == (
        sum(rec["emitted_len"] for rec in records),
        sum(rec["layers_loaded"] for rec in records),
    )


# what a mutation writes: the characters of a line, of an estimate's entries,
# and others a damaged file can hold (a non-ASCII digit among them)
MUTATION_CHARS = st.sampled_from(list('-0123456789.eE+, []{}":nulx') + ["\t", "\x00", "\u0663", "\u00e9"])


@settings(max_examples=300, deadline=None)
@given(
    rec=trace_records,
    alpha=st.none() | st.lists(trace_floats, min_size=1, max_size=80),
    edits=st.lists(st.tuples(st.booleans(), st.integers(0, 2**16),
                             st.sampled_from(["insert", "replace", "delete"]), MUTATION_CHARS),
                   max_size=4),
)
def test_a_mutated_trace_line_gets_the_character_class_patterns_verdict(tmp_path_factory, rec, alpha,
                                                                        edits):
    # the estimate's list is captured whole and its characters checked in one
    # pass; the reference pattern matches them one at a time. Each edit falls
    # anywhere in the line or inside the estimate's list
    if alpha is not None:
        rec = {**rec, "alpha_snapshot": alpha}
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    write_trace(path, [rec])
    line = path.read_text().rstrip("\n")
    for in_list, at, op, ch in edits:
        lo = line.find('"alpha_snapshot": [') + len('"alpha_snapshot": [')
        hi = line.find("]", lo)
        i = lo + at % (hi - lo + 1) if in_list and lo < hi else at % (len(line) + 1)
        line = line[:i] + ("" if op == "delete" else ch) + line[i + (op != "insert"):]
    path.write_text(line)
    want = TRACE_RECORD.fullmatch(line.strip())
    if want is None:
        with pytest.raises(ValueError, match="line 1: not a whole trace record"):
            trace_totals(path)
    else:
        assert trace_totals(path) == (int(want["emitted_len"]), int(want["layers_loaded"])), line


@pytest.mark.parametrize("mode", [GREEDY, SAMPLING])
def test_run_session_records_follow_the_trace_layout(mode):
    cfg = make_cfg(L=8, V=32, seed=5, max_new_tokens=48, prefill_window=8, decode_mode=mode)
    model = build_model(spec_with_profile(profile_with(8, best=2)), cfg)
    prompt = make_prompts(model, cfg, 1, 8)[0]
    policies = [
        ("vanilla", {}),
        ("ls", {"exit_layer": 2, "gamma": 4}),
        ("fs", {"exit_layer": 2, "gamma": 4}),
        ("dv", {"exit_layer": 2}),
        ("del", {}),
    ]
    for name, params in policies:
        res = run_session(model, make_policy(name, cfg, **params), cfg, prompt, 3)
        assert res.records
        assert all(list(rec) == TRACE_FIELDS for rec in res.records), name


@pytest.mark.parametrize("kind", [AGREEMENT, "deterministic_toy"])
@pytest.mark.parametrize("prompt, position", [([1, 2, -1], 2), ([8, 1], 0), ([3, 7, 1, 9], 3)])
def test_run_session_rejects_a_prompt_token_outside_the_vocabulary(kind, prompt, position):
    cfg = make_cfg(L=4, V=8, max_new_tokens=8)
    spec = spec_with_profile((0.5, 0.5, 0.5, 1.0)) if kind == AGREEMENT else toy_spec(cfg.L, cfg.V)
    model = build_model(spec, cfg)
    for name in ("vanilla", "del"):
        with pytest.raises(ConfigError, match=f"prompt token {prompt[position]} at position {position} "
                                              r"is outside \[0, 8\)"):
            run_session(model, make_policy(name, cfg), cfg, prompt, 1)


# -- misc --------------------------------------------------------------------------

@pytest.mark.parametrize("memo", [False, True])
def test_greedy_vanilla_output_is_the_greedy_path(memo):
    from delsim.baselines import VanillaPolicy
    from delsim.harness import run_session, vanilla_reference
    from delsim.model import LayeredModel, step_memo_capacity

    cfg = make_cfg(L=8, V=32, seed=43, max_new_tokens=40)
    spec = spec_with_profile(profile_with(8, best=2))
    model = LayeredModel(spec, cfg.L, cfg.V, 5, step_memo_capacity(cfg) if memo else 0)
    for prompt in make_prompts(model, cfg, 3, 10):
        chain = model.argmax_chain(prompt, cfg.max_new_tokens)
        path = [model.step(prompt + chain[:k]).target_token for k in range(len(chain))]
        out = run_session(model, VanillaPolicy(cfg), cfg, prompt, 5).output
        assert out == path == chain == vanilla_reference(model, cfg, prompt)


def test_make_prompts_shared_and_deterministic():
    cfg = make_cfg(L=8, V=32, seed=41)
    model = build_model(spec_with_profile(profile_with(8, best=2)), cfg)
    a = make_prompts(model, cfg, 3, 12)
    b = make_prompts(model, cfg, 3, 12)
    assert a == b
    assert len({tuple(p) for p in a}) == 3


def test_bootstrap_ci_brackets_mean():
    vals = list(np.random.default_rng(0).normal(5, 1, 200))
    lo, hi = bootstrap_ci(vals, seed=1)
    assert lo < float(np.mean(vals)) < hi
    assert hi - lo < 1.0


# -- greedy sweep walk against per-cell sessions ------------------------------------

def reference_grid(spec, cfg, ells, ds, n_prompts, prompt_len, segment_len=None):
    """The sweep as one static-policy session per cell and prompt, windows
    attributed by each round's first emitted token. Returns the values and,
    per cell, the longest context any of its rounds reaches: a round after
    p emitted tokens drafts g and verifies up to context length
    ``len(prompt) + p + g``, which its records give."""
    import math

    from delsim.baselines import make_policy
    from delsim.config import derive_seed
    from delsim.harness import run_session

    model = build_model(spec, cfg)
    prompts = make_prompts(model, cfg, n_prompts, prompt_len)
    n_seg = 1 if segment_len is None else math.ceil(cfg.max_new_tokens / segment_len)
    values = np.zeros((n_seg, len(ells), len(ds)))
    reach = {}
    for a, ell in enumerate(ells):
        for b, d in enumerate(ds):
            reach[(ell, d)] = 0
            per_prompt = np.zeros((n_seg, n_prompts))
            for i, prompt in enumerate(prompts):
                policy = make_policy("ls", cfg, exit_layer=ell, gamma=d)
                res = run_session(model, policy, cfg, prompt, derive_seed(cfg.seed, "sweep", ell, d, i))
                tok = np.zeros(n_seg)
                lay = np.zeros(n_seg)
                before = 0
                for rec in res.records:
                    reach[(ell, d)] = max(reach[(ell, d)], len(prompt) + before + rec["g"])
                    seg = 0 if segment_len is None else min(before // segment_len, n_seg - 1)
                    tok[seg] += rec["emitted_len"]
                    lay[seg] += rec["layers_loaded"]
                    before += rec["emitted_len"]
                with np.errstate(invalid="ignore", divide="ignore"):
                    per_prompt[:, i] = np.where(lay > 0, tok / np.maximum(lay, 1), np.nan)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                values[:, a, b] = np.nanmean(per_prompt, axis=1)
    return values, reach


def _specialist_l32():
    L = 32
    profile = [0.3] * L
    profile[1] = 0.95
    profile[-1] = 1.0
    from conftest import STABLE_CONF

    return ModelSpec(kind=AGREEMENT, agreement_profile=tuple(profile), **STABLE_CONF)


def _regime_switching_l8():
    L = 8
    profA = [0.15] * L
    profA[1] = 0.95
    profA[7] = 1.0
    profB = [0.15] * L
    profB[4] = 0.95
    profB[7] = 1.0
    return ModelSpec(kind=REGIME_SWITCHING, regimes=((40, tuple(profA)), (40, tuple(profB))), **TIGHT_CONF)


SWEEP_CASES = {
    "specialist-L32": (
        _specialist_l32, dict(L=32, V=64, seed=3, max_new_tokens=32), range(1, 13), range(0, 13), 2, 32, None,
    ),
    "regime-segmented": (
        _regime_switching_l8, dict(L=8, V=32, seed=5, max_new_tokens=96), range(1, 8), (0, 1, 3, 6), 3, 16, 32,
    ),
    "toy": (
        lambda: toy_spec(6, 16), dict(L=6, V=16, seed=3, max_new_tokens=40),
        range(1, 6), (0, 2, 7), 2, 8, 16,
    ),
    "d-max-is-largest-d": (
        lambda: spec_with_profile(profile_with(8, best=3)), dict(L=8, V=32, seed=9, max_new_tokens=50, d_max=4),
        range(1, 8), range(0, 5), 3, 12, 20,
    ),
    "sampling": (
        lambda: spec_with_profile(profile_with(8, best=2)),
        dict(L=8, V=16, seed=4, max_new_tokens=30, decode_mode=SAMPLING), (1, 2, 5), (0, 3), 2, 8, 10,
    ),
}


@pytest.mark.parametrize("case", list(SWEEP_CASES))
def test_grid_sweep_equals_per_cell_sessions(case):
    make_spec, over, ells, ds, n_prompts, prompt_len, segment_len = SWEEP_CASES[case]
    spec = make_spec()
    cfg = make_cfg(**over)
    expected, _ = reference_grid(spec, cfg, list(ells), list(ds), n_prompts, prompt_len, segment_len)
    grid = grid_sweep(spec, cfg, ells, ds, n_prompts, prompt_len, segment_len)
    assert grid.values.shape == expected.shape
    assert grid.values.tobytes() == expected.tobytes()


def test_grid_sweep_horizon_matches_the_session_loop():
    import dataclasses

    spec = spec_with_profile(profile_with(8, best=2))
    cfg = make_cfg(L=8, V=32, seed=21, max_new_tokens=24)
    ells, ds = [1, 2], [0, 2, 7]
    values, reach = reference_grid(spec, cfg, ells, ds, 2, 10)
    top = max(reach.values())
    # one cell alone drafts to the longest context
    assert sum(r == top for r in reach.values()) == 1

    at_reach = dataclasses.replace(spec, horizon=top)
    assert grid_sweep(at_reach, cfg, ells, ds, 2, 10).values.tobytes() == values.tobytes()

    short = dataclasses.replace(spec, horizon=top - 1)
    with pytest.raises(ValueError, match="exceeds horizon"):
        reference_grid(short, cfg, ells, ds, 2, 10)
    with pytest.raises(ValueError, match="exceeds horizon"):
        grid_sweep(short, cfg, ells, ds, 2, 10)


@st.composite
def greedy_sweeps(draw):
    """A greedy sweep: its model spec, config, cells, prompts and windows,
    and an offset of the horizon from the longest context its sessions step."""
    L = draw(st.integers(2, 32))
    kind = draw(st.sampled_from([AGREEMENT, REGIME_SWITCHING, "deterministic_toy"]))
    levels = st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0])

    def profile():
        return tuple(draw(st.lists(levels, min_size=L - 1, max_size=L - 1))) + (1.0,)

    if kind == AGREEMENT:
        spec = ModelSpec(kind=kind, agreement_profile=profile())
    elif kind == REGIME_SWITCHING:
        spec = ModelSpec(kind=kind, regimes=tuple((draw(st.integers(1, 20)), profile()) for _ in range(2)))
    d_max = draw(st.integers(1, 12))
    cfg = make_cfg(L=L, V=draw(st.sampled_from([2, 5, 32])), seed=draw(st.integers(0, 2**16)),
                   max_new_tokens=draw(st.integers(1, 40)), d_max=d_max)
    if kind == "deterministic_toy":
        spec = toy_spec(L, cfg.V)
    ells = sorted(draw(st.sets(st.integers(1, L - 1), min_size=1, max_size=3)))
    # a sweep of d = 0 alone draws no path
    ds = [0] if draw(st.booleans()) else sorted(draw(st.sets(st.integers(0, d_max), max_size=2)) | {0, d_max})
    segment_len = draw(st.none() | st.integers(1, 20))
    return (spec, cfg, ells, ds, draw(st.integers(1, 2)), draw(st.integers(1, 16)), segment_len,
            draw(st.integers(-3, 3)))


@settings(max_examples=60, deadline=None)
@given(greedy_sweeps())
def test_greedy_grid_sweep_equals_per_cell_sessions_near_the_horizon(sweep):
    import dataclasses

    spec, cfg, ells, ds, n_prompts, prompt_len, segment_len, offset = sweep
    args = (cfg, ells, ds, n_prompts, prompt_len, segment_len)
    values, reach = reference_grid(spec, *args)
    top = max(reach.values())
    horizon = max(top + offset, 1)
    spec = dataclasses.replace(spec, horizon=horizon)
    if horizon >= top:
        assert grid_sweep(spec, *args).values.tobytes() == values.tobytes()
        return
    # past the horizon both raise, with the same text
    with pytest.raises(ConfigError) as expected:
        reference_grid(spec, *args)
    with pytest.raises(ConfigError) as got:
        grid_sweep(spec, *args)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("ells, ds", [
    ([0, 1], [2]), ([1, 8], [2]), ([1], [-1, 2]), ([1], [2, 5]),
    ([1, 0], [2, 9]), ([0, 2.5], [9]), ([1, True], ["x", 9]), ([8], [2.5]),
])
def test_grid_sweep_rejects_out_of_range_cells(ells, ds):
    from delsim.baselines import make_policy

    cfg = make_cfg(L=8, V=32, d_max=4, max_new_tokens=16)
    with pytest.raises(ConfigError) as got:
        grid_sweep(spec_with_profile(profile_with(8, best=2)), cfg, ells, ds, 1, 8)
    # the error of the first cell, in (ell, d) order, that make_policy rejects
    errors = []
    for ell in ells:
        for d in ds:
            try:
                make_policy("ls", cfg, exit_layer=ell, gamma=d)
            except ConfigError as e:
                errors.append(str(e))
    assert str(got.value) == errors[0]


def test_greedy_grid_sweep_steps_each_prompt_path_once(monkeypatch, draws):
    # each prompt's path is drawn by one path_agreement call, as far as a
    # round reads: no round reads the flag at the last position, max_new_tokens - 1
    calls = []
    real = LayeredModel.path_agreement

    def counting(self, context, n):
        calls.append((list(context), n))
        return real(self, context, n)

    monkeypatch.setattr(LayeredModel, "path_agreement", counting)
    cfg = make_cfg(L=32, V=64, seed=2, max_new_tokens=32)
    n_prompts = 3
    grid_sweep(_specialist_l32(), cfg, range(1, 13), range(0, 13), n_prompts, 32)
    prompts = make_prompts(build_model(_specialist_l32(), cfg), cfg, n_prompts, 32)
    assert calls == [(prompt, cfg.max_new_tokens - 1) for prompt in prompts]
    assert len(draws) == n_prompts * (cfg.max_new_tokens - 1)



def test_greedy_grid_sweep_of_length_zero_draws_nothing(draws):
    # a d = 0 round reads no layer, so a sweep of d = 0 cells draws no path
    cfg = make_cfg(L=32, V=64, seed=2, max_new_tokens=32)
    for segment_len in (None, 8):
        grid = grid_sweep(_specialist_l32(), cfg, range(1, 13), [0], 3, 32, segment_len)
        assert (grid.values == 1 / cfg.L).all()
    assert draws == []

def test_sweep_windows_without_a_round_are_nan_without_a_warning(tmp_path):
    from delsim.cli import main

    cfg = make_cfg(L=6, V=16, max_new_tokens=24)
    toy = toy_spec(6, 16)
    example = Path(__file__).resolve().parents[1] / "examples" / "deterministic_toy.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = grid_sweep(toy, cfg, [1, 2], [0, 6], 1, 32, segment_len=4)
        code = main(["sweep", "--config", str(example), "--prompt-len", "32",
                     "--max-new-tokens", "24", "--ell", "1..2", "--d", "0,6", "--segment-len", "4",
                     "--prompts", "1", "--out", str(tmp_path)])
    assert code == 0
    # every d=6 round on the toy accepts all 6 drafts and emits 7 tokens, so
    # rounds start at 0, 7, 14 and 21 and windows 2 and 4 start none
    d6 = grid.values[:, :, 1]
    assert np.isnan(d6[[2, 4]]).all()
    assert not np.isnan(np.delete(d6, [2, 4], axis=0)).any()
    assert not np.isnan(grid.values[:, :, 0]).any()
    assert "nan" in (tmp_path / "grid.csv").read_text()


def test_greedy_run_experiment_steps_each_path_position_once_per_prompt(monkeypatch, draws):
    import delsim.harness as harness
    import delsim.model as model_module
    from delsim.types import LayerStep

    cfg = make_cfg(L=8, V=32, seed=13, max_new_tokens=48)
    # a window longer than any context keeps the prompts' contexts apart
    spec = spec_with_profile(profile_with(8, best=2), context_hash_window=256)
    policies = [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 4}),
                ("fs", {"exit_layer": 2, "gamma": 4}), ("dv", {"exit_layer": 2}), ("del", {})]
    model = build_model(spec, cfg)
    prompts = make_prompts(model, cfg, 5, 12)
    paths = [harness.vanilla_reference(model, cfg, p) for p in prompts]
    assert draws == []  # the reference is the argmax chain alone
    # the draw keys of each prompt's path positions, in path order
    path_keys = []
    for prompt, path in zip(prompts, paths):
        steps = [model.step(prompt + path[:k]) for k in range(len(path))]
        LayerStep.shadow(steps)
        path_keys.append(draws[-cfg.max_new_tokens:])
    assert len(set(draws)) == len(draws) == len(prompts) * cfg.max_new_tokens
    draws.clear()

    # the number of draws made, and of steps the model computed (the keys of
    # the rows it made), before each reference and each session
    made: list[bytes] = []

    class CountingRow(model_module._PendingRow):
        __slots__ = ()

        def __init__(self, model, msg, *args):
            made.append(msg)
            super().__init__(model, msg, *args)

    phases: list[tuple[str, int, int]] = []
    starts_made: list[int] = []
    real_reference, real_session = harness.vanilla_reference, harness.run_session

    def reference(model, cfg_, prompt):
        phases.append(("reference", prompts.index(list(prompt)), len(draws)))
        starts_made.append(len(made))
        return real_reference(model, cfg_, prompt)

    def session(model, policy, cfg_, prompt, *args, **kwargs):
        phases.append(("session", prompts.index(list(prompt)), len(draws)))
        starts_made.append(len(made))
        return real_session(model, policy, cfg_, prompt, *args, **kwargs)

    monkeypatch.setattr(harness, "vanilla_reference", reference)
    monkeypatch.setattr(harness, "run_session", session)
    monkeypatch.setattr(model_module, "_PendingRow", CountingRow)
    run_experiment(spec, cfg, policies, len(prompts), 12)

    assert [(kind, i) for kind, i, _ in phases] == [
        (kind, i) for i in range(len(prompts)) for kind in ["reference"] + ["session"] * len(policies)
    ]
    ends = [start for _, _, start in phases[1:]] + [len(draws)]
    drawn_in = {}  # draw key -> the phases that drew it
    for (kind, i, start), end in zip(phases, ends):
        for key in draws[start:end]:
            drawn_in.setdefault(key, []).append((kind, i))
    # the references draw nothing, and each path position is drawn at most
    # once, by a session on its prompt; the memo serves it to the rest
    assert all(kind == "session" for by in drawn_in.values() for kind, _ in by)
    for i, keys in enumerate(path_keys):
        assert all(drawn_in.get(key, [("session", i)]) == [("session", i)] for key in keys)
    # and every context a prompt's sessions step, off-path drafts included,
    # is computed, and its row drawn, at most once per prompt: one prompt's
    # sessions reach fewer contexts than the memo holds
    per_prompt = len(policies) + 1
    ends_made = starts_made[1:] + [len(made)]
    for i in range(len(prompts)):
        lo, hi = i * per_prompt, (i + 1) * per_prompt - 1
        computed = made[starts_made[lo]:ends_made[hi]]
        drawn = draws[phases[lo][2]:ends[hi]]
        assert 0 < len(set(computed)) == len(computed) <= model.memo_capacity
        assert len(set(drawn)) == len(drawn)

import json
import warnings

import numpy as np
import pytest
from conftest import TIGHT_CONF, make_cfg, profile_with

from delsim.config import SAMPLING
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
    write_grid_csv,
)
from delsim.model import AGREEMENT, REGIME_SWITCHING, ModelSpec, build_model
from delsim.types import InvariantViolation


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

    def corrupted(model, policy, cfg_, prompt, seed, collect_trace=True):
        res = real(model, policy, cfg_, prompt, seed, collect_trace)
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


def test_sampling_mode_skips_losslessness_hook(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=37, max_new_tokens=32, decode_mode=SAMPLING)
    spec = spec_with_profile(profile_with(8, best=2))
    reports = run_experiment(spec, cfg, [("del", {})], 1, 8, tmp_path / "s")
    assert len(reports) == 1


# -- misc --------------------------------------------------------------------------

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
    per cell, the longest context any of its sessions stepped."""
    import math

    from delsim.baselines import make_policy
    from delsim.config import derive_seed
    from delsim.harness import run_session

    class ReachModel:
        def __init__(self, inner):
            self.inner = inner
            self.reach = 0

        def __getattr__(self, name):
            return getattr(self.inner, name)

        def step(self, context):
            self.reach = max(self.reach, len(context))
            return self.inner.step(context)

    base = build_model(spec, cfg)
    prompts = make_prompts(base, cfg, n_prompts, prompt_len)
    n_seg = 1 if segment_len is None else math.ceil(cfg.max_new_tokens / segment_len)
    values = np.zeros((n_seg, len(ells), len(ds)))
    reach = {}
    for a, ell in enumerate(ells):
        for b, d in enumerate(ds):
            model = ReachModel(base)
            per_prompt = np.zeros((n_seg, n_prompts))
            for i, prompt in enumerate(prompts):
                policy = make_policy("ls", cfg, exit_layer=ell, gamma=d)
                res = run_session(model, policy, cfg, prompt, derive_seed(cfg.seed, "sweep", ell, d, i))
                tok = np.zeros(n_seg)
                lay = np.zeros(n_seg)
                before = 0
                for rec in res.records:
                    seg = 0 if segment_len is None else min(before // segment_len, n_seg - 1)
                    tok[seg] += rec["emitted_len"]
                    lay[seg] += rec["layers_loaded"]
                    before += rec["emitted_len"]
                with np.errstate(invalid="ignore", divide="ignore"):
                    per_prompt[:, i] = np.where(lay > 0, tok / np.maximum(lay, 1), np.nan)
            with np.errstate(invalid="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                values[:, a, b] = np.nanmean(per_prompt, axis=1)
            reach[(ell, d)] = model.reach
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
        lambda: ModelSpec(kind="deterministic_toy"), dict(L=6, V=16, seed=3, max_new_tokens=40),
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


@pytest.mark.parametrize("ells, ds", [([0, 1], [2]), ([1, 8], [2]), ([1], [-1, 2]), ([1], [2, 5])])
def test_grid_sweep_rejects_out_of_range_cells(ells, ds):
    from delsim.config import ConfigError

    cfg = make_cfg(L=8, V=32, d_max=4, max_new_tokens=16)
    with pytest.raises(ConfigError):
        grid_sweep(spec_with_profile(profile_with(8, best=2)), cfg, ells, ds, 1, 8)


def test_greedy_grid_sweep_steps_each_prompt_path_once(monkeypatch):
    from delsim.model import LayeredModel

    calls = 0
    real = LayeredModel.step

    def counting(self, context):
        nonlocal calls
        calls += 1
        return real(self, context)

    monkeypatch.setattr(LayeredModel, "step", counting)
    cfg = make_cfg(L=32, V=64, seed=2, max_new_tokens=32)
    ds = list(range(0, 13))
    n_prompts = 3
    grid_sweep(_specialist_l32(), cfg, range(1, 13), ds, n_prompts, 32)
    assert 0 < calls <= n_prompts * (cfg.max_new_tokens + max(ds))


def test_sweep_windows_without_a_round_are_nan_without_a_warning(tmp_path):
    from delsim.cli import main

    cfg = make_cfg(L=6, V=16, max_new_tokens=24)
    toy = ModelSpec(kind="deterministic_toy")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = grid_sweep(toy, cfg, [1, 2], [0, 6], 1, 32, segment_len=4)
        code = main(["sweep", "--model-kind", "deterministic_toy", "--L", "6", "--V", "16",
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


def test_greedy_run_experiment_steps_each_path_position_once_per_prompt(monkeypatch):
    from delsim.harness import vanilla_reference
    from delsim.model import LayeredModel

    cfg = make_cfg(L=8, V=32, seed=13, max_new_tokens=48)
    # a window longer than any context keeps the prompts' contexts apart
    spec = spec_with_profile(profile_with(8, best=2), context_hash_window=256)
    policies = [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 4}),
                ("fs", {"exit_layer": 2, "gamma": 4}), ("dv", {"exit_layer": 2}), ("del", {})]
    plain = build_model(spec, cfg, memo=False)
    prompts = make_prompts(plain, cfg, 5, 12)
    paths = [vanilla_reference(plain, cfg, p) for p in prompts]

    calls = 0
    computed: dict[tuple, int] = {}
    stepping: list[tuple] = []
    real_step, real_rng = LayeredModel.step, LayeredModel._scratch_rng

    def step(self, context):
        nonlocal calls
        calls += 1
        stepping.append(tuple(context))
        try:
            return real_step(self, context)
        finally:
            stepping.pop()

    def scratch_rng(self, key):
        computed[stepping[-1]] = computed.get(stepping[-1], 0) + 1
        return real_rng(self, key)

    monkeypatch.setattr(LayeredModel, "step", step)
    monkeypatch.setattr(LayeredModel, "_scratch_rng", scratch_rng)
    run_experiment(spec, cfg, policies, len(prompts), 12)

    for prompt, path in zip(prompts, paths):
        for k in range(cfg.max_new_tokens):
            assert computed[tuple(prompt + path[:k])] == 1
    # every session but the reference's steps the whole path again
    assert sum(computed.values()) < calls - len(policies) * len(prompts) * cfg.max_new_tokens

"""Acceptance suite: every shipped guarantee, one pass/fail line per criterion.

Each test prints ``[criterion N] PASS ...`` with the measured quantities at
its stated tolerance; run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest
from conftest import STABLE_CONF, TIGHT_CONF, make_cfg, profile_with

from delsim.baselines import make_policy
from delsim.config import SAMPLING, SessionConfig, derive_seed
from delsim.controller import DelController
from delsim.engine import CostLedger, run_round
from delsim.harness import (
    compute_etpl,
    empirical_sd_distribution,
    enumerate_target_distribution,
    expected_tokens_closed_form,
    grid_sweep,
    make_prompts,
    mc_expected_tokens,
    omega_sweep,
    replay_check,
    run_experiment,
    run_session,
    total_variation,
)
from delsim.controller import tpl
from delsim.model import (
    AGREEMENT,
    DETERMINISTIC_TOY,
    REGIME_SWITCHING,
    CallCountingModel,
    LayeredModel,
    ModelSpec,
    build_model,
)


def report(n: int, ok: bool, detail: str) -> None:
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


# ---------------------------------------------------------------------------
# 1. greedy losslessness across families and policies
# ---------------------------------------------------------------------------

def test_c01_greedy_losslessness():
    L = 8
    families = {
        "agreement": ModelSpec(
            kind=AGREEMENT,
            agreement_profile=(0.6, 0.85, 0.4, 0.3, 0.2, 0.2, 0.1, 1.0),
        ),
        "regime_switching": ModelSpec(
            kind=REGIME_SWITCHING,
            regimes=(
                (100, (0.3, 0.9, 0.3, 0.3, 0.3, 0.3, 0.3, 1.0)),
                (100, (0.3, 0.3, 0.3, 0.9, 0.3, 0.3, 0.3, 1.0)),
            ),
        ),
        "deterministic_toy": ModelSpec(kind=DETERMINISTIC_TOY),
    }
    policies = [
        ("vanilla", {}),
        ("ls", {"exit_layer": 2, "gamma": 4}),
        ("fs", {"exit_layer": 2, "gamma": 4}),
        ("dv", {"exit_layer": 2}),
        ("del", {}),
    ]
    n_prompts, n_tokens = 100, 256
    checked = 0
    for fam_name, spec in families.items():
        cfg = make_cfg(L=L, V=32, seed=101, max_new_tokens=n_tokens, prefill_window=16)
        model = build_model(spec, cfg)
        prompts = make_prompts(model, cfg, n_prompts, 16)
        refs = [
            run_session(model, make_policy("vanilla", cfg), cfg, p,
                        derive_seed(cfg.seed, "ref", i), False).output
            for i, p in enumerate(prompts)
        ]
        for name, params in policies:
            for i, prompt in enumerate(prompts):
                res = run_session(
                    model, make_policy(name, cfg, **params), cfg, prompt,
                    derive_seed(cfg.seed, "engine", name, i), False,
                )
                assert res.output == refs[i], f"{fam_name}/{name}/prompt {i} diverged"
                checked += 1
    report(1, checked == 3 * len(policies) * n_prompts,
           f"{checked} greedy runs token-identical to vanilla "
           f"(3 families x {len(policies)} policies x {n_prompts} prompts x {n_tokens} tokens)")


# ---------------------------------------------------------------------------
# 2. sampling preserves the target distribution
# ---------------------------------------------------------------------------

def test_c02_sampling_distribution_preservation():
    V, horizon, trials = 3, 2, 100_000
    cfg = SessionConfig(L=4, V=V, d_max=4, max_new_tokens=horizon,
                        decode_mode=SAMPLING, seed=0, prefill_window=4)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.75, 0.9, 1.0))
    # a memo with room for every context a session from a one-token prompt steps
    model = LayeredModel(spec, cfg.L, V, derive_seed(0, "model"), V ** (horizon + cfg.d_max))
    prompt = [0]
    exact = enumerate_target_distribution(model, prompt, horizon)
    counts = empirical_sd_distribution(
        model, lambda: make_policy("ls", cfg, exit_layer=1, gamma=2),
        cfg, prompt, trials, master_seed=12345,
    )
    tv = total_variation(counts, exact, trials)
    report(2, tv < 0.02,
           f"TV(SD output, enumerated target chain) = {tv:.5f} < 0.02 "
           f"(V={V}, horizon={horizon}, {trials} trials)")


# ---------------------------------------------------------------------------
# 3. round-length law: Monte Carlo vs closed form
# ---------------------------------------------------------------------------

def test_c03_expected_round_length_formula():
    trials = 1_000_000
    worst = 0.0
    for ai, alpha in enumerate(np.arange(0.1, 0.95, 0.1)):
        for d in range(1, 9):
            mc = mc_expected_tokens(float(alpha), d, trials, seed=derive_seed(7, "mc", ai, d))
            closed = expected_tokens_closed_form(float(alpha), d)
            rel = abs(mc - closed) / closed
            worst = max(worst, rel)
            assert rel < 0.01, (alpha, d, mc, closed)
    report(3, worst < 0.01,
           f"max relative error {worst:.5f} < 1% over alpha in 0.1..0.9, d in 1..8, "
           f"{trials} trials each")


# ---------------------------------------------------------------------------
# 4. the per-layer objective evaluates exactly
# ---------------------------------------------------------------------------

def test_c04_tpl_evaluation():
    anchor = tpl(0.8, 8, 6, 32)
    ok = abs(anchor - 0.049393) <= 1e-6
    for L in (8, 16, 32, 80):
        assert tpl(0.0, 1, 0, L) == 1.0 / L
        for ell in (1, L // 2):
            for d in (0, 3, 18):
                assert tpl(1.0, ell, d, L) == (d + 1) / (d * ell + L)
    report(4, ok,
           f"tpl(0.8, 8, 6, 32) = {anchor:.9f} within 1e-6 of 0.049393; "
           "alpha=0 gives 1/L and alpha=1 gives (d+1)/(d*ell+L) exactly")


# ---------------------------------------------------------------------------
# 5. vanilla cost is exactly one token per L layers
# ---------------------------------------------------------------------------

def test_c05_vanilla_etpl():
    values = {}
    for L in (32, 80):
        cfg = make_cfg(L=L, V=16, max_new_tokens=64)
        model = build_model(ModelSpec(kind=DETERMINISTIC_TOY), cfg)
        res = run_session(model, make_policy("vanilla", cfg), cfg, [1, 2], 0)
        etpl = compute_etpl(res.ledger)
        assert etpl == 1 / L
        values[L] = etpl
    ok = round(values[32], 3) == 0.031 and round(values[80], 3) == 0.013
    report(5, ok,
           f"vanilla eTPL: L=32 -> {values[32]} (rounds to 0.031), "
           f"L=80 -> {values[80]} (rounds to 0.013); both exactly 1/L")


# ---------------------------------------------------------------------------
# 6. acceptance-rate estimator converges on stationary profiles
# ---------------------------------------------------------------------------

def test_c06_estimator_convergence():
    from delsim.controller import estimate_alpha, push, round_stats, shadow_tokens, zero_stats
    from delsim.engine import DraftPlan

    profile = np.array([0.3, 0.5, 0.8, 0.2, 0.6, 1.0, 0.9, 1.0])
    cfg = make_cfg(L=8, V=16, d_max=50, seed=5)
    plan = DraftPlan(exit_layer=6, threshold=0.0, planned_len=50, cap_mode="plan_capped")
    n_seeds, n_rounds = 100, 500
    good = 0
    worst_overall = 0.0
    for seed in range(n_seeds):
        model = LayeredModel(
            ModelSpec(kind=AGREEMENT, agreement_profile=tuple(profile)), cfg.L, cfg.V, seed
        )
        stats = zero_stats(cfg.L - 1)
        ctx = [seed % cfg.V, 1]
        rng = np.random.default_rng(seed)
        ledger = CostLedger()
        for _ in range(n_rounds):
            out = run_round(model, ctx, plan, rng, ledger, cfg)
            stats = push(stats, round_stats(shadow_tokens(out.steps), 6), omega=1.0)
        alpha = estimate_alpha(stats, cfg.alpha_clamp_eps)
        err = float(np.max(np.abs(alpha - profile[:-1])))
        worst_overall = max(worst_overall, err)
        if err < 0.05:
            good += 1
    report(6, good >= 95,
           f"max|estimate - truth| < 0.05 in {good}/100 seeds "
           f"(worst seed error {worst_overall:.4f}; omega=1, {n_rounds} rounds)")


# ---------------------------------------------------------------------------
# 7. dynamic threshold converges to the confidence midpoint
# ---------------------------------------------------------------------------

def test_c07_threshold_behavior():
    cfg = make_cfg(L=8, V=64, seed=3, max_new_tokens=10**9)
    model = LayeredModel(
        ModelSpec(kind=AGREEMENT, agreement_profile=(0.3, 0.85, 0.3, 0.3, 0.3, 0.3, 0.3, 1.0)),
        cfg.L, cfg.V, 50,
    )
    policy = DelController(cfg)
    prompt = model.sample_prompt(32, np.random.default_rng(0))
    plan = policy.init(model, prompt)
    ctx = list(prompt)
    rng = np.random.default_rng(1000)
    taus = []
    violations = 0
    for _ in range(1100):
        out = run_round(model, ctx, plan, rng, CostLedger(), cfg)
        plan = policy.observe(out)
        taus.append(plan.threshold)
        s = policy.stats
        match_mass = s.sc
        miss_mass = np.asarray(s.su) + s.scnt - s.sc
        with np.errstate(invalid="ignore", divide="ignore"):
            m_t = np.where(match_mass > 0, s.stcs / np.maximum(match_mass, 1e-300), np.nan)
            m_f = np.where(miss_mass > 1e-12, s.sfcs / np.maximum(miss_mass, 1e-300), np.nan)
        check = (match_mass > 0) & (miss_mass > 1e-12) & (np.abs(m_t - m_f) > 1e-9)
        lo, hi = np.minimum(m_t, m_f), np.maximum(m_t, m_f)
        tau_vec = policy.thresholds
        bad = check & ~((tau_vec > lo) & (tau_vec < hi))
        violations += int(np.sum(bad[check]) if np.any(check) else 0)
    final = taus[-1]
    ok = abs(final - 0.5) < 0.05 and violations == 0
    report(7, ok,
           f"threshold of selected layer after {len(taus)} rounds = {final:.4f} "
           f"(within 0.5 +- 0.05); strict-betweenness violations: {violations}")


# ---------------------------------------------------------------------------
# 8. the selected plan is near-optimal on stationary models
# ---------------------------------------------------------------------------

def test_c08_policy_optimality():
    L = 16
    profile = profile_with(L, best=2)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=profile, **TIGHT_CONF)
    sweep_cfg = make_cfg(L=L, V=32, seed=9, max_new_tokens=256)
    ells = [1, 2, 3, 4, 6]
    ds = [0, 2, 4, 6, 8, 10, 12, 14, 16, 18]
    grid = grid_sweep(spec, sweep_cfg, ells, ds, 3, 32)
    _, _, best_val = grid.best_cell()

    sweep_model = build_model(spec, sweep_cfg)
    sweep_prompts = make_prompts(sweep_model, sweep_cfg, 3, 32)

    def static_value(ell: int, d: int) -> float:
        tok = lay = 0
        for i, p in enumerate(sweep_prompts):
            res = run_session(
                sweep_model, make_policy("ls", sweep_cfg, exit_layer=ell, gamma=d),
                sweep_cfg, p, derive_seed(sweep_cfg.seed, "modal", ell, d, i), False,
            )
            tok += res.ledger.tokens_emitted
            lay += res.ledger.layers_loaded
        return tok / lay

    cell_cache: dict[tuple, float] = {}
    n_seeds, hits = 50, 0
    ratios = []
    for seed in range(n_seeds):
        cfg = make_cfg(L=L, V=32, seed=1000 + seed, max_new_tokens=1800)
        model = LayeredModel(spec, L, cfg.V, derive_seed(sweep_cfg.seed, "model"))
        prompt = model.sample_prompt(32, np.random.default_rng(seed))
        res = run_session(model, DelController(cfg), cfg, prompt, derive_seed(seed, "e"))
        final = [(r["E"], r["planned_len"]) for r in res.records][-100:]
        assert len(final) == 100
        modal = max(set(final), key=final.count)
        if modal not in cell_cache:
            cell_cache[modal] = static_value(*modal)
        ratio = cell_cache[modal] / best_val
        ratios.append(ratio)
        if ratio >= 0.95:
            hits += 1
    report(8, hits >= 45,
           f"modal plan's static eTPL >= 0.95 x grid best in {hits}/50 seeds "
           f"(min ratio {min(ratios):.3f}, grid best {best_val:.4f})")


# ---------------------------------------------------------------------------
# 9. adaptation beats cross-regime static configs
# ---------------------------------------------------------------------------

def test_c09_regime_adaptation():
    L, half, plen = 16, 1024, 32
    profA, profB = profile_with(L, best=6), profile_with(L, best=2)
    cfg = make_cfg(L=L, V=32, seed=11, max_new_tokens=2 * half, prefill_window=32)
    spec = ModelSpec(kind=REGIME_SWITCHING,
                     regimes=((plen + half, profA), (10**7, profB)), **TIGHT_CONF)
    model = build_model(spec, cfg)
    prompt = make_prompts(model, cfg, 1, plen)[0]
    del_res = run_session(model, DelController(cfg), cfg, prompt, 42)
    del_etpl = compute_etpl(del_res.ledger)

    # per-regime oracle: grid-best static cell on each single-regime model
    oracle_cfg = cfg.replace(max_new_tokens=256)
    ells = [1, 2, 4, 6, 8]
    ds = [0, 3, 6, 9, 12, 15, 18]
    bestA = grid_sweep(ModelSpec(kind=AGREEMENT, agreement_profile=profA, **TIGHT_CONF),
                       oracle_cfg, ells, ds, 2, plen).best_cell()
    bestB = grid_sweep(ModelSpec(kind=AGREEMENT, agreement_profile=profB, **TIGHT_CONF),
                       oracle_cfg, ells, ds, 2, plen).best_cell()
    oracle_etpl = 2 * half / (half / bestA[2] + half / bestB[2])

    # static config tuned for the A regime, applied to the whole run
    cross = run_session(
        model, make_policy("ls", cfg, exit_layer=bestA[0], gamma=bestA[1]), cfg, prompt, 43
    )
    cross_etpl = compute_etpl(cross.ledger)

    ok = del_etpl >= 1.10 * cross_etpl and del_etpl >= 0.90 * oracle_etpl
    report(9, ok,
           f"DEL etpl {del_etpl:.4f} >= 1.10 x cross-regime static {cross_etpl:.4f} "
           f"(x{del_etpl / cross_etpl:.2f}) and >= 0.90 x per-regime oracle "
           f"{oracle_etpl:.4f} (x{del_etpl / oracle_etpl:.2f}); "
           f"regime bests {bestA[:2]} vs {bestB[:2]}")


# ---------------------------------------------------------------------------
# 10. decay-factor insensitivity on stationary models
# ---------------------------------------------------------------------------

def test_c10_omega_insensitivity():
    # the specialist sits at the cheapest exit so the estimator's saturation
    # attractor coincides with the optimum at every decay setting
    cfg = make_cfg(L=8, V=32, seed=8, max_new_tokens=512)
    spec = ModelSpec(kind=AGREEMENT,
                     agreement_profile=profile_with(8, best=1, peak=0.95), **STABLE_CONF)
    rows = omega_sweep(spec, cfg, [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0], 4, 16)
    speedups = [r["sim_speedup"] for r in rows]
    spread = (max(speedups) - min(speedups)) / max(speedups)
    report(10, spread < 0.05,
           f"sim_speedup spread over omega in 0.5..1.0 is {spread * 100:.2f}% < 5% "
           f"(range {min(speedups):.3f}..{max(speedups):.3f})")


# ---------------------------------------------------------------------------
# 11. determinism, replay, and the speedup identity
# ---------------------------------------------------------------------------

def test_c11_determinism_and_accounting(tmp_path):
    cfg = make_cfg(L=8, V=32, seed=23, max_new_tokens=96)
    spec = ModelSpec(kind=AGREEMENT,
                     agreement_profile=profile_with(8, best=2), **TIGHT_CONF)
    policies = [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 6}), ("del", {})]
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        reports = run_experiment(spec, cfg, policies, 2, 16, out)
        for r in reports:
            assert r.sim_speedup == r.etpl * cfg.L
        outs.append(out)
    identical = (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()
    for t in sorted((outs[0] / "traces").iterdir()):
        identical = identical and t.read_bytes() == (outs[1] / "traces" / t.name).read_bytes()
    replay_ok = replay_check(outs[0]) == []
    report(11, identical and replay_ok,
           "same (config, seed) gives byte-identical traces and summary; replay "
           "recomputation matches exactly; sim_speedup == etpl * L for every run")


# ---------------------------------------------------------------------------
# 12. policy updates never touch the model
# ---------------------------------------------------------------------------

def test_c12_no_extra_forward_passes():
    cfg = make_cfg(L=8, V=32, seed=31, max_new_tokens=256, prefill_window=16)
    spec = ModelSpec(kind=AGREEMENT,
                     agreement_profile=profile_with(8, best=2), **TIGHT_CONF)
    model = CallCountingModel(build_model(spec, cfg))
    policy = DelController(cfg)
    prompt = make_prompts(model.inner, cfg, 1, 16)[0]

    plan = policy.init(model, prompt)
    prefill_calls = model.calls
    ctx = list(prompt)
    rng = np.random.default_rng(0)
    out_tokens = 0
    observe_calls = 0
    round_calls = 0
    while out_tokens < cfg.max_new_tokens:
        out = run_round(model, ctx, plan, rng, CostLedger(), cfg,
                        cfg.max_new_tokens - out_tokens)
        out_tokens += len(out.emitted)
        round_calls += len(out.drafted) + 1
        before = model.calls
        plan = policy.observe(out)
        observe_calls += model.calls - before
    accounted = prefill_calls + round_calls
    ok = observe_calls == 0 and model.calls == accounted
    report(12, ok,
           f"policy updates made {observe_calls} model calls across a full run; "
           f"every call is accounted to prefill ({prefill_calls}) or rounds "
           f"({round_calls}): total {model.calls}")

import numpy as np
import pytest
from conftest import agreement_model, make_cfg, toy_model

from delsim.baselines import DvPolicy, FsPolicy, LsPolicy, VanillaPolicy, make_policy
from delsim.config import CAP_MODES, ConfigError
from delsim.engine import CostLedger, RoundOutcome, draft_bound, run_round
from delsim.harness import compute_etpl, run_session


def outcome_with(drafted: int, accepted: int) -> RoundOutcome:
    return RoundOutcome(
        drafted=tuple(range(drafted)),
        emitted=tuple(range(accepted + 1)),
        accepted_count=accepted,
        steps=(),
        layers_loaded=0,
        g=drafted,
    )


# -- vanilla -----------------------------------------------------------------

def test_vanilla_plan_is_a_single_target_step():
    cfg = make_cfg()
    policy = VanillaPolicy(cfg)
    for plan in (policy.init(None, [1]), policy.observe(outcome_with(0, 0))):
        assert plan.planned_len == draft_bound(plan, cfg) == 0


def test_vanilla_etpl_is_one_over_L():
    for L, expected in ((32, 0.03125), (80, 0.0125)):
        cfg = make_cfg(L=L, V=16, max_new_tokens=64)
        model = toy_model(cfg)
        res = run_session(model, VanillaPolicy(cfg), cfg, [1, 2], 0)
        etpl = compute_etpl(res.ledger)
        assert etpl == 1 / L
        assert etpl == pytest.approx(expected)
        assert round(etpl, 3) in (0.031, 0.013)  # published rounding


# -- static ------------------------------------------------------------------

def test_ls_full_acceptance_ledger_arithmetic():
    cfg = make_cfg(L=32, V=16, max_new_tokens=70, d_max=18)
    model = toy_model(cfg)  # every layer agrees, so every draft is accepted
    res = run_session(model, LsPolicy(cfg, 8, 6), cfg, [1], 0)
    # 10 rounds x 7 tokens per 80 layers
    assert res.ledger.tokens_emitted == 70
    assert res.ledger.layers_loaded == 800
    assert compute_etpl(res.ledger) == pytest.approx(0.0875)
    assert all(r["accepted"] == 6 for r in res.records)


def test_ls_gamma_zero_equals_vanilla():
    cfg = make_cfg(L=8, V=16, max_new_tokens=32)
    model = agreement_model(cfg, (0.5, 0.6, 0.7, 0.8, 0.3, 0.2, 0.9, 1.0))
    a = run_session(model, LsPolicy(cfg, 3, 0), cfg, [1, 2], 0)
    b = run_session(model, VanillaPolicy(cfg), cfg, [1, 2], 0)
    assert a.output == b.output
    assert a.ledger == b.ledger


def test_ls_plan_bounds():
    cfg = make_cfg(L=8, d_max=18)
    with pytest.raises(ConfigError):
        LsPolicy(cfg, 8, 2)
    with pytest.raises(ConfigError):
        LsPolicy(cfg, 2, 19)


# -- finite-state length controller --------------------------------------------

def fs_gamma_after(gamma: int, outcome: RoundOutcome, d_max: int) -> int:
    cfg = make_cfg(L=8, d_max=d_max)
    plan = FsPolicy(cfg, 2, gamma).observe(outcome)
    assert plan.planned_len == draft_bound(plan, cfg)
    return plan.planned_len


def test_fs_increments_on_full_acceptance():
    assert fs_gamma_after(6, outcome_with(6, 6), d_max=18) == 7


def test_fs_decrements_on_any_rejection():
    assert fs_gamma_after(6, outcome_with(6, 3), d_max=18) == 5


def test_fs_bounds():
    assert fs_gamma_after(1, outcome_with(1, 0), d_max=18) == 1
    assert fs_gamma_after(18, outcome_with(18, 18), d_max=18) == 18


def test_fs_trajectory_stays_in_bounds():
    cfg = make_cfg(L=8, V=16, max_new_tokens=400, d_max=6)
    model = agreement_model(cfg, (0.4, 0.8, 0.5, 0.6, 0.3, 0.2, 0.7, 1.0))
    policy = FsPolicy(cfg, 2, 3)
    res = run_session(model, policy, cfg, [1, 2], 5)
    for rec in res.records:
        assert 1 <= rec["planned_len"] <= cfg.d_max
        assert rec["g"] == rec["planned_len"]  # threshold 0 never stops early


# -- confidence-feedback controller ----------------------------------------------

def dv_policy(threshold: float, target_rate: float, step: float) -> DvPolicy:
    return DvPolicy(make_cfg(L=8), 2, target_rate=target_rate, step=step, threshold=threshold)


def test_dv_threshold_moves_toward_target():
    up = dv_policy(threshold=0.5, target_rate=0.9, step=0.01).observe(outcome_with(4, 4))
    assert up.threshold == pytest.approx(0.49)  # rate 1.0 > target: draft more boldly
    down = dv_policy(threshold=0.5, target_rate=0.9, step=0.01).observe(outcome_with(4, 2))
    assert down.threshold == pytest.approx(0.51)  # rate 0.5 <= target


def test_dv_no_draft_no_signal():
    policy = dv_policy(threshold=0.5, target_rate=0.9, step=0.01)
    before = policy.init(None, [1])
    assert policy.observe(outcome_with(0, 0)) == before


def test_dv_threshold_clamped_to_unit_interval():
    policy = dv_policy(threshold=0.004, target_rate=0.5, step=0.01)
    assert policy.observe(outcome_with(2, 2)).threshold == 0.0
    policy = dv_policy(threshold=0.997, target_rate=0.99, step=0.01)
    assert policy.observe(outcome_with(2, 1)).threshold == 1.0


def test_dv_long_run_acceptance_tracks_target():
    # the +-step rule settles where the exceedance probability is 1/2, so the
    # round-rate time average tracks mid-range targets; extreme targets bias low
    cfg = make_cfg(L=8, V=64, max_new_tokens=3000, seed=3)
    model = agreement_model(cfg, (0.3, 0.8, 0.3, 0.3, 0.3, 0.3, 0.3, 1.0))
    policy = DvPolicy(cfg, 2, target_rate=0.7, step=0.01, threshold=0.6)
    res = run_session(model, policy, cfg, model.sample_prompt(16, np.random.default_rng(0)), 9)
    rates = [r["accepted"] / r["g"] for r in res.records if r["g"] > 0]
    assert len(rates) > 100
    assert abs(np.mean(rates) - 0.7) < 0.1


# -- shared interface -------------------------------------------------------------

def test_make_policy_dispatch_and_validation():
    cfg = make_cfg()
    assert make_policy("vanilla", cfg).name == "vanilla"
    assert make_policy("ls", cfg, exit_layer=2, gamma=4).name == "ls"
    assert make_policy("fs", cfg, exit_layer=2, gamma=4).name == "fs"
    assert make_policy("dv", cfg, exit_layer=2).name == "dv"
    assert make_policy("del", cfg).name == "del"
    with pytest.raises(ConfigError) as exc:
        make_policy("ls", cfg, gamma=4)
    assert "exit_layer" in str(exc.value)
    with pytest.raises(ConfigError):
        make_policy("warp", cfg)


def test_make_policy_rejects_parameter_names_no_policy_takes():
    cfg = make_cfg()
    # a misspelt name must not leave the default threshold in silently
    with pytest.raises(ConfigError) as exc:
        make_policy("dv", cfg, exit_layer=2, theshold=0.3)
    assert "theshold" in str(exc.value) and "'dv'" in str(exc.value)
    # a name some other policy takes is ignored, as a flag-keyed run section passes it
    assert make_policy("vanilla", cfg, exit_layer=2, gamma=4).name == "vanilla"
    assert make_policy("del", cfg, threshold=0.3, step=0.1, target_rate=0.5).name == "del"
    assert make_policy("dv", cfg, exit_layer=2, threshold=0.3).plan.threshold == 0.3


def test_all_baselines_are_greedy_lossless():
    cfg = make_cfg(L=8, V=32, max_new_tokens=128, seed=21)
    model = agreement_model(cfg, (0.6, 0.85, 0.4, 0.3, 0.2, 0.2, 0.1, 1.0))
    prompt = model.sample_prompt(16, np.random.default_rng(1))
    reference = run_session(model, VanillaPolicy(cfg), cfg, prompt, 0).output
    for policy in (
        LsPolicy(cfg, 2, 4),
        FsPolicy(cfg, 2, 4),
        DvPolicy(cfg, 2),
    ):
        assert run_session(model, policy, cfg, prompt, 123).output == reference, policy.name


# -- the draft bound ----------------------------------------------------------------

# the most tokens each policy's plans let a round draft, as each policy once
# stated it beside its plan: vanilla nothing, ls and fs their length, dv d_max
# at every threshold (0 included), del d_max under algorithm1 capping and its
# planned length under plan capping
STATED_BOUND = {
    "vanilla": lambda plan, cfg: 0,
    "ls": lambda plan, cfg: plan.planned_len,
    "fs": lambda plan, cfg: plan.planned_len,
    "dv": lambda plan, cfg: cfg.d_max,
    "del": lambda plan, cfg: cfg.d_max if cfg.draft_cap_mode == "algorithm1" else plan.planned_len,
}


@pytest.mark.parametrize("cap", CAP_MODES)
def test_draft_bound_is_each_policys_stated_bound_under_both_cap_modes(cap):
    cfg = make_cfg(L=8, V=32, d_max=6, max_new_tokens=96, seed=5, draft_cap_mode=cap)
    model = agreement_model(cfg, (0.6, 0.85, 0.4, 0.3, 0.2, 0.2, 0.1, 1.0))
    prompt = model.sample_prompt(16, np.random.default_rng(2))
    params = {"vanilla": {}, "ls": {"exit_layer": 2, "gamma": 4}, "fs": {"exit_layer": 2, "gamma": 1},
              # any accepted token beats the target: the threshold steps 0.5, 0.25, 0
              "dv": {"exit_layer": 2, "target_rate": 0.0, "step": 0.25, "threshold": 0.5},
              "del": {}}
    for name, stated in STATED_BOUND.items():
        policy = make_policy(name, cfg, **params[name])
        plans = [policy.init(model, prompt)]
        ctx, rng = list(prompt), np.random.default_rng(3)
        while len(ctx) < len(prompt) + cfg.max_new_tokens:
            out = run_round(model, ctx, plans[-1], rng, CostLedger(), cfg)
            assert out.g <= draft_bound(plans[-1], cfg)
            plans.append(policy.observe(out))
        for plan in plans:
            assert draft_bound(plan, cfg) == stated(plan, cfg), (name, plan)
        if name == "dv":
            assert {p.threshold for p in plans} == {0.5, 0.25, 0.0}
        elif name in ("fs", "del"):
            assert len({p.planned_len for p in plans}) > 1, name

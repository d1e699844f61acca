import numpy as np
import pytest
from conftest import CallCountingModel, ScriptedModel, agreement_model, make_cfg, toy_model
from hypothesis import given, settings
from hypothesis import strategies as st

from delsim.config import SAMPLING
from delsim.engine import CostLedger, DraftPlan, draft, run_round, verify_greedy, verify_sampling
from delsim.harness import (
    empirical_sd_distribution,
    enumerate_target_distribution,
    total_variation,
)
from delsim.baselines import make_policy
from delsim.model import ModelSpec


def ls_like(E, gamma, tau=0.0, bound=None):
    bound = gamma if bound is None else bound
    return DraftPlan(exit_layer=E, threshold=tau, planned_len=gamma, draft_bound=bound)


# -- draft -------------------------------------------------------------------

def test_draft_zero_threshold_never_stops():
    cfg = make_cfg(d_max=8)
    model = toy_model(cfg)
    ctx = [1]
    drafted, steps = draft(model, ctx, ls_like(1, 4), cfg, np.random.default_rng(0))
    assert len(drafted) == 4
    assert len(steps) == 4  # loop hit its bound; bonus position comes from run_round
    assert [s.top_conf[0] for s in steps] == [1.0] * 4
    assert ctx == [1]  # drafted tokens leave the caller's context as it was


def test_draft_unit_threshold_gives_empty_draft():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (0.6, 0.8, 0.9, 1.0))
    drafted, steps = draft(model, [1], ls_like(1, 4, tau=1.0), cfg, np.random.default_rng(0))
    assert drafted == []
    assert len(steps) == 1


def test_draft_stops_at_scripted_confidence():
    confs = [0.9, 0.8, 0.4, 0.95, 0.9, 0.9]
    model = ScriptedModel(base_len=1, confs=confs, draft_toks=[1] * 6, target_toks=[1] * 6)
    cfg = make_cfg(L=2, V=8, d_max=5)
    drafted, steps = draft(model, [0], ls_like(1, 5, tau=0.5), cfg, np.random.default_rng(0))
    assert len(drafted) == 2
    assert len(steps) == 3  # the low-confidence position is kept as the bonus slot
    assert [s.top_conf[0] for s in steps] == [0.9, 0.8, 0.4]


def test_draft_cap_modes():
    cfg = make_cfg(d_max=6)
    model = toy_model(cfg)
    rng = np.random.default_rng(0)
    # the draft bound, not planned_len, ends the loop: algorithm1 capping
    # passes d_max, plan capping the planned length
    drafted, _ = draft(model, [1], ls_like(1, 2, bound=cfg.d_max), cfg, rng)
    assert len(drafted) == 6
    drafted, _ = draft(model, [1], ls_like(1, 2), cfg, rng)
    assert len(drafted) == 2


# -- verification -------------------------------------------------------------

def test_verify_greedy_full_acceptance_and_bonus():
    accepted, emitted = verify_greedy([5, 7, 9, 2], [5, 7, 9])
    assert accepted == 3
    assert emitted == [5, 7, 9, 2]


def test_verify_greedy_prefix_walk():
    accepted, emitted = verify_greedy([5, 1, 9, 2], [5, 7, 9])
    assert accepted == 1
    assert emitted == [5, 1]


def test_verify_greedy_empty_draft_is_vanilla_step():
    accepted, emitted = verify_greedy([4], [])
    assert accepted == 0
    assert emitted == [4]


def test_verify_sampling_ratio_one_always_accepts():
    rng = np.random.default_rng(0)
    # the exit row (0.3, 0.7), as its (top token, confidence) pair
    rows = [np.array([0.3, 0.7])] * 3
    accepted, emitted = verify_sampling([1, 1], [(1, 0.7)] * 2, rows, rng)
    assert accepted == 2
    assert len(emitted) == 3


def test_verify_sampling_residual_is_exact():
    # q puts mass 1 on A; p splits A/B evenly: accept A w.p. 0.5, else emit B
    q = (0, 1.0)
    p = np.array([0.5, 0.5])
    rng = np.random.default_rng(1)
    n = 20_000
    accepted_count = 0
    for _ in range(n):
        accepted, emitted = verify_sampling([0], [q], [p, p], rng)
        if accepted == 1:
            accepted_count += 1
        else:
            assert emitted == [1]  # residual mass is all on B
    assert abs(accepted_count / n - 0.5) < 0.02


def test_verify_sampling_forced_acceptance_when_q_is_one_hot_target():
    p = np.array([1.0, 0.0])
    accepted, emitted = verify_sampling([0], [(0, 1.0)], [p, p], np.random.default_rng(0))
    assert accepted == 1 and emitted[0] == 0


# -- run_round ----------------------------------------------------------------

def test_empty_draft_round_is_a_plain_target_step():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (0.5, 0.5, 0.5, 1.0))
    ledger = CostLedger()
    ctx = [3]
    out = run_round(model, ctx, ls_like(1, 0), np.random.default_rng(0), ledger, cfg)
    assert len(out.drafted) == 0
    assert len(out.emitted) == 1
    assert out.layers_loaded == cfg.L
    assert ledger.layers_loaded == cfg.L
    assert len(out.steps) == 1
    assert ctx[-1] == out.emitted[0]


def test_round_cost_matches_cost_model():
    cfg = make_cfg(L=32, d_max=18)
    model = toy_model(cfg)
    ledger = CostLedger()
    out = run_round(model, [1], ls_like(8, 6), np.random.default_rng(0), ledger, cfg)
    assert len(out.drafted) == 6
    assert out.layers_loaded == 6 * 8 + 32 == 80
    assert ledger.layers_loaded == 80
    assert len(out.steps) == 7
    assert [s.top_conf[7] for s in out.steps] == [1.0] * 7


@pytest.mark.parametrize("horizon", [4, 7])
def test_round_leaves_the_context_as_it_was_when_a_step_raises(horizon):
    from delsim.config import ConfigError

    # with a 3-token context, horizon 4 stops the draft loop's second step
    # and horizon 7 the verification step after the fifth drafted token
    cfg = make_cfg(L=4, d_max=8)
    model = agreement_model(cfg, (0.6, 0.3, 0.8, 1.0), horizon=horizon)
    ctx = [1, 2, 3]
    with pytest.raises(ConfigError, match="exceeds horizon"):
        run_round(model, ctx, ls_like(1, 5), np.random.default_rng(0), CostLedger(), cfg)
    assert ctx == [1, 2, 3]


def test_round_emitted_is_accepted_plus_one():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (0.6, 0.3, 0.8, 1.0))
    for seed in range(20):
        ledger = CostLedger()
        ctx = [seed % cfg.V, (seed + 3) % cfg.V]
        out = run_round(model, ctx, ls_like(1, 6), np.random.default_rng(seed), ledger, cfg)
        assert len(out.emitted) == out.accepted_count + 1


def test_budget_truncation_charges_full_cost():
    cfg = make_cfg(L=8)
    model = toy_model(cfg)
    ledger = CostLedger()
    ctx = [1]
    out = run_round(model, ctx, ls_like(2, 4), np.random.default_rng(0), ledger, cfg, budget_left=2)
    assert len(out.emitted) == 2
    assert out.layers_loaded == 4 * 2 + 8  # full round cost despite truncation
    assert ledger.tokens_emitted == 2
    assert len(ctx) == 3

    with pytest.raises(ValueError):
        run_round(model, [1], ls_like(2, 4), np.random.default_rng(0), ledger, cfg, budget_left=0)


def test_toy_greedy_run_equals_vanilla_chain():
    cfg = make_cfg(L=8, max_new_tokens=40)
    model = toy_model(cfg)
    # pure target chain: +1 cycle from the last prompt token
    expected = [(3 + i + 1) % cfg.V for i in range(40)]
    ctx = [3]
    ledger = CostLedger()
    rng = np.random.default_rng(0)
    out_tokens = []
    while len(out_tokens) < 40:
        out = run_round(model, ctx, ls_like(3, 5), rng, ledger, cfg, 40 - len(out_tokens))
        out_tokens.extend(out.emitted)
    assert out_tokens == expected


def test_sampling_draft_tokens_come_from_q_but_confidences_are_top1():
    confs = [0.6] * 12
    model = ScriptedModel(base_len=1, confs=confs, draft_toks=[2] * 12, target_toks=[2] * 12)
    cfg = make_cfg(L=2, V=8, d_max=8, decode_mode=SAMPLING)
    rng = np.random.default_rng(5)
    drafted, steps = draft(model, [0], ls_like(1, 8), cfg, rng)
    assert len(drafted) == 8
    assert all(abs(s.top_conf[0] - 0.6) < 1e-12 for s in steps)
    assert any(t != 2 for t in drafted)  # sampled, not argmaxed


@given(
    st.lists(
        st.tuples(st.integers(1, 7), st.integers(0, 6)),
        min_size=1,
        max_size=8,
    )
)
@settings(max_examples=40, deadline=None)
def test_ledger_exactness(plans):
    cfg = make_cfg(L=8, d_max=6)
    model = agreement_model(cfg, (0.7, 0.5, 0.4, 0.6, 0.2, 0.9, 0.3, 1.0))
    ledger = CostLedger()
    rng = np.random.default_rng(0)
    ctx = [1, 2]
    expected_layers = 0
    expected_tokens = 0
    for E, gamma in plans:
        out = run_round(model, ctx, ls_like(E, gamma), rng, ledger, cfg)
        expected_layers += len(out.drafted) * E + cfg.L
        expected_tokens += len(out.emitted)
    assert ledger.layers_loaded == expected_layers
    assert ledger.tokens_emitted == expected_tokens


def test_expected_tokens_per_round_follows_geometric_law():
    # i.i.d. acceptance at rate alpha: mean emitted per round -> sum of powers
    alpha, d = 0.8, 6
    cfg = make_cfg(L=2, V=16, d_max=d)
    model = agreement_model(cfg, (alpha, 1.0))
    rng = np.random.default_rng(0)
    rounds = 60_000
    total = 0
    plan = ls_like(1, d)
    for i in range(rounds):
        ctx = [i % 16, (i // 16) % 16, (i // 256) % 16, (i // 4096) % 16]
        ledger = CostLedger()
        out = run_round(model, ctx, plan, rng, ledger, cfg)
        total += len(out.emitted)
    expected = sum(alpha**k for k in range(d + 1))
    assert abs(total / rounds - expected) / expected < 0.01


def test_sampling_micro_distribution_preservation():
    from delsim.config import SessionConfig
    from delsim.model import LayeredModel, ModelSpec

    cfg = SessionConfig(L=4, V=3, d_max=4, max_new_tokens=2, decode_mode=SAMPLING,
                        seed=0, prefill_window=4)
    spec = ModelSpec(kind="agreement", agreement_profile=(0.5, 0.75, 0.9, 1.0))
    model = LayeredModel(spec, cfg.L, cfg.V, 99, cfg.V ** (2 + cfg.d_max))
    prompt = [0]
    exact = enumerate_target_distribution(model, prompt, 2)
    assert abs(sum(exact.values()) - 1.0) < 1e-12
    trials = 20_000
    counts = empirical_sd_distribution(
        model, lambda: make_policy("ls", cfg, exit_layer=1, gamma=2), cfg, prompt, trials, 7
    )
    assert total_variation(counts, exact, trials) < 0.03


def test_plan_validation_bounds():
    cfg = make_cfg(L=8, d_max=6)
    with pytest.raises(ValueError):
        DraftPlan(8, 0.0, 2, 2).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(0, 0.0, 2, 2).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(1, 1.5, 2, 2).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(1, 0.0, 7, 6).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(1, 0.0, 2, 7).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(1, 0.0, 2, -1).validate(cfg)
    DraftPlan(7, 1.0, 6, 6).validate(cfg)


# -- when steps draw their layers -------------------------------------------------

@pytest.mark.parametrize("policy, params", [
    ("vanilla", {}),
    ("ls", {"exit_layer": 2, "gamma": 5}),
    ("del", {}),
])
def test_sampling_sessions_draw_only_the_steps_they_read(policy, params, draws):
    from delsim.harness import run_session
    from delsim.model import build_model

    cfg = make_cfg(L=8, V=32, seed=4, max_new_tokens=96, prefill_window=16, d_max=8,
                   decode_mode=SAMPLING)
    spec = ModelSpec(kind="agreement", agreement_profile=(0.4, 0.9, 0.5, 0.3, 0.6, 0.2, 0.7, 1.0))
    model = CallCountingModel(build_model(spec, cfg))
    prompt = model.sample_prompt(24, np.random.default_rng(0))
    res = run_session(model, make_policy(policy, cfg, **params), cfg, prompt, 9)
    drafted = sum(rec["g"] for rec in res.records)
    if policy == "vanilla":
        # verification reads only the target rows
        assert drafted == 0 and draws == []
    elif policy == "ls":
        # one draw per drafted position; no verification step is read
        assert len(draws) == drafted == model.calls - res.rounds
    else:
        # the controller shadows every step: prefill window and every round's
        assert len(draws) == model.calls == cfg.prefill_window + drafted + res.rounds


@pytest.mark.parametrize("policy, params", [
    ("ls", {"exit_layer": 2, "gamma": 5}),
    ("del", {}),
])
def test_sampling_sessions_decode_one_block_per_round_at_most(policy, params, monkeypatch):
    from delsim.harness import run_session
    from delsim.model import LayeredModel, _PendingRow, build_model

    decodes, blocks = [], []
    real_decode, real_block = LayeredModel._decode, _PendingRow.shadow_block

    def counting_decode(self, u, profile, t_star):
        decodes.append(u.shape)
        return real_decode(self, u, profile, t_star)

    def counting_block(self, rows):
        blocks.append(len(rows))
        return real_block(self, rows)

    monkeypatch.setattr(LayeredModel, "_decode", counting_decode)
    monkeypatch.setattr(_PendingRow, "shadow_block", counting_block)
    cfg = make_cfg(L=8, V=32, seed=4, max_new_tokens=96, prefill_window=16, d_max=8,
                   decode_mode=SAMPLING)
    spec = ModelSpec(kind="agreement", agreement_profile=(0.4, 0.9, 0.5, 0.3, 0.6, 0.2, 0.7, 1.0))
    model = build_model(spec, cfg)
    prompt = model.sample_prompt(24, np.random.default_rng(0))
    res = run_session(model, make_policy(policy, cfg, **params), cfg, prompt, 9)
    # no step is decoded in full: drafting decodes its exit layer alone
    assert decodes == []
    if policy == "ls":
        # verification reads no layer
        assert sum(rec["g"] for rec in res.records) > 0 and blocks == []
    else:
        # the prefill window, then each round's steps, in one block each
        assert 1 < len(blocks) <= res.rounds + 1
        assert blocks[0] == cfg.prefill_window

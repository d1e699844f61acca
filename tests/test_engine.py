from unittest import mock

import numpy as np
import pytest
from conftest import (
    CallCountingModel,
    ScriptedModel,
    ScriptedUniforms,
    agreement_model,
    make_cfg,
    toy_model,
    toy_spec,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import reference_verify_sampling, sample_index

from delsim import types
from delsim.config import CAP_MODES, CAP_PLAN, SAMPLING, ConfigError
from delsim.engine import (
    CostLedger,
    DraftPlan,
    RoundOutcome,
    _residual,
    draft,
    draft_bound,
    run_round,
    verify_greedy,
    verify_sampling,
)
from delsim.harness import (
    empirical_sd_distribution,
    enumerate_target_distribution,
    total_variation,
)
from delsim.baselines import make_policy
from delsim.model import LayeredModel, ModelSpec
from delsim.types import InvariantViolation, exit_distribution


def ls_like(E, gamma, tau=0.0):
    return DraftPlan(exit_layer=E, threshold=tau, planned_len=gamma)


# -- draft -------------------------------------------------------------------

def test_draft_zero_threshold_never_stops():
    cfg = make_cfg(d_max=8)
    model = CallCountingModel(toy_model(cfg))
    ctx = [1]
    # g is the bound, known before any step: the round steps each position
    # when verification reads it
    assert draft_bound(ls_like(1, 4), cfg) == 4
    assert model.calls == 0 and ctx == [1]
    out = run_round(model, ctx, ls_like(1, 4), np.random.default_rng(0), CostLedger(), cfg)
    assert model.calls == 5
    # the toy's exit layers agree with the target: full acceptance reads all g + 1
    assert out.g == len(out.drafted) == out.accepted_count == 4
    assert len(out.steps) == 5
    assert [s.layer(1)[1] for s in out.steps] == [1.0] * 5


def test_draft_unit_threshold_gives_empty_draft():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (0.6, 0.8, 0.9, 1.0))
    steps, drafted, q_rows = draft(model, [1], None, ls_like(1, 4, tau=1.0), 4,
                                   np.random.default_rng(0), True)
    assert drafted == [] and q_rows == []
    assert len(steps) == 1


def test_draft_stops_at_scripted_confidence():
    confs = [0.9, 0.8, 0.4, 0.95, 0.9, 0.9]
    model = ScriptedModel(base_len=1, confs=confs, draft_toks=[1] * 6, target_toks=[1] * 6)
    ctx = [0]
    steps, drafted, _ = draft(model, ctx, None, ls_like(1, 5, tau=0.5), 5,
                              np.random.default_rng(0), True)
    assert drafted == [1, 1] and ctx == [0, 1, 1]  # the round removes them
    # the low-confidence position is kept as the bonus slot
    assert [s.layer(1)[1] for s in steps] == [0.9, 0.8, 0.4]


def test_draft_cap_modes():
    cfg = make_cfg(d_max=6)
    capped = cfg.replace(draft_cap_mode=CAP_PLAN)
    model = toy_model(cfg)
    rng = np.random.default_rng(0)
    # the draft bound, not planned_len, ends the loop: algorithm1 capping
    # bounds a plan with a threshold at d_max, plan capping at its planned
    # length
    plan = ls_like(1, 2, 0.5)
    assert (draft_bound(plan, cfg), draft_bound(plan, capped)) == (6, 2)
    for bound in (6, 2):
        assert len(draft(model, [1], None, plan, bound, rng, True)[1]) == bound
    # a plan without a threshold drafts its planned length under either mode
    for c in (cfg, capped):
        assert draft_bound(ls_like(1, 2), c) == 2
        assert run_round(model, [1], ls_like(1, 2), rng, CostLedger(), c).g == 2


# -- verification -------------------------------------------------------------

def test_verify_greedy_full_acceptance_and_bonus():
    assert verify_greedy(5, 5) is None
    cfg = make_cfg(L=8, V=16)
    # the toy's exit layers all agree: three accepted, then the bonus token
    out = run_round(toy_model(cfg), [4], ls_like(2, 3), np.random.default_rng(0), CostLedger(), cfg)
    assert out.accepted_count == 3
    assert out.emitted == (5, 6, 7, 8)


def test_verify_greedy_prefix_walk():
    assert verify_greedy(7, 1) == 1
    model = ScriptedModel(base_len=1, confs=[0.9] * 4, draft_toks=[5, 7, 9, 2], target_toks=[5, 1, 9, 2],
                          V=16)
    cfg = make_cfg(L=2, V=16, d_max=3)
    out = run_round(model, [0], ls_like(1, 3), np.random.default_rng(0), CostLedger(), cfg)
    assert out.accepted_count == 1
    assert out.emitted == (5, 1)
    # nothing after the first rejection is read
    assert out.drafted == (5, 7) and len(out.steps) == 2 and out.g == 3


def test_verify_greedy_empty_draft_is_vanilla_step():
    model = ScriptedModel(base_len=1, confs=[0.9], draft_toks=[3], target_toks=[4])
    cfg = make_cfg(L=2, V=8)
    out = run_round(model, [0], ls_like(1, 0), np.random.default_rng(0), CostLedger(), cfg)
    assert out.accepted_count == 0
    assert out.emitted == (4,)


def test_verify_sampling_ratio_one_always_accepts():
    rng = np.random.default_rng(0)
    # the exit row (0.3, 0.7), as its (top token, confidence) pair
    row = np.array([0.3, 0.7])
    assert all(verify_sampling(1, (1, 0.7), row, rng) is None for _ in range(100))


def test_verify_sampling_residual_is_exact():
    # q puts mass 1 on A; p splits A/B evenly: accept A w.p. 0.5, else emit B
    q = (0, 1.0)
    p = np.array([0.5, 0.5])
    rng = np.random.default_rng(1)
    n = 20_000
    accepted_count = 0
    for _ in range(n):
        end = verify_sampling(0, q, p, rng)
        if end is None:
            accepted_count += 1
        else:
            assert end == 1  # residual mass is all on B
    assert abs(accepted_count / n - 0.5) < 0.02


def test_verify_sampling_forced_acceptance_when_q_is_one_hot_target():
    p = np.array([1.0, 0.0])
    assert verify_sampling(0, (0, 1.0), p, np.random.default_rng(0)) is None


@st.composite
def verify_cases(draw):
    """A target row with zeros among its entries, an exit row's (top token,
    confidence) pair with the confidence from the 1/V floor to 1, a drafted
    token and a generator seed."""
    V = draw(st.integers(2, 128))
    weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                                     min_size=V, max_size=V)))
    if not weights.sum() > 0.0:
        weights[draw(st.integers(0, V - 1))] = 1.0
    p = weights / weights.sum()
    p.setflags(write=False)
    conf = draw(st.floats(1.0 / V, 1.0))
    top, tok = draw(st.integers(0, V - 1)), draw(st.integers(0, V - 1))
    return p, top, conf, tok, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(verify_cases())
def test_in_place_residual_and_verification_match_the_exit_row_formula(case):
    p, top, conf, tok, seed = case
    want = np.maximum(p - exit_distribution(top, conf, p.size), 0.0)
    got = _residual(p, top, conf)
    assert got.dtype == want.dtype and np.array_equal(got.view(np.uint64), want.view(np.uint64))
    outcomes = []
    for verify in (verify_sampling, reference_verify_sampling):
        rng = np.random.default_rng(seed)
        try:
            result = verify(tok, (top, conf), p, rng)
        except InvariantViolation as e:
            result = str(e)
        outcomes.append((result, rng.bit_generator.state))
    assert outcomes[0] == outcomes[1]


@st.composite
def rejection_cases(draw):
    """A target row, a Dirichlet draw or a table row with runs of zeros at
    either end; an exit row's (top token, confidence) pair, the confidence
    from the 1/V + 1e-9 floor to 1 and the top token at 0, at V - 1 or the
    drafted token; and a drafted token with p < q when the row has one, so
    that verification can reject it."""
    V = draw(st.integers(2, 257), label="V")
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="row seed"))
    if draw(st.booleans(), label="dirichlet"):
        p = gen.dirichlet(np.full(V, draw(st.floats(0.01, 10.0), label="concentration")))
    else:
        lead = draw(st.integers(0, V - 1), label="leading zeros")
        trail = draw(st.integers(0, V - 1 - lead), label="trailing zeros")
        weights = np.zeros(V)
        weights[lead:V - trail] = 1.0 - gen.random(V - lead - trail)
        p = weights / weights.sum()
    p.setflags(write=False)
    conf = draw(st.floats(1.0 / V + 1e-9, 1.0), label="conf")
    top = draw(st.sampled_from([0, V - 1, None]), label="top token (None: the drafted one)")
    # q of each token as a drafted token
    q = np.full(V, conf) if top is None else exit_distribution(top, conf, V)
    rejectable = np.flatnonzero(p < q).tolist()
    tok = draw(st.sampled_from(rejectable or list(range(V))), label="drafted token")
    return p, tok if top is None else top, conf, tok


@settings(max_examples=80, deadline=None)
@given(rejection_cases(), st.integers(0, 2**32 - 1))
def test_certified_rejection_draws_equal_the_normalized_residual_reference(case, seed):
    # A rejection draws from the raw residual's running sums and falls back
    # to searching the normalized residual next to a step. Its uniform is
    # forced onto every step of the normalized residual's cumsum, the
    # doubles up to two ulps either side, the middle of each step, 0, the
    # largest uniform a generator draws and 1, past every step.
    p, top, conf, tok = case
    V = p.size
    residual = np.maximum(p - exit_distribution(top, conf, V), 0.0)
    uniforms = [0.0, 1.0 - 2.0**-53, 1.0]
    if residual.sum() > 0.0:
        steps = (residual / residual.sum()).cumsum()
        near = [steps, (np.concatenate(([0.0], steps[:-1])) + steps) / 2]
        below = above = steps
        for _ in range(2):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 2.0)
            near += [below, above]
        near = np.concatenate(near)
        uniforms += near[(near >= 0.0) & (near < 1.0)].tolist()
    reject = 1.0 - 2.0**-53  # rejects every drafted token with p < q
    searches: list[float] = []
    real_search = types._search

    def counting_search(probs, u):
        searches.append(u)
        return real_search(probs, u)

    draws = fallbacks = 0
    with mock.patch.object(types, "_search", counting_search):
        for u in uniforms:
            want_rng, got_rng = ScriptedUniforms(reject, u), ScriptedUniforms(reject, u)
            want = reference_verify_sampling(tok, (top, conf), p, want_rng)
            before = len(searches)
            got = verify_sampling(tok, (top, conf), p, got_rng)
            assert got == want and got_rng.calls == want_rng.calls, u
            if got is not None:
                assert 0 <= got < V
                draws += 1
                fallbacks += len(searches) > before
    if draws:
        # a uniform on a step always falls back, one mid-step never does
        assert 0 < fallbacks < draws
    # a real generator: the same tokens and the same state after the calls
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):
        assert verify_sampling(tok, (top, conf), p, a) == reference_verify_sampling(tok, (top, conf), p, b)
    assert a.bit_generator.state == b.bit_generator.state


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
    assert [s.layer(8)[1] for s in out.steps] == [1.0] * 7


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
    plan = ls_like(1, 8, tau=0.5)
    steps, drafted, q_rows = draft(model, [0], None, plan, draft_bound(plan, cfg),
                                   np.random.default_rng(5), False)
    assert len(drafted) == 8
    assert all(abs(s.layer(1)[1] - 0.6) < 1e-12 for s in steps)
    assert q_rows == [(2, 0.6)] * 8
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
        expected_layers += out.g * E + cfg.L
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


def test_round_records_are_tuples_in_field_order_that_cannot_be_set():
    plan = DraftPlan(3, 0.25, 4)
    assert plan == (3, 0.25, 4)
    assert DraftPlan._fields == ("exit_layer", "threshold", "planned_len")
    assert (plan.exit_layer, plan.threshold, plan.planned_len) == (3, 0.25, 4)
    fields = ("drafted", "emitted", "accepted_count", "steps", "layers_loaded", "g")
    out = RoundOutcome(*(f"value-{f}" for f in fields))
    assert RoundOutcome._fields == fields
    assert all(getattr(out, f) == f"value-{f}" for f in fields)
    for record, field in ((plan, "threshold"), (out, "g")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)


def test_plan_validation_bounds():
    cfg = make_cfg(L=8, d_max=6)
    with pytest.raises(ValueError):
        DraftPlan(8, 0.0, 2).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(0, 0.0, 2).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(1, 1.5, 2).validate(cfg)
    with pytest.raises(ValueError):
        DraftPlan(1, 0.0, 7).validate(cfg)
    DraftPlan(7, 1.0, 6).validate(cfg)


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
        # a round steps the positions up to its first rejection, or all g + 1
        # on full acceptance, and draws each drafted one; the bonus position
        # is not drawn
        assert model.calls == sum(rec["accepted"] + 1 for rec in res.records)
        assert len(draws) == sum(min(rec["accepted"] + 1, rec["g"]) for rec in res.records)
        assert len(draws) < drafted
    else:
        # the controller shadows every step: prefill window and every round's
        assert len(draws) == model.calls == cfg.prefill_window + drafted + res.rounds


class PrevCheckingModel(CallCountingModel):
    """Wrapper that checks every ``prev`` it is given is the inner model's
    step of ``context[:-1]``, by its key, and counts the steps given none;
    ``plain`` drops every ``prev`` instead."""

    def __init__(self, inner: LayeredModel, plain: bool = False):
        super().__init__(inner)
        self.plain = plain
        self.without = 0
        self.errors: list[str] = []

    def step(self, context, prev=None):
        if self.plain:
            return super().step(context)
        if prev is None:
            self.without += 1
            return super().step(context)
        inner = self.inner
        row = vars(prev)["_row"]
        head = list(context[:-1])
        if row.model is not inner or row.msg != inner._key(len(head), head[-inner._hash_window:]):
            self.errors.append(f"prev of {list(context)} is not the step of its first tokens")
        return super().step(context, prev)


@pytest.mark.parametrize("mode", ["greedy", SAMPLING])
def test_every_prev_the_engine_passes_is_the_step_of_the_context_before(mode):
    from delsim.harness import run_session
    from delsim.model import build_model

    cfg = make_cfg(L=8, V=16, seed=5, max_new_tokens=48, prefill_window=6, d_max=6,
                   decode_mode=mode)
    # a 5-token window: the prompts fill it and the sessions slide it
    spec = ModelSpec(kind="agreement", agreement_profile=(0.4, 0.9, 0.5, 0.3, 0.6, 0.2, 0.7, 1.0),
                     context_hash_window=5)
    policies = [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 4}),
                ("fs", {"exit_layer": 3, "gamma": 3}), ("dv", {"exit_layer": 2}), ("del", {})]
    for name, params in policies:
        checked = PrevCheckingModel(build_model(spec, cfg))
        plain = PrevCheckingModel(build_model(spec, cfg), plain=True)
        for i in range(3):
            prompt = checked.sample_prompt(4 + 2 * i, np.random.default_rng(i))
            got = run_session(checked, make_policy(name, cfg, **params), cfg, prompt, i)
            want = run_session(plain, make_policy(name, cfg, **params), cfg, prompt, i)
            assert (got.output, got.records) == (want.output, want.records)
        assert checked.errors == []
        assert checked.calls == plain.calls
        # only a session's first step and the prefill window's first have no
        # step before them to pass
        assert checked.without == 3 * (1 + (name == "del"))


@pytest.mark.parametrize("policy, params", [
    ("ls", {"exit_layer": 2, "gamma": 5}),
    ("del", {}),
])
def test_sampling_sessions_decode_one_block_per_round_at_most(policy, params, monkeypatch):
    from delsim.harness import run_session
    from delsim.model import _PendingRow, build_model

    blocks = []
    real_block = _PendingRow.shadow_block

    def counting_block(self, rows):
        blocks.append(len(rows))
        return real_block(self, rows)

    monkeypatch.setattr(_PendingRow, "shadow_block", counting_block)
    cfg = make_cfg(L=8, V=32, seed=4, max_new_tokens=96, prefill_window=16, d_max=8,
                   decode_mode=SAMPLING)
    spec = ModelSpec(kind="agreement", agreement_profile=(0.4, 0.9, 0.5, 0.3, 0.6, 0.2, 0.7, 1.0))
    model = build_model(spec, cfg)
    prompt = model.sample_prompt(24, np.random.default_rng(0))
    res = run_session(model, make_policy(policy, cfg, **params), cfg, prompt, 9)
    if policy == "ls":
        # verification reads no layer
        assert sum(rec["g"] for rec in res.records) > 0 and blocks == []
    else:
        # the prefill window, then each round's steps, in one block each
        assert 1 < len(blocks) <= res.rounds + 1
        assert blocks[0] == cfg.prefill_window


# -- a round equals drafting first, then verifying ----------------------------------

def eager_round(model, context, plan, rng, ledger, cfg, budget_left=None):
    """A round as drafting until the first exit-layer confidence below the
    threshold (or the draft bound), stepping position g, then verifying:
    what ``run_round`` must equal. Sampling draws each drafted token from
    its built exit row as it drafts it."""
    greedy = cfg.decode_mode != SAMPLING
    ctx = list(context)
    drafted, steps, q_rows = [], [], []
    for _ in range(draft_bound(plan, cfg)):
        step = model.step(ctx)
        steps.append(step)
        tok, conf = step.layer(plan.exit_layer)
        if conf < plan.threshold:
            break  # this position is the bonus slot g
        if not greedy:
            q_rows.append(exit_distribution(tok, conf, step.target.size))
            tok = sample_index(q_rows[-1], rng)
        drafted.append(tok)
        ctx.append(tok)
    else:
        steps.append(model.step(ctx))
    g = len(drafted)
    accepted, end = g, None
    for i, tok in enumerate(drafted):
        p_row = steps[i].target
        if greedy:
            if tok != steps[i].target_token:
                accepted, end = i, steps[i].target_token
                break
        elif rng.random() >= min(1.0, p_row[tok] / q_rows[i][tok]):
            residual = np.maximum(p_row - q_rows[i], 0.0)
            accepted, end = i, sample_index(residual / residual.sum(), rng)
            break
    if end is None:
        end = steps[g].target_token if greedy else sample_index(steps[g].target, rng)
    emitted = (drafted[:accepted] + [end])[:budget_left]
    layers = g * plan.exit_layer + cfg.L
    ledger.layers_loaded += layers
    ledger.tokens_emitted += len(emitted)
    context.extend(emitted)
    return emitted, accepted, layers, g


@st.composite
def zero_threshold_rounds(draw):
    """A model, config, context and a plan of length g with a threshold of
    0 (an ``ls`` plan) or above, under either draft cap mode, a budget, and
    a horizon from len(context) + g - 2 to + 2."""
    L = draw(st.integers(2, 8))
    V = draw(st.integers(2, 16))
    mode = draw(st.sampled_from(["greedy", SAMPLING]))
    cap = draw(st.sampled_from(CAP_MODES))
    cfg = make_cfg(L=L, V=V, d_max=8, decode_mode=mode, draft_cap_mode=cap)
    levels = st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0])

    def profile():
        return tuple(draw(st.lists(levels, min_size=L - 1, max_size=L - 1))) + (1.0,)

    ctx = draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=6))
    E = draw(st.integers(1, L - 1))
    g = draw(st.integers(0, cfg.d_max))
    horizon = max(1, len(ctx) + g + draw(st.integers(-2, 2)))
    kind = draw(st.sampled_from(["agreement", "regime_switching", "deterministic_toy"]))
    if kind == "agreement":
        spec = ModelSpec(kind=kind, agreement_profile=profile(), horizon=horizon)
    elif kind == "regime_switching":
        regimes = tuple((draw(st.integers(1, 6)), profile()) for _ in range(2))
        spec = ModelSpec(kind=kind, regimes=regimes, horizon=horizon)
    else:
        spec = toy_spec(L, V, horizon=horizon)
    model = LayeredModel(spec, L, V, draw(st.integers(0, 3)))
    budget = draw(st.one_of(st.none(), st.integers(1, g + 2)))
    tau = draw(st.sampled_from([0.0, 0.3, 0.6, 0.9]))
    return model, cfg, ctx, ls_like(E, g, tau), budget, draw(st.integers(0, 2**32))


@given(zero_threshold_rounds())
@settings(max_examples=300, deadline=None)
def test_zero_threshold_round_equals_drafting_every_position_first(case):
    model, cfg, ctx, plan, budget, seed = case
    ref_ctx, ref_ledger, ref_rng = list(ctx), CostLedger(), np.random.default_rng(seed)
    got_ctx, ledger, rng = list(ctx), CostLedger(), np.random.default_rng(seed)
    try:
        want = eager_round(model, ref_ctx, plan, ref_rng, ref_ledger, cfg, budget)
    except ConfigError as e:
        with pytest.raises(ConfigError) as got:
            run_round(model, got_ctx, plan, rng, ledger, cfg, budget)
        assert str(got.value) == str(e)
        assert got_ctx == ctx
        return
    out = run_round(model, got_ctx, plan, rng, ledger, cfg, budget)
    assert (list(out.emitted), out.accepted_count, out.layers_loaded, out.g) == want
    assert (ledger.tokens_emitted, ledger.layers_loaded) == (
        ref_ledger.tokens_emitted, ref_ledger.layers_loaded)
    assert got_ctx == ref_ctx
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    if plan.threshold > 0.0:
        # drafting stepped every position, and del's update reads all g + 1
        assert len(out.steps) == out.g + 1 and len(out.drafted) == out.g
    else:
        # the positions read: up to the first rejection, or all g + 1
        assert len(out.steps) == out.accepted_count + 1
        assert len(out.drafted) == min(out.accepted_count + 1, out.g)


@pytest.mark.parametrize("mode", ["greedy", SAMPLING])
def test_ls_round_steps_up_to_its_first_rejection(mode):
    cfg = make_cfg(L=4, V=16, d_max=8, decode_mode=mode)
    model = CallCountingModel(agreement_model(cfg, (0.6, 0.3, 0.8, 1.0)))
    rng = np.random.default_rng(3)
    ends = set()
    for seed in range(200):
        ctx = [seed % cfg.V, (seed // cfg.V) % cfg.V, 5]
        before = model.calls
        out = run_round(model, ctx, ls_like(3, 1 + seed % 6), rng, CostLedger(), cfg)
        # the rejection index is the accepted count; full acceptance reads g + 1
        assert model.calls - before == out.accepted_count + 1 == len(out.steps)
        ends.add(out.accepted_count == out.g)
    assert ends == {True, False}

import numpy as np
import pytest
from conftest import (
    TIGHT_CONF,
    CallCountingModel,
    agreement_model,
    decoded,
    fixed_step,
    layer_arrays,
    make_cfg,
    profile_with,
    regime_model,
    toy_model,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from delsim.config import CAP_PLAN
from delsim.controller import (
    ALPHA_FLOOR,
    DecayedStats,
    DelController,
    RoundStats,
    ShadowMatrix,
    _tpl_rows,
    estimate_alpha,
    prefill_init,
    push,
    round_stats,
    select_plan,
    shadow_tokens,
    tpl,
    tpl_grid,
    update_threshold,
    zero_stats,
)
from delsim.engine import CostLedger, DraftPlan, draft_bound, run_round
from delsim.model import AGREEMENT, REGIME_SWITCHING, LayeredModel, ModelSpec
from delsim.types import exit_distribution


def steps_from_tokens(layer_rows, target_row, confs=None, V=12):
    """Build LayerSteps whose top-token/top-1 structure is fully scripted.

    layer_rows: (L-1, width) token ids; target_row: (width,) token ids.
    """
    layer_rows = np.asarray(layer_rows)
    target_row = np.asarray(target_row)
    n_exit, width = layer_rows.shape
    confs = np.full((n_exit, width), 0.7) if confs is None else np.asarray(confs, dtype=np.float64)
    steps = []
    for i in range(width):
        target = np.full(V, 0.1 / (V - 1))
        target[target_row[i]] = 0.9
        steps.append(fixed_step(layer_rows[:, i].copy(), confs[:, i].copy(), target, int(target_row[i])))
    return steps


# -- shadow tokens -------------------------------------------------------------

def test_shadow_tokens_recover_scripted_structure():
    steps = steps_from_tokens([[5, 7], [5, 1]], [5, 7])
    sm = shadow_tokens(steps)
    assert sm.matches.tolist() == [[True, True], [True, False]]
    assert sm.confidences.tolist() == [[0.7, 0.7], [0.7, 0.7]]
    assert sm.matches.shape[1] == 2


def test_shadow_tokens_toy_all_rows_agree():
    cfg = make_cfg()
    model = toy_model(cfg)
    sm = shadow_tokens([model.step([1]), model.step([1, 2])])
    assert sm.matches.shape == (cfg.L - 1, 2) and np.all(sm.matches)
    assert np.all(sm.confidences == 1.0)


def test_shadow_tokens_never_agree_layer():
    cfg = make_cfg(L=3)
    model = agreement_model(cfg, (0.0, 1.0, 1.0))
    sm = shadow_tokens([model.step([i + 1]) for i in range(6)])
    assert not np.any(sm.matches[0])
    assert np.all(sm.matches[1])


def test_shadow_single_position_direct_argmax():
    # the shadow matrix agrees with the argmax and max of every rebuilt row
    cfg = make_cfg(L=4, V=9)
    model = agreement_model(cfg, (0.5, 0.2, 0.9, 1.0))
    ls = model.step([3, 1])
    sm = shadow_tokens([ls])
    for ell in range(1, cfg.L):
        row = exit_distribution(*ls.layer(ell), cfg.V)
        assert sm.matches[ell - 1, 0] == (row.argmax() == ls.target.argmax())
        assert sm.confidences[ell - 1, 0] == row.max()


def test_shadow_tokens_requires_steps():
    with pytest.raises(ValueError):
        shadow_tokens([])


def test_shadow_tokens_over_pending_and_drawn_steps_equals_steps_drawn_one_by_one():
    cfg = make_cfg(L=6, V=16)
    regimes = ((7, (0.9, 0.1, 0.5, 0.0, 0.7, 1.0)), (5, (0.0, 1.0, 0.2, 0.7, 0.4, 1.0)))
    models = [regime_model(cfg, regimes, seed=s, **TIGHT_CONF) for s in (1, 2)]
    contexts = [[(3 * i + j) % cfg.V for j in range(n)] for i, n in enumerate(range(1, 21))]

    def steps_of(model_of):
        return [model_of(i).step(ctx) for i, ctx in enumerate(contexts)]

    # the steps of one model, then of two models mixed, some read at every
    # layer, some at one layer, the rest untouched; each model's steps are
    # read in one block, and a block of both models' steps is refused
    for n_models in (1, 2):
        steps = steps_of(lambda i: models[i % n_models])
        for i, s in enumerate(steps):
            if i % 3 == 0:
                layer_arrays(s)
            elif i % 3 == 1:
                s.layer(1 + i % (cfg.L - 1))
        if n_models == 2:
            with pytest.raises(ValueError, match="one model"):
                shadow_tokens(steps)
        # fresh steps, each decoded alone
        fresh = steps_of(lambda i: models[i % n_models])
        one_by_one = [decoded(s) for s in fresh]
        for m in range(n_models):
            sm = shadow_tokens(steps[m::n_models])
            group = list(zip(fresh, one_by_one))[m::n_models]
            matches = np.array([tops == s.target_token for s, (tops, _) in group]).T
            confidences = np.array([conf for _, (_, conf) in group]).T
            for x, y in ((sm.matches, matches), (sm.confidences, confidences)):
                assert x.dtype == y.dtype and np.array_equal(x, y)
        # and the steps' layers read after the block read are the same
        for s, (tops, conf) in zip(steps, one_by_one):
            got_tops, got_conf = layer_arrays(s)
            assert np.array_equal(got_tops, tops) and np.array_equal(got_conf, conf)


SHADOW_MODELS = {
    "agreement": lambda cfg, seed: agreement_model(cfg, (0.9, 0.1, 0.5, 0.0, 0.7, 1.0), seed, **TIGHT_CONF),
    # segments of 7 and 5 positions: a path of up to 19 positions from a
    # prompt of 1 to 20 tokens crosses one or more profile switches
    "regime_switching": lambda cfg, seed: regime_model(
        cfg, ((7, (0.9, 0.1, 0.5, 0.0, 0.7, 1.0)), (5, (0.0, 1.0, 0.2, 0.7, 0.4, 1.0))), seed, **TIGHT_CONF),
    "deterministic_toy": lambda cfg, seed: toy_model(cfg, seed),
}


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(SHADOW_MODELS)),
    two_models=st.booleans(),
    prompt=st.lists(st.integers(0, 15), min_size=1, max_size=20),
    reads=st.lists(st.sampled_from(["none", "layer", "layers"]), min_size=1, max_size=19),
)
def test_shadow_read_equals_drawn_arrays_bit_for_bit(kind, two_models, prompt, reads):
    # widths 1-19 run past numpy's 8-element pairwise-summation blocks
    cfg = make_cfg(L=6, V=16)
    path = prompt + [(7 * i + 3) % cfg.V for i in range(len(reads))]
    contexts = [path[: len(prompt) + i] for i in range(len(reads))]

    def steps_of(models):
        return [models[i % len(models)].step(ctx) for i, ctx in enumerate(contexts)]

    seeds = (1, 2) if two_models else (1,)
    n = len(seeds)
    steps = steps_of([SHADOW_MODELS[kind](cfg, seed) for seed in seeds])
    for i, (s, how) in enumerate(zip(steps, reads)):
        if how == "layer":
            s.layer(1 + i % (cfg.L - 1))
        elif how == "layers":
            layer_arrays(s)
    if n == 2 and len(steps) > 1:
        # one block reads one model's steps: the two models' are refused
        with pytest.raises(ValueError, match="one model"):
            shadow_tokens(steps)
    # what the decoded arrays of fresh steps give, in the (L-1, width) layout
    fresh = steps_of([SHADOW_MODELS[kind](cfg, seed) for seed in seeds])
    arrays = [decoded(s) for s in fresh]
    all_matches = np.array([tops == s.target_token for s, (tops, _) in zip(fresh, arrays)]).T
    all_confidences = np.array([conf for _, conf in arrays]).T
    # each model's steps, every n-th, in one block
    for m in range(min(n, len(steps))):
        sm = shadow_tokens(steps[m::n])
        matches = np.ascontiguousarray(all_matches[:, m::n])
        confidences = np.ascontiguousarray(all_confidences[:, m::n])
        width = len(steps[m::n])
        for got, want in ((sm.matches, matches), (sm.confidences, confidences)):
            assert got.dtype == want.dtype and got.shape == (cfg.L - 1, width)
            assert got.flags.c_contiguous and np.array_equal(got, want)
        assert sm.matches.shape[1] == width
        # the window sums, which sum over each layer's row, agree to the bit
        for exit_layer in (None, 1 + width % (cfg.L - 1)):
            got_rs, want_rs = (round_stats(ShadowMatrix(*block), exit_layer)
                               for block in ((sm.matches, sm.confidences), (matches, confidences)))
            assert got_rs.u_r == want_rs.u_r
            assert got_rs.sums.tobytes() == want_rs.sums.tobytes()


# -- round stats ---------------------------------------------------------------

def test_u_r_first_mismatch():
    steps = steps_from_tokens([[5, 7, 9, 2]], [5, 7, 1, 8])
    rs = round_stats(shadow_tokens(steps), exit_layer=1)
    assert rs.u_r == 2


def test_u_r_no_mismatch_is_gamma():
    steps = steps_from_tokens([[5, 7, 9, 2]], [5, 7, 9, 2])
    rs = round_stats(shadow_tokens(steps), exit_layer=1)
    assert rs.u_r == 3


def test_match_count_over_inclusive_window():
    # exit layer row sets u=2; layer 2 matches at 0 and 2 -> c = 2
    steps = steps_from_tokens([[5, 7, 9], [5, 9, 1]], [5, 7, 1])
    rs = round_stats(shadow_tokens(steps), exit_layer=1)
    assert rs.u_r == 2
    assert rs.sums[0].tolist() == [2.0, 2.0]  # matched counts


def test_prefill_window_counts_every_position():
    # without an exit layer the window is the full width, past the exit
    # layer's first mismatch
    steps = steps_from_tokens([[5, 0, 9], [5, 9, 1]], [5, 7, 1])
    sm = shadow_tokens(steps)
    assert round_stats(sm, exit_layer=1).sums[0].tolist() == [1.0, 1.0]
    rs = round_stats(sm, exit_layer=None)
    assert rs.u_r == 2
    c, tcs, fcs = rs.sums
    assert c.tolist() == [1.0, 2.0]
    assert tcs.tolist() == pytest.approx([0.7, 1.4])
    assert fcs.tolist() == pytest.approx([1.4, 0.7])


def test_confidence_sums_split_by_match():
    confs = np.array([[0.9, 0.8, 0.3], [0.6, 0.5, 0.4]])
    steps = steps_from_tokens([[5, 7, 9], [5, 9, 1]], [5, 7, 1], confs)
    rs = round_stats(shadow_tokens(steps), exit_layer=1)
    window_sums = confs.sum(axis=1)
    _, tcs, fcs = rs.sums
    assert np.allclose(tcs + fcs, window_sums, atol=1e-9)
    assert np.isclose(tcs[1], 0.6 + 0.4)
    assert np.isclose(fcs[1], 0.5)


@st.composite
def shadow_blocks(draw):
    """A round's (L-1, w) match and confidence blocks, w from 1 to 19, with
    the exit layer's first mismatch at any window end u, and confidences
    spread over several magnitudes, where the order of a sum shows."""
    n_exit = draw(st.integers(1, 79))
    width = draw(st.integers(1, 19))
    u = draw(st.integers(0, width - 1))
    exit_layer = draw(st.integers(1, n_exit))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matches = rng.random((n_exit, width)) < draw(st.sampled_from([0.0, 0.3, 0.9, 1.0]))
    matches[exit_layer - 1, :u] = True
    if u < width - 1:
        matches[exit_layer - 1, u] = False
    conf = rng.random((n_exit, width)) ** draw(st.sampled_from([1.0, 0.2, 8.0]))
    conf *= 10.0 ** rng.integers(-6, 1, size=conf.shape)
    return ShadowMatrix(matches, conf), exit_layer, u


@settings(max_examples=400, deadline=None)
@given(shadow_blocks(), st.booleans())
def test_window_sums_equal_per_row_sums_of_the_zero_padded_window(block, prefill):
    # one sum over the stacked (3, L-1, w) buffer gives, to the bit, numpy's
    # sum of each layer's full-width row with the positions after u_r zeroed
    sm, exit_layer, u = block
    if prefill:
        exit_layer, u = None, sm.matches.shape[1] - 1
    rs = round_stats(sm, exit_layer)
    assert rs.u_r == u
    window = np.arange(sm.matches.shape[1]) <= u
    in_window = sm.matches & window
    matched = sm.confidences * in_window
    want = (in_window.sum(axis=1).astype(np.float64), matched.sum(axis=1),
            (sm.confidences * window - matched).sum(axis=1))
    for got, row in zip(rs.sums, want):
        assert got.tobytes() == row.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([0.0, 0.95, 1.0]), st.integers(1, 79), st.integers(1, 40),
       st.integers(0, 2**32 - 1))
def test_stacked_push_equals_the_per_field_recurrence(omega, n_exit, rounds, seed):
    # push folds the three per-layer sums as one array; each row and both
    # scalars equal the recurrence A <- omega * A + a_r kept field by field
    rng = np.random.default_rng(seed)
    stats = zero_stats(n_exit)
    sc, stcs, sfcs = np.zeros(n_exit), np.zeros(n_exit), np.zeros(n_exit)
    su = scnt = 0.0
    for _ in range(rounds):
        u = int(rng.integers(0, 19))
        c = rng.integers(0, u + 2, size=n_exit).astype(np.float64)
        tcs, fcs = rng.random(n_exit) * c, rng.random(n_exit) * (u + 1 - c)
        stats = push(stats, RoundStats(u, np.array([c, tcs, fcs])), omega)
        sc, stcs, sfcs = omega * sc + c, omega * stcs + tcs, omega * sfcs + fcs
        su, scnt = omega * su + u, omega * scnt + 1.0
        for got, want in zip(stats.sums, (sc, stcs, sfcs)):
            assert got.tobytes() == want.tobytes()
        assert (stats.su, stats.scnt) == (su, scnt)


# -- decayed push ---------------------------------------------------------------

def decayed(sc, su, stcs, sfcs, scnt):
    """DecayedStats from its five named sums."""
    return DecayedStats(np.array([sc, stcs, sfcs], dtype=np.float64), su, scnt)


def _push_u_sequence(omega, us):
    stats = zero_stats(1)
    for u in us:
        stats = push(stats, RoundStats(u, np.zeros((3, 1))), omega)
    return stats


def test_push_matches_direct_expansion():
    stats = _push_u_sequence(0.5, [1, 2, 4])
    assert stats.su == pytest.approx(0.25 * 1 + 0.5 * 2 + 4)
    assert stats.scnt == pytest.approx(0.25 + 0.5 + 1.0)


def test_push_omega_one_is_cumulative_sum():
    assert _push_u_sequence(1.0, [1, 2, 4]).su == pytest.approx(7.0)


def test_push_omega_zero_keeps_latest_only():
    assert _push_u_sequence(0.0, [1, 2, 4]).su == pytest.approx(4.0)


def test_decay_weight_half_life_anchor():
    # a value pushed 13 rounds before the latest carries weight 0.95^13 ~ 0.51
    stats = _push_u_sequence(0.95, [1.0] + [0.0] * 13)
    assert stats.su == pytest.approx(0.95**13)
    assert 0.5 < stats.su < 0.52


@given(st.lists(st.floats(0, 50, allow_nan=False), min_size=1, max_size=30),
       st.floats(0, 1, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_incremental_equals_direct_weighted_sum(values, omega):
    stats = _push_u_sequence(omega, values)
    direct = sum(omega ** (len(values) - 1 - i) * v for i, v in enumerate(values))
    assert stats.su == pytest.approx(direct, rel=1e-9, abs=1e-9)


# -- acceptance-rate estimation ---------------------------------------------------

def test_alpha_ratio_of_cumulative_sums():
    stats = zero_stats(1)
    for c, u in ((2, 3), (3, 4)):
        stats = push(stats, RoundStats(u, np.array([[float(c)], [0.0], [0.0]])), 1.0)
    alpha = estimate_alpha(stats)
    assert alpha[0] == pytest.approx(5 / 7)


def test_alpha_clamp_floor_and_ceiling():
    stats = decayed([0.0, 50.0], 10.0, [0.0, 0.0], [0.0, 0.0], 2.0)
    alpha = estimate_alpha(stats)
    assert alpha[0] == ALPHA_FLOOR == 1e-6
    assert alpha[1] == 1.0


def test_alpha_with_a_subnormal_window_sum_is_clipped_without_overflow():
    # a tiny decay factor leaves su subnormal after a round with u_r > 0;
    # matches over it would overflow a plain divide (a RuntimeWarning, an
    # error under the suite's filter) before the clip to 1
    sc = [0.0, 1e-320, 4.4e-313, 1.0, 50.0]
    stats = decayed(sc, 2.2250738585e-313, [0.0] * 5, [0.0] * 5, 1.0)
    with np.errstate(over="ignore"):
        want = np.clip(np.array(sc) / stats.su, ALPHA_FLOOR, 1.0)
    got = estimate_alpha(stats)
    assert got.tolist() == want.tolist() == [ALPHA_FLOOR, ALPHA_FLOOR, 1.0, 1.0, 1.0]
    # normal sums: the clip of the plain ratio, to the bit
    rng = np.random.default_rng(3)
    for _ in range(200):
        sc, su = rng.random(7) * 10.0, float(rng.random() * 10.0)
        stats = decayed(sc, su, [0.0] * 7, [0.0] * 7, 1.0)
        assert estimate_alpha(stats).tolist() == np.clip(sc / su, ALPHA_FLOOR, 1.0).tolist()


def test_alpha_falls_back_to_round_count_when_u_always_zero():
    stats = decayed([3.0], 0.0, [0.0], [0.0], 4.0)
    assert estimate_alpha(stats)[0] == pytest.approx(0.75)


def test_alpha_monte_carlo_convergence_long_windows():
    # fixed-length drafting at a perfectly agreeing exit layer keeps the
    # window bias at width/(width-1); a 51-wide window puts the a=0.8
    # layer's estimate inside [0.78, 0.82]
    cfg = make_cfg(L=8, V=16, d_max=50, seed=3)
    profile = (0.3, 0.5, 0.8, 0.2, 0.6, 1.0, 0.9, 1.0)
    model = agreement_model(cfg, profile)
    plan = DraftPlan(exit_layer=6, threshold=0.0, planned_len=50)
    stats = zero_stats(cfg.L - 1)
    ctx = [1, 2]
    rng = np.random.default_rng(0)
    ledger = CostLedger()
    for _ in range(500):
        out = run_round(model, ctx, plan, rng, ledger, cfg)
        rs = round_stats(shadow_tokens(out.steps), plan.exit_layer)
        stats = push(stats, rs, omega=1.0)
    alpha = estimate_alpha(stats)
    assert 0.78 <= alpha[2] <= 0.82
    assert alpha[5] == 1.0  # the exit layer's own estimate saturates
    # incremental accumulator agrees with the directly observed window ratio
    assert alpha[2] == pytest.approx(stats.sums[0, 2] / stats.su, rel=1e-12)


# -- the per-layer objective ------------------------------------------------------

def test_tpl_zero_acceptance():
    assert tpl(0.0, 3, 0, 32) == pytest.approx(1 / 32)
    assert tpl(0.0, 5, 4, 32) == pytest.approx(1 / (4 * 5 + 32))


def test_tpl_full_acceptance_exact():
    assert tpl(1.0, 8, 6, 32) == (6 + 1) / (6 * 8 + 32)
    assert tpl(1.0, 8, 6, 32) == pytest.approx(0.0875)
    for d in range(19):
        assert tpl(1.0, 2, d, 16) == (d + 1) / (2 * d + 16)


def test_tpl_geometric_sum_anchor():
    # sum_{i<=6} 0.8^i = 3.951424
    assert tpl(0.8, 8, 6, 32) == pytest.approx(0.049393, abs=1e-6)


def test_tpl_matches_closed_form_everywhere():
    for alpha in np.arange(0.01, 1.0, 0.01):
        for d in range(0, 19):
            closed = (1 - alpha ** (d + 1)) / ((1 - alpha) * (d * 3 + 32))
            assert tpl(float(alpha), 3, d, 32) == pytest.approx(closed, rel=1e-12)


def test_tpl_grid_matches_scalar():
    alpha = np.array([0.3, 0.8, 1.0])
    grid = tpl_grid(alpha, 6, 16)
    for ell in (1, 2, 3):
        for d in range(7):
            assert grid[ell - 1, d] == pytest.approx(tpl(float(alpha[ell - 1]), ell, d, 16), rel=1e-12)


def test_tpl_argmax_scale_invariance():
    alpha = np.array([0.2, 0.9, 0.5, 0.7])
    grid = tpl_grid(alpha, 10, 12)
    assert np.argmax(grid) == np.argmax(123.456 * grid)


def test_select_plan_degenerate_alpha_prefers_vanilla_step():
    cfg = make_cfg(L=32, V=64)
    plan = select_plan(np.full(31, ALPHA_FLOOR), np.full(31, 0.5), cfg)
    assert (plan.exit_layer, plan.planned_len) == (1, 0)


def test_select_plan_perfect_cheap_layer_takes_longest_draft():
    cfg = make_cfg(L=32, V=64, d_max=18)
    alpha = np.full(31, 0.2)
    alpha[0] = 1.0
    plan = select_plan(alpha, np.full(31, 0.5), cfg)
    assert (plan.exit_layer, plan.planned_len) == (1, 18)
    assert tpl(1.0, 1, 18, 32) == pytest.approx(0.38)


def test_select_plan_tie_breaks_to_lower_layer():
    cfg = make_cfg(L=8, V=16, d_max=6)
    plan = select_plan(np.ones(7), np.linspace(0.1, 0.7, 7), cfg)
    assert plan.exit_layer == 1
    assert plan.threshold == pytest.approx(0.1)


def test_select_plan_carries_threshold_of_chosen_layer():
    cfg = make_cfg(L=8, V=16)
    alpha = np.array([0.1, 0.95, 0.1, 0.1, 0.1, 0.1, 0.1])
    thresholds = np.linspace(0.1, 0.7, 7)
    plan = select_plan(alpha, thresholds, cfg)
    assert plan.exit_layer == 2
    assert plan.threshold == pytest.approx(thresholds[1])
    # the default algorithm1 capping drafts to d_max; plan capping drafts
    # at most the planned length
    assert draft_bound(plan, cfg) == cfg.d_max
    capped_cfg = cfg.replace(draft_cap_mode=CAP_PLAN)
    capped = select_plan(alpha, thresholds, capped_cfg)
    assert draft_bound(capped, capped_cfg) == capped.planned_len == plan.planned_len



@st.composite
def estimates(draw):
    """L, d_max and L - 1 acceptance estimates in [0, 1] built from runs:
    fresh values, exact 1.0, ``ALPHA_FLOOR``, repeats of the value before,
    and its ``np.nextafter`` neighbours, so that ties and near-ties between
    layers are common."""
    L = draw(st.integers(2, 100))
    d_max = draw(st.integers(0, 40))
    alpha = []
    while len(alpha) < L - 1:
        kind = draw(st.sampled_from(["fresh", "one", "floor", "repeat", "up", "down"]))
        prev = alpha[-1] if alpha else draw(st.floats(0.0, 1.0))
        value = {
            "fresh": lambda: draw(st.floats(0.0, 1.0)),
            "one": lambda: 1.0,
            "floor": lambda: ALPHA_FLOOR,
            "repeat": lambda: prev,
            "up": lambda: min(float(np.nextafter(prev, 2.0)), 1.0),
            "down": lambda: max(float(np.nextafter(prev, -1.0)), 0.0),
        }[kind]()
        alpha += [value] * draw(st.integers(1, 4))
    return L, d_max, np.array(alpha[: L - 1])


@settings(max_examples=200, deadline=None)
@given(estimates(), st.data())
def test_select_plan_is_the_full_grids_row_major_argmax(case, data):
    L, d_max, alpha = case
    cfg = make_cfg(L=L, V=16, d_max=d_max)
    grid = tpl_grid(alpha, d_max, L)
    # the first cell, row-major, that holds the grid's maximum
    flat = int(np.flatnonzero(grid == grid.max())[0])
    ell, d = flat // (d_max + 1) + 1, flat % (d_max + 1)
    thresholds = np.arange(1.0, L) / L
    plan = select_plan(alpha, thresholds, cfg)
    assert (plan.exit_layer, plan.planned_len) == (ell, d)
    assert plan.threshold == thresholds[ell - 1]
    # the pruning rests on rows raised alone being the full grid's, bit for bit
    rows = sorted(data.draw(st.sets(st.integers(0, L - 2), min_size=1)))
    assert _tpl_rows(alpha, rows, d_max, L).tobytes() == grid[rows].tobytes()
    m = data.draw(st.integers(1, L - 1))
    assert tpl_grid(alpha[:m], d_max, L).tobytes() == grid[:m].tobytes()
    # and the grid is the one raised, summed and divided in (d, ell) layout
    exponents = np.arange(d_max + 1.0)[:, None]
    columns = alpha ** exponents
    np.add.accumulate(columns, axis=0, out=columns)
    columns /= exponents * np.arange(1, L) + L
    assert grid.tobytes() == np.ascontiguousarray(columns.T).tobytes()


# -- dynamic threshold -------------------------------------------------------------

def test_threshold_midpoint():
    # matched mean 0.9 over 2 matches; mismatched mean 0.3 over 3 mismatches
    stats = decayed([2.0], 4.0, [1.8], [0.9], 1.0)
    tau = update_threshold(stats)
    assert tau[0] == pytest.approx(0.5 * (0.9 + 0.3)) == pytest.approx(0.6)


def test_threshold_no_mismatches_uses_matched_mean():
    stats = decayed([3.0], 2.0, [2.4], [0.0], 1.0)
    assert update_threshold(stats)[0] == pytest.approx(0.8)


def test_threshold_no_matches_uses_mismatched_mean():
    stats = decayed([0.0], 3.0, [0.0], [1.2], 1.0)
    assert update_threshold(stats)[0] == pytest.approx(1.2 / 4.0)


@settings(max_examples=60, deadline=None)
@given(
    profile=st.lists(st.sampled_from([0.0, 0.05, 0.5, 0.95, 1.0]), min_size=5, max_size=5),
    omega=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    decode_mode=st.sampled_from(["greedy", "sampling"]),
    prompt_len=st.integers(1, 6),
    seed=st.integers(0, 2**16),
)
def test_every_layer_has_a_mean_confidence_after_each_update(profile, omega, decode_mode,
                                                             prompt_len, seed):
    # update_threshold reads each layer's matched or mismatched mean
    # confidence: from the prefill round on, every layer has one of them
    cfg = make_cfg(L=6, V=16, omega=omega, decode_mode=decode_mode, max_new_tokens=24,
                   prefill_window=4, d_max=6, seed=seed)
    model = agreement_model(cfg, tuple(profile) + (1.0,), seed=seed)
    rng = np.random.default_rng(seed)
    ctx = model.sample_prompt(prompt_len, rng)
    policy = DelController(cfg)
    plan = policy.init(model, list(ctx))
    emitted = 0
    while True:
        s = policy.stats
        sc = s.sums[0]
        assert np.all((sc > 0.0) | ((s.su + s.scnt) - sc > 1e-12))
        if emitted == cfg.max_new_tokens:
            break
        out = run_round(model, ctx, plan, rng, CostLedger(), cfg, cfg.max_new_tokens - emitted)
        emitted += len(out.emitted)
        plan = policy.observe(out)


@given(
    st.floats(0.1, 10.0),
    st.floats(0.1, 10.0),
    st.floats(0.01, 0.99),
    st.floats(0.01, 0.99),
)
@settings(max_examples=150, deadline=None)
def test_threshold_strictly_between_the_two_means(match_mass, miss_mass, m_mean, f_mean):
    stats = decayed([match_mass], match_mass + miss_mass - 1.0, [match_mass * m_mean],
                    [miss_mass * f_mean], 1.0)
    tau = float(update_threshold(stats)[0])
    lo, hi = sorted((m_mean, f_mean))
    if hi - lo > 1e-9:
        assert lo < tau < hi


def test_threshold_beta_confidence_midpoint_converges():
    cfg = make_cfg(L=6, V=64, seed=5)
    model = agreement_model(cfg, (0.2, 0.85, 0.2, 0.2, 0.2, 1.0))
    plan = DraftPlan(exit_layer=2, threshold=0.0, planned_len=12)
    stats = zero_stats(cfg.L - 1)
    ctx = [1]
    rng = np.random.default_rng(0)
    for _ in range(1200):
        out = run_round(model, ctx, plan, rng, CostLedger(), cfg)
        stats = push(stats, round_stats(shadow_tokens(out.steps), 2), cfg.omega)
    tau = update_threshold(stats)
    # Beta(8,2) matches vs Beta(2,8) mismatches: midpoint of 0.8 and 0.2
    assert abs(tau[1] - 0.5) < 0.05


# -- prefill --------------------------------------------------------------------

def test_prefill_short_prompt_uses_all_positions():
    cfg = make_cfg(L=4, prefill_window=32)
    model = agreement_model(cfg, (0.5, 0.9, 0.3, 1.0))
    counting = CallCountingModel(model)
    stats, thresholds, alpha, plan = prefill_init(counting, [1, 2, 3, 4, 5], cfg)
    assert counting.calls == 5
    assert stats.su == pytest.approx(4.0 * cfg.omega ** 0)  # u_0 = window - 1
    assert stats.scnt == pytest.approx(1.0)
    plan.validate(cfg)


def test_prefill_window_clamps_long_prompt():
    cfg = make_cfg(L=4, prefill_window=8)
    model = agreement_model(cfg, (0.5, 0.9, 0.3, 1.0))
    counting = CallCountingModel(model)
    prefill_init(counting, [i % cfg.V for i in range(40)], cfg)
    assert counting.calls == 8


def test_prefill_toy_gives_unit_alpha():
    cfg = make_cfg()
    model = toy_model(cfg)
    stats, thresholds, alpha, plan = prefill_init(model, [1, 2, 3, 4, 5, 6], cfg)
    assert np.array_equal(alpha, estimate_alpha(stats))
    assert np.all(alpha == 1.0)


def test_prefill_alpha_seeding_monte_carlo():
    cfg = make_cfg(L=4, prefill_window=32)
    in_range = 0
    seeds = 100
    for seed in range(seeds):
        model = agreement_model(cfg, (0.2, 0.2, 0.9, 1.0), seed=seed)
        prompt = model.sample_prompt(32, np.random.default_rng(seed))
        _, _, alpha, _ = prefill_init(model, prompt, cfg)
        if 0.75 <= alpha[2] <= 1.0:
            in_range += 1
    assert in_range >= 93


def test_prefill_rejects_empty_prompt():
    cfg = make_cfg()
    with pytest.raises(ValueError):
        prefill_init(toy_model(cfg), [], cfg)


# -- the composed update ----------------------------------------------------------

def test_del_update_never_calls_the_model():
    cfg = make_cfg(L=8, V=32, seed=2)
    model = CallCountingModel(agreement_model(cfg, profile_with(8, best=2)))
    policy = DelController(cfg)
    prompt = model.sample_prompt(16, np.random.default_rng(0))
    plan = policy.init(model, prompt)
    ctx = list(prompt)
    rng = np.random.default_rng(1)
    for _ in range(10):
        out = run_round(model, ctx, plan, rng, CostLedger(), cfg)
        before = model.calls
        plan = policy.observe(out)
        assert model.calls == before


def test_del_update_returns_fresh_threshold_for_selected_layer():
    cfg = make_cfg(L=6, V=32, seed=4, **{})
    model = agreement_model(cfg, (0.2, 0.9, 0.2, 0.2, 0.2, 1.0), **TIGHT_CONF)
    policy = DelController(cfg)
    prompt = model.sample_prompt(16, np.random.default_rng(0))
    plan = policy.init(model, prompt)
    ctx = list(prompt)
    rng = np.random.default_rng(1)
    for _ in range(5):
        out = run_round(model, ctx, plan, rng, CostLedger(), cfg)
        plan = policy.observe(out)
        assert plan.threshold == pytest.approx(float(policy.thresholds[plan.exit_layer - 1]))


def test_del_converges_to_grid_optimal_cell():
    # stationary profile with one clear specialist layer: the modal plan of the
    # final rounds should sit on the sweep-optimal static cell
    from delsim.harness import grid_sweep, run_session
    from delsim.model import ModelSpec

    cfg = make_cfg(L=16, V=32, seed=9, max_new_tokens=1600)
    profile = profile_with(16, best=2)
    spec = ModelSpec(kind="agreement", agreement_profile=profile, **TIGHT_CONF)
    model = agreement_model(cfg, profile, seed=123, **TIGHT_CONF)
    policy = DelController(cfg)
    prompt = model.sample_prompt(32, np.random.default_rng(0))
    res = run_session(model, policy, cfg, prompt, 77)
    final = [(r["E"], r["planned_len"]) for r in res.records][-100:]
    assert len(final) == 100
    modal = max(set(final), key=final.count)

    sweep_cfg = cfg.replace(max_new_tokens=256)
    grid = grid_sweep(spec, sweep_cfg, [1, 2, 3, 4], [0, 3, 6, 9, 12, 15, 18], 3, 32)
    best_ell, best_d, best_val = grid.best_cell()
    assert modal[0] == best_ell
    # adjacent lengths at high acceptance sit within noise of each other, so
    # compare the modal cell's value, not its exact coordinates
    modal_d = min(grid.ds, key=lambda d: abs(d - modal[1]))
    modal_val = float(grid.values[0, grid.ells.index(modal[0]), grid.ds.index(modal_d)])
    assert modal_val >= 0.95 * best_val
    assert sum(1 for p in final if p == modal) >= 90


def test_del_adapts_across_regime_switch():
    # the regime flips which layer is worth drafting from; the modal selected
    # exit layer must change within 50 rounds of the boundary
    cfg = make_cfg(L=16, V=32, seed=11, max_new_tokens=1200, prefill_window=32)
    profA, profB = profile_with(16, best=6), profile_with(16, best=2)
    model = regime_model(cfg, [(32 + 600, profA), (10**7, profB)], **TIGHT_CONF)
    from delsim.harness import run_session

    policy = DelController(cfg)
    prompt = model.sample_prompt(32, np.random.default_rng(0))
    res = run_session(model, policy, cfg, prompt, 42)
    es = [r["E"] for r in res.records]
    cum = np.cumsum([r["emitted_len"] for r in res.records])
    switch_round = int(np.searchsorted(cum, 600))
    assert es[switch_round - 1] == 6
    after = es[switch_round:switch_round + 50]
    assert 2 in after
    assert es[-1] == 2


def test_trace_fields_expose_alpha_and_u():
    cfg = make_cfg(L=4, V=16, seed=1)
    model = agreement_model(cfg, (0.5, 0.9, 0.3, 1.0))
    policy = DelController(cfg)
    plan = policy.init(model, [1, 2, 3])
    assert plan is policy.plan
    assert len(policy.alpha_snapshot) == cfg.L - 1
    assert policy.u_r is None
    ctx = [1, 2, 3]
    out = run_round(model, ctx, plan, np.random.default_rng(0), CostLedger(), cfg)
    assert policy.observe(out) is policy.plan
    assert policy.alpha_snapshot == estimate_alpha(policy.stats).tolist()
    assert 0 <= policy.u_r <= len(out.drafted)


# -- every del round reads all its positions -----------------------------------------

CONFIDENCE_LAWS = st.sampled_from([
    {"dist": "fixed", "value": 0.0},  # every confidence at the 1/V floor
    {"dist": "fixed", "value": 1.0 / 32},
    {"dist": "fixed", "value": 1.0},
    {"dist": "uniform", "lo": 0.0, "hi": 0.02},
    {"dist": "uniform", "lo": 0.0, "hi": 1.0},
    {"dist": "beta", "a": 16, "b": 4},
    {"dist": "beta", "a": 4, "b": 16},
    {"dist": "beta", "a": 0.5, "b": 0.5},
])


@st.composite
def del_sessions(draw):
    """A model with any profile and confidence laws, a config and a prompt."""
    L = draw(st.integers(2, 8))
    levels = st.sampled_from([0.0, 0.3, 0.7, 0.95, 1.0])

    def profile():
        return tuple(draw(st.lists(levels, min_size=L - 1, max_size=L - 1))) + (1.0,)

    laws = {"confidence_match": draw(CONFIDENCE_LAWS), "confidence_mismatch": draw(CONFIDENCE_LAWS)}
    if draw(st.booleans()):
        spec = ModelSpec(kind=AGREEMENT, agreement_profile=profile(), **laws)
    else:
        regimes = tuple((draw(st.integers(1, 12)), profile()) for _ in range(2))
        spec = ModelSpec(kind=REGIME_SWITCHING, regimes=regimes, **laws)
    cfg = make_cfg(
        L=L, V=draw(st.sampled_from([2, 5, 32])), seed=draw(st.integers(0, 2**16)),
        d_max=draw(st.integers(1, 8)), max_new_tokens=draw(st.integers(1, 40)),
        prefill_window=draw(st.integers(1, 12)), omega=draw(st.sampled_from([0.0, 0.5, 0.95, 1.0])),
        decode_mode=draw(st.sampled_from(["greedy", "sampling"])),
        draft_cap_mode=draw(st.sampled_from(["algorithm1", CAP_PLAN])),
    )
    model = LayeredModel(spec, cfg.L, cfg.V, draw(st.integers(0, 3)))
    prompt = draw(st.lists(st.integers(0, cfg.V - 1), min_size=1, max_size=12))
    return model, cfg, prompt, draw(st.integers(0, 2**16))


@given(del_sessions())
@settings(max_examples=120, deadline=None)
def test_every_del_plan_has_a_threshold_so_its_rounds_read_every_position(case):
    model, cfg, prompt, seed = case
    policy = DelController(cfg)
    plan = policy.init(model, prompt)
    ctx, rng, ledger = list(prompt), np.random.default_rng(seed), CostLedger()
    while ledger.tokens_emitted < cfg.max_new_tokens:
        assert plan.threshold > 0.0
        out = run_round(model, ctx, plan, rng, ledger, cfg, cfg.max_new_tokens - ledger.tokens_emitted)
        assert len(out.steps) == out.g + 1
        plan = policy.observe(out)


def test_del_observe_rejects_a_round_that_read_fewer_positions():
    from delsim.types import InvariantViolation

    cfg = make_cfg(L=4, V=16, d_max=6)
    model = CallCountingModel(agreement_model(cfg, (0.3, 0.3, 0.3, 1.0)))
    policy = DelController(cfg)
    policy.init(model, [1, 2, 3])
    ctx, rng = [1, 2, 3], np.random.default_rng(0)
    # a zero-threshold round that stops at an early rejection
    out = run_round(model, ctx, DraftPlan(1, 0.0, 6), rng, CostLedger(), cfg)
    while out.accepted_count == out.g:
        out = run_round(model, ctx, DraftPlan(1, 0.0, 6), rng, CostLedger(), cfg)
    assert len(out.steps) < out.g + 1
    stats, calls = policy.stats, model.calls
    with pytest.raises(InvariantViolation, match="g \\+ 1"):
        policy.observe(out)
    assert model.calls == calls and policy.stats is stats

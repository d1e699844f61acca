import dataclasses
import gc
import hashlib
import math
import threading
import weakref

import numpy as np
import pytest
from conftest import (
    CallCountingModel,
    ScriptedUniforms,
    agreement_model,
    decoded,
    fixed_step,
    layer_arrays,
    make_cfg,
    regime_model,
    toy_model,
    toy_spec,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from delsim import harness
from delsim.baselines import make_policy
from delsim.config import ConfigError
from delsim.model import (
    AGREEMENT,
    REGIME_SWITCHING,
    TABLE_SIZE,
    LayeredModel,
    ModelSpec,
    beta_table,
)
from delsim.types import PROB_SUM_TOL, LayerStep, exit_distribution, sample_cdf
from reference import sample_index
from reference import sample_prompt as reference_prompt


def path_steps(model, prompt, n):
    """The ``n`` steps along the greedy path after ``prompt`` (the contexts
    ``prompt`` plus each prefix of ``argmax_chain(prompt, n)``), their rows
    filled in path order by one ``shadow`` read."""
    ctx = list(prompt) + model.argmax_chain(prompt, n)
    steps = [model.step(ctx[: len(prompt) + k]) for k in range(n)]
    if steps:
        LayerStep.shadow(steps)
    return steps


def distinct_contexts(n, V, length=4):
    # encode the index so every context is unique and deterministic
    for i in range(n):
        yield [i % V, (i // V) % V, (i // V // V) % V, 1 + i % (V - 1)]


def test_toy_all_layers_follow_the_transition_table():
    cfg = make_cfg()
    model = toy_model(cfg)
    ls = model.step([3])
    tops, conf = layer_arrays(ls)
    assert np.all(tops == ls.target_token)
    assert np.all(conf == 1.0)
    # default toy table is the +1 cycle
    assert ls.target_token == 4
    assert ls.target[4] == ls.target.max() == 1.0


def test_never_agree_profile():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (0.0, 0.0, 0.0, 1.0))
    for ctx in distinct_contexts(50, cfg.V):
        ls = model.step(ctx)
        assert np.all(layer_arrays(ls)[0] != ls.target_token)


def test_always_agree_profile():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (1.0, 1.0, 1.0, 1.0))
    for ctx in distinct_contexts(50, cfg.V):
        ls = model.step(ctx)
        assert np.all(layer_arrays(ls)[0] == ls.target_token)


def test_profile_fidelity_monte_carlo():
    # one pass checks every layer: each step carries all layers
    cfg = make_cfg(L=6, V=32)
    profile = (0.1, 0.5, 0.8, 0.3, 0.95, 1.0)
    model = agreement_model(cfg, profile)
    n = 100_000
    hits = np.zeros(cfg.L - 1)
    for ctx in distinct_contexts(n, cfg.V):
        ls = model.step(ctx)
        hits += layer_arrays(ls)[0] == ls.target_token
    freq = hits / n
    for ell in range(cfg.L - 1):
        a = profile[ell]
        bound = 3.0 * np.sqrt(max(a * (1 - a), 1e-12) / n)
        assert abs(freq[ell] - a) <= max(bound, 1e-9), f"layer {ell + 1}"
    # anchor: a=0.8 layer lands in [0.79, 0.81]
    assert 0.79 <= freq[2] <= 0.81


def test_agreement_requires_profile_and_valid_entries():
    cfg = make_cfg(L=4)
    with pytest.raises(ConfigError):
        LayeredModel(ModelSpec(kind="agreement"), cfg.L, cfg.V, 1)
    with pytest.raises(ConfigError):
        agreement_model(cfg, (0.5, 0.5, 0.5, 0.9))  # last must be 1
    with pytest.raises(ConfigError):
        agreement_model(cfg, (0.5, 1.2, 0.5, 1.0))
    with pytest.raises(ConfigError):
        agreement_model(cfg, (0.5, 0.5, 1.0))  # wrong length


@pytest.mark.parametrize("conc", [0.0, -1.0, math.inf, 1e400, math.nan, "1e400"])
def test_dirichlet_concentration_must_be_finite_and_positive(conc):
    cfg = make_cfg(L=4, V=8)
    with pytest.raises(ConfigError, match="base_process.concentration"):
        agreement_model(cfg, (0.5, 0.5, 0.5, 1.0),
                        base_process={"kind": "dirichlet", "concentration": conc})


def test_determinism_across_instances():
    cfg = make_cfg()
    prof = (0.2, 0.6, 0.4, 0.9, 0.1, 0.7, 0.5, 1.0)
    m1 = agreement_model(cfg, prof, seed=42)
    m2 = agreement_model(cfg, prof, seed=42)
    m3 = agreement_model(cfg, prof, seed=43)
    ctx = [5, 2, 9]

    def same(a, b):
        (a_tops, a_conf), (b_tops, b_conf) = layer_arrays(a), layer_arrays(b)
        return (
            np.array_equal(a_tops, b_tops)
            and np.array_equal(a_conf, b_conf)
            and np.array_equal(a.target, b.target)
            and a.target_token == b.target_token
        )

    assert same(m1.step(ctx), m2.step(ctx))
    assert not same(m1.step(ctx), m3.step(ctx))
    # same context twice within one instance
    assert same(m1.step(ctx), m1.step(ctx))


KIND_SPECS = {
    AGREEMENT: {"agreement_profile": (0.3, 0.6, 0.9, 0.05, 1.0)},
    REGIME_SWITCHING: {"regimes": ((7, (0.9, 0.1, 0.5, 0.0, 1.0)), (5, (0.0, 1.0, 0.2, 0.7, 1.0)))},
    # the toy's one-hot table and agreeing layers (``toy_spec``)
    "deterministic_toy": None,
}


def kind_spec(kind: str, V: int, **over) -> ModelSpec:
    """An L=5 spec of ``V`` tokens for each entry of ``KIND_SPECS``, with
    the fields in ``over`` set; the toy's confidence laws are replaced too
    when ``over`` names them."""
    if KIND_SPECS[kind] is None:
        return dataclasses.replace(toy_spec(5, V), **over)
    return ModelSpec(kind=kind, **KIND_SPECS[kind], **over)


@given(
    st.sampled_from(sorted(KIND_SPECS)),
    st.lists(st.integers(0, 16), min_size=1, max_size=40),
    st.sampled_from([{"dist": "beta", "a": 8.0, "b": 2.0}, {"dist": "fixed", "value": 0.0},
                     {"dist": "fixed", "value": 1.0}, {"dist": "uniform"}]),
)
@settings(max_examples=150, deadline=None)
def test_steps_are_valid_distributions(kind, ctx, conf):
    L, V = 5, 17
    spec = kind_spec(kind, V, confidence_match=conf, confidence_mismatch=conf)
    ls = LayeredModel(spec, L, V, 3).step(ctx)
    assert ls.layer_count == L and ls.target.size == V
    assert not ls.target.flags.writeable
    assert abs(ls.target.sum() - 1.0) <= PROB_SUM_TOL
    assert ls.target.argmax() == ls.target_token
    tops, confs = decoded(ls)
    for ell in range(1, L):
        top, c = ls.layer(ell)
        assert top == tops[ell - 1] and c == confs[ell - 1]
        row = exit_distribution(top, c, V)
        assert np.all(row >= 0.0)
        assert abs(row.sum() - 1.0) <= PROB_SUM_TOL
        assert row.argmax() == top and row[top] == c
        assert np.all(np.delete(row, top) < c)


def test_regime_profiles_apply_by_context_length_and_cycle():
    cfg = make_cfg(L=3, V=16)
    profA, profB = (1.0, 0.0, 1.0), (0.0, 1.0, 1.0)
    model = regime_model(cfg, [(10, profA), (10, profB)])
    n = 3000
    for target_len, prof in ((5, profA), (15, profB), (25, profA)):
        hits = np.zeros(2)
        for i in range(n):
            ctx = [i % cfg.V, (i // cfg.V) % cfg.V] + [1] * (target_len - 2)
            ls = model.step(ctx)
            hits += layer_arrays(ls)[0] == ls.target_token
        freq = hits / n
        for ell in range(2):
            a = prof[ell]
            bound = 3.0 * np.sqrt(max(a * (1 - a), 1e-12) / n)
            assert abs(freq[ell] - a) <= max(bound, 1e-9), (target_len, ell)


def test_regime_validation():
    cfg = make_cfg(L=3)
    with pytest.raises(ConfigError):
        regime_model(cfg, [(0, (1.0, 1.0, 1.0))])
    with pytest.raises(ConfigError):
        LayeredModel(ModelSpec(kind="regime_switching"), cfg.L, cfg.V, 1)


def test_step_errors():
    cfg = make_cfg()
    model = toy_model(cfg)
    with pytest.raises(ValueError):
        model.step([])
    small = LayeredModel(toy_spec(cfg.L, cfg.V, horizon=4), cfg.L, cfg.V, 1)
    small.step([1, 2, 3, 4])
    with pytest.raises(ValueError):
        small.step([1, 2, 3, 4, 5])


def test_exit_and_target_distribution_accessors():
    cfg = make_cfg(L=4, V=5)
    table = np.random.default_rng(0).dirichlet(np.ones(cfg.V), size=cfg.V)
    model = agreement_model(cfg, (1.0, 0.0, 0.5, 1.0),
                            base_process={"kind": "table", "probs": table.tolist()})
    ls = model.step([2, 3])
    assert np.array_equal(ls.target, table[3])
    assert ls.target_token == table[3].argmax()
    # drafting with the full model is the vanilla path, not an exit
    with pytest.raises(ValueError):
        exit_distribution(*ls.layer(cfg.L), cfg.V)
    # forced agreement and forced disagreement
    assert exit_distribution(*ls.layer(1), cfg.V).argmax() == ls.target_token
    assert exit_distribution(*ls.layer(2), cfg.V).argmax() != ls.target_token


def test_sample_prompt_deterministic_and_in_range():
    cfg = make_cfg()
    model = agreement_model(cfg, (0.5,) * 7 + (1.0,))
    p1 = model.sample_prompt(16, np.random.default_rng(3))
    p2 = model.sample_prompt(16, np.random.default_rng(3))
    assert p1 == p2
    assert len(p1) == 16
    assert all(0 <= t < cfg.V for t in p1)


class PromptUniforms:
    """An rng stub for ``sample_prompt``: ``integers`` returns ``first`` and
    ``random(n)`` the first n of ``uniforms``."""

    def __init__(self, first, uniforms):
        self.first = first
        self.uniforms = np.asarray(uniforms, dtype=np.float64)

    def integers(self, V):
        return np.int64(self.first)

    def random(self, n):
        return self.uniforms[:n].copy()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["dirichlet", "uniform", "table", "zeros", "toy"]),
    V=st.integers(2, 80),
    length=st.integers(1, 2000),
    conc=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_sample_prompt_equals_the_searchsorted_walk(data, kind, V, length, conc, seed):
    if kind == "zeros":
        # rows with zero entries: a CDF with flat steps, and some rows one-hot
        rng = np.random.default_rng(seed)
        probs = rng.random((V, V)) * (rng.random((V, V)) < 0.3)
        probs[np.arange(V), rng.integers(V, size=V)] += 1.0
        probs /= probs.sum(axis=1, keepdims=True)
        model = LayeredModel(ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.5, 1.0),
                                       base_process={"kind": "table", "probs": probs.tolist()}),
                             3, V, seed)
    else:
        model = cdf_model(kind, V, conc, seed)
    gen_seed = data.draw(st.integers(0, 2**32 - 1))
    a, b = np.random.default_rng(gen_seed), np.random.default_rng(gen_seed)
    got = model.sample_prompt(length, a)
    assert got == reference_prompt(model, length, b)
    assert a.bit_generator.state == b.bit_generator.state
    assert len(got) == length and all(type(t) is int for t in got)
    # each uniform exactly on a cumulative sum of the row it is drawn in (a
    # step of its CDF), or 0, or the largest a generator draws
    cum = model._cum_transition
    first = tok = data.draw(st.integers(0, V - 1))
    uniforms = []
    for j in np.random.default_rng(gen_seed).integers(V + 2, size=length - 1).tolist():
        u = 0.0 if j == V else 1.0 - 2.0**-53 if j == V + 1 else float(cum[tok, j])
        uniforms.append(u)
        tok = min(int(cum[tok].searchsorted(u, "right")), V - 1)
    got = model.sample_prompt(length, PromptUniforms(first, uniforms))
    assert got == reference_prompt(model, length, PromptUniforms(first, uniforms))


# -- cached target CDFs ---------------------------------------------------------


def cdf_model(kind: str, V: int, conc: float, seed: int) -> LayeredModel:
    """An L=3 model of ``V`` tokens whose transition rows come from the base
    process ``kind``: a Dirichlet of concentration ``conc``, uniform, a
    table whose rows sum to 1 - 1e-10 (within the check's tolerance, so a
    uniform can lie above a row's last cumulative sum), or the toy's one-hot
    table."""
    if kind == "toy":
        return LayeredModel(toy_spec(3, V), 3, V, seed)
    base = {"kind": kind}
    if kind == "dirichlet":
        base["concentration"] = conc
    elif kind == "table":
        rows = np.random.default_rng(seed).dirichlet(np.ones(V), size=V)
        base["probs"] = (rows / rows.sum(axis=1, keepdims=True) * (1.0 - 1e-10)).tolist()
    return LayeredModel(ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.5, 1.0),
                                  base_process=base), 3, V, seed)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    kind=st.sampled_from(["dirichlet", "uniform", "table", "toy"]),
    V=st.integers(2, 257),
    conc=st.floats(0.01, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cached_target_draws_equal_sample_index(data, kind, V, conc, seed):
    model = cdf_model(kind, V, conc, seed)
    tokens = data.draw(st.lists(st.integers(0, V - 1), min_size=1, max_size=4))
    for tok in tokens:
        step = model.step([tok])
        cdf = step.target_cdf
        assert type(cdf) is list and len(cdf) == V
        assert np.array(cdf).tobytes() == step.target.cumsum().tobytes()
        # uniforms at random, exactly at the row's cumulative sums, and the
        # largest a generator draws
        picks = data.draw(st.lists(st.integers(0, V - 1), max_size=4))
        randoms = data.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=4))
        for u in randoms + [cdf[i] for i in picks] + [0.0, 1.0 - 2.0**-53]:
            got = sample_cdf(cdf, ScriptedUniforms(u))
            assert got == sample_index(step.target, ScriptedUniforms(u)), u
            if u >= cdf[-1]:
                assert got == V - 1
        # a real generator: the same index and the same state after the draw
        gen_seed = data.draw(st.integers(0, 2**32 - 1))
        a, b = np.random.default_rng(gen_seed), np.random.default_rng(gen_seed)
        for _ in range(3):
            assert sample_cdf(cdf, a) == sample_index(step.target, b)
        assert a.bit_generator.state == b.bit_generator.state


def test_each_target_cdf_is_built_once_and_shared(monkeypatch):
    built: list[tuple[LayeredModel, int]] = []
    real = LayeredModel._cdf_row

    def counting(self, r):
        built.append((self, r))
        return real(self, r)

    monkeypatch.setattr(LayeredModel, "_cdf_row", counting)
    cfg = make_cfg(L=4, V=6, max_new_tokens=40, decode_mode="sampling")
    for capacity in (0, 8):
        model = agreement_model(cfg, (0.6, 0.9, 0.2, 1.0), memo_capacity=capacity)
        seen: list[tuple[int, LayerStep]] = []
        step = model.step

        def recording(ctx, prev=None):
            seen.append((int(ctx[-1]), step(ctx, prev)))
            return seen[-1][1]

        model.step = recording
        prompt = model.sample_prompt(8, np.random.default_rng(capacity))
        for name, params in [("vanilla", {}), ("ls", {"exit_layer": 2, "gamma": 3}), ("del", {})]:
            for seed in (1, 2):
                harness.run_session(model, make_policy(name, cfg, **params), cfg, prompt, seed)
        # repeated contexts: memo hits with a memo, fresh steps without
        for ctx in ([1, 2], [1, 2], [3, 2]):
            recording(ctx)
        rows = model._cdf_rows
        assert len(rows) == cfg.V
        used = {last for last, _ in seen}
        assert {r for r, cdf in enumerate(rows) if cdf is not None} == used
        for last, s in seen:
            assert s.target_cdf is rows[last]
        # one build per row used, each on the row's first step
        assert sorted(r for m, r in built if m is model) == sorted(used)


def test_wrappers_count_and_cache(draws):
    cfg = make_cfg()
    inner = toy_model(cfg)
    counting = CallCountingModel(inner)
    counting.step([1])
    counting.step([1])
    assert counting.calls == 2
    assert counting.L == cfg.L
    # the model's own memo hands a repeated context back the identical step,
    # whose row is filled once
    memo = CallCountingModel(agreement_model(cfg, (0.5,) * 7 + (1.0,), memo_capacity=4))
    first = memo.step([1, 2])
    first.layer(1)
    assert memo.step([1, 2]) is first
    layer_arrays(memo.step([1, 2]))
    assert memo.calls == 3
    assert len(draws) == 1


# -- step memo ----------------------------------------------------------------

MEMO_SPECS = {
    "agreement": ModelSpec(kind=AGREEMENT, agreement_profile=(0.6, 0.9, 0.2, 1.0), horizon=6),
    "regime_switching": ModelSpec(
        kind=REGIME_SWITCHING,
        regimes=((2, (0.9, 0.1, 0.5, 1.0)), (3, (0.1, 0.9, 0.5, 1.0))),
        context_hash_window=3,
        horizon=6,
    ),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(MEMO_SPECS)),
    capacity=st.integers(1, 6),
    # few tokens and short contexts make repeats, and more distinct contexts
    # than the memo holds
    contexts=st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=6), min_size=1, max_size=60),
)
def test_memoized_steps_equal_computed_steps(kind, capacity, contexts):
    spec = MEMO_SPECS[kind]
    plain = LayeredModel(spec, 4, 5, 11)
    memo = LayeredModel(spec, 4, 5, 11, memo_capacity=capacity)
    for ctx in contexts:
        a, b = plain.step(ctx), memo.step(ctx)
        assert a.target_token == b.target_token
        for x, y in zip((*layer_arrays(a), a.target), (*layer_arrays(b), b.target)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert len(memo._memo) <= capacity


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(MEMO_SPECS)),
    # regime_switching's window is 3 tokens: these contexts are shorter than
    # it, as long, and longer
    contexts=st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=6), min_size=1, max_size=12),
    as_tuple=st.booleans(),
)
def test_memo_less_rows_equal_memo_rows(kind, contexts, as_tuple):
    # a memo-less step and a memo step of one context are keyed alike, and
    # their rows are the same uniforms, to the bit
    spec = MEMO_SPECS[kind]
    plain = LayeredModel(spec, 4, 5, 11)
    memo = LayeredModel(spec, 4, 5, 11, memo_capacity=64)
    for ctx in contexts:
        given_ctx = tuple(ctx) if as_tuple else list(ctx)
        a, b = plain.step(given_ctx), memo.step(list(ctx))
        row_a, row_b = vars(a)["_row"], vars(b)["_row"]
        assert row_a.msg == row_b.msg == memo._key(len(ctx), ctx[-spec.context_hash_window:])
        ua, ub = row_a.uniforms(), row_b.uniforms()
        assert np.array_equal(ua.view(np.uint64), ub.view(np.uint64))


def test_memo_less_steps_pack_their_key_when_they_are_made(draws):
    cfg = make_cfg(L=6, V=8)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,))
    w = model.spec.context_hash_window
    ctx = []
    # contexts shorter than the 64-token window, as long, and longer
    for tok in list(range(8)) * 10:
        ctx.append(tok)
        last = model.step(ctx)
        assert key_of(last) == model._key(len(ctx), ctx[-w:])
    assert draws == []
    # the step keeps its key, not the context: changing the context after
    # the step changes nothing of it
    key = key_of(last)
    ctx[-1] = 0
    tokens, confs = layer_arrays(last)
    assert key_of(last) == key and len(draws) == 1
    want = LayeredModel(model.spec, cfg.L, cfg.V, 1, memo_capacity=1).step(list(range(8)) * 10)
    for x, y in zip((tokens, confs), layer_arrays(want)):
        assert np.array_equal(x, y)


def test_memo_never_holds_more_than_its_capacity(draws):
    cfg = make_cfg(L=6, V=8)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,), memo_capacity=5)
    contexts = list(distinct_contexts(40, cfg.V))
    for ctx in contexts:
        model.step(ctx).layer(1)
        assert len(model._memo) <= 5
    assert len(model._memo) == 5
    assert len(draws) == 40
    # the five most recent contexts are held; the oldest were dropped
    for ctx in contexts[-5:]:
        model.step(ctx).layer(1)
    assert len(draws) == 40
    model.step(contexts[0]).layer(1)
    assert len(draws) == 41
    assert len(model._memo) == 5


def test_memo_is_on_for_greedy_sessions_only(monkeypatch):
    from delsim import harness
    from delsim.config import SAMPLING
    from delsim.model import build_model, step_memo_capacity

    cfg = make_cfg(L=8, V=16, d_max=6, max_new_tokens=40, prefill_window=10)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5,) * 7 + (1.0,))
    assert build_model(spec, cfg).memo_capacity == 10 + 2 * (40 + 6 + 1)
    assert step_memo_capacity(cfg.replace(decode_mode=SAMPLING)) == 0
    sampling = build_model(spec, cfg.replace(decode_mode=SAMPLING))
    assert sampling.memo_capacity == 0 and sampling._memo is None
    assert LayeredModel(spec, cfg.L, cfg.V, 1)._memo is None

    built = []
    real = harness.build_model

    def recording(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(harness, "build_model", recording)
    harness.grid_sweep(spec, cfg, [1, 2], [0, 3], 1, 8)
    harness.grid_sweep(spec, cfg.replace(decode_mode=SAMPLING), [1], [2], 1, 8)
    # a greedy sweep reads its path's agreement flags, never the memo; a
    # sampling sweep's model has none
    assert len(built) == 2
    assert len(built[0]._memo) == 0 and built[1]._memo is None


@pytest.mark.parametrize("capacity", [0, 16])
def test_context_past_the_horizon_raises_with_or_without_memo(capacity):
    cfg = make_cfg()
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5,) * 7 + (1.0,), horizon=4)
    model = LayeredModel(spec, cfg.L, cfg.V, 1, memo_capacity=capacity)
    for n in range(1, 5):
        model.step([1] * n)
        model.step([1] * n)
    for ctx in ([1] * 5, [2, 1, 1, 1, 1]):
        with pytest.raises(ConfigError, match="exceeds horizon 4 .model.horizon"):
            model.step(ctx)


@pytest.mark.parametrize("horizon", [0, -1])
def test_horizon_below_one_is_rejected_at_construction(horizon):
    cfg = make_cfg()
    for spec in (toy_spec(cfg.L, cfg.V, horizon=horizon),
                 ModelSpec(kind=AGREEMENT, agreement_profile=(0.5,) * 7 + (1.0,), horizon=horizon)):
        with pytest.raises(ConfigError, match="model.horizon"):
            LayeredModel(spec, cfg.L, cfg.V, 1)


def read_concurrently(memo, contexts, expected) -> list[str]:
    """Six threads step ``memo`` through ``contexts``, each from its own
    offset, and read every step they get three ways: one layer, ``shadow``
    and every layer, the first read alternating between one layer and
    ``shadow``. Each read is compared bit for bit with ``expected``, the
    ``decoded`` arrays of each context, and each step's ``target_cdf`` must
    be the model's one list for its row. Half the threads step each context
    from the step of its first tokens (``prev``), so they race on the
    successor tables too. Returns the errors."""
    import sys

    errors: list[str] = []

    def worker(offset: int) -> None:
        try:
            for k, ctx in enumerate(contexts[offset:] + contexts[:offset]):
                if offset % 2 and len(ctx) > 1:
                    got = memo.step(ctx, memo.step(ctx[:-1]))
                else:
                    got = memo.step(ctx)
                tops, conf = expected[tuple(ctx)]
                # the memo hands out shared steps: threads race to fill a
                # step's row, through one layer or through shadow first
                ell = 1 + (offset + ctx[0]) % 3

                def one_layer():
                    if got.layer(ell) != (tops.item(ell - 1), conf.item(ell - 1)):
                        errors.append(f"layer {ell} of {ctx} differs")

                def shadow():
                    matches, c = LayerStep.shadow([got])
                    if not (np.array_equal(matches[:, 0], tops == got.target_token)
                            and np.array_equal(c[:, 0], conf)):
                        errors.append(f"shadow of {ctx} differs")

                for read in (one_layer, shadow) if k % 2 else (shadow, one_layer):
                    read()
                got_tops, got_conf = layer_arrays(got)
                if not (np.array_equal(got_tops, tops) and np.array_equal(got_conf, conf)):
                    errors.append(f"step of {ctx} differs")
                if len(memo._memo) > memo.memo_capacity:
                    errors.append(f"memo holds {len(memo._memo)} steps")
                # threads race to build a row's cumulative sums, too
                if got.target_cdf is not memo._cdf_rows[ctx[-1]]:
                    errors.append(f"target CDF of {ctx} is not the model's row")
        except Exception as e:  # any error in a thread fails the test
            errors.append(repr(e))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(13 * k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    if any(t.is_alive() for t in threads):
        errors.append("a thread is still running")
    return errors


class OwnedLock:
    """A lock that knows which thread holds it."""

    def __init__(self):
        self._lock = threading.Lock()
        self.owner = None

    def acquire(self):
        self._lock.acquire()
        self.owner = threading.get_ident()
        return True

    __enter__ = acquire

    def release(self):
        self.owner = None
        self._lock.release()

    def __exit__(self, *exc):
        self.release()


def test_memo_is_safe_under_concurrent_steps(monkeypatch):
    spec = MEMO_SPECS["agreement"]
    plain = LayeredModel(spec, 4, 5, 11)
    memo = LayeredModel(spec, 4, 5, 11, memo_capacity=7)
    # every successor-table entry is written by the thread holding the lock
    memo._lock = OwnedLock()
    recorded: list[str] = []
    real = LayeredModel._record

    def record(self, prev, token, step):
        recorded.append("held" if self._lock.owner == threading.get_ident() else "not held")
        real(self, prev, token, step)

    monkeypatch.setattr(LayeredModel, "_record", record)
    # 40 contexts over a 7-entry memo: threads keep hitting, inserting and
    # evicting the same entries
    contexts = list(distinct_contexts(40, 5)) * 10
    expected = {tuple(c): decoded(plain.step(c)) for c in contexts}
    assert read_concurrently(memo, contexts, expected) == []
    assert recorded and set(recorded) == {"held"}


def test_no_read_changes_a_step(monkeypatch):
    # every step the model makes, with a copy of its attributes as made
    made = []
    real = LayerStep.__init__

    def recording(step, *args):
        real(step, *args)
        made.append((step, dict(vars(step))))

    monkeypatch.setattr(LayerStep, "__init__", recording)
    spec = MEMO_SPECS["agreement"]
    plain = LayeredModel(spec, 4, 5, 11)
    memo = LayeredModel(spec, 4, 5, 11, memo_capacity=7)
    toy = LayeredModel(toy_spec(4, 5), 4, 5, 1)
    toy_steps = [toy.step([3]), toy.step([1])]
    scripted = fixed_step([1, 2, 0], [0.9, 0.5, 0.7], toy_steps[1].target, 2)
    contexts = list(distinct_contexts(40, 5))
    # every layer, shadow over each model's steps and the scripted step,
    # memo hits
    steps = [memo.step(ctx) for ctx in contexts[:7]]
    for step in steps + toy_steps + [scripted]:
        layer_arrays(step)
    for block in (steps, toy_steps, [scripted]):
        LayerStep.shadow(block)
    assert [memo.step(ctx) for ctx in contexts[:7]] == steps
    LayerStep.shadow([plain.step(ctx) for ctx in contexts])
    expected = {tuple(c): decoded(plain.step(c)) for c in contexts}
    before = len(made)
    assert read_concurrently(memo, contexts * 10, expected) == []
    # the threads' memo misses made steps too
    assert len(made) > before
    for step, attrs in made:
        now = vars(step)
        assert now.keys() == attrs.keys()
        assert all(now[name] is value for name, value in attrs.items())


# -- deferred draws -------------------------------------------------------------

CONFIDENCES = [
    {"dist": "beta", "a": 8.0, "b": 2.0},
    {"dist": "fixed", "value": 0.7},
    {"dist": "uniform", "lo": 0.2, "hi": 0.9},
]


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_SPECS)),
    conf=st.sampled_from(CONFIDENCES),
    contexts=st.lists(st.lists(st.integers(0, 16), min_size=1, max_size=12), min_size=1, max_size=8),
    first_reads=st.lists(st.sampled_from(["layers", "shadow", "exit_distribution"]),
                         min_size=8, max_size=8),
    order=st.randoms(use_true_random=False),
)
def test_deferred_steps_equal_steps_drawn_at_once(kind, conf, contexts, first_reads, order):
    L, V = 5, 17
    spec = kind_spec(kind, V, confidence_match=conf, confidence_mismatch=conf)
    deferred = LayeredModel(spec, L, V, 3)
    steps = [deferred.step(ctx) for ctx in contexts]
    # read the steps' layers in any order, each first through any read, so
    # their draws interleave on the model's scratch generator
    reads = list(zip(range(len(steps)), first_reads))
    order.shuffle(reads)
    for i, how in reads:
        if how == "exit_distribution":
            exit_distribution(*steps[i].layer(1 + i % (L - 1)), V)
        elif how == "shadow":
            LayerStep.shadow([steps[i]])
        else:
            layer_arrays(steps[i])
    # a fresh model's steps, each decoded in one vectorized block
    wants = [LayeredModel(spec, L, V, 3).step(ctx) for ctx in contexts]
    matches, conf = LayerStep.shadow(steps)
    for j, (got, want) in enumerate(zip(steps, wants)):
        assert got.target_token == want.target_token and got.layer_count == want.layer_count == L
        assert got.target.dtype == want.target.dtype and np.array_equal(got.target, want.target)
        assert not got.target.flags.writeable
        tops, confs = decoded(want)
        for x, y in zip(layer_arrays(got), (tops, confs)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert np.array_equal(matches[:, j], tops == want.target_token)
        assert np.array_equal(conf[:, j], confs)
        for ell in range(1, L):
            assert np.array_equal(exit_distribution(*got.layer(ell), V),
                                  exit_distribution(*want.layer(ell), V))


def test_step_draws_on_the_first_layer_read_only(draws):
    cfg = make_cfg(L=6, V=16)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,))
    step = model.step([3, 1, 4])
    assert step.target.size == cfg.V and step.layer_count == cfg.L
    assert step.target_token == int(step.target.argmax())
    assert draws == []
    exit_distribution(*step.layer(2), cfg.V)
    assert len(draws) == 1
    LayerStep.shadow([step]), layer_arrays(step), exit_distribution(*step.layer(4), cfg.V)
    assert len(draws) == 1
    with pytest.raises(AttributeError):
        step.target = np.zeros(cfg.V)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), V=st.integers(2, 40), L=st.sampled_from([2, 5, 16]))
def test_toy_steps_put_full_confidence_on_the_next_token_at_every_layer(data, V, L):
    table = data.draw(st.lists(st.integers(0, V - 1), min_size=V, max_size=V), label="next token")
    spec = toy_spec(L, V, table)
    contexts = data.draw(st.lists(st.lists(st.integers(0, V - 1), min_size=1, max_size=10),
                                  min_size=1, max_size=8), label="contexts")
    # one model's steps read layer by layer first, a fresh model's by shadow
    for first in ("layer", "shadow"):
        model = LayeredModel(spec, L, V, 3)
        steps = [model.step(ctx) for ctx in contexts]
        if first == "shadow":
            matches, confs = LayerStep.shadow(steps)
            assert matches.all() and np.all(confs == 1.0)
        for ctx, step in zip(contexts, steps):
            want = table[ctx[-1]]
            assert step.target_token == want and step.target[want] == 1.0
            assert [step.layer(ell) for ell in range(1, L)] == [(want, 1.0)] * (L - 1)
        matches, confs = LayerStep.shadow(steps)
        assert matches.all() and np.all(confs == 1.0) and matches.shape == (L - 1, len(contexts))


def test_shadow_reads_the_steps_of_one_model_only():
    cfg = make_cfg(L=4, V=8)
    toy, twin = toy_model(cfg), toy_model(cfg)
    agree = agreement_model(cfg, (0.5, 0.5, 0.5, 1.0))
    scripted = fixed_step([1, 2, 0], [0.9, 0.5, 0.7], toy.step([1]).target, 2)
    # another model's tables would decode a row wrongly: the same spec and
    # seed do not make two models one
    for mixed in ([toy.step([1]), twin.step([2])], [agree.step([1]), toy.step([1])],
                  [agree.step([2]), agree.step([3]), scripted]):
        with pytest.raises(ValueError, match="one model"):
            LayerStep.shadow(mixed)
    matches, _ = LayerStep.shadow([toy.step([1]), toy.step([1, 2])])
    assert matches.shape == (cfg.L - 1, 2)


def test_memoized_steps_are_stored_pending(draws):
    cfg = make_cfg(L=6, V=16)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,), memo_capacity=4)
    step = model.step([3, 1, 4])
    assert draws == []
    assert list(model._memo.values()) == [step]
    assert vars(step)["_row"].u is None
    # one-layer reads through memo hits fill the stored step's row once
    hits = [model.step([3, 1, 4]) for _ in range(3)]
    assert all(hit is step for hit in hits)
    reads = [hit.layer(1 + k) for k, hit in enumerate(hits)]
    assert len(draws) == 1
    # and every later read decodes that kept row
    tops, conf = decoded(step)
    assert [(int(t), float(c)) for t, c in zip(tops, conf)][:3] == reads
    LayerStep.shadow([model.step([3, 1, 4])])
    exit_distribution(*model.step([3, 1, 4]).layer(5), cfg.V)
    assert len(draws) == 1
    # a stored step refers back to the model through its row; the cycle
    # collector frees the model with it
    assert vars(step)["_row"].model is model
    model.step([2, 7]).layer(1)
    ref = weakref.ref(model)
    del model, step, hits
    gc.collect()
    assert ref() is None


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_SPECS)),
    match=st.sampled_from(CONFIDENCES),
    mismatch=st.sampled_from(CONFIDENCES),
    V=st.sampled_from([2, 16, 64]),
    tokens=st.lists(st.integers(0, 63), min_size=14, max_size=14),
)
def test_one_layer_reads_equal_the_drawn_arrays(kind, match, mismatch, V, tokens):
    L = 5
    spec = kind_spec(kind, V, confidence_match=match, confidence_mismatch=mismatch)
    pending = LayeredModel(spec, L, V, 3)
    drawn = LayeredModel(spec, L, V, 3)
    # the regime-switching segments (7, 5) switch profiles at context lengths
    # 7 and 12: read positions on both sides of each
    for n in (1, 6, 7, 11, 12, 13, 14):
        ctx = [t % V for t in tokens[:n]]
        tops, conf = decoded(drawn.step(ctx))
        expect = [(int(tops[k]), float(conf[k])) for k in range(L - 1)]
        step = pending.step(ctx)
        before = [step.layer(ell) for ell in range(1, L)]
        matches, c = LayerStep.shadow([step])
        assert np.array_equal(matches[:, 0], tops == step.target_token)
        assert c.dtype == conf.dtype and np.array_equal(c[:, 0], conf)
        after = [step.layer(ell) for ell in range(1, L)]
        assert before == after == expect
        assert all(type(tok) is int and type(c) is float for tok, c in before)
        for ell in (0, L):
            with pytest.raises(ValueError, match="exit layer must lie in"):
                step.layer(ell)


def test_one_layer_reads_fill_the_row_once_and_decode_nothing_else(draws):
    # the library has no full-row decode (``reference.decode`` is the
    # tests'), so what is left to count is the fills
    cfg = make_cfg(L=6, V=16)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,))
    step = model.step([3, 1, 4])
    reads = [step.layer(ell) for ell in range(1, cfg.L)] + [step.layer(2)]
    exit_distribution(*step.layer(4), cfg.V)
    LayerStep.shadow([step])
    assert len(draws) == 1
    # the reference decode reads the kept row: no second fill
    tops, conf = decoded(step)
    assert [(int(t), float(c)) for t, c in zip(tops, conf)] == reads[:-1]
    assert len(draws) == 1


# -- greedy paths ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_SPECS)),
    match=st.sampled_from(CONFIDENCES),
    mismatch=st.sampled_from(CONFIDENCES),
    capacity=st.sampled_from([0, 3, 64]),
    prompt=st.lists(st.integers(0, 16), min_size=1, max_size=12),
    n=st.integers(0, 30),
    stepped=st.sets(st.integers(0, 29), max_size=10),
)
def test_greedy_path_steps_equal_steps_along_the_argmax_chain(
    kind, match, mismatch, capacity, prompt, n, stepped
):
    L, V = 5, 17
    spec = kind_spec(kind, V, confidence_match=match, confidence_mismatch=mismatch)
    model = LayeredModel(spec, L, V, 3, memo_capacity=capacity)
    chain = model.argmax_chain(prompt, n)
    # positions read one layer first come back as memo hits, when they are
    # held, with their rows kept
    for k in sorted(stepped):
        if k < n:
            model.step(prompt + chain[:k]).layer(1 + k % (L - 1))
    steps = path_steps(model, prompt, n)
    assert len(steps) == n
    plain = LayeredModel(spec, L, V, 3)
    for k, got in enumerate(steps):
        want = plain.step(prompt + chain[:k])
        assert got.target_token == want.target_token == chain[k]
        assert got.layer_count == L
        for x, y in zip((*layer_arrays(got), got.target), (*decoded(want), want.target)):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert not got.target.flags.writeable
    if capacity:
        assert len(model._memo) <= capacity


def test_greedy_path_draws_each_position_it_makes_once(draws):
    cfg = make_cfg(L=6, V=16)
    profile = (0.5,) * 5 + (1.0,)
    model = agreement_model(cfg, profile, memo_capacity=64)
    prompt = [3, 1, 4]
    path_steps(model, prompt, 12)
    assert len(draws) == 12
    # the block draws the same keys as reading the path one position at a time
    plain = agreement_model(cfg, profile)
    chain = plain.argmax_chain(prompt, 12)
    for k in range(12):
        plain.step(prompt + chain[:k]).layer(1)
    assert draws[12:] == draws[:12]
    del draws[12:]
    # memo hits make no draws; positions past them do
    path_steps(model, prompt, 12)
    assert len(draws) == 12
    path_steps(model, prompt, 15)
    assert len(draws) == 15
    assert len(set(draws)) == 15


def test_greedy_path_stops_at_the_horizon_as_step_does():
    cfg = make_cfg()
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5,) * 7 + (1.0,), horizon=6)
    model = LayeredModel(spec, cfg.L, cfg.V, 1)
    assert len(path_steps(model, [1, 2], 5)) == 5  # contexts of length 2..6
    for ctx, n in (([1, 2], 6), ([1] * 7, 1)):
        with pytest.raises(ConfigError, match="exceeds horizon 6 .model.horizon"):
            model.argmax_chain(ctx, n)
        with pytest.raises(ConfigError, match="exceeds horizon 6 .model.horizon"):
            model.step(ctx + [1] * (n - 1))
    assert model.argmax_chain([1] * 7, 0) == []


@pytest.mark.parametrize("last", [-1, 8])
def test_argmax_chain_rejects_a_last_token_outside_the_vocabulary(last):
    # on the V=8 toy, -1 would read the argmax table's last row and 8 no row
    from delsim.harness import vanilla_reference

    model = LayeredModel(toy_spec(4, 8), 4, 8, 1)
    name = rf"context token {last} is outside \[0, 8\)"
    with pytest.raises(ConfigError, match=name):
        model.argmax_chain([1, 2, last], 4)
    with pytest.raises(ConfigError, match=name):
        vanilla_reference(model, make_cfg(L=4, V=8, max_new_tokens=4), [1, 2, last])
    assert model.argmax_chain([1, 2, 7], 4) == [0, 1, 2, 3]


@pytest.mark.parametrize("capacity", [0, 4])
@pytest.mark.parametrize("last", [-1, 8])
@pytest.mark.parametrize("length", [2, 5])
def test_step_rejects_a_last_token_outside_the_vocabulary(capacity, last, length):
    # with a 3-token window, a 2-token context's window is short and a
    # 5-token one's full; -1 would read transition row V - 1 and 8 no row
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.5, 0.5, 1.0), context_hash_window=3)
    model = LayeredModel(spec, 4, 8, 1, memo_capacity=capacity)
    ctx = [1, 2, 3, 4][: length - 1] + [last]
    name = rf"context token {last} is outside \[0, 8\)"
    with pytest.raises(ConfigError, match=name):
        model.step(ctx)
    prev = model.step(ctx[:-1])
    # from a step whose key is not packed yet (without a memo), and from
    # one whose key is, which takes the successor path
    for read in (False, True):
        if read:
            prev.layer(1)
        with pytest.raises(ConfigError, match=name):
            model.step(ctx, prev)
    assert vars(prev)["_row"].next is None
    assert model.step(ctx[:-1] + [7], prev).target_token == model._trans_argmax[7]


@pytest.mark.parametrize("capacity", [0, 4])
@pytest.mark.parametrize("bad", [-1, 8, 70, 2**32])
@pytest.mark.parametrize("window", [2, 8])
def test_step_rejects_a_window_token_outside_the_vocabulary(capacity, bad, window):
    # a 2-token window is shorter than the 4-token context and an 8-token
    # one longer; either way the bad token is in the window, not last, so
    # it would be keyed (8, 70) or fail to pack (-1, 2**32)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.5, 0.5, 1.0),
                     context_hash_window=window)
    model = LayeredModel(spec, 4, 8, 1, memo_capacity=capacity)
    name = rf"context token {bad} is outside \[0, 8\)"
    with pytest.raises(ConfigError, match=name):
        model.step([1, 2, bad, 5])
    with pytest.raises(ConfigError, match=name):
        model.path_agreement([1, 2, bad, 5], 3)
    assert model.step([1, 2, 7, 5]).target_token == model._trans_argmax[5]


@pytest.mark.parametrize("bad", [-1, 70])
def test_a_bad_window_token_raises_in_step_and_path_agreement_at_v8(bad):
    model = LayeredModel(toy_spec(4, 8), 4, 8, 1)
    name = rf"context token {bad} is outside \[0, 8\)"
    # of two bad tokens, the first is named
    for ctx in ([bad, 3], [bad, 9, 3], [bad, 9]):
        with pytest.raises(ConfigError, match=name):
            model.step(ctx)
        with pytest.raises(ConfigError, match=name):
            model.path_agreement(ctx, 3)


def key_of(step: LayerStep) -> bytes:
    """The key a model's step draws its row by, without filling the row."""
    return vars(step)["_row"].msg


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_SPECS)),
    capacity=st.sampled_from([0, 1, 3, 64]),
    # with a 3-token window, a walk from a 1- or 2-token prompt steps
    # contexts of length w - 1, w and w + 1
    prompt=st.lists(st.integers(0, 4), min_size=1, max_size=2),
    walk=st.lists(st.tuples(st.integers(0, 4), st.booleans()), min_size=1, max_size=8),
)
def test_a_step_from_its_prev_equals_a_fresh_step(kind, capacity, prompt, walk):
    L, V = 4, 5
    spec = _path_spec(kind, L, V, 3)
    model = LayeredModel(spec, L, V, 3, memo_capacity=capacity)
    pairs = []
    # the walk runs twice, so with a memo the second one hits the tables
    for _ in range(2):
        ctx = list(prompt)
        prev = model.step(ctx)
        for tok, read in walk:
            if read:
                # a read step's key is packed: its successor's moves it on
                prev.layer(1)
            ctx.append(tok)
            got = model.step(ctx, prev)
            want = LayeredModel(spec, L, V, 3).step(list(ctx))
            assert key_of(got) == key_of(want) == model._key(len(ctx), ctx[-3:])
            assert got.target.base is model._transition
            assert np.array_equal(got.target, want.target)
            assert got.target_token == want.target_token
            assert got.target_cdf is model._cdf_rows[tok]
            assert got.target_cdf == want.target_cdf
            pairs.append((got, want))
            prev = got
    # read after the walks, so that the reads above alone decide which
    # steps had packed keys when their successors were made
    for got, want in pairs:
        for x, y in zip(decoded(got), decoded(want)):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("capacity", [0, 4])
def test_a_prev_of_another_model_or_length_raises(capacity):
    spec = MEMO_SPECS["agreement"]
    model = LayeredModel(spec, 4, 5, 11, memo_capacity=capacity)
    twin = LayeredModel(spec, 4, 5, 11, memo_capacity=capacity)
    prev = model.step([1, 2])
    prev.layer(1)
    for ctx, other in (([1, 2, 3], twin.step([1, 2])), ([1, 2, 3, 4], prev), ([1, 2], prev),
                       ([1, 2, 3], model.step([1]))):
        with pytest.raises(ValueError, match="prev must be this model's step of context"):
            model.step(ctx, other)
    assert key_of(model.step([1, 2, 3], prev)) == key_of(twin.step([1, 2, 3]))


def test_an_evicted_step_drops_its_successor_table():
    cfg = make_cfg(L=6, V=8)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,), memo_capacity=3)
    first = model.step([1])
    second = model.step([1, 2], first)
    first_row = vars(first)["_row"]
    assert first_row.next == {2: second}
    assert model.step([1, 2], first) is second
    # [1, 2] leaves the memo and [1] stays: its table still names the
    # evicted step, which it no longer hands out
    model.step([1])
    model.step([5])
    model.step([1])
    model.step([6])
    assert list(model._memo) == [model._key(1, [5]), key_of(first), model._key(1, [6])]
    assert vars(second)["_row"].next is None
    # [1, 2] stepped afresh: stepping it from [1] hands out the memo's step
    third = model.step([1, 2])
    assert third is not second and key_of(third) == key_of(second)
    assert model.step([1, 2], first) is third and first_row.next == {2: third}
    # once [1] leaves too, its table is dropped, and a step made from an
    # evicted step gives it none
    for ctx in ([5], [6], [7]):
        model.step(ctx)
    assert first not in model._memo.values() and first_row.next is None
    assert third not in model._memo.values()
    model.step([1, 2, 3], third)
    fourth = model.step([1, 2], first)
    assert vars(third)["_row"].next is None and first_row.next is None
    assert model._memo[key_of(fourth)] is fourth


def test_live_steps_stay_within_the_memo_and_one_level_of_successors():
    cfg = make_cfg(L=6, V=8, max_new_tokens=40, prefill_window=6)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.9, 0.6, 0.9, 0.3, 0.5, 1.0),
                     context_hash_window=6)
    model = harness.build_model(spec, cfg)
    policies = [("vanilla", {}), ("ls", {"exit_layer": 1, "gamma": 4}),
                ("fs", {"exit_layer": 3, "gamma": 3}), ("dv", {"exit_layer": 1}), ("del", {})]
    for i, prompt in enumerate(harness.make_prompts(model, cfg, 12, 8)):
        for name, params in policies:
            harness.run_session(model, make_policy(name, cfg, **params), cfg, prompt, i)
    # sessions walk a path in order, so a step leaves the memo after the one
    # before it; random walks from short prompts over three tokens refresh
    # short contexts while their longer successors leave
    rng = np.random.default_rng(0)
    for _ in range(400):
        ctx = rng.integers(0, 3, rng.integers(1, 3)).tolist()
        prev = model.step(ctx)
        for tok in rng.integers(0, 3, rng.integers(1, 6)).tolist():
            ctx.append(tok)
            prev = model.step(ctx, prev)
    gc.collect()
    live = {id(o): o for o in gc.get_objects()
            if type(o) is LayerStep and vars(o)["_row"].model is model}
    held = {id(s) for s in model._memo.values()}
    successors = {id(t) for s in model._memo.values()
                  for t in (vars(s)["_row"].next or {}).values()}
    assert len(held) == model.memo_capacity and successors - held
    assert set(live) <= held | successors
    # only the memo's steps keep tables, so no chain of evicted steps lives on
    assert all(vars(s)["_row"].next is None for k, s in live.items() if k not in held)


def _path_spec(kind: str, L: int, V: int, window: int) -> ModelSpec:
    """A model spec at any L: profile entries cycle through 0 to 1, and the
    regime-switching segments are 3 and 4 positions long, so a path
    crosses several boundaries."""
    if KIND_SPECS[kind] is None:
        return toy_spec(L, V, context_hash_window=window)

    def profile(shift):
        return tuple((0.0, 0.25, 0.5, 0.75, 1.0)[(j * 3 + shift) % 5] for j in range(L - 1)) + (1.0,)

    over = {
        AGREEMENT: {"agreement_profile": profile(0)},
        REGIME_SWITCHING: {"regimes": ((3, profile(1)), (4, profile(4)))},
    }[kind]
    return ModelSpec(kind=kind, context_hash_window=window, **over)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(sorted(KIND_SPECS)),
    L=st.sampled_from([2, 8, 32]),
    capacity=st.sampled_from([0, 64]),
    window=st.sampled_from([1, 3, 64]),
    prompt=st.lists(st.integers(0, 16), min_size=1, max_size=12),
    n=st.integers(0, 40),
    horizon=st.sampled_from([None, "at the end", "one short"]),
)
# a window shorter than the first context, as long, and longer than the last
@example(kind=REGIME_SWITCHING, L=8, capacity=0, window=3, prompt=[5, 1, 9, 2, 7], n=12, horizon=None)
@example(kind=AGREEMENT, L=8, capacity=0, window=3, prompt=[4, 4, 16], n=12, horizon=None)
@example(kind=AGREEMENT, L=8, capacity=64, window=64, prompt=[3, 0], n=12, horizon=None)
def test_path_agreement_equals_the_greedy_path_flags(kind, L, capacity, window, prompt, n, horizon):
    V = 17
    spec = _path_spec(kind, L, V, window)
    if horizon is not None:
        # the path's last context has length len(prompt) + n - 1
        last = len(prompt) + n - 1
        assume(n > 0 and last - (horizon == "one short") >= 1)
        spec = dataclasses.replace(spec, horizon=last - (horizon == "one short"))
    model = LayeredModel(spec, L, V, 3, memo_capacity=capacity)
    if horizon == "one short":
        with pytest.raises(ConfigError) as flags_error:
            model.path_agreement(prompt, n)
        # the error step raises at the first path context past the horizon
        ctx = list(prompt) + [0] * (n - 1)
        with pytest.raises(ConfigError) as step_error:
            for m in range(len(prompt), len(ctx) + 1):
                model.step(ctx[:m])
        assert str(flags_error.value) == str(step_error.value)
        assert "model.horizon" in str(flags_error.value)
        return
    chain, agree = model.path_agreement(prompt, n)
    # it fills no memo (that it reads none shows in the draws test below)
    assert capacity == 0 or len(model._memo) == 0
    assert chain == model.argmax_chain(prompt, n)
    steps = path_steps(model, prompt, n)
    assert chain == [s.target_token for s in steps]
    assert agree.dtype == bool and agree.shape == (n, L - 1)
    if steps:
        assert np.array_equal(agree.T, LayerStep.shadow(steps)[0])
    # the rows are the agreement blocks of steps made each from the one
    # before it, whose keys move on as the path's do
    ctx = list(prompt) + chain
    chained = [model.step(list(prompt))] if n else []
    for k in range(1, n):
        chained.append(model.step(ctx[: len(prompt) + k], chained[-1]))
    if chained:
        assert np.array_equal(agree.T, LayerStep.shadow(chained)[0])
        assert [key_of(s) for s in chained] == [key_of(s) for s in steps]
    plain = LayeredModel(spec, L, V, 3)
    for k, step in enumerate(steps):
        # and the path's keys are the keys step draws by, however the
        # context hash window slides
        want = plain.step(prompt + chain[:k])
        tops, conf = decoded(want)
        assert np.array_equal(agree[k], tops == want.target_token)
        got_tops, got_conf = layer_arrays(step)
        assert np.array_equal(got_tops, tops) and np.array_equal(got_conf, conf)


def test_path_agreement_draws_the_path_keys_and_skips_the_memo(draws):
    cfg = make_cfg(L=6, V=16)
    profile = (0.5,) * 5 + (1.0,)
    model = agreement_model(cfg, profile, memo_capacity=64)
    prompt = [3, 1, 4]
    path_steps(model, prompt, 12)
    assert len(draws) == 12
    # a full memo serves step, never path_agreement
    model.path_agreement(prompt, 12)
    assert draws[12:] == draws[:12]
    assert len(model._memo) == 12
    del draws[:]
    # the toy draws its path's keys like any model, and all its layers agree
    toy = toy_model(cfg)
    chain, agree = toy.path_agreement(prompt, 9)
    assert len(draws) == 9 and agree.all() and agree.shape == (9, cfg.L - 1)
    assert chain == toy.argmax_chain(prompt, 9)
    path_steps(toy, prompt, 9)
    assert draws[9:] == draws[:9]


def test_uniforms_equal_a_philox_keyed_by_the_digest(draws):
    # the scratch generator is re-keyed for every fill; fills of other keys,
    # some of which leave the Philox buffer half read, come in between
    cfg = make_cfg(L=8, V=16)
    k = 3 * (cfg.L - 1)
    model = agreement_model(cfg, (0.5,) * 7 + (1.0,), seed=2**64 + 9)
    seed_key = (9).to_bytes(8, "little")
    rng = np.random.default_rng(5)
    msgs = [rng.bytes(int(size)) for size in rng.integers(1, 80, size=300)]
    for i, msg in enumerate(msgs):
        digest = hashlib.blake2b(msg, digest_size=16, key=seed_key).digest()
        want = np.random.Generator(np.random.Philox(key=np.frombuffer(digest, np.uint64))).random(k)
        model._uniforms(msgs[i - 1], np.empty(1 + i % 5))
        got = model._uniforms(msg)
        model._uniforms(msgs[i - 2])
        short = model._uniforms(msg, np.empty(cfg.L - 1))
        assert np.array_equal(got, want)
        assert np.array_equal(short, want[: cfg.L - 1])
        assert draws[4 * i + 1] == draws[4 * i + 3] == digest

# -- the confidence laws and the off-target tokens ----------------------------------


@pytest.mark.parametrize("a, b", [(8, 2), (2, 8), (16, 4), (0.5, 0.5), (0.3, 0.7), (0.5, 3), (200, 200),
                                  # the largest parameters a confidence law may have
                                  (10**4, 10**4)])
def test_beta_tables_stay_within_2e3_of_the_exact_cdf(a, b):
    from scipy.stats import beta

    table = beta_table(float(a), float(b))
    assert table.shape == (TABLE_SIZE + 1,) and not table.flags.writeable
    assert np.all(np.diff(table) >= 0.0) and 0.0 <= table[0] and table[-1] <= 1.0
    x = np.concatenate([np.linspace(0.0, 1.0, 100_001), np.exp2(-np.linspace(5.0, 60.0, 2000)),
                        1.0 - np.exp2(-np.linspace(5.0, 52.0, 2000))])
    # a uniform u maps linearly between the quantiles at u = j / TABLE_SIZE,
    # so the tabulated law's CDF interpolates the table's inverse
    tabulated = np.interp(x, table, np.linspace(0.0, 1.0, TABLE_SIZE + 1))
    assert np.max(np.abs(tabulated - beta.cdf(x, a, b))) <= 2e-3


def test_drawn_confidences_follow_their_laws():
    from scipy.stats import beta, kstest

    # V large enough that the 1/V floor is far below both laws' mass
    L, V = 8, 1024
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.2, 0.5, 0.8, 0.5, 0.5, 0.5, 0.5, 1.0),
                     confidence_match={"dist": "beta", "a": 12.0, "b": 3.0},
                     confidence_mismatch={"dist": "beta", "a": 0.7, "b": 5.0},
                     context_hash_window=4)
    model = LayeredModel(spec, L, V, 29)
    steps = path_steps(model, [5], 4000)
    matches, confidences = LayerStep.shadow(steps)
    agree, conf = matches.T, confidences.T
    # each layer agrees at its configured rate
    n = len(steps)
    for ell, a in enumerate(spec.agreement_profile[:-1]):
        assert abs(agree[:, ell].mean() - a) <= 4.0 * np.sqrt(a * (1 - a) / n)
    assert kstest(conf[agree], beta(12.0, 3.0).cdf).pvalue > 1e-3
    # the mismatch law puts mass F(floor) ~ 0.03 below the floor, which
    # takes it; above the floor it follows the law
    floor = 1.0 / V + 1e-9
    miss = conf[~agree]
    f = beta(0.7, 5.0).cdf(floor)
    at_floor = np.mean(miss == floor)
    assert miss.min() == floor and abs(at_floor - f) <= 4.0 * np.sqrt(f * (1 - f) / miss.size)
    above = miss[miss > floor]
    assert kstest(above, lambda x: (beta(0.7, 5.0).cdf(x) - f) / (1.0 - f)).pvalue > 1e-3


def test_off_target_tokens_are_uniform_over_the_other_tokens():
    from scipy.stats import chisquare

    L, V = 6, 16
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.0,) * 5 + (1.0,), context_hash_window=4)
    model = LayeredModel(spec, L, V, 31)
    # one path, so that no two positions share a draw key
    steps = path_steps(model, [3], 6000)
    tops = np.array([layer_arrays(s)[0] for s in steps])
    targets = np.array([s.target_token for s in steps])[:, None]
    assert np.all(tops != targets)
    # rank among the V - 1 tokens other than the target
    ranks = (tops - (tops > targets)).ravel()
    counts = np.bincount(ranks, minlength=V - 1)
    assert counts.size == V - 1
    assert chisquare(counts).pvalue > 1e-3


def test_confidence_tables_are_shared_and_read_only():
    cfg = make_cfg(L=4, V=8)
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.5, 0.5, 1.0),
                     confidence_match={"dist": "uniform", "lo": 0.0, "hi": 0.5},
                     confidence_mismatch={"dist": "fixed", "value": 0.05})
    a = LayeredModel(spec, cfg.L, cfg.V, 1)
    b = LayeredModel(ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.5, 0.5, 1.0)), cfg.L, 16, 2)
    # built once per process for each law
    assert beta_table(8.0, 2.0) is beta_table(8.0, 2.0)
    for model in (a, b):
        assert not model._conf_table.flags.writeable and not model._conf_rise.flags.writeable
    # models with the same laws and V share one floored table and its rise,
    # whatever their seed, L or kind, and laws written differently are the same
    same_laws = dataclasses.replace(spec, confidence_mismatch={"dist": "fixed", "value": 0.05, "x": 1},
                                    confidence_match={"dist": "uniform", "hi": 0.5})
    for other in (LayeredModel(spec, cfg.L, cfg.V, 9), LayeredModel(same_laws, cfg.L, cfg.V, 3),
                  LayeredModel(dataclasses.replace(spec, agreement_profile=(0.5, 1.0)), 2, cfg.V, 1),
                  LayeredModel(dataclasses.replace(spec, kind=REGIME_SWITCHING, agreement_profile=None,
                                                   regimes=((4, (0.5, 0.5, 0.5, 1.0)),)), cfg.L, cfg.V, 1)):
        assert other._conf_table is a._conf_table and other._conf_rise is a._conf_rise
    # each V gets its own floor at 1/V + 1e-9: the fixed law sits below both
    floor = 1.0 / cfg.V + 1e-9
    assert a._conf_table.min() == floor
    assert np.all(a._conf_table[TABLE_SIZE + 1:] == floor)
    c = LayeredModel(spec, cfg.L, 16, 1)
    assert c._conf_table is not a._conf_table and c._conf_rise is not a._conf_rise
    assert np.all(c._conf_table[TABLE_SIZE + 1:] == 1.0 / 16 + 1e-9)
    assert np.array_equal(c._conf_table[: TABLE_SIZE + 1],
                          np.maximum(np.linspace(0.0, 0.5, TABLE_SIZE + 1), 1.0 / 16 + 1e-9))
    steps = path_steps(a, [1], 50)
    conf = LayerStep.shadow(steps)[1]
    assert conf.min() >= floor and conf.max() <= 0.5


def test_importing_and_building_models_leaves_scipy_unloaded():
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    code = """
import sys
import delsim
from delsim.model import LayeredModel, ModelSpec
from delsim.types import LayerStep
beta = {"dist": "beta", "a": 0.5, "b": 3.0}
specs = [
    ModelSpec(kind="agreement", agreement_profile=(0.5, 0.5, 1.0), confidence_mismatch=beta),
    ModelSpec(kind="regime_switching", regimes=((4, (0.9, 0.1, 1.0)), (4, (0.1, 0.9, 1.0))),
              confidence_match={"dist": "beta", "a": 200, "b": 200}),
    # the deterministic toy
    ModelSpec(kind="agreement", agreement_profile=(1.0, 1.0, 1.0),
              base_process={"kind": "table", "probs": [[float(j == (t + 1) % 8) for j in range(8)]
                                                       for t in range(8)]},
              confidence_match={"dist": "fixed", "value": 1.0},
              confidence_mismatch={"dist": "fixed", "value": 1.0}),
]
for spec in specs:
    model = LayeredModel(spec, 3, 8, 1)
    chain = model.argmax_chain([1, 2], 5)
    LayerStep.shadow([model.step([1, 2] + chain[:k]) for k in range(5)])
    model.step([3]).layer(1)
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    res = subprocess.run([sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr

import numpy as np
import pytest
from conftest import agreement_model, make_cfg, regime_model, toy_model
from hypothesis import given, settings
from hypothesis import strategies as st

from delsim.config import ConfigError
from delsim.model import (
    AGREEMENT,
    DETERMINISTIC_TOY,
    REGIME_SWITCHING,
    CallCountingModel,
    LayeredModel,
    ModelSpec,
)
from delsim.types import PROB_SUM_TOL


def count_computed_steps(monkeypatch) -> list[int]:
    """A one-element list counting the steps models compute from then on
    (memo hits excluded): each computed step re-keys the scratch generator
    exactly once."""
    computed = [0]
    real = LayeredModel._scratch_rng

    def counting(self, key):
        computed[0] += 1
        return real(self, key)

    monkeypatch.setattr(LayeredModel, "_scratch_rng", counting)
    return computed


def distinct_contexts(n, V, length=4):
    # encode the index so every context is unique and deterministic
    for i in range(n):
        yield [i % V, (i // V) % V, (i // V // V) % V, 1 + i % (V - 1)]


def test_toy_all_layers_follow_the_transition_table():
    cfg = make_cfg()
    model = toy_model(cfg)
    ls = model.step([3])
    assert np.all(ls.top_tokens == ls.target_token)
    assert np.all(ls.top_conf == 1.0)
    # default toy table is the +1 cycle
    assert ls.target_token == 4
    assert ls.target[4] == ls.target.max() == 1.0


def test_toy_inline_transition_table():
    cfg = make_cfg(V=4)
    spec = ModelSpec(kind=DETERMINISTIC_TOY, base_process={"kind": "next_map", "map": [2, 0, 3, 1]})
    model = LayeredModel(spec, cfg.L, cfg.V, 1)
    assert model.step([0]).target_token == 2
    assert model.step([2]).target.argmax() == 3


def test_never_agree_profile():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (0.0, 0.0, 0.0, 1.0))
    for ctx in distinct_contexts(50, cfg.V):
        ls = model.step(ctx)
        assert np.all(ls.top_tokens != ls.target_token)


def test_always_agree_profile():
    cfg = make_cfg(L=4)
    model = agreement_model(cfg, (1.0, 1.0, 1.0, 1.0))
    for ctx in distinct_contexts(50, cfg.V):
        ls = model.step(ctx)
        assert np.all(ls.top_tokens == ls.target_token)


def test_profile_fidelity_monte_carlo():
    # one pass checks every layer: each step carries all layers
    cfg = make_cfg(L=6, V=32)
    profile = (0.1, 0.5, 0.8, 0.3, 0.95, 1.0)
    model = agreement_model(cfg, profile)
    n = 100_000
    hits = np.zeros(cfg.L - 1)
    for ctx in distinct_contexts(n, cfg.V):
        ls = model.step(ctx)
        hits += ls.top_tokens == ls.target_token
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


def test_determinism_across_instances():
    cfg = make_cfg()
    prof = (0.2, 0.6, 0.4, 0.9, 0.1, 0.7, 0.5, 1.0)
    m1 = agreement_model(cfg, prof, seed=42)
    m2 = agreement_model(cfg, prof, seed=42)
    m3 = agreement_model(cfg, prof, seed=43)
    ctx = [5, 2, 9]

    def same(a, b):
        return (
            np.array_equal(a.top_tokens, b.top_tokens)
            and np.array_equal(a.top_conf, b.top_conf)
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
    DETERMINISTIC_TOY: {},
}


@given(
    st.sampled_from(sorted(KIND_SPECS)),
    st.lists(st.integers(0, 16), min_size=1, max_size=40),
    st.sampled_from([{"dist": "beta", "a": 8.0, "b": 2.0}, {"dist": "fixed", "value": 0.0},
                     {"dist": "fixed", "value": 1.0}, {"dist": "uniform"}]),
)
@settings(max_examples=150, deadline=None)
def test_steps_are_valid_distributions(kind, ctx, conf):
    L, V = 5, 17
    spec = ModelSpec(kind=kind, confidence_match=conf, confidence_mismatch=conf, **KIND_SPECS[kind])
    ls = LayeredModel(spec, L, V, 3).step(ctx)
    assert ls.layer_count == L and ls.target.size == V
    for arr in (ls.top_tokens, ls.top_conf, ls.target):
        assert not arr.flags.writeable
    assert abs(ls.target.sum() - 1.0) <= PROB_SUM_TOL
    assert ls.target.argmax() == ls.target_token
    for ell in range(1, L):
        row = ls.exit_row(ell)
        top, c = ls.top_tokens[ell - 1], ls.top_conf[ell - 1]
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
            hits += ls.top_tokens == ls.target_token
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
    small = LayeredModel(ModelSpec(kind=DETERMINISTIC_TOY, horizon=4), cfg.L, cfg.V, 1)
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
        ls.exit_row(cfg.L)
    # forced agreement and forced disagreement
    assert ls.exit_row(1).argmax() == ls.target_token
    assert ls.exit_row(2).argmax() != ls.target_token


def test_sample_prompt_deterministic_and_in_range():
    cfg = make_cfg()
    model = agreement_model(cfg, (0.5,) * 7 + (1.0,))
    p1 = model.sample_prompt(16, np.random.default_rng(3))
    p2 = model.sample_prompt(16, np.random.default_rng(3))
    assert p1 == p2
    assert len(p1) == 16
    assert all(0 <= t < cfg.V for t in p1)


def test_wrappers_count_and_cache(monkeypatch):
    cfg = make_cfg()
    inner = toy_model(cfg)
    counting = CallCountingModel(inner)
    counting.step([1])
    counting.step([1])
    assert counting.calls == 2
    assert counting.L == cfg.L
    # the model's own memo computes a repeated context once and hands back
    # the identical step
    computed = count_computed_steps(monkeypatch)
    memo = CallCountingModel(agreement_model(cfg, (0.5,) * 7 + (1.0,), memo_capacity=4))
    first = memo.step([1, 2])
    assert memo.step([1, 2]) is first
    assert memo.calls == 2
    assert computed == [1]


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
        for name in ("top_tokens", "top_conf", "target"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert len(memo._memo) <= capacity


def test_memo_never_holds_more_than_its_capacity(monkeypatch):
    cfg = make_cfg(L=6, V=8)
    computed = count_computed_steps(monkeypatch)
    model = agreement_model(cfg, (0.5,) * 5 + (1.0,), memo_capacity=5)
    contexts = list(distinct_contexts(40, cfg.V))
    for ctx in contexts:
        model.step(ctx)
        assert len(model._memo) <= 5
    assert len(model._memo) == 5
    assert computed == [40]
    # the five most recent contexts are held; the oldest were dropped
    for ctx in contexts[-5:]:
        model.step(ctx)
    assert computed == [40]
    model.step(contexts[0])
    assert computed == [41]
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
    assert len(built) == 2
    assert all(m._memo is None for m in built)


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
    for kind in (DETERMINISTIC_TOY, AGREEMENT):
        spec = ModelSpec(kind=kind, agreement_profile=(0.5,) * 7 + (1.0,), horizon=horizon)
        with pytest.raises(ConfigError, match="model.horizon"):
            LayeredModel(spec, cfg.L, cfg.V, 1)


def test_memo_is_safe_under_concurrent_steps():
    import sys
    import threading

    spec = MEMO_SPECS["agreement"]
    plain = LayeredModel(spec, 4, 5, 11)
    memo = LayeredModel(spec, 4, 5, 11, memo_capacity=7)
    # 40 contexts over a 7-entry memo: threads keep hitting, inserting and
    # evicting the same entries
    contexts = list(distinct_contexts(40, 5)) * 10
    expected = {tuple(c): plain.step(c) for c in contexts}
    errors: list[str] = []

    def worker(offset: int) -> None:
        try:
            for ctx in contexts[offset:] + contexts[:offset]:
                got, want = memo.step(ctx), expected[tuple(ctx)]
                if not (np.array_equal(got.top_tokens, want.top_tokens)
                        and np.array_equal(got.top_conf, want.top_conf)):
                    errors.append(f"step of {ctx} differs")
                if len(memo._memo) > 7:
                    errors.append(f"memo holds {len(memo._memo)} steps")
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
    assert not any(t.is_alive() for t in threads)
    assert errors == []

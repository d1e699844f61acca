import numpy as np
import pytest
from conftest import ScriptedUniforms, fixed_step
from hypothesis import given, settings
from hypothesis import strategies as st

from delsim.config import ConfigError
from delsim.model import AGREEMENT, LayeredModel, ModelSpec
from delsim.types import PROB_SUM_TOL, exit_distribution, sample_exit, sample_weights
from reference import sample_index


def table_model(row, L=3):
    """A model whose every target distribution is ``row``."""
    V = len(row)
    spec = ModelSpec(
        kind=AGREEMENT,
        base_process={"kind": "table", "probs": [list(row)] * V},
        agreement_profile=(0.5,) * (L - 1) + (1.0,),
    )
    return LayeredModel(spec, L, V, 1)


def test_distribution_accepts_normalized():
    ls = table_model([0.2, 0.5, 0.3]).step([0])
    assert ls.target.tolist() == [0.2, 0.5, 0.3]
    assert ls.target_token == 1
    assert ls.target.size == 3


def test_distribution_rejects_bad_sum():
    with pytest.raises(ConfigError):
        table_model([0.2, 0.5, 0.300001])
    with pytest.raises(ConfigError):
        table_model([0.7, 0.5, -0.2])


def test_distribution_tolerance_boundary():
    table_model([0.5, 0.5 + PROB_SUM_TOL / 2])
    with pytest.raises(ConfigError):
        table_model([0.5, 0.5 + 5 * PROB_SUM_TOL])


def test_argmax_tie_breaks_to_lowest_token():
    assert table_model([0.4, 0.4, 0.2]).step([2]).target_token == 0


def test_distribution_is_immutable():
    row, tokens, conf = np.array([0.25, 0.75]), np.array([1]), np.array([0.75])
    ls = fixed_step(tokens, conf, row, 1)
    # the arrays a step is made from are read-only from then on
    for arr in (tokens, conf, ls.target):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert ls.layer(1) == (1, 0.75)
    with pytest.raises(AttributeError):
        ls.target = row
    # a model's target rows are views of a matrix that is itself read-only
    target = table_model([0.5, 0.5]).step([0]).target
    assert not target.flags.writeable and not target.base.flags.writeable


@given(st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=2, max_size=64).filter(lambda v: sum(v) > 0))
@settings(max_examples=200, deadline=None)
def test_normalized_vectors_always_accepted(raw):
    arr = np.asarray(raw)
    row = arr / arr.sum()
    assert np.array_equal(table_model(row).step([0]).target, row)


def test_distribution_sampling_follows_probs():
    rng = np.random.default_rng(0)
    probs = np.array([0.25, 0.75])
    draws = [sample_index(probs, rng) for _ in range(4000)]
    assert abs(np.mean(draws) - 0.75) < 0.03


def test_layer_step_accessors():
    ls = fixed_step([0], [0.6], [0.1, 0.9], 1)
    assert ls.layer_count == 2
    assert ls.target.size == 2
    assert exit_distribution(*ls.layer(1), 2).tolist() == [0.6, 0.4]
    assert ls.target.argmax() == ls.target_token == 1
    # layer L is the target, not an exit
    for ell in (0, 2):
        with pytest.raises(ValueError):
            exit_distribution(*ls.layer(ell), 2)


def exit_draws_agree(token, conf, V, u):
    want = ScriptedUniforms(u)
    assert sample_exit(token, conf, V, u) == sample_index(exit_distribution(token, conf, V), want)
    assert want.calls == 1


@settings(max_examples=300, deadline=None)
@given(data=st.data(), V=st.integers(2, 256),
       uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=20))
def test_sample_exit_equals_sampling_the_built_row(data, V, uniforms):
    token = data.draw(st.integers(0, V - 1), label="token")
    conf = data.draw(st.floats(1.0 / V + 1e-9, 1.0), label="conf")
    # every CDF step of the row and the doubles on either side of it, where
    # a closed form that rounded differently would pick the next index
    steps = exit_distribution(token, conf, V).cumsum()
    near = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 2.0)])
    for u in uniforms + [0.0, np.nextafter(1.0, 0.0)] + near[(near >= 0.0) & (near < 1.0)].tolist():
        exit_draws_agree(token, conf, V, u)


def test_sample_exit_at_full_confidence_returns_the_token():
    # conf = 1 puts no mass off the token: r = 0 must not be divided by
    for V in (2, 3, 64, 256):
        for token in (0, V // 2, V - 1):
            for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
                assert sample_exit(token, 1.0, V, u) == token
                exit_draws_agree(token, 1.0, V, u)


@settings(max_examples=150, deadline=None)
@given(weights=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=96),
       scale=st.sampled_from([2.0**-1074, 2.0**-1060, 2.0**-1030, 2.0**-1000, 1.0, 2.0**900]),
       uniforms=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=10))
def test_sample_weights_equals_sampling_the_normalized_weights(weights, scale, uniforms):
    # weights with zeros, at scales from the least double up, totals below
    # the smallest normal double included
    w = np.array(weights) * scale
    if not w.sum() > 0.0:
        rng = ScriptedUniforms(0.5)
        with pytest.raises(ValueError):
            sample_weights(w, rng)
        assert rng.calls == 0
        return
    # every step of the normalized cumsum and the doubles on either side
    steps = (w / w.sum()).cumsum()
    near = np.concatenate([steps, np.nextafter(steps, 0.0), np.nextafter(steps, 2.0)])
    for u in uniforms + [0.0, np.nextafter(1.0, 0.0), 1.0] + near[(near >= 0.0) & (near <= 1.0)].tolist():
        got, want = ScriptedUniforms(u), ScriptedUniforms(u)
        assert sample_weights(w, got) == sample_index(w / w.sum(), want), u
        assert got.calls == want.calls == 1



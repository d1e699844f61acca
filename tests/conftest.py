"""Shared builders for the test suite."""

from __future__ import annotations

from typing import Sequence

import numpy as np
import pytest

from delsim.config import SessionConfig
from delsim.model import AGREEMENT, REGIME_SWITCHING, LayeredModel, ModelSpec
from delsim.types import LayerStep, TokenId
from reference import decode

TIGHT_CONF = {
    "confidence_match": {"dist": "beta", "a": 16, "b": 4},
    "confidence_mismatch": {"dist": "beta", "a": 4, "b": 16},
}

# a small sub-threshold tail on matches keeps drafting alive at every decay
# setting, which the decay-sensitivity scenarios rely on
STABLE_CONF = {
    "confidence_match": {"dist": "beta", "a": 12, "b": 3},
    "confidence_mismatch": {"dist": "beta", "a": 3, "b": 12},
}


def make_cfg(**over) -> SessionConfig:
    base = dict(L=8, V=32, seed=7, max_new_tokens=256, prefill_window=32)
    base.update(over)
    return SessionConfig(**base)


def profile_with(L: int, best: int | None = None, base: float = 0.3, peak: float = 0.97):
    p = [base] * L
    if best is not None:
        p[best - 1] = peak
    p[L - 1] = 1.0
    return tuple(p)


def agreement_model(
    cfg: SessionConfig, profile, seed: int = 1, memo_capacity: int = 0, **spec_over
) -> LayeredModel:
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=tuple(profile), **spec_over)
    return LayeredModel(spec, cfg.L, cfg.V, seed, memo_capacity)


def toy_spec(L: int, V: int, next_token: Sequence[TokenId] | None = None, **spec_over) -> ModelSpec:
    """The deterministic toy, which ``examples/deterministic_toy.json`` holds
    at L=6, V=16: an ``agreement`` model whose every layer agrees with the
    target and is sure of its token (``fixed`` 1.0 confidence laws), over a
    one-hot transition table in which token t is followed by
    ``next_token[t]``, by default t + 1 mod V."""
    if next_token is None:
        next_token = [(t + 1) % V for t in range(V)]
    probs = [[float(j == nxt) for j in range(V)] for nxt in next_token]
    return ModelSpec(kind=AGREEMENT, base_process={"kind": "table", "probs": probs},
                     agreement_profile=(1.0,) * L, confidence_match={"dist": "fixed", "value": 1.0},
                     confidence_mismatch={"dist": "fixed", "value": 1.0}, **spec_over)


def toy_model(cfg: SessionConfig, seed: int = 1) -> LayeredModel:
    return LayeredModel(toy_spec(cfg.L, cfg.V), cfg.L, cfg.V, seed)


def regime_model(cfg: SessionConfig, regimes, seed: int = 1, **spec_over) -> LayeredModel:
    spec = ModelSpec(kind=REGIME_SWITCHING, regimes=tuple(regimes), **spec_over)
    return LayeredModel(spec, cfg.L, cfg.V, seed)


class FixedRow:
    """A scripted step's row (``fixed_step``): exit layer ``ell``'s top
    token and confidence are entry ``ell - 1`` of ``tokens`` and ``conf``,
    read-only arrays. It belongs to no model, so ``LayerStep.shadow`` reads
    it only with other fixed rows."""

    model = None

    def __init__(self, tokens: np.ndarray, conf: np.ndarray, t_star: TokenId):
        self.tokens = tokens
        self.conf = conf
        self.t_star = t_star

    def layer(self, ell: int) -> tuple[TokenId, float]:
        return self.tokens.item(ell - 1), self.conf.item(ell - 1)

    def shadow_block(self, rows: list["FixedRow"]) -> tuple[np.ndarray, np.ndarray]:
        matches = np.array([r.tokens == r.t_star for r in rows]).T
        conf = np.array([r.conf for r in rows], dtype=np.float64).T
        return np.ascontiguousarray(matches), np.ascontiguousarray(conf)


def fixed_step(tokens, conf, target, target_token: TokenId) -> LayerStep:
    """A step whose exit layers' top tokens and confidences are the arrays
    ``tokens`` and ``conf`` (one entry per exit layer) and whose target
    distribution is ``target``; all three are made read-only, and the
    target's cumulative sums are its ``target_cdf``."""
    arrays = [np.asarray(a) for a in (tokens, conf, target)]
    for a in arrays:
        a.setflags(write=False)
    tokens, conf, target = arrays
    return LayerStep(target, target.cumsum().tolist(), target_token, tokens.size + 1,
                     FixedRow(tokens, conf, target_token))


def layer_arrays(step: LayerStep) -> tuple[np.ndarray, np.ndarray]:
    """The (L-1,) top tokens and confidences of a step's exit layers, read
    one layer at a time through ``step.layer``."""
    pairs = [step.layer(ell) for ell in range(1, step.layer_count)]
    return np.array([t for t, _ in pairs]), np.array([c for _, c in pairs])


def decoded(step: LayerStep) -> tuple[np.ndarray, np.ndarray]:
    """The (L-1,) top tokens and confidences of a step as
    ``reference.decode`` gives them from the step's own keyed row, in one
    vectorized block: the reference ``layer`` and ``shadow`` are checked
    against bit for bit."""
    row = vars(step)["_row"]
    m = row.model
    return decode(m, row.uniforms(), m._profile_at(row.n), row.t_star)


@pytest.fixture
def draws(monkeypatch) -> list[bytes]:
    """The keys (16-byte digests) of the layer draws ``LayeredModel``s make
    from here on, in order: filling one position's row of uniforms re-keys
    the model's scratch generator exactly once, whether a step's first
    read (``layer``, ``shadow`` or ``decoded``) fills it or
    ``path_agreement`` fills it as a row of a block, so ``len(draws)``
    counts positions drawn either way. A step fills its row once and keeps
    it, however often it is read and whether the model hands it out again
    from its memo; steps whose layers nobody reads make none."""
    keys: list[bytes] = []
    real = LayeredModel._scratch_rng

    def counting(self, key):
        keys.append(bytes(key))
        return real(self, key)

    monkeypatch.setattr(LayeredModel, "_scratch_rng", counting)
    return keys


class ScriptedUniforms:
    """An rng stub whose ``random()`` returns the given uniforms in turn,
    counting the calls."""

    def __init__(self, *uniforms: float):
        self.uniforms = uniforms
        self.calls = 0

    def random(self) -> float:
        self.calls += 1
        return self.uniforms[self.calls - 1]


class CallCountingModel:
    """Wrapper that counts ``step`` invocations; used to audit policies."""

    def __init__(self, inner: LayeredModel):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def step(self, context: Sequence[TokenId], prev: LayerStep | None = None) -> LayerStep:
        self.calls += 1
        return self.inner.step(context, prev)


class ScriptedModel:
    """Model stub with scripted exit-layer confidences and tokens.

    Position i (= len(context) - base_len) returns an L=2 LayerStep whose
    exit layer puts ``conf[i]`` on ``draft_tok[i]`` and whose target row puts
    mass 0.9 on ``target_tok[i]``. Its horizon is the last scripted position.
    """

    def __init__(self, base_len: int, confs, draft_toks, target_toks, V: int = 8):
        self.spec = ModelSpec(kind=AGREEMENT, horizon=base_len + len(confs) - 1)
        self.base_len = base_len
        self.confs = list(confs)
        self.draft_toks = list(draft_toks)
        self.target_toks = list(target_toks)
        self.V = V
        self.L = 2

    def step(self, context, prev=None) -> LayerStep:
        i = len(context) - self.base_len
        target = np.full(self.V, 0.1 / (self.V - 1))
        target[self.target_toks[i]] = 0.9
        return fixed_step([self.draft_toks[i]], [float(self.confs[i])], target, self.target_toks[i])

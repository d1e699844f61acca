"""Shared builders for the test suite."""

from __future__ import annotations

import numpy as np

from delsim.config import SessionConfig
from delsim.model import AGREEMENT, DETERMINISTIC_TOY, REGIME_SWITCHING, LayeredModel, ModelSpec
from delsim.types import LayerStep

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


def toy_model(cfg: SessionConfig, seed: int = 1) -> LayeredModel:
    return LayeredModel(ModelSpec(kind=DETERMINISTIC_TOY), cfg.L, cfg.V, seed)


def regime_model(cfg: SessionConfig, regimes, seed: int = 1, **spec_over) -> LayeredModel:
    spec = ModelSpec(kind=REGIME_SWITCHING, regimes=tuple(regimes), **spec_over)
    return LayeredModel(spec, cfg.L, cfg.V, seed)


class ScriptedModel:
    """Model stub with scripted exit-layer confidences and tokens.

    Position i (= len(context) - base_len) returns an L=2 LayerStep whose
    exit layer puts ``conf[i]`` on ``draft_tok[i]`` and whose target row puts
    mass 0.9 on ``target_tok[i]``.
    """

    def __init__(self, base_len: int, confs, draft_toks, target_toks, V: int = 8):
        self.base_len = base_len
        self.confs = list(confs)
        self.draft_toks = list(draft_toks)
        self.target_toks = list(target_toks)
        self.V = V
        self.L = 2

    def step(self, context) -> LayerStep:
        i = len(context) - self.base_len
        target = np.full(self.V, 0.1 / (self.V - 1))
        target[self.target_toks[i]] = 0.9
        return LayerStep(
            np.array([self.draft_toks[i]]), np.array([float(self.confs[i])]), target, self.target_toks[i]
        )

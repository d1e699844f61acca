"""Shared value types: per-position layer outputs and sampling helpers."""

from __future__ import annotations

from typing import Callable

import numpy as np

TokenId = int

PROB_SUM_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A runtime contract was broken (losslessness, replay mismatch, ...)."""


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector (an array) via inverse CDF."""
    u = rng.random()
    idx = int(probs.cumsum().searchsorted(u, side="right"))
    return min(idx, len(probs) - 1)


class _Drawn:
    """A per-layer field of a step. Its first read makes the step's draws
    and stores both per-layer fields on the instance, where they shadow this
    descriptor from then on (as ``functools.cached_property`` does)."""

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, step, owner=None):
        if step is None:
            return self
        d = step.__dict__
        draws = d["_draws"]
        if draws is not None:
            # Concurrent first reads may both draw; they store equal arrays,
            # and each field is stored before the callable is dropped.
            top, conf = draws()
            top.setflags(write=False)
            conf.setflags(write=False)
            d["top_tokens"] = top
            d["top_conf"] = conf
            d["_draws"] = None
        return d[self.name]


class LayerStep:
    """LM-head outputs of every layer at one decoding position.

    Exit layer ``ell`` (1 <= ell < L) puts probability ``top_conf[ell - 1]``
    on token ``top_tokens[ell - 1]`` and spreads the remainder uniformly over
    the other V - 1 tokens; ``exit_row`` rebuilds that distribution. Layer L
    is the full model: ``target`` is its distribution and ``target_token``
    its argmax. The arrays are read-only and the step is immutable.

    ``target`` and ``target_token`` are set when the step is made. The
    per-layer fields come from the position's keyed row of 3(L-1) uniforms
    (agreement, confidence and off-target blocks; see
    ``LayeredModel._decode``), whether the row is drawn alone or as one row
    of a ``greedy_path`` block. A step made by ``deferred`` draws its row on
    the first read of either field or of ``exit_row``, and then drops the
    callable that draws it. The row is a pure function of the step's key, so
    when it is drawn does not change a value.
    A model without a step memo returns deferred steps: speculative-sampling
    verification reads only target rows, so a sampling-mode ``vanilla``
    session makes no draws, and an ``ls`` session draws only its drafted
    positions. A step the model stores in its memo is drawn in full first:
    the sessions sharing the memo read its layers again and again, and a
    stored step must hold no reference back to the model.
    """

    top_tokens = _Drawn()  # (L-1,) token ids
    top_conf = _Drawn()  # (L-1,) top-1 probabilities

    # Every step stores its attributes one by one in this order, the
    # per-layer fields last, so that all steps' attribute dicts share one
    # key table; one dict.update would give each step a dict of its own.
    def __init__(self, top_tokens: np.ndarray, top_conf: np.ndarray, target: np.ndarray,
                 target_token: TokenId):
        target.setflags(write=False)
        top_tokens.setflags(write=False)
        top_conf.setflags(write=False)
        d = self.__dict__
        d["target"] = target
        d["target_token"] = target_token
        d["layer_count"] = int(top_tokens.size) + 1
        d["_draws"] = None
        d["top_tokens"] = top_tokens
        d["top_conf"] = top_conf

    @classmethod
    def deferred(cls, target: np.ndarray, target_token: TokenId, layer_count: int,
                 draws: Callable[[], tuple[np.ndarray, np.ndarray]]) -> "LayerStep":
        """A step whose ``(top_tokens, top_conf)`` come from ``draws()`` on
        their first read. ``target`` must already be read-only, as the rows
        of a model's transition matrix are."""
        step = cls.__new__(cls)
        d = step.__dict__
        d["target"] = target
        d["target_token"] = target_token
        d["layer_count"] = layer_count
        d["_draws"] = draws
        return step

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"LayerStep is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LayerStep is immutable: cannot delete {name!r}")

    def exit_row(self, ell: int) -> np.ndarray:
        """The full next-token distribution read after exit layer ``ell``."""
        if not 1 <= ell < self.layer_count:
            raise ValueError(f"exit layer must lie in [1, {self.layer_count}), got {ell}")
        c = float(self.top_conf[ell - 1])
        row = np.full(self.target.size, (1.0 - c) / (self.target.size - 1))
        row[self.top_tokens[ell - 1]] = c
        return row

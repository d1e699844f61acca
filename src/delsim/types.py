"""Shared value types: per-position layer outputs and sampling helpers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TokenId = int

PROB_SUM_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A runtime contract was broken (losslessness, replay mismatch, ...)."""


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector via inverse CDF."""
    u = rng.random()
    idx = int(np.searchsorted(np.cumsum(probs), u, side="right"))
    return min(idx, len(probs) - 1)


@dataclass(frozen=True, eq=False)
class LayerStep:
    """LM-head outputs of every layer at one decoding position.

    Exit layer ``ell`` (1 <= ell < L) puts probability ``top_conf[ell - 1]``
    on token ``top_tokens[ell - 1]`` and spreads the remainder uniformly over
    the other V - 1 tokens; ``exit_row`` rebuilds that distribution. Layer L
    is the full model: ``target`` is its distribution and ``target_token``
    its argmax. The arrays are made read-only on construction.
    """

    top_tokens: np.ndarray  # (L-1,) token ids
    top_conf: np.ndarray  # (L-1,) top-1 probabilities
    target: np.ndarray  # (V,)
    target_token: TokenId

    def __post_init__(self) -> None:
        self.top_tokens.setflags(write=False)
        self.top_conf.setflags(write=False)
        self.target.setflags(write=False)

    @property
    def layer_count(self) -> int:
        return int(self.top_tokens.size) + 1

    def exit_row(self, ell: int) -> np.ndarray:
        """The full next-token distribution read after exit layer ``ell``."""
        if not 1 <= ell < self.layer_count:
            raise ValueError(f"exit layer must lie in [1, {self.layer_count}), got {ell}")
        c = float(self.top_conf[ell - 1])
        row = np.full(self.target.size, (1.0 - c) / (self.target.size - 1))
        row[self.top_tokens[ell - 1]] = c
        return row

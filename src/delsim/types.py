"""Shared value types: per-position layer outputs and sampling helpers."""

from __future__ import annotations

from typing import Sequence

import numpy as np

TokenId = int

PROB_SUM_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A runtime contract was broken (losslessness, replay mismatch, ...)."""


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector (an array) via inverse CDF."""
    return _search(probs, rng.random())


def _search(probs: np.ndarray, u: float) -> int:
    idx = int(probs.cumsum().searchsorted(u, side="right"))
    return min(idx, len(probs) - 1)


# A closed-form CDF step and the row's own cumsum differ by at most size + 5
# roundings of sums of at most 1, each by at most eps / 2. sample_exit
# searches the row for a draw within (size + 4) * _STEP_ULPS of a step, over
# four times that bound.
_STEP_ULPS = 2.0 * np.finfo(np.float64).eps


def sample_exit(token: TokenId, conf: float, size: int, u: float) -> int:
    """The index of ``exit_distribution(token, conf, size)`` whose CDF step
    holds the uniform ``u``, as ``sample_index`` finds it for a generator
    that draws ``u``, without building the row.

    The row's CDF is closed form: steps of r = (1 - conf) / (size - 1) up to
    ``token * r``, then ``conf``, then steps of r again. A draw that falls
    within rounding distance of a step searches the row itself instead.
    """
    r = (1.0 - conf) / (size - 1)
    below = token * r
    if u < below:
        # r > 0 here: u >= 0 = below when r == 0
        idx = int(u / r)
        lo, hi = idx * r, (idx + 1) * r
    else:
        hi = below + conf
        if u < hi:
            idx, lo = token, below
        else:
            k = int((u - hi) / r)
            idx = token + 1 + k
            lo = hi + k * r
            hi = lo + r
    tol = (size + 4) * _STEP_ULPS
    if u - lo <= tol or hi - u <= tol:
        return _search(exit_distribution(token, conf, size), u)
    return min(idx, size - 1)


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
        if d["_pending"] is not None:
            LayerStep.draw_pending((step,))
        return d[self.name]


class LayerStep:
    """LM-head outputs of every layer at one decoding position.

    Exit layer ``ell`` (1 <= ell < L) puts probability ``top_conf[ell - 1]``
    on token ``top_tokens[ell - 1]`` and spreads the remainder uniformly over
    the other V - 1 tokens; ``layer(ell)`` reads that pair and
    ``exit_distribution`` rebuilds that distribution from it. Layer L is the
    full model: ``target`` is its distribution and ``target_token`` its
    argmax. The arrays are read-only and the step is immutable.

    ``target`` and ``target_token`` are set when the step is made. The
    per-layer fields come from the position's keyed row of 3(L-1) uniforms
    (agreement, confidence and off-target blocks; see
    ``LayeredModel._decode``). The model makes its steps with ``deferred``
    (a deterministic toy's need no draws and come drawn). Such a step is
    pending: it fills its row on the first layer read and keeps it.
    ``layer(ell)`` then decodes that one layer alone; a read of either array
    field decodes the whole row, and ``draw_pending`` decodes the rows of
    many steps in one block. Either way the step then holds both arrays and
    drops its row. ``shadow`` reads, for many steps in one block, only which
    layers agree with the target and their confidences, and leaves the
    steps pending. The row is a pure function of the step's key, so when or
    how it is decoded does not change a value.
    Speculative-sampling verification reads only target rows, so a
    sampling-mode ``vanilla`` session makes no draws, and an ``ls`` session
    draws only the drafted positions its verification reads, one layer
    each. A model with a step memo stores the pending step itself, so the
    sessions sharing the memo fill its row once. Until it is drawn in full such a step refers back to
    the model (model, memo, step, pending row, model); Python's cycle
    collector frees that cycle when the model is dropped.
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
        d["_pending"] = None
        d["top_tokens"] = top_tokens
        d["top_conf"] = top_conf

    @classmethod
    def deferred(cls, target: np.ndarray, target_token: TokenId, layer_count: int,
                 pending) -> "LayerStep":
        """A step whose per-layer fields come from ``pending`` when they are
        read: ``pending.layer(ell)`` gives one exit layer's (token,
        confidence), ``pending.draw_block(rows)`` the read-only
        ``(top_tokens, top_conf)`` arrays of each of several such rows, and
        ``pending.shadow_block(rows)`` what ``shadow`` returns for them.
        ``target`` must already be read-only, as the rows of a model's
        transition matrix are."""
        step = cls.__new__(cls)
        d = step.__dict__
        d["target"] = target
        d["target_token"] = target_token
        d["layer_count"] = layer_count
        d["_pending"] = pending
        return step

    @staticmethod
    def draw_pending(steps: Sequence["LayerStep"]) -> None:
        """Draw the per-layer fields of every step in ``steps`` that is still
        pending, all in one block: a step reads the same values as it would
        alone."""
        # each step's row is read once: a concurrent first read of a step
        # shared through a memo may drop it meanwhile
        pending, rows = [], []
        for s in steps:
            row = s.__dict__["_pending"]
            if row is not None:
                pending.append(s)
                rows.append(row)
        if pending:
            for step, (top, conf) in zip(pending, rows[0].draw_block(rows)):
                # Concurrent first reads may both draw; they store equal
                # arrays, and each field is stored before the row is dropped.
                d = step.__dict__
                d["top_tokens"] = top
                d["top_conf"] = conf
                d["_pending"] = None

    @staticmethod
    def shadow(steps: Sequence["LayerStep"]) -> tuple[np.ndarray, np.ndarray]:
        """Whether each exit layer's top token is the target's, and its
        confidence, at each step: two C-contiguous (L-1, len(steps)) arrays,
        column j for ``steps[j]``. The pending steps of each model are read
        in one block (``pending.shadow_block(rows)``), which decodes no
        token; they stay pending. A drawn step gives ``top_tokens ==
        target_token`` and ``top_conf``."""
        # each step's row is read once, as in draw_pending
        drawn: list[int] = []
        groups: dict[object, tuple[list[int], list]] = {}
        for j, s in enumerate(steps):
            row = s.__dict__["_pending"]
            if row is None:
                drawn.append(j)
            else:
                cols, rows = groups.setdefault(row.model, ([], []))
                cols.append(j)
                rows.append(row)
        if not drawn and len(groups) == 1:
            rows = next(iter(groups.values()))[1]
            return rows[0].shadow_block(rows)
        k = steps[0].layer_count - 1
        matches = np.empty((k, len(steps)), dtype=bool)
        conf = np.empty((k, len(steps)))
        for j in drawn:
            s = steps[j]
            matches[:, j] = s.top_tokens == s.target_token
            conf[:, j] = s.top_conf
        for cols, rows in groups.values():
            matches[:, cols], conf[:, cols] = rows[0].shadow_block(rows)
        return matches, conf

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"LayerStep is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LayerStep is immutable: cannot delete {name!r}")

    def layer(self, ell: int) -> tuple[TokenId, float]:
        """Exit layer ``ell``'s top token and top-1 confidence; a pending
        step decodes this layer alone."""
        d = self.__dict__
        if not 1 <= ell < d["layer_count"]:
            raise ValueError(f"exit layer must lie in [1, {d['layer_count']}), got {ell}")
        pending = d["_pending"]
        if pending is not None:
            return pending.layer(ell)
        return d["top_tokens"].item(ell - 1), d["top_conf"].item(ell - 1)


def exit_distribution(token: TokenId, conf: float, size: int) -> np.ndarray:
    """The exit row that puts ``conf`` on ``token`` and spreads the rest
    uniformly over the other ``size - 1`` tokens."""
    row = np.empty(size)
    row.fill((1.0 - conf) / (size - 1))
    row[token] = conf
    return row

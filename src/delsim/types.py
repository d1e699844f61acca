"""Shared value types: per-position layer outputs and sampling helpers."""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np

TokenId = int

PROB_SUM_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A runtime contract was broken (losslessness, replay mismatch, ...)."""


def sample_cdf(cdf: list[float], rng: np.random.Generator) -> int:
    """Draw an index from a distribution given as its cumulative sums (a
    list of floats, such as ``LayerStep.target_cdf``): the index that
    ``_search`` finds in the distribution whose ``cumsum`` is ``cdf``, from
    the same single uniform, by ``bisect``."""
    return min(bisect_right(cdf, rng.random()), len(cdf) - 1)


def _search(probs: np.ndarray, u: float) -> int:
    """The index of a probability vector (an array) whose step of the
    vector's own ``cumsum`` holds the uniform ``u``, capped at its last
    index: the inverse-CDF draw that ``sample_cdf``, ``sample_exit`` and
    ``sample_weights`` each reproduce from the same uniform, and the search
    the last two fall back to near a step."""
    idx = int(probs.cumsum().searchsorted(u, "right"))
    return min(idx, len(probs) - 1)


# A closed-form CDF step and the row's own cumsum differ by at most size + 5
# roundings of sums of at most 1, each by at most eps / 2. sample_exit
# searches the row for a draw within (size + 4) * _STEP_ULPS of a step, over
# four times that bound.
_STEP_ULPS = 2.0 * np.finfo(np.float64).eps


def sample_exit(token: TokenId, conf: float, size: int, u: float) -> int:
    """The index of ``exit_distribution(token, conf, size)`` whose CDF step
    holds the uniform ``u``, the index ``_search`` finds in that row, read
    off its closed-form CDF without building it.

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


def sample_weights(weights: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from finite non-negative weights (an array) that do
    not all vanish: the index ``_search`` finds in ``weights /
    weights.sum()`` from the same single uniform, without normalizing.

    The uniform times the weights' total is searched in their running sums.
    A draw that falls within rounding distance of a step, or past the last,
    searches the normalized weights instead. Weights that sum to 0 raise
    ValueError before the uniform is drawn.
    """
    cum = np.add.accumulate(weights)
    total = cum.item(-1)
    if not total > 0.0:
        raise ValueError("the weights sum to 0")
    u = rng.random()
    t = u * total
    idx = int(cum.searchsorted(t, "right"))
    size = cum.size
    # The normalized weights' cumsum, which _search searches, and these
    # running sums divided by their last differ by at most about
    # (2 * size + 10) * eps over [0, 1]: each side rounds size - 1 additions
    # in its running sums and as many in its total, and the normalized side
    # size divisions. So a t within tol of a running sum, about twice that
    # bound times the total, searches the normalized weights. (A total
    # below the smallest normal double is summed exactly, and t and tol then
    # round to whole multiples of the least double, which keeps the bound.)
    tol = (2 * size + 4) * _STEP_ULPS * total
    if idx < size and cum.item(idx) - t > tol and (idx == 0 or t - cum.item(idx - 1) > tol):
        return idx
    return _search(weights / float(weights.sum()), u)


class LayerStep:
    """LM-head outputs of every layer at one decoding position.

    Exit layer ``ell`` (1 <= ell < L) puts probability ``conf`` on token
    ``tok``, where ``(tok, conf) = layer(ell)``, and spreads the remainder
    uniformly over the other V - 1 tokens; ``exit_distribution`` rebuilds
    that distribution from the pair. Layer L is the full model: ``target``
    is its distribution (a read-only array), ``target_cdf`` that row's
    cumulative sums as a list of floats (``np.cumsum``'s, which
    ``sample_cdf`` draws from), and ``target_token`` its argmax. A model's
    steps share one such list per transition row (``LayeredModel.step``);
    it must not be changed. The step is immutable: no attribute is set
    after it is made.

    The per-layer outputs are read through one row object, ``row``, in
    only two ways: ``layer(ell)`` reads one exit layer (``row.layer``), and
    ``shadow`` reads, for many steps of one model in one block, which layers
    agree with the target and their confidences (``row.shadow_block``).
    Every step of a model holds, packed when it is made, the key of its
    position's keyed row of 3(L-1) uniforms (agreement, confidence and
    off-target blocks; ``tests/reference.py`` decodes a whole row), and the
    row itself, filled on the first read and kept, so a one-layer read
    decodes that layer alone and ``shadow`` decodes no token. The row is a
    pure function of the step's key, so when or how it is read does not
    change a value. ``target``
    must already be read-only, as the rows of a model's transition matrix
    are.
    Speculative-sampling verification reads only target rows, and a
    target draw only ``target_cdf``, so a sampling-mode ``vanilla`` session
    fills no keyed row, and an ``ls`` session fills only the rows of the
    drafted positions its verification reads. A model with a
    step memo stores the step itself, so the sessions sharing the memo fill
    its row once. Such a row refers back to its model (model, memo, step,
    row, model); Python's cycle collector frees that cycle when the model
    is dropped.
    """

    # Every step stores its attributes one by one in this order, so that
    # all steps' attribute dicts share one key table; one dict.update would
    # give each step a dict of its own.
    def __init__(self, target: np.ndarray, target_cdf: list[float], target_token: TokenId,
                 layer_count: int, row):
        d = self.__dict__
        d["target"] = target
        d["target_cdf"] = target_cdf
        d["target_token"] = target_token
        d["layer_count"] = layer_count
        d["_row"] = row

    @staticmethod
    def shadow(steps: Sequence["LayerStep"]) -> tuple[np.ndarray, np.ndarray]:
        """Whether each exit layer's top token is the target's, and its
        confidence, at each step: two C-contiguous (L-1, len(steps)) arrays,
        column j for ``steps[j]``, read in one block (``shadow_block``).
        The steps must all come from one model: its tables decode every
        row, so steps of another model raise ValueError."""
        rows = [s._row for s in steps]
        model = rows[0].model
        for r in rows:
            if r.model is not model:
                raise ValueError("LayerStep.shadow reads the steps of one model only")
        return rows[0].shadow_block(rows)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"LayerStep is immutable: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"LayerStep is immutable: cannot delete {name!r}")

    def layer(self, ell: int) -> tuple[TokenId, float]:
        """Exit layer ``ell``'s top token and top-1 confidence."""
        d = self.__dict__
        if not 1 <= ell < d["layer_count"]:
            raise ValueError(f"exit layer must lie in [1, {d['layer_count']}), got {ell}")
        return d["_row"].layer(ell)


def exit_distribution(token: TokenId, conf: float, size: int) -> np.ndarray:
    """The exit row that puts ``conf`` on ``token`` and spreads the rest
    uniformly over the other ``size - 1`` tokens."""
    row = np.empty(size)
    row.fill((1.0 - conf) / (size - 1))
    row[token] = conf
    return row

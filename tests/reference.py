"""Plain reference forms that the library's fast paths are checked against.

Each function here computes what a fast path must equal, in the plainest
form: full rows built and normalized, no caching, no certified shortcuts.
"""

from __future__ import annotations

import numpy as np

from delsim.types import InvariantViolation, exit_distribution


def sample_index(probs, rng):
    """Draw an index from a probability vector (an array) via inverse CDF,
    with the vector's own ``cumsum``, capped at its last index. This is the
    definition the library's draws reproduce without it: a target row's
    draw reads the row's cumulative sums (``sample_cdf``), a drafted
    token's the exit row's closed form (``sample_exit``), and a
    rejection's the raw residual's running sums (``sample_weights``)."""
    idx = int(probs.cumsum().searchsorted(rng.random(), side="right"))
    return min(idx, len(probs) - 1)


def reference_verify_sampling(tok, q_row, p_row, rng):
    """Speculative sampling verification with the residual taken against
    the exit row itself, built by ``exit_distribution``."""
    top, conf = q_row
    size = p_row.size
    q = conf if tok == top else (1.0 - conf) / (size - 1)
    if q <= 0.0:
        raise InvariantViolation("drafted token has zero draft probability")
    if rng.random() < min(1.0, float(p_row[tok]) / q):
        return None
    residual = np.maximum(p_row - exit_distribution(top, conf, size), 0.0)
    total = float(residual.sum())
    if total <= 0.0:
        raise InvariantViolation("zero residual distribution at rejection")
    return sample_index(residual / total, rng)

"""Plain reference forms that the library's fast paths are checked against.

Each function here computes what a fast path must equal, in the plainest
form: full rows built and normalized, no caching, no certified shortcuts.
"""

from __future__ import annotations

import re

import numpy as np

from delsim.model import TABLE_SIZE
from delsim.types import InvariantViolation, exit_distribution


def decode(model, u, profile, t_star):
    """Top tokens and confidences of a ``LayeredModel``'s exit layers from
    rows of uniforms, elementwise, so a row gives the same values alone or
    in a block.

    A row holds three blocks of L-1 uniforms, one entry per exit layer:
    layer ell agrees with the target when its agreement uniform falls
    below ``profile[ell - 1]``; its confidence uniform, times
    ``TABLE_SIZE``, is a position in the model's confidence table, shifted
    by ``TABLE_SIZE + 1`` to the mismatch law's entries when the layer
    disagrees, and the confidence interpolates linearly between the two
    entries around it; and a layer that disagrees takes the off-target
    token its third uniform picks, uniformly among the V - 1 tokens other
    than ``t_star``. Steps read their rows one layer at a time
    (``_PendingRow.layer``) or in agreement blocks
    (``_PendingRow.shadow_block``, through ``LayeredModel._confidence``);
    the tests check both against this arithmetic, written out here apart
    from the model's."""
    k = model.L - 1
    miss = u[..., :k] >= profile
    t = u[..., k : 2 * k] * TABLE_SIZE
    np.add(t, TABLE_SIZE + 1.0, out=t, where=miss)
    i = t.astype(np.intp)
    frac = t - i
    conf = model._conf_rise[i] * frac + model._conf_table[i]
    alt = (u[..., 2 * k :] * (model.V - 1.0)).astype(np.intp)
    alt += alt >= t_star
    return np.where(miss, alt, t_star), conf


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


def sample_prompt(model, length, rng):
    """``LayeredModel.sample_prompt`` with one numpy search per token: the
    first token is ``rng.integers(V)``, and each next one the
    ``searchsorted(u, "right")`` of its uniform in the cumulative sums of
    the row of the token before it, capped at V - 1."""
    cum, top = model._cum_transition, model.V - 1
    out = [int(rng.integers(model.V))]
    for u in rng.random(length - 1).tolist():
        out.append(min(int(cum[out[-1]].searchsorted(u, "right")), top))
    return out


# a whole trace line as ``harness.write_trace`` lays it out, its two totals
# as named groups, with the estimate's list matched one character at a time
# by a character class of the characters its entries are printed with
TRACE_RECORD = re.compile(
    r'\{"round": \d+, "E": \d+, "planned_len": \d+, "g": \d+, "accepted": \d+, '
    r'"emitted_len": (?P<emitted_len>\d+), "layers_loaded": (?P<layers_loaded>\d+), '
    r'"tau": [\d.e+-]+, "alpha_snapshot": (?:null|\[[-0-9.eE+, ]*\]), "u_r": (?:null|\d+)\}'
)

"""Dynamic exit-layer policy: shadow-token statistics, decayed acceptance-rate
estimation, token-per-layer maximization, and the dynamic draft threshold.

All statistics come from the LayerSteps already produced by the round's draft
and verification passes; the update path never calls the model.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .baselines import Policy
from .config import SessionConfig
from .engine import DraftPlan, RoundOutcome
from .types import InvariantViolation, LayerStep, TokenId

# the least acceptance-rate estimate: a layer that has agreed nowhere in the
# window still gets a positive rate, so every plan's objective stays defined
ALPHA_FLOOR = 1e-6


class ShadowMatrix(NamedTuple):
    """Per-layer agreement and confidences for one round's positions.

    Row ``ell - 1`` of ``matches`` holds whether the token layer ``ell``
    would have drafted at each position is the full model's argmax. Both
    arrays are C-contiguous, one row per exit layer.
    """

    matches: np.ndarray  # (L-1, g+1) bool
    confidences: np.ndarray  # (L-1, g+1) top-1 probabilities


class RoundStats(NamedTuple):
    """One round's contribution to the decayed accumulators.

    ``u_r`` is the index of the first position where the draft layer's shadow
    token disagrees with the target (or the last position if none); counts and
    confidence sums run over the inclusive window [0, u_r]. ``sums`` stacks
    them per layer in ``DecayedStats.sums``'s row order: matched counts,
    then the confidence mass on matched and on mismatched tokens.
    """

    u_r: int
    sums: np.ndarray  # (3, L-1)


class DecayedStats(NamedTuple):
    """Decayed sums over past rounds: A <- omega * A + a_r per push.

    The per-layer sums sit in one (3, L-1) array, so a push is one multiply
    and one add: row 0 the matched counts (sc), row 1 the matched
    confidence mass (stcs), row 2 the mismatched confidence mass (sfcs).
    ``su`` sums the window indices u_r and ``scnt`` the rounds.
    Each row is, to the bit, what a separate array per sum would hold: the
    rows fold ``round_stats``'s window sums, which are taken over each
    layer's zero-padded full-width row because a row cut at u_r would sum
    in another order and round differently.
    """

    sums: np.ndarray  # (3, L-1)
    su: float
    scnt: float


def zero_stats(n_exit_layers: int) -> DecayedStats:
    return DecayedStats(np.zeros((3, n_exit_layers)), 0.0, 0.0)


def shadow_tokens(steps: Sequence[LayerStep]) -> ShadowMatrix:
    """Whether every layer's greedy token matches the target, and its top-1
    confidence, at every position.

    The steps are read together in one block that decodes only their
    agreement and confidence uniforms (``LayerStep.shadow``)."""
    if len(steps) == 0:
        raise ValueError("steps must be non-empty")
    return ShadowMatrix(*LayerStep.shadow(steps))


def _first_mismatch(match_row: np.ndarray) -> int:
    # first False index, or the last position when the row fully matches
    # (argmin is then 0, a match)
    i = int(match_row.argmin())
    return int(match_row.size - 1) if match_row[i] else i


def round_stats(sm: ShadowMatrix, exit_layer: int | None) -> RoundStats:
    """Window statistics for one round, windowed by the exit layer's first
    shadow mismatch; with ``exit_layer`` None (the prefill pseudo-round)
    every position counts, u = width - 1.

    The three per-layer window sums come from one ``sum(axis=2)`` over a
    (3, L-1, g+1) buffer whose rows are the round's full width, with the
    positions after u_r set to +0.0. That padded layout stays because
    numpy sums a row pairwise, in blocks of eight: a row cut to the window
    groups its terms differently, which changes the last bit of some sums
    and with them ``del``'s plans at near-ties."""
    matches, conf = sm.matches, sm.confidences
    n_exit, width = matches.shape
    if exit_layer is None:
        u = width - 1
    else:
        if not 1 <= exit_layer <= n_exit:
            raise ValueError(f"exit_layer must lie in [1, {n_exit + 1}), got {exit_layer}")
        u = _first_mismatch(matches[exit_layer - 1])
    if u < width - 1:
        window = np.arange(width) <= u
        in_window = matches & window
        windowed = conf * window
    else:
        in_window, windowed = matches, conf
    buf = np.empty((3, n_exit, width))
    buf[0] = in_window
    # each entry is a confidence or +0.0, so the mismatched mass in the
    # window is the difference of the two products, exactly
    np.multiply(conf, in_window, out=buf[1])
    np.subtract(windowed, buf[1], out=buf[2])
    return RoundStats(u, buf.sum(axis=2))


def push(stats: DecayedStats, rs: RoundStats, omega: float) -> DecayedStats:
    """Fold one round into the decayed sums; the incremental form reproduces
    the direct weighted sum by induction."""
    sums = stats.sums * omega
    sums += rs.sums
    return DecayedStats(sums, omega * stats.su + rs.u_r, omega * stats.scnt + 1.0)


def estimate_alpha(stats: DecayedStats) -> np.ndarray:
    """Per-layer acceptance-rate estimate: decayed matches over decayed window
    indices, clamped into [ALPHA_FLOOR, 1].

    When the window-index sum is zero (every round so far had u_r = 0) the
    decayed round count is used as denominator instead. The stats must hold
    at least one round, as they do from the prefill pseudo-round on.

    The matches are capped at the denominator before the divide, which
    gives ``np.clip(sums[0] / denom, ALPHA_FLOOR, 1)`` to the bit without
    overflowing when a tiny decay factor leaves ``su`` subnormal.
    """
    denom = stats.su if stats.su > 0.0 else stats.scnt
    alpha = np.minimum(stats.sums[0], denom)
    alpha /= denom
    return np.maximum(alpha, ALPHA_FLOOR, out=alpha)


def _clamp(x: np.ndarray, lo: float) -> np.ndarray:
    """``np.clip(x, lo, 1.0)`` for a new array ``x``, in place and with the
    same values, at about half its cost."""
    np.maximum(x, lo, out=x)
    np.minimum(x, 1.0, out=x)
    return x


def tpl(alpha: float, ell: int, d: int, L: int) -> float:
    """Expected tokens generated per layer loaded for one SD round: the
    cell (ell, d) of ``tpl_grid`` for acceptance ``alpha`` at every layer.

    The geometric sum of acceptance powers over the drafting cost
    d*ell + L; finite at alpha = 1 where it equals (d+1)/(d*ell + L).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha out of [0,1]: {alpha}")
    if ell < 1 or ell >= L:
        raise ValueError(f"ell must lie in [1, {L}), got {ell}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    return float(tpl_grid(np.full(ell, alpha), d, L)[ell - 1, d])


@lru_cache(maxsize=16)
def _tpl_axes(n: int, d_max: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """The exponents d of the TPL grid, shape (d_max+1,), and its costs
    d*ell + L as floats, row ell-1 for ell in [1, n], shape (n, d_max+1);
    read-only, since every caller shares them."""
    exponents = np.arange(d_max + 1.0)
    costs = np.arange(1.0, n + 1)[:, None] * exponents + L
    exponents.setflags(write=False)
    costs.setflags(write=False)
    return exponents, costs


def tpl_grid(alpha: np.ndarray, d_max: int, L: int) -> np.ndarray:
    """TPL over the full (ell, d) grid; row ell-1, column d.

    The powers are numpy's vectorized ``**``, which need not round as
    ``math.pow`` does: on an AVX-512 host they differ in about 70 of the
    1,501 cells of a (79, 19) grid. ``**`` is elementwise, so some layers'
    rows raised alone (``_tpl_rows``, as ``select_plan`` ranks them) give
    the same bits as the full grid, but a scalar formula does not; so any
    value that must agree with ``del``'s plans (and the golden digests)
    comes from this one numpy power."""
    return _tpl_rows(np.asarray(alpha, dtype=np.float64), slice(None), d_max, L)


def _tpl_rows(alpha: np.ndarray, rows: list[int] | slice, d_max: int, L: int) -> np.ndarray:
    """Rows ``rows`` of ``tpl_grid(alpha, d_max, L)``, in their order, with
    only those layers' powers raised: each row's running sum of powers is
    one in-place accumulate along it, divided by its costs."""
    exponents, costs = _tpl_axes(alpha.size, d_max, L)
    grid = alpha[rows][:, None] ** exponents
    np.add.accumulate(grid, axis=1, out=grid)
    grid /= costs[rows]
    return grid


def select_plan(alpha: np.ndarray, thresholds: np.ndarray, cfg: SessionConfig) -> DraftPlan:
    """Argmax of TPL, under the per-layer acceptance estimate ``alpha``,
    over exit layers [1, L) and lengths [0, d_max]: the row-major argmax of
    ``tpl_grid(alpha, d_max, L)``.

    Ties break toward the smaller layer, then the smaller length (cheaper and
    shorter is safer under estimation noise). The plan carries the exit
    layer's threshold; how far its round may draft past the planned length
    is ``engine.draft_bound``'s rule.

    Only the undominated layers are ranked: layer 1, and each layer whose
    estimate is strictly above every shallower layer's (a strict running
    maximum). That gives the full grid's argmax exactly. Take a layer ell
    whose estimate is at most that of a shallower layer ell'. At d = 0
    every cell is 1/L, and the row-major argmax already takes (1, 0). For
    d >= 1, cell (ell, d) sums the same or smaller powers over the strictly
    larger cost d*ell + L, at least 1/(2L) above d*ell' + L relatively; the
    powers', sums' and divide's rounding moves either cell by at most about
    (d_max + 1) * 2**-52 relatively, so cell (ell, d) stays strictly below
    cell (ell', d) whenever L * (d_max + 1) < 2**50. Every valid config
    meets that: d_max <= 4096, so it fails only from about L = 2**38,
    whose L - 1 estimates could not be held in memory. The ranked rows
    come from ``_tpl_rows``, whose cells are the full grid's bit for bit.
    """
    d_max = cfg.d_max
    rows = []
    best = -math.inf
    for ell, a in enumerate(alpha.tolist()):
        if a > best:
            rows.append(ell)
            best = a
    flat = int(np.argmax(_tpl_rows(alpha, rows, d_max, cfg.L)))  # smallest ell, then d
    ell = rows[flat // (d_max + 1)] + 1
    return DraftPlan(ell, float(thresholds[ell - 1]), flat % (d_max + 1))


def update_threshold(stats: DecayedStats) -> np.ndarray:
    """Per-layer draft threshold: midpoint of the decayed mean confidences of
    matched and mismatched shadow tokens.

    The mismatch mass uses the decayed sum of window sizes (u_r + 1 per round)
    minus the matched count, which keeps it non-negative. Degenerate layers
    fall back to the single available mean. Every layer has one: each round
    adds 1 to ``scnt``, so from the prefill round on a layer with no match
    has a mismatch mass of at least 1.
    """
    sums = stats.sums
    sc, stcs, sfcs = sums[0], sums[1], sums[2]
    su_prime = stats.su + stats.scnt
    miss_mass = su_prime - sc
    if sc.min() > 0.0 and miss_mass.min() > 1e-12:
        # every layer has both means: the midpoint, as the chain below gives it
        tau = stcs / sc
        tau += sfcs / miss_mass
        tau *= 0.5
        return _clamp(tau, 0.0)

    have_match = sc > 0.0
    have_miss = miss_mass > 1e-12
    matched_mean = np.divide(stcs, sc, out=np.zeros_like(sc), where=have_match)
    miss_mean = np.divide(sfcs, miss_mass, out=np.zeros_like(sc), where=have_miss)

    tau = np.where(have_match & have_miss, 0.5 * (matched_mean + miss_mean),
                   np.where(have_match, matched_mean, miss_mean))
    return _clamp(tau, 0.0)


def prefill_init(model, prompt: Sequence[TokenId], cfg: SessionConfig):
    """Seed the controller from the prompt before the first SD round.

    Computes LayerSteps over the last min(prefill_window, len(prompt)) prompt
    positions, folds them in as one pseudo-round, and derives the initial
    thresholds, acceptance estimate and plan. Prefill cost is not charged to
    any ledger: it falls outside the generation cost window and is shared by
    every method.
    """
    if len(prompt) == 0:
        raise ValueError("prompt must be non-empty")
    start = len(prompt) - min(cfg.prefill_window, len(prompt)) + 1
    # one context grows through the window: ``model.step`` keeps nothing of
    # it, and each step is made from the one before
    context = list(prompt[:start])
    steps = [model.step(context)]
    for tok in prompt[start:]:
        context.append(tok)
        steps.append(model.step(context, steps[-1]))
    sm = shadow_tokens(steps)
    stats = push(zero_stats(cfg.L - 1), round_stats(sm, None), cfg.omega)
    thresholds = update_threshold(stats)
    alpha = estimate_alpha(stats)
    return stats, thresholds, alpha, select_plan(alpha, thresholds, cfg)


class DelController(Policy):
    """The dynamic policy. Its ``alpha_snapshot`` (a list) and ``u_r`` are
    the acceptance estimate and window of the last update.

    ``observe`` composes shadow_tokens -> round_stats -> push ->
    estimate_alpha -> threshold update -> plan selection, using only the
    LayerSteps the round already produced, windowed at the exit layer of
    ``plan``, the plan the round ran. The next plan carries the freshly
    updated threshold of its exit layer. Every plan after prefill has a
    threshold above 0 (each confidence is floored above 0, so both means
    are), so its rounds read all g + 1 positions; ``observe`` raises
    InvariantViolation on a round that read fewer.
    """

    name = "del"

    def __init__(self, cfg: SessionConfig):
        super().__init__(cfg, None)
        self.stats: DecayedStats | None = None
        self.thresholds: np.ndarray | None = None

    def init(self, model, prompt: Sequence[TokenId]) -> DraftPlan:
        self.stats, self.thresholds, alpha, self.plan = prefill_init(model, prompt, self.cfg)
        self.alpha_snapshot = alpha.tolist()
        self.u_r = None
        return self.plan

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        if self.stats is None:
            raise RuntimeError("init must be called before observe")
        if len(outcome.steps) != outcome.g + 1:
            raise InvariantViolation(
                f"round read {len(outcome.steps)} positions, not its g + 1 = {outcome.g + 1}"
            )
        cfg = self.cfg
        rs = round_stats(shadow_tokens(outcome.steps), self.plan.exit_layer)
        self.stats = push(self.stats, rs, cfg.omega)
        alpha = estimate_alpha(self.stats)
        self.thresholds = update_threshold(self.stats)
        self.plan = select_plan(alpha, self.thresholds, cfg)
        self.alpha_snapshot = alpha.tolist()
        self.u_r = rs.u_r
        return self.plan

"""Dynamic exit-layer policy: shadow-token statistics, decayed acceptance-rate
estimation, token-per-layer maximization, and the dynamic draft threshold.

All statistics come from the LayerSteps already produced by the round's draft
and verification passes; the update path never calls the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .baselines import Policy
from .config import CAP_ALGORITHM1, SessionConfig
from .engine import DraftPlan, RoundOutcome
from .types import InvariantViolation, LayerStep, TokenId


@dataclass(frozen=True, eq=False)
class ShadowMatrix:
    """Per-layer agreement and confidences for one round's positions.

    Row ``ell - 1`` of ``matches`` holds whether the token layer ``ell``
    would have drafted at each position is the full model's argmax. Both
    arrays are C-contiguous, the layout ``round_stats`` sums over.
    """

    matches: np.ndarray  # (L-1, g+1) bool
    confidences: np.ndarray  # (L-1, g+1) top-1 probabilities

    @property
    def width(self) -> int:
        return int(self.matches.shape[1])


@dataclass(frozen=True, eq=False)
class RoundStats:
    """One round's contribution to the decayed accumulators.

    ``u_r`` is the index of the first position where the draft layer's shadow
    token disagrees with the target (or the last position if none); counts and
    confidence sums run over the inclusive window [0, u_r].
    """

    u_r: int
    c: np.ndarray  # (L-1,) matched shadow tokens per layer
    tcs: np.ndarray  # (L-1,) confidence mass on matched tokens
    fcs: np.ndarray  # (L-1,) confidence mass on mismatched tokens


@dataclass(frozen=True, eq=False)
class DecayedStats:
    """Decayed sums over past rounds: A <- omega * A + a_r per push."""

    sc: np.ndarray
    su: float
    stcs: np.ndarray
    sfcs: np.ndarray
    scnt: float


def zero_stats(n_exit_layers: int) -> DecayedStats:
    return DecayedStats(
        sc=np.zeros(n_exit_layers),
        su=0.0,
        stcs=np.zeros(n_exit_layers),
        sfcs=np.zeros(n_exit_layers),
        scnt=0.0,
    )


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
    if match_row.all():
        return int(match_row.size - 1)
    return int(match_row.argmin())


def round_stats(sm: ShadowMatrix, exit_layer: int | None) -> RoundStats:
    """Window statistics for one round, windowed by the exit layer's first
    shadow mismatch; with ``exit_layer`` None (the prefill pseudo-round)
    every position counts, u = width - 1."""
    matches, conf = sm.matches, sm.confidences
    width = sm.width
    if exit_layer is None:
        u = width - 1
    else:
        n_exit = matches.shape[0]
        if not 1 <= exit_layer <= n_exit:
            raise ValueError(f"exit_layer must lie in [1, {n_exit + 1}), got {exit_layer}")
        u = _first_mismatch(matches[exit_layer - 1])
    if u < width - 1:
        window = np.arange(width) <= u
        in_window = matches & window
        windowed = conf * window
    else:
        in_window, windowed = matches, conf
    # each entry is a confidence or +0.0, so the mismatched mass in the
    # window is the difference of the two products, exactly
    matched = conf * in_window
    return RoundStats(
        u_r=u,
        c=in_window.sum(axis=1).astype(np.float64),
        tcs=matched.sum(axis=1),
        fcs=(windowed - matched).sum(axis=1),
    )


def push(stats: DecayedStats, rs: RoundStats, omega: float) -> DecayedStats:
    """Fold one round into the decayed sums; the incremental form reproduces
    the direct weighted sum by induction."""
    return DecayedStats(
        sc=omega * stats.sc + rs.c,
        su=omega * stats.su + rs.u_r,
        stcs=omega * stats.stcs + rs.tcs,
        sfcs=omega * stats.sfcs + rs.fcs,
        scnt=omega * stats.scnt + 1.0,
    )


def estimate_alpha(stats: DecayedStats, eps: float) -> np.ndarray:
    """Per-layer acceptance-rate estimate: decayed matches over decayed window
    indices, clamped into [eps, 1].

    When the window-index sum is zero (every round so far had u_r = 0) the
    decayed round count is used as denominator instead. The stats must hold
    at least one round, as they do from the prefill pseudo-round on.
    """
    denom = stats.su if stats.su > 0.0 else stats.scnt
    return _clamp(stats.sc / denom, eps)


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
    """``tpl_grid``'s exponents d, shape (d_max+1, 1), and costs d*ell + L
    as floats, shape (d_max+1, n); read-only, since every caller shares
    them."""
    exponents = np.arange(d_max + 1.0)[:, None]
    denom = exponents * np.arange(1, n + 1) + L
    exponents.setflags(write=False)
    denom.setflags(write=False)
    return exponents, denom


def tpl_grid(alpha: np.ndarray, d_max: int, L: int) -> np.ndarray:
    """TPL over the full (ell, d) grid; row ell-1, column d.

    Computed in (d, ell) layout, where each layer's running sum of powers
    is one ``cumsum`` down a column, and returned as its (ell, d) view.

    The powers are numpy's vectorized ``**``, which need not round as
    ``math.pow`` does: on an AVX-512 host they differ in about 70 of the
    1,501 cells of a (19, 79) grid. A subset of layers raised alone gives
    the same bits as the full grid, but a scalar formula does not, so any
    value that must agree with ``del``'s plans (and the golden digests)
    comes from this one numpy power."""
    alpha = np.asarray(alpha, dtype=np.float64)
    exponents, denom = _tpl_axes(alpha.size, d_max, L)
    numer = np.cumsum(alpha ** exponents, axis=0)
    numer /= denom
    return numer.T


def select_plan(alpha: np.ndarray, thresholds: np.ndarray, cfg: SessionConfig) -> DraftPlan:
    """Exhaustive argmax of TPL, under the per-layer acceptance estimate
    ``alpha``, over exit layers [1, L) and lengths [0, d_max].

    Ties break toward the smaller layer, then the smaller length (cheaper and
    shorter is safer under estimation noise). Under ``algorithm1`` capping
    the round drafts up to d_max and the threshold stops it; otherwise it
    drafts at most the planned length.
    """
    grid = tpl_grid(alpha, cfg.d_max, cfg.L)
    flat = int(np.argmax(grid))  # row-major: smallest ell, then smallest d
    ell = flat // (cfg.d_max + 1) + 1
    d = flat % (cfg.d_max + 1)
    return DraftPlan(
        exit_layer=ell,
        threshold=float(thresholds[ell - 1]),
        planned_len=d,
        draft_bound=cfg.d_max if cfg.draft_cap_mode == CAP_ALGORITHM1 else d,
    )


def update_threshold(stats: DecayedStats) -> np.ndarray:
    """Per-layer draft threshold: midpoint of the decayed mean confidences of
    matched and mismatched shadow tokens.

    The mismatch mass uses the decayed sum of window sizes (u_r + 1 per round)
    minus the matched count, which keeps it non-negative. Degenerate layers
    fall back to the single available mean. Every layer has one: each round
    adds 1 to ``scnt``, so from the prefill round on a layer with no match
    has a mismatch mass of at least 1.
    """
    sc = stats.sc
    su_prime = stats.su + stats.scnt
    miss_mass = su_prime - sc
    if sc.min() > 0.0 and miss_mass.min() > 1e-12:
        # every layer has both means: the midpoint, as the chain below gives it
        tau = stats.stcs / sc
        tau += stats.sfcs / miss_mass
        tau *= 0.5
        return _clamp(tau, 0.0)

    have_match = sc > 0.0
    have_miss = miss_mass > 1e-12
    matched_mean = np.divide(stats.stcs, sc, out=np.zeros_like(sc), where=have_match)
    miss_mean = np.divide(stats.sfcs, miss_mass, out=np.zeros_like(sc), where=have_miss)

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
    window = min(cfg.prefill_window, len(prompt))
    start = len(prompt) - window + 1
    steps = [model.step(list(prompt[:k])) for k in range(start, len(prompt) + 1)]
    sm = shadow_tokens(steps)
    stats = push(zero_stats(cfg.L - 1), round_stats(sm, None), cfg.omega)
    thresholds = update_threshold(stats)
    alpha = estimate_alpha(stats, cfg.alpha_clamp_eps)
    return stats, thresholds, alpha, select_plan(alpha, thresholds, cfg)


class DelController(Policy):
    """The dynamic policy. Its ``alpha_snapshot`` (a list) and ``u_r`` are
    the acceptance estimate and window of the last update.

    ``observe`` composes shadow_tokens -> round_stats -> push ->
    estimate_alpha -> threshold update -> plan selection, using only the
    LayerSteps the round already produced. The plan carries the freshly
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
        rs = round_stats(shadow_tokens(outcome.steps), outcome.exit_layer_used)
        self.stats = push(self.stats, rs, cfg.omega)
        alpha = estimate_alpha(self.stats, cfg.alpha_clamp_eps)
        self.thresholds = update_threshold(self.stats)
        self.plan = select_plan(alpha, self.thresholds, cfg)
        self.alpha_snapshot = alpha.tolist()
        self.u_r = rs.u_r
        return self.plan

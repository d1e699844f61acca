"""One speculative decoding round: draft, verify, accept, resample, account.

Policy-agnostic: the caller supplies a :class:`DraftPlan` and gets back a
:class:`RoundOutcome` carrying every LayerStep the round read, so policy
updates never need extra model calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import GREEDY, SessionConfig
from .model import horizon_error
from .types import InvariantViolation, LayerStep, TokenId, sample_cdf, sample_exit, sample_weights


class DraftPlan(NamedTuple):
    """The controller's decision for the next round.

    ``draft_bound`` is the most tokens the round may draft: a policy that
    relies on the threshold to stop drafting passes d_max, one that drafts
    a planned length passes that length. A plain tuple in field order, so
    it is cheap to build once a round; its fields cannot be set.
    """

    exit_layer: int
    threshold: float
    planned_len: int
    draft_bound: int

    def validate(self, cfg: SessionConfig) -> "DraftPlan":
        if not 1 <= self.exit_layer < cfg.L:
            raise ValueError(f"exit_layer must lie in [1, {cfg.L}), got {self.exit_layer}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of [0,1]: {self.threshold}")
        if not 0 <= self.planned_len <= cfg.d_max:
            raise ValueError(f"planned_len out of [0, {cfg.d_max}]: {self.planned_len}")
        if not 0 <= self.draft_bound <= cfg.d_max:
            raise ValueError(f"draft_bound out of [0, {cfg.d_max}]: {self.draft_bound}")
        return self


@dataclass
class CostLedger:
    """Cumulative cost-model accounting: one layer load per layer per pass."""

    tokens_emitted: int = 0
    layers_loaded: int = 0


class RoundOutcome(NamedTuple):
    """Everything one SD round produced, as a plain tuple in field order
    whose fields cannot be set.

    ``g`` is the number of tokens drafted, which the cost model charges
    for. ``steps`` and ``drafted`` cover the positions the round read: a
    plan with a threshold reads all g + 1 (position g is the bonus slot),
    a plan without one reads up to its first rejection, or all g + 1 on
    full acceptance.
    """

    drafted: tuple[TokenId, ...]
    emitted: tuple[TokenId, ...]
    accepted_count: int
    steps: tuple[LayerStep, ...]
    exit_layer_used: int
    layers_loaded: int  # this round's g*E + L
    g: int


class Positions:
    """One round's positions, in order: the steps it holds and the tokens
    it drafted.

    Position i is the step after the round's context and the first i
    drafted tokens; ``context`` holds the drafted tokens while the round
    runs, and the round removes them, so ``model.step`` must not keep the
    list it is given. Each position is stepped from the one before it
    (``model.step``'s ``prev``), position 0 from ``prev``, the step of the
    context less its last token, when the caller knows it (else None). A
    plan with a threshold steps its positions while it drafts them
    (``draft``); a plan without one steps and drafts each position when
    verification reaches it (``draft_at``).
    """

    __slots__ = ("model", "context", "greedy", "prev", "steps", "drafted", "q_rows",
                 "exit_layer", "uniforms")

    def __init__(self, model, context: list[TokenId], greedy: bool, prev: LayerStep | None = None):
        self.model = model
        self.context = context
        self.greedy = greedy
        self.prev = prev
        self.steps: list[LayerStep] = []
        self.drafted: list[TokenId] = []
        self.q_rows: list[tuple[TokenId, float]] = []
        # a zero-threshold round's exit layer and, in sampling mode, its
        # draft uniforms, set by ``draft`` for ``draft_at``
        self.exit_layer = 0
        self.uniforms: list[float] | None = None

    def step(self, i: int) -> LayerStep:
        """Position i, stepped if it is the next one."""
        steps = self.steps
        if i == len(steps):
            steps.append(self.model.step(self.context, steps[-1] if steps else self.prev))
        return steps[i]

    def draft_at(self, i: int) -> LayerStep:
        """Step position i, the next one, and draft its token at the exit
        layer ``draft`` recorded, as ``draft`` drafts one, with the i-th of
        the uniforms it drew."""
        steps = self.steps
        step = self.model.step(self.context, steps[-1] if steps else self.prev)
        steps.append(step)
        tok, conf = step.layer(self.exit_layer)
        if not self.greedy:
            self.q_rows.append((tok, conf))
            tok = sample_exit(tok, conf, step.target.size, self.uniforms[i])
        self.drafted.append(tok)
        self.context.append(tok)
        return step


def draft(positions: Positions, plan: DraftPlan, rng: np.random.Generator) -> int:
    """Draft at the plan's exit layer; returns g, the number of tokens
    drafted, at most ``plan.draft_bound``.

    A plan with a threshold drafts here. It steps the model at each
    position, from the step before it, and stops at the first whose
    exit-layer confidence (``LayerStep.layer``, which decodes that layer
    alone on a model's step) is below the threshold; that position is then
    the bonus slot g. A drafted token is the exit layer's top token in
    greedy mode; in sampling mode it is a draw from the exit row
    (``sample_exit``, which does not build the row) with a uniform drawn as
    the token is drafted, and the row's (top token, confidence) pair is kept
    for verification to read.

    A plan whose threshold is 0 cannot stop early, since every confidence is
    floored above 0, so g is its draft bound before any step. It steps
    nothing here: in sampling mode it draws the round's g draft uniforms as
    one ``rng.random(g)``, the same stream as g single draws, and the round
    drafts each position when verification reads it (``draft_at``). A round
    that would step a context past the model's horizon raises its
    ConfigError here.
    """
    g = plan.draft_bound
    if plan.threshold <= 0.0:
        n0 = len(positions.context)
        horizon = positions.model.spec.horizon
        if n0 + g > horizon:
            raise horizon_error(max(n0, horizon + 1), horizon)
        positions.exit_layer = plan.exit_layer
        if g and not positions.greedy:
            positions.uniforms = rng.random(g).tolist()
        return g
    model_step, context, steps = positions.model.step, positions.context, positions.steps
    drafted, q_rows = positions.drafted, positions.q_rows
    exit_layer, threshold, greedy = plan.exit_layer, plan.threshold, positions.greedy
    step = positions.prev
    for i in range(g):
        step = model_step(context, step)
        steps.append(step)
        tok, conf = step.layer(exit_layer)
        if conf < threshold:
            return i
        if not greedy:
            q_rows.append((tok, conf))
            tok = sample_exit(tok, conf, step.target.size, rng.random())
        drafted.append(tok)
        context.append(tok)
    return g


def verify_greedy(tok: TokenId, target_token: TokenId) -> TokenId | None:
    """Greedy verification of one drafted token: None when it is the
    target's argmax, which accepts it; else that argmax, which the round
    emits in its place."""
    return None if tok == target_token else target_token


def _residual(p_row: np.ndarray, top: TokenId, conf: float) -> np.ndarray:
    """max(0, p - q) for the exit row q with confidence ``conf`` on ``top``,
    unnormalized, as a new array built in place without the row: the same
    floats as ``np.maximum(p_row - exit_distribution(top, conf, V), 0.0)``,
    which a rejection draws from as weights (``sample_weights``)."""
    residual = p_row - (1.0 - conf) / (p_row.size - 1)
    residual[top] = p_row[top] - conf
    return np.maximum(residual, 0.0, out=residual)


def verify_sampling(tok: TokenId, q_row: tuple[TokenId, float], p_row: np.ndarray,
                    rng: np.random.Generator) -> TokenId | None:
    """Speculative sampling verification of one drafted token.

    ``q_row`` is the (top token, confidence) pair of the exit row that
    drafted ``tok`` (see ``exit_distribution``): q(x) is the confidence when
    x is the top token and (1 - confidence) / (V - 1) otherwise, the very
    floats the row holds. The token is accepted, and None returned, with
    probability min(1, p(x)/q(x)); a rejection returns a sample of the
    normalized positive residual max(0, p - q), which the round emits in
    its place. The residual is built from ``p_row`` and the pair alone
    (``_residual``) and never normalized: ``sample_weights`` draws from its
    running sums, with one uniform, the index that the normalized-vector
    search (``types._search``) finds in the normalized residual.
    """
    top, conf = q_row
    size = p_row.size
    q = conf if tok == top else (1.0 - conf) / (size - 1)
    p = float(p_row[tok])
    if q <= 0.0:
        raise InvariantViolation("drafted token has zero draft probability")
    if rng.random() < min(1.0, p / q):
        return None
    residual = _residual(p_row, top, conf)
    try:
        return sample_weights(residual, rng)
    except ValueError:
        # p == q with all mass on the drafted token is accepted by the
        # min(1, .) rule, so a zero residual is unreachable
        raise InvariantViolation("zero residual distribution at rejection") from None


def run_round(
    model,
    context: list[TokenId],
    plan: DraftPlan,
    rng: np.random.Generator,
    ledger: CostLedger,
    cfg: SessionConfig,
    budget_left: int | None = None,
    prev: LayerStep | None = None,
) -> RoundOutcome:
    """Run one full SD round and append the emitted tokens to ``context``.

    ``prev``, if given, is the model's step of ``context[:-1]``: position 0
    is stepped from it (``model.step``). A session passes the step of the
    last round's last emitted position, ``steps[accepted_count]``.

    Verification walks the drafted positions in order and stops at the
    first rejection; full acceptance reads position g for the bonus token
    (the target's argmax, or a draw from the row's cumulative sums,
    ``step.target_cdf``, by ``sample_cdf``). A plan with a threshold
    holds every drafted position's step when verification starts, steps
    position g too, since ``del`` reads them all, and verification walks
    the held steps. A plan whose threshold is 0 steps, and drafts, a
    position only when verification reads it, so nothing after the first
    rejection is stepped. Either way the emitted tokens and the draws from
    ``rng`` are those of drafting all g tokens first.

    Charges the ledger g*E + L layer loads regardless of how many tokens
    survive verification; if ``budget_left`` is given, the emitted sequence is
    truncated to it but the full round cost is still charged.
    """
    if budget_left is not None and budget_left < 1:
        raise ValueError("generation budget exhausted")
    plan.validate(cfg)
    greedy = cfg.decode_mode == GREEDY
    n0 = len(context)
    positions = Positions(model, context, greedy, prev)
    drafted, q_rows, steps = positions.drafted, positions.q_rows, positions.steps
    try:
        g = draft(positions, plan, rng)
        if plan.threshold > 0.0:
            # drafting stepped positions 0..g-1, and position g as well when
            # a confidence stopped it; del's update reads all g + 1
            positions.step(g)
            read = steps.__getitem__
        else:
            read = positions.draft_at
        for i in range(g):
            step = read(i)
            if greedy:
                end = verify_greedy(drafted[i], step.target_token)
            else:
                end = verify_sampling(drafted[i], q_rows[i], step.target, rng)
            if end is not None:
                break
        else:
            i = g
            step = positions.step(g)
            end = step.target_token if greedy else sample_cdf(step.target_cdf, rng)
    finally:
        del context[n0:]
    emitted = drafted[:i]
    emitted.append(end)

    if budget_left is not None and len(emitted) > budget_left:
        emitted = emitted[:budget_left]

    layers = g * plan.exit_layer + cfg.L
    ledger.layers_loaded += layers
    ledger.tokens_emitted += len(emitted)
    context.extend(emitted)

    return RoundOutcome(tuple(drafted), tuple(emitted), i, tuple(steps), plan.exit_layer, layers, g)

"""One speculative decoding round: draft, verify, accept, resample, account.

Policy-agnostic: the caller supplies a :class:`DraftPlan` and gets back a
:class:`RoundOutcome` carrying every LayerStep the round read, so policy
updates never need extra model calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import CAP_ALGORITHM1, GREEDY, SessionConfig
from .model import horizon_error
from .types import InvariantViolation, LayerStep, TokenId, sample_cdf, sample_exit, sample_weights


class DraftPlan(NamedTuple):
    """The controller's decision for the next round: its exit layer, draft
    threshold (0 never stops drafting early) and planned length; how many
    tokens the round may draft is ``draft_bound``'s rule. A plain tuple in
    field order, so it is cheap to build once a round; its fields cannot be
    set."""

    exit_layer: int
    threshold: float
    planned_len: int

    def validate(self, cfg: SessionConfig) -> "DraftPlan":
        if not 1 <= self.exit_layer < cfg.L:
            raise ValueError(f"exit_layer must lie in [1, {cfg.L}), got {self.exit_layer}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of [0,1]: {self.threshold}")
        if not 0 <= self.planned_len <= cfg.d_max:
            raise ValueError(f"planned_len out of [0, {cfg.d_max}]: {self.planned_len}")
        return self


def draft_bound(plan: DraftPlan, cfg: SessionConfig) -> int:
    """The most tokens a round of ``plan`` may draft, the one reading of
    ``cfg.draft_cap_mode``: under ``algorithm1`` a plan with a threshold
    drafts up to d_max and the threshold stops it; every other plan (one
    without a threshold, or any plan under ``plan_capped``) drafts at most
    its planned length."""
    if plan.threshold > 0.0 and cfg.draft_cap_mode == CAP_ALGORITHM1:
        return cfg.d_max
    return plan.planned_len


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
    full acceptance. The exit layer is the plan's.
    """

    drafted: tuple[TokenId, ...]
    emitted: tuple[TokenId, ...]
    accepted_count: int
    steps: tuple[LayerStep, ...]
    layers_loaded: int  # this round's g*E + L
    g: int


def draft(model, context: list[TokenId], prev: LayerStep | None, plan: DraftPlan, bound: int,
          rng: np.random.Generator, greedy: bool
          ) -> tuple[list[LayerStep], list[TokenId], list[tuple[TokenId, float]]]:
    """Draft at the plan's exit layer, for a plan with a threshold, at most
    ``bound`` tokens; returns the steps it made, the tokens it drafted (g of
    them) and, in sampling mode, their exit rows' (top token, confidence)
    pairs, which verification reads.

    Each position is stepped from the one before it, position 0 from
    ``prev`` (see ``run_round``), and each drafted token is appended to
    ``context``, which the caller trims, so ``model.step`` must not keep the
    list it is given. Drafting stops at the first position whose exit-layer
    confidence (``LayerStep.layer``, which decodes that layer alone) is
    below the threshold; that position, the bonus slot g, is then the last
    step. A drafted token is the exit layer's top token in greedy mode; in
    sampling mode it is a draw from the exit row (``sample_exit``, which
    does not build the row) with a uniform drawn as the token is drafted.
    """
    steps: list[LayerStep] = []
    drafted: list[TokenId] = []
    q_rows: list[tuple[TokenId, float]] = []
    exit_layer, threshold = plan.exit_layer, plan.threshold
    step = prev
    for _ in range(bound):
        step = model.step(context, step)
        steps.append(step)
        tok, conf = step.layer(exit_layer)
        if conf < threshold:
            break
        if not greedy:
            q_rows.append((tok, conf))
            tok = sample_exit(tok, conf, step.target.size, rng.random())
        drafted.append(tok)
        context.append(tok)
    return steps, drafted, q_rows


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

    A plan with a threshold drafts first (``draft``) and then steps
    position g too, unless a confidence already stopped drafting there,
    since ``del`` reads all g + 1 positions. A plan whose threshold is 0
    cannot stop early, since every confidence is floored above 0, so g is
    its draft bound (``draft_bound``) before any step: a round that would
    step a context past the model's horizon raises its ConfigError first,
    in sampling mode the round's g draft uniforms are one ``rng.random(g)``,
    the same stream as g single draws, and each position is stepped and
    drafted only when verification reaches it, so nothing after the first
    rejection is stepped. Either way the emitted tokens and the draws from
    ``rng`` are those of drafting all g tokens first.

    Verification walks the drafted positions in order and stops at the
    first rejection; full acceptance reads position g for the bonus token
    (the target's argmax, or a draw from the row's cumulative sums,
    ``step.target_cdf``, by ``sample_cdf``).

    Charges the ledger g*E + L layer loads regardless of how many tokens
    survive verification; if ``budget_left`` is given, the emitted sequence is
    truncated to it but the full round cost is still charged.
    """
    if budget_left is not None and budget_left < 1:
        raise ValueError("generation budget exhausted")
    plan.validate(cfg)
    greedy = cfg.decode_mode == GREEDY
    exit_layer = plan.exit_layer
    bound = draft_bound(plan, cfg)
    n0 = len(context)
    lazy = plan.threshold <= 0.0
    try:
        if lazy:
            g = bound
            horizon = model.spec.horizon
            if n0 + g > horizon:
                raise horizon_error(max(n0, horizon + 1), horizon)
            steps, drafted, q_rows = [], [], []
            if g and not greedy:
                uniforms = rng.random(g).tolist()
        else:
            steps, drafted, q_rows = draft(model, context, prev, plan, bound, rng, greedy)
            g = len(drafted)
            if len(steps) == g:
                steps.append(model.step(context, steps[-1] if steps else prev))
        step = prev
        for i in range(g):
            if lazy:
                step = model.step(context, step)
                steps.append(step)
                tok, conf = step.layer(exit_layer)
                if not greedy:
                    q_rows.append((tok, conf))
                    tok = sample_exit(tok, conf, step.target.size, uniforms[i])
                drafted.append(tok)
                context.append(tok)
            else:
                step = steps[i]
            if greedy:
                end = verify_greedy(drafted[i], step.target_token)
            else:
                end = verify_sampling(drafted[i], q_rows[i], step.target, rng)
            if end is not None:
                break
        else:
            i = g
            if lazy:
                steps.append(model.step(context, step))
            step = steps[g]
            end = step.target_token if greedy else sample_cdf(step.target_cdf, rng)
    finally:
        del context[n0:]
    emitted = drafted[:i]
    emitted.append(end)

    if budget_left is not None and len(emitted) > budget_left:
        emitted = emitted[:budget_left]

    layers = g * exit_layer + cfg.L
    ledger.layers_loaded += layers
    ledger.tokens_emitted += len(emitted)
    context.extend(emitted)

    return RoundOutcome(tuple(drafted), tuple(emitted), i, tuple(steps), layers, g)

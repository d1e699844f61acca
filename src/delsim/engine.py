"""One speculative decoding round: draft, verify, accept, resample, account.

Policy-agnostic: the caller supplies a :class:`DraftPlan` and gets back a
:class:`RoundOutcome` carrying every LayerStep the round touched, so policy
updates never need extra model calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import GREEDY, SessionConfig
from .types import InvariantViolation, LayerStep, TokenId, exit_distribution, sample_exit, sample_index


@dataclass(frozen=True)
class DraftPlan:
    """The controller's decision for the next round.

    ``draft_bound`` is the most tokens the round may draft: a policy that
    relies on the threshold to stop drafting passes d_max, one that drafts
    a planned length passes that length.
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


@dataclass(frozen=True, eq=False)
class RoundOutcome:
    """Everything one SD round produced."""

    drafted: tuple[TokenId, ...]
    emitted: tuple[TokenId, ...]
    accepted_count: int
    steps: tuple[LayerStep, ...]  # positions 0..g, position g is the bonus slot
    exit_layer_used: int
    layers_loaded: int  # this round's g*E + L


def draft(
    model,
    context: list[TokenId],
    plan: DraftPlan,
    cfg: SessionConfig,
    rng: np.random.Generator,
    q_rows: list[tuple[TokenId, float]] | None = None,
):
    """Auto-regressively draft tokens at the plan's exit layer.

    Each position's confidence is the exit layer's top-1 probability
    (``LayerStep.layer``, which decodes that layer alone on a pending step);
    if it falls below the plan threshold the token is discarded and drafting
    stops.
    The loop runs at most ``plan.draft_bound`` times.

    Returns (drafted tokens, LayerSteps seen). The step list covers every
    position evaluated: g entries if the loop ran to its bound, g+1 if the
    threshold stopped it early. Drafted tokens are appended to ``context``
    while the loop runs and removed before returning, so ``model.step`` must
    not keep the list it is given. In sampling mode each drafted token is
    sampled from its exit row (``sample_exit``, which does not build the
    row), and that row's (top token, confidence) pair is appended to
    ``q_rows`` when it is given, for verification to read.
    """
    n0 = len(context)
    drafted: list[TokenId] = []
    steps: list[LayerStep] = []
    exit_layer = plan.exit_layer
    greedy = cfg.decode_mode == GREEDY
    try:
        for _ in range(plan.draft_bound):
            ls = model.step(context)
            steps.append(ls)
            tok, conf = ls.layer(exit_layer)
            if conf < plan.threshold:
                break
            if not greedy:
                if q_rows is not None:
                    q_rows.append((tok, conf))
                tok = sample_exit(tok, conf, ls.target.size, rng)
            drafted.append(tok)
            context.append(tok)
    finally:
        del context[n0:]
    return drafted, steps


def verify_greedy(target_tokens, drafted):
    """Greedy verification: longest matching prefix plus one target token.

    ``target_tokens`` are the target argmaxes at positions 0..g; the emitted
    sequence is the accepted prefix followed by the target token at the first
    mismatch (the bonus token when nothing mismatched).
    """
    accepted = 0
    for tok, tgt in zip(drafted, target_tokens):
        if tok != tgt:
            break
        accepted += 1
    emitted = list(drafted[:accepted]) + [target_tokens[accepted]]
    return accepted, emitted


def verify_sampling(drafted, q_rows, p_rows, rng: np.random.Generator):
    """Speculative sampling verification.

    ``q_rows[i]`` is the (top token, confidence) pair of the exit row that
    drafted token i (see ``exit_distribution``): q_i(x) is the confidence
    when x is the top token and (1 - confidence) / (V - 1) otherwise, the
    very floats the row holds. Token i is accepted with probability
    min(1, p_i(x)/q_i(x)); the first rejection builds the row and resamples
    from the normalized positive residual max(0, p - q). Full acceptance
    samples the bonus token from p at position g.
    """
    for i, tok in enumerate(drafted):
        top, conf = q_rows[i]
        p_row = p_rows[i]
        size = p_row.size
        q = conf if tok == top else (1.0 - conf) / (size - 1)
        p = float(p_row[tok])
        if q <= 0.0:
            raise InvariantViolation("drafted token has zero draft probability")
        if rng.random() < min(1.0, p / q):
            continue
        residual = np.maximum(p_row - exit_distribution(top, conf, size), 0.0)
        total = float(residual.sum())
        if total <= 0.0:
            # p == q with all mass on the drafted token is accepted by the
            # min(1, .) rule, so a zero residual is unreachable
            raise InvariantViolation("zero residual distribution at rejection")
        corr = sample_index(residual / total, rng)
        return i, list(drafted[:i]) + [corr]
    bonus = sample_index(p_rows[len(drafted)], rng)
    return len(drafted), list(drafted) + [bonus]


def run_round(
    model,
    context: list[TokenId],
    plan: DraftPlan,
    rng: np.random.Generator,
    ledger: CostLedger,
    cfg: SessionConfig,
    budget_left: int | None = None,
) -> RoundOutcome:
    """Run one full SD round and append the emitted tokens to ``context``.

    Charges the ledger g*E + L layer loads regardless of how many tokens
    survive verification; if ``budget_left`` is given, the emitted sequence is
    truncated to it but the full round cost is still charged. A sampling
    round builds no exit row per drafted position: the draft samples each
    token from its row's closed-form CDF and hands verification the row's
    (top token, confidence) pair, and verification builds a row only at a
    rejection.
    """
    if budget_left is not None and budget_left < 1:
        raise ValueError("generation budget exhausted")
    plan.validate(cfg)

    q_rows: list[tuple[TokenId, float]] = []
    drafted, steps = draft(model, context, plan, cfg, rng, q_rows)
    g = len(drafted)
    if len(steps) == g:
        # loop ran to its bound: the verification pass covers one more position
        n0 = len(context)
        context.extend(drafted)
        try:
            steps.append(model.step(context))
        finally:
            del context[n0:]
    assert len(steps) == g + 1

    if cfg.decode_mode == GREEDY:
        target_tokens = [s.target_token for s in steps]
        accepted, emitted = verify_greedy(target_tokens, drafted)
    else:
        p_rows = [s.target for s in steps]
        accepted, emitted = verify_sampling(drafted, q_rows, p_rows, rng)

    if budget_left is not None and len(emitted) > budget_left:
        emitted = emitted[:budget_left]

    layers = g * plan.exit_layer + cfg.L
    ledger.layers_loaded += layers
    ledger.tokens_emitted += len(emitted)
    context.extend(emitted)

    return RoundOutcome(
        drafted=tuple(drafted),
        emitted=tuple(emitted),
        accepted_count=accepted,
        steps=tuple(steps),
        exit_layer_used=plan.exit_layer,
        layers_loaded=layers,
    )

"""One speculative decoding round: draft, verify, accept, resample, account.

Policy-agnostic: the caller supplies a :class:`DraftPlan` and gets back a
:class:`RoundOutcome` carrying every LayerStep the round touched, so policy
updates never need extra model calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CAP_ALGORITHM1, CAP_MODES, GREEDY, SessionConfig
from .types import InvariantViolation, LayerStep, TokenId, sample_index


@dataclass(frozen=True)
class DraftPlan:
    """The controller's decision for the next round."""

    exit_layer: int
    threshold: float
    planned_len: int
    cap_mode: str = CAP_ALGORITHM1

    def validate(self, cfg: SessionConfig) -> "DraftPlan":
        if not 1 <= self.exit_layer < cfg.L:
            raise ValueError(f"exit_layer must lie in [1, {cfg.L}), got {self.exit_layer}")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold out of [0,1]: {self.threshold}")
        if not 0 <= self.planned_len <= cfg.d_max:
            raise ValueError(f"planned_len out of [0, {cfg.d_max}]: {self.planned_len}")
        if self.cap_mode not in CAP_MODES:
            raise ValueError(f"cap_mode must be one of {CAP_MODES}, got {self.cap_mode!r}")
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
    confidences: tuple[float, ...]  # exit-layer top-1 probability per position


def draft(
    model,
    context,
    plan: DraftPlan,
    cfg: SessionConfig,
    rng: np.random.Generator,
    q_rows: list[np.ndarray] | None = None,
):
    """Auto-regressively draft tokens at the plan's exit layer.

    Each position's confidence is the exit layer's top-1 probability; if it
    falls below the plan threshold the token is discarded and drafting stops.
    The loop bound is d_max under ``algorithm1`` capping, otherwise
    min(planned_len, d_max).

    Returns (drafted tokens, LayerSteps seen, confidences seen). The step
    list covers every position evaluated: g entries if the loop ran to its
    bound, g+1 if the threshold stopped it early. In sampling mode the exit
    row each drafted token was sampled from is appended to ``q_rows`` when
    it is given, for verification to reuse.
    """
    cap = cfg.d_max if plan.cap_mode == CAP_ALGORITHM1 else min(plan.planned_len, cfg.d_max)
    work = list(context)
    drafted: list[TokenId] = []
    steps: list[LayerStep] = []
    confs: list[float] = []
    exit_layer = plan.exit_layer
    k = exit_layer - 1
    greedy = cfg.decode_mode == GREEDY
    for _ in range(cap):
        ls = model.step(work)
        conf = float(ls.top_conf[k])
        steps.append(ls)
        confs.append(conf)
        if conf < plan.threshold:
            break
        if greedy:
            tok = int(ls.top_tokens[k])
        else:
            q = ls.exit_row(exit_layer)
            tok = sample_index(q, rng)
            if q_rows is not None:
                q_rows.append(q)
        drafted.append(tok)
        work.append(tok)
    return drafted, steps, confs


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

    Token i is accepted with probability min(1, p_i(x)/q_i(x)); the first
    rejection resamples from the normalized positive residual max(0, p - q).
    Full acceptance samples the bonus token from p at position g.
    """
    for i, tok in enumerate(drafted):
        q = float(q_rows[i][tok])
        p = float(p_rows[i][tok])
        if q <= 0.0:
            raise InvariantViolation("drafted token has zero draft probability")
        if rng.random() < min(1.0, p / q):
            continue
        residual = np.maximum(p_rows[i] - q_rows[i], 0.0)
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
    truncated to it but the full round cost is still charged.
    """
    if budget_left is not None and budget_left < 1:
        raise ValueError("generation budget exhausted")
    plan.validate(cfg)

    q_rows: list[np.ndarray] = []
    drafted, steps, confs = draft(model, context, plan, cfg, rng, q_rows)
    g = len(drafted)
    if len(steps) == g:
        # loop ran to its bound: the verification pass covers one more position
        ls = model.step(list(context) + drafted)
        steps.append(ls)
        confs.append(float(ls.top_conf[plan.exit_layer - 1]))
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
        confidences=tuple(confs),
    )

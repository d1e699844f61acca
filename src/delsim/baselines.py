"""Comparison policies behind the same interface as the dynamic controller:
vanilla decoding, a static exit/length policy, a finite-state length controller, and a
confidence-feedback draft-and-verify variant."""

from __future__ import annotations

from dataclasses import dataclass

from .config import CAP_ALGORITHM1, CAP_PLAN, ConfigError, SessionConfig, as_int
from .engine import DraftPlan, RoundOutcome


def vanilla_plan() -> DraftPlan:
    """Plain auto-regressive decoding: one target step per round."""
    return DraftPlan(exit_layer=1, threshold=0.0, planned_len=0, cap_mode=CAP_PLAN)


def ls_plan(exit_layer: int, gamma: int, L: int, d_max: int) -> DraftPlan:
    """Static plan: fixed exit layer, fixed speculation length, never stops early."""
    if not 1 <= exit_layer < L:
        raise ConfigError(f"exit_layer must lie in [1, {L}), got {exit_layer}")
    if not 0 <= gamma <= d_max:
        raise ConfigError(f"gamma out of [0, {d_max}]: {gamma}")
    return DraftPlan(exit_layer=exit_layer, threshold=0.0, planned_len=gamma, cap_mode=CAP_PLAN)


@dataclass(frozen=True)
class FsState:
    gamma_current: int


def fs_update(state: FsState, outcome: RoundOutcome, d_max: int) -> FsState:
    """Finite-state rule: +1 on a fully accepted round, -1 on any rejection,
    clamped into [1, d_max]."""
    if outcome.accepted_count >= len(outcome.drafted):
        return FsState(min(state.gamma_current + 1, d_max))
    return FsState(max(state.gamma_current - 1, 1))


@dataclass(frozen=True)
class DvState:
    threshold: float
    target_rate: float
    step: float


def dv_update(state: DvState, outcome: RoundOutcome) -> DvState:
    """Confidence-feedback rule: lower the draft threshold when the observed
    acceptance rate beats the target (draft more boldly), raise it otherwise.
    Rounds that drafted nothing carry no signal."""
    g = len(outcome.drafted)
    if g == 0:
        return state
    rate = outcome.accepted_count / g
    if rate > state.target_rate:
        return DvState(max(0.0, state.threshold - state.step), state.target_rate, state.step)
    return DvState(min(1.0, state.threshold + state.step), state.target_rate, state.step)


class VanillaPolicy:
    name = "vanilla"

    def __init__(self, cfg: SessionConfig):
        self.cfg = cfg

    def init(self, model, prompt) -> DraftPlan:
        return vanilla_plan()

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        return vanilla_plan()

    def trace_fields(self) -> dict:
        return {"alpha_snapshot": None, "u_r": None}


class LsPolicy:
    name = "ls"

    def __init__(self, cfg: SessionConfig, exit_layer: int, gamma: int):
        self.cfg = cfg
        self.plan = ls_plan(exit_layer, gamma, cfg.L, cfg.d_max)

    def init(self, model, prompt) -> DraftPlan:
        return self.plan

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        return self.plan

    def trace_fields(self) -> dict:
        return {"alpha_snapshot": None, "u_r": None}


class FsPolicy:
    name = "fs"

    def __init__(self, cfg: SessionConfig, exit_layer: int, gamma: int):
        if not 1 <= exit_layer < cfg.L:
            raise ConfigError(f"exit_layer must lie in [1, {cfg.L}), got {exit_layer}")
        if not 1 <= gamma <= cfg.d_max:
            raise ConfigError(f"gamma out of [1, {cfg.d_max}]: {gamma}")
        self.cfg = cfg
        self.exit_layer = exit_layer
        self.state = FsState(gamma)

    def _plan(self) -> DraftPlan:
        return DraftPlan(
            exit_layer=self.exit_layer,
            threshold=0.0,
            planned_len=self.state.gamma_current,
            cap_mode=CAP_PLAN,
        )

    def init(self, model, prompt) -> DraftPlan:
        return self._plan()

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        self.state = fs_update(self.state, outcome, self.cfg.d_max)
        return self._plan()

    def trace_fields(self) -> dict:
        return {"alpha_snapshot": None, "u_r": None}


class DvPolicy:
    name = "dv"

    # target/step/threshold defaults are a declared stand-in: the feedback law
    # this baseline mimics is delegated to an external method description
    def __init__(
        self,
        cfg: SessionConfig,
        exit_layer: int,
        target_rate: float = 0.9,
        step: float = 0.01,
        threshold: float = 0.6,
    ):
        if not 1 <= exit_layer < cfg.L:
            raise ConfigError(f"exit_layer must lie in [1, {cfg.L}), got {exit_layer}")
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"threshold out of [0,1]: {threshold}")
        if not 0.0 <= target_rate <= 1.0:
            raise ConfigError(f"target_rate out of [0,1]: {target_rate}")
        if step <= 0.0:
            raise ConfigError(f"step must be > 0, got {step}")
        self.cfg = cfg
        self.exit_layer = exit_layer
        self.state = DvState(threshold, target_rate, step)

    def _plan(self) -> DraftPlan:
        return DraftPlan(
            exit_layer=self.exit_layer,
            threshold=self.state.threshold,
            planned_len=self.cfg.d_max,
            cap_mode=CAP_ALGORITHM1,
        )

    def init(self, model, prompt) -> DraftPlan:
        return self._plan()

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        self.state = dv_update(self.state, outcome)
        return self._plan()

    def trace_fields(self) -> dict:
        return {"alpha_snapshot": None, "u_r": None}


def make_policy(name: str, cfg: SessionConfig, **params):
    """Build a policy by CLI name; unknown names or missing parameters raise
    ConfigError naming the field."""
    from .controller import DelController

    if name == "vanilla":
        return VanillaPolicy(cfg)
    if name == "ls":
        return LsPolicy(cfg, _param(params, "exit_layer", name, int), _param(params, "gamma", name, int))
    if name == "fs":
        return FsPolicy(cfg, _param(params, "exit_layer", name, int), _param(params, "gamma", name, int))
    if name == "dv":
        return DvPolicy(
            cfg,
            _param(params, "exit_layer", name, int),
            target_rate=_param(params, "target_rate", name, float, 0.9),
            step=_param(params, "step", name, float, 0.01),
            threshold=_param(params, "threshold", name, float, 0.6),
        )
    if name == "del":
        return DelController(cfg, per_layer_window=bool(params.get("per_layer_window", False)))
    raise ConfigError(f"unknown policy {name!r}; expected vanilla/ls/fs/dv/del")


def _param(params: dict, field: str, policy: str, typ, default=None):
    """``params[field]`` converted by ``typ``; absent means ``default``, and
    a field without a default is required. An int field takes only exact
    integers."""
    val = params.get(field)
    if val is None:
        if default is None:
            raise ConfigError(f"{field} is required for policy {policy!r}")
        return default
    if typ is int:
        return as_int(val, f"{field} for policy {policy!r}")
    try:
        return typ(val)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{field} for policy {policy!r} must be {typ.__name__}, got {val!r}") from e

"""Comparison policies behind the same interface as the dynamic controller:
vanilla decoding, a static exit/length policy, a finite-state length controller, and a
confidence-feedback draft-and-verify variant."""

from __future__ import annotations

from .config import ConfigError, SessionConfig, as_int
from .engine import DraftPlan, RoundOutcome


def check_exit_layer(cfg: SessionConfig, exit_layer: int) -> None:
    if not 1 <= exit_layer < cfg.L:
        raise ConfigError(f"exit_layer must lie in [1, {cfg.L}), got {exit_layer}")


def check_gamma(cfg: SessionConfig, gamma: int, lo: int = 0) -> None:
    if not lo <= gamma <= cfg.d_max:
        raise ConfigError(f"gamma out of [{lo}, {cfg.d_max}]: {gamma}")


class Policy:
    """The shape every policy shares, ``del``'s controller included: ``plan``
    is the plan of the next round, which ``init(model, prompt)`` and
    ``observe(outcome)`` return, and ``alpha_snapshot`` and ``u_r`` are the
    trace fields of the last update (None for a baseline). This base keeps
    one fixed plan."""

    alpha_snapshot = None
    u_r = None

    def __init__(self, cfg: SessionConfig, plan: DraftPlan):
        self.cfg = cfg
        self.plan = plan

    def init(self, model, prompt) -> DraftPlan:
        return self.plan

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        return self.plan


class VanillaPolicy(Policy):
    """Plain auto-regressive decoding: one target step per round."""

    name = "vanilla"

    def __init__(self, cfg: SessionConfig):
        super().__init__(cfg, DraftPlan(exit_layer=1, threshold=0.0, planned_len=0))


class LsPolicy(Policy):
    """Static plan: fixed exit layer, fixed speculation length, never stops early."""

    name = "ls"

    def __init__(self, cfg: SessionConfig, exit_layer: int, gamma: int):
        check_exit_layer(cfg, exit_layer)
        check_gamma(cfg, gamma)
        super().__init__(cfg, DraftPlan(exit_layer, 0.0, gamma))


class FsPolicy(Policy):
    """Finite-state length rule: +1 on a fully accepted round, -1 on any
    rejection, clamped into [1, d_max]."""

    name = "fs"

    def __init__(self, cfg: SessionConfig, exit_layer: int, gamma: int):
        check_exit_layer(cfg, exit_layer)
        check_gamma(cfg, gamma, 1)
        super().__init__(cfg, DraftPlan(exit_layer, 0.0, gamma))

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        gamma = self.plan.planned_len
        if outcome.accepted_count >= outcome.g:
            gamma = min(gamma + 1, self.cfg.d_max)
        else:
            gamma = max(gamma - 1, 1)
        self.plan = DraftPlan(self.plan.exit_layer, 0.0, gamma)
        return self.plan


class DvPolicy(Policy):
    """Confidence-feedback rule: lower the draft threshold by ``step`` when a
    round's acceptance rate beats ``target_rate`` (draft more boldly), raise
    it otherwise, within [0, 1]. Rounds that drafted nothing carry no
    signal."""

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
        check_exit_layer(cfg, exit_layer)
        if not 0.0 <= threshold <= 1.0:
            raise ConfigError(f"threshold out of [0,1]: {threshold}")
        if not 0.0 <= target_rate <= 1.0:
            raise ConfigError(f"target_rate out of [0,1]: {target_rate}")
        if not step > 0.0:
            raise ConfigError(f"step must be > 0, got {step}")
        super().__init__(cfg, DraftPlan(exit_layer, threshold, cfg.d_max))
        self.target_rate = target_rate
        self.step = step

    def observe(self, outcome: RoundOutcome) -> DraftPlan:
        g = outcome.g
        if g == 0:
            return self.plan
        p = self.plan
        if outcome.accepted_count / g > self.target_rate:
            threshold = max(0.0, p.threshold - self.step)
        else:
            threshold = min(1.0, p.threshold + self.step)
        self.plan = DraftPlan(p.exit_layer, threshold, p.planned_len)
        return self.plan


# every parameter some policy takes; a policy ignores the ones it does not
POLICY_PARAMS = frozenset({"exit_layer", "gamma", "target_rate", "step", "threshold"})


def make_policy(name: str, cfg: SessionConfig, /, **params):
    """Build a policy by CLI name; unknown names, parameter names no policy
    takes, or missing parameters raise ConfigError naming the field."""
    from .controller import DelController

    if not POLICY_PARAMS.issuperset(params):
        raise ConfigError(f"unknown policy parameter(s) {sorted(set(params) - POLICY_PARAMS)} "
                          f"for policy {name!r}")
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
        return DelController(cfg)
    raise ConfigError(f"unknown policy {name!r}; expected vanilla/ls/fs/dv/del")


def static_cells(cfg: SessionConfig, ells, ds) -> list[tuple[int, int]]:
    """The (exit layer, length) cells of a static-policy grid in (ell, d)
    order, each as ``make_policy("ls", cfg, exit_layer=ell, gamma=d)``
    takes it. Each ell and each d is checked once, and the first bad cell
    raises the ConfigError that its ``make_policy`` call would: that call
    converts the exit layer, then the length, then checks their ranges."""

    def checked(values, field, check):
        # per value: the int, and the errors of its conversion and its range
        out = []
        for v in values:
            conv = bad = None
            try:
                v = _param({field: v}, field, "ls", int)
            except ConfigError as e:
                conv = e
            else:
                try:
                    check(cfg, v)
                except ConfigError as e:
                    bad = e
            out.append((v, conv, bad))
        return out

    d_checks = checked(ds, "gamma", check_gamma)
    cells = []
    for ell, ell_conv, ell_bad in checked(ells, "exit_layer", check_exit_layer):
        for d, d_conv, d_bad in d_checks:
            err = ell_conv or d_conv or ell_bad or d_bad
            if err is not None:
                raise err
            cells.append((ell, d))
    return cells


def _param(params: dict, field: str, policy: str, typ, default=None):
    """``params[field]`` converted by ``typ``; absent means ``default``, and
    a field without a default is required. An int field takes only exact
    integers, and no field takes a bool."""
    val = params.get(field)
    if val is None:
        if default is None:
            raise ConfigError(f"{field} is required for policy {policy!r}")
        return default
    what = f"{field} for policy {policy!r}"
    if typ is int:
        return as_int(val, what)
    if isinstance(val, bool):
        raise ConfigError(f"{what} must be {typ.__name__}, got {val!r}")
    try:
        return typ(val)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{what} must be {typ.__name__}, got {val!r}") from e

"""Session configuration: validation, serialization, seed derivation."""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

GREEDY = "greedy"
SAMPLING = "sampling"
DECODE_MODES = (GREEDY, SAMPLING)

CAP_ALGORITHM1 = "algorithm1"
CAP_PLAN = "plan_capped"
CAP_MODES = (CAP_ALGORITHM1, CAP_PLAN)


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class SessionConfig:
    """Everything a decode session needs besides the model itself."""

    L: int
    V: int
    d_max: int = 18
    omega: float = 0.95
    prefill_window: int = 32
    max_new_tokens: int = 256
    decode_mode: str = GREEDY
    seed: int = 0
    draft_cap_mode: str = CAP_ALGORITHM1
    alpha_clamp_eps: float = 1e-6
    default_threshold: float = 0.5

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "SessionConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown session field(s): {sorted(unknown)}")
        return validate_config(cls(**d))

    def replace(self, **kw: Any) -> "SessionConfig":
        import dataclasses

        return validate_config(dataclasses.replace(self, **kw))


def _is_number(x: Any) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def as_int(val: Any, what: str) -> int:
    """``val`` as an int; a value that is not an exact integer (2.7, "two",
    inf, a list) raises ConfigError naming ``what``."""
    try:
        out = int(val)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{what} must be an integer, got {val!r}") from e
    if isinstance(val, numbers.Real) and out != val:
        raise ConfigError(f"{what} must be an integer, got {val!r}")
    return out


def validate_config(cfg: SessionConfig) -> SessionConfig:
    """Return cfg unchanged if valid, else raise naming the first bad field."""
    if not isinstance(cfg.L, int) or cfg.L < 2:
        raise ConfigError(f"L must be an integer >= 2, got {cfg.L!r}")
    if not isinstance(cfg.V, int) or cfg.V < 2:
        raise ConfigError(f"V must be an integer >= 2, got {cfg.V!r}")
    if not isinstance(cfg.d_max, int) or cfg.d_max < 0:
        raise ConfigError(f"d_max must be an integer >= 0, got {cfg.d_max!r}")
    if not _is_number(cfg.omega) or not 0.0 <= cfg.omega <= 1.0:
        raise ConfigError(f"omega out of [0,1]: {cfg.omega!r}")
    if not isinstance(cfg.prefill_window, int) or cfg.prefill_window < 1:
        raise ConfigError(f"prefill_window must be an integer >= 1, got {cfg.prefill_window!r}")
    if not isinstance(cfg.max_new_tokens, int) or cfg.max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be an integer >= 1, got {cfg.max_new_tokens!r}")
    if cfg.decode_mode not in DECODE_MODES:
        raise ConfigError(f"decode_mode must be one of {DECODE_MODES}, got {cfg.decode_mode!r}")
    if not isinstance(cfg.seed, int) or not -(2**63) <= cfg.seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit integer, got {cfg.seed!r}")
    if cfg.draft_cap_mode not in CAP_MODES:
        raise ConfigError(f"draft_cap_mode must be one of {CAP_MODES}, got {cfg.draft_cap_mode!r}")
    if not _is_number(cfg.alpha_clamp_eps) or not 0.0 < cfg.alpha_clamp_eps < 0.5:
        raise ConfigError(f"alpha_clamp_eps out of (0, 0.5): {cfg.alpha_clamp_eps!r}")
    if not _is_number(cfg.default_threshold) or not 0.0 <= cfg.default_threshold <= 1.0:
        raise ConfigError(f"default_threshold out of [0,1]: {cfg.default_threshold!r}")
    return cfg


def derive_seed(master: int, *parts: Any) -> int:
    """Derive a 64-bit stream seed from a master seed and a label path.

    Stable across runs and platforms; all session randomness flows from here.
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(master)).encode())
    for p in parts:
        h.update(b"/")
        h.update(str(p).encode())
    return int.from_bytes(h.digest(), "little")


def load_config_file(path: str | Path) -> dict[str, Any]:
    """Load an experiment config file (JSON with session/model/run sections)."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file is not valid JSON: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data

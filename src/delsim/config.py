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

# the longest draft a session may plan: ``del`` ranks a (d_max + 1) x (L - 1)
# grid of plans every round, so the bound keeps that grid small
MAX_D_MAX = 4096
# the largest vocabulary: a model holds two V x V float64 matrices, its
# transition rows and their cumulative sums, 256 MiB at this bound
MAX_V = 4096


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


def _is_int(x: Any) -> bool:
    # a JSON true or false is a bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


def as_int(val: Any, what: str) -> int:
    """``val`` as an int; a value that is not an exact integer (2.7, "two",
    inf, a list, true) raises ConfigError naming ``what``."""
    try:
        out = int(val)
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"{what} must be an integer, got {val!r}") from e
    if isinstance(val, bool) or isinstance(val, numbers.Real) and out != val:
        raise ConfigError(f"{what} must be an integer, got {val!r}")
    return out


def validate_config(cfg: SessionConfig) -> SessionConfig:
    """Return cfg unchanged if valid, else raise naming the first bad field."""
    if not _is_int(cfg.L) or cfg.L < 2:
        raise ConfigError(f"L must be an integer >= 2, got {cfg.L!r}")
    if not _is_int(cfg.V) or not 2 <= cfg.V <= MAX_V:
        raise ConfigError(f"V must be an integer in [2, {MAX_V}], got {cfg.V!r}")
    if not _is_int(cfg.d_max) or not 0 <= cfg.d_max <= MAX_D_MAX:
        raise ConfigError(f"d_max must be an integer in [0, {MAX_D_MAX}], got {cfg.d_max!r}")
    if not _is_number(cfg.omega) or not 0.0 <= cfg.omega <= 1.0:
        raise ConfigError(f"omega out of [0,1]: {cfg.omega!r}")
    if not _is_int(cfg.prefill_window) or cfg.prefill_window < 1:
        raise ConfigError(f"prefill_window must be an integer >= 1, got {cfg.prefill_window!r}")
    if not _is_int(cfg.max_new_tokens) or cfg.max_new_tokens < 1:
        raise ConfigError(f"max_new_tokens must be an integer >= 1, got {cfg.max_new_tokens!r}")
    if cfg.decode_mode not in DECODE_MODES:
        raise ConfigError(f"decode_mode must be one of {DECODE_MODES}, got {cfg.decode_mode!r}")
    if not _is_int(cfg.seed) or not -(2**63) <= cfg.seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit integer, got {cfg.seed!r}")
    if cfg.draft_cap_mode not in CAP_MODES:
        raise ConfigError(f"draft_cap_mode must be one of {CAP_MODES}, got {cfg.draft_cap_mode!r}")
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

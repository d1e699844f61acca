"""Synthetic layered language models with analytically known per-layer agreement.

The simulator never materializes hidden states: a model maps a context to the
LM-head output of every layer at the next position (a :class:`LayerStep`).
The last layer's output is the target distribution; the top tokens of the
layers below it agree with the target argmax at a configured long-run
frequency, which gives every quantity the decoding policies estimate a known
ground truth.
"""

from __future__ import annotations

import hashlib
import threading
from array import array
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .config import ConfigError, SessionConfig, derive_seed
from .types import PROB_SUM_TOL, LayerStep, TokenId

AGREEMENT = "agreement"
REGIME_SWITCHING = "regime_switching"
DETERMINISTIC_TOY = "deterministic_toy"
MODEL_KINDS = (AGREEMENT, REGIME_SWITCHING, DETERMINISTIC_TOY)

_DEFAULT_BASE_PROCESS: Mapping[str, Any] = {"kind": "dirichlet", "concentration": 0.5}
_DEFAULT_MATCH: Mapping[str, Any] = {"dist": "beta", "a": 8.0, "b": 2.0}
_DEFAULT_MISMATCH: Mapping[str, Any] = {"dist": "beta", "a": 2.0, "b": 8.0}


@dataclass(frozen=True)
class ModelSpec:
    """Descriptor for one synthetic model family instance.

    ``agreement_profile`` holds one entry per layer; entry ``ell - 1`` is the
    probability that layer ``ell``'s argmax equals the target argmax, and the
    last entry must be 1. ``regimes`` (regime_switching only) is a list of
    ``(segment_length, profile)`` pairs walked cyclically by context length.

    Per-position draws are keyed by the context length and its last
    ``context_hash_window`` tokens, which keeps a step O(1) in context length;
    the base process itself is Markov in the last token, so this loses nothing.
    """

    kind: str
    base_process: Mapping[str, Any] = field(default_factory=lambda: dict(_DEFAULT_BASE_PROCESS))
    agreement_profile: tuple[float, ...] | None = None
    confidence_match: Mapping[str, Any] = field(default_factory=lambda: dict(_DEFAULT_MATCH))
    confidence_mismatch: Mapping[str, Any] = field(default_factory=lambda: dict(_DEFAULT_MISMATCH))
    regimes: tuple[tuple[int, tuple[float, ...]], ...] | None = None
    horizon: int = 1_000_000
    context_hash_window: int = 64

    def to_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "base_process": dict(self.base_process),
            "agreement_profile": list(self.agreement_profile) if self.agreement_profile else None,
            "confidence_match": dict(self.confidence_match),
            "confidence_mismatch": dict(self.confidence_mismatch),
            "regimes": [[n, list(p)] for n, p in self.regimes] if self.regimes else None,
            "horizon": self.horizon,
            "context_hash_window": self.context_hash_window,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "ModelSpec":
        d = dict(d)
        if "kind" not in d:
            raise ConfigError("model.kind is required")
        kw: dict[str, Any] = {"kind": d.pop("kind")}
        if d.get("base_process") is not None:
            kw["base_process"] = dict(d["base_process"])
        if d.get("agreement_profile") is not None:
            kw["agreement_profile"] = tuple(float(x) for x in d["agreement_profile"])
        if d.get("confidence_match") is not None:
            kw["confidence_match"] = dict(d["confidence_match"])
        if d.get("confidence_mismatch") is not None:
            kw["confidence_mismatch"] = dict(d["confidence_mismatch"])
        if d.get("regimes") is not None:
            kw["regimes"] = tuple((int(n), tuple(float(x) for x in p)) for n, p in d["regimes"])
        if d.get("horizon") is not None:
            kw["horizon"] = int(d["horizon"])
        if d.get("context_hash_window") is not None:
            kw["context_hash_window"] = int(d["context_hash_window"])
        unknown = set(d) - {
            "base_process", "agreement_profile", "confidence_match",
            "confidence_mismatch", "regimes", "horizon", "context_hash_window",
        }
        if unknown:
            raise ConfigError(f"unknown model field(s): {sorted(unknown)}")
        return cls(**kw)


def _check_profile(profile: Sequence[float], L: int, what: str) -> np.ndarray:
    arr = np.asarray(profile, dtype=np.float64)
    if arr.shape != (L,):
        raise ConfigError(f"{what} must have exactly L={L} entries, got {arr.shape}")
    if np.any(arr < 0) or np.any(arr > 1):
        raise ConfigError(f"{what} entries must lie in [0,1]")
    if arr[-1] != 1.0:
        raise ConfigError(f"{what} last entry (layer L) must be 1.0")
    return arr


def _confidence_sampler(spec: Mapping[str, Any], what: str):
    kind = spec.get("dist")
    if kind == "beta":
        a, b = float(spec["a"]), float(spec["b"])
        return lambda rng, size: rng.beta(a, b, size)
    if kind == "fixed":
        v = float(spec["value"])
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{what}.value out of [0,1]: {v}")
        return lambda rng, size: np.full(size, v)
    if kind == "uniform":
        lo, hi = float(spec.get("lo", 0.0)), float(spec.get("hi", 1.0))
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(f"{what} uniform bounds must satisfy 0 <= lo <= hi <= 1")
        return lambda rng, size: rng.uniform(lo, hi, size)
    raise ConfigError(f"{what}.dist must be one of beta/fixed/uniform, got {kind!r}")


class LayeredModel:
    """A synthetic L-layer model over a V-token vocabulary.

    ``step`` is a pure function of (spec, seed, context): identical inputs
    always produce the identical LayerStep, which makes sessions replayable.
    Instances are read-only after construction; concurrent ``step`` calls
    from independent sessions are safe.
    """

    def __init__(self, spec: ModelSpec, L: int, V: int, seed: int):
        if spec.kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {spec.kind!r}")
        if L < 2 or V < 2:
            raise ConfigError("model requires L >= 2 and V >= 2")
        self.spec = spec
        self.L = L
        self.V = V
        self.seed = seed

        base = dict(spec.base_process or _DEFAULT_BASE_PROCESS)
        rng = np.random.default_rng(derive_seed(seed, "base-process"))
        if spec.kind == DETERMINISTIC_TOY:
            self._next_map = self._build_toy_map(base, V)
            self._transition = np.zeros((V, V))
            self._transition[np.arange(V), self._next_map] = 1.0
        else:
            self._transition = self._build_transition(base, V, rng)
            self._next_map = None
        # steps hand out rows of this matrix as their target distributions
        self._transition.flags.writeable = False
        self._trans_argmax = np.argmax(self._transition, axis=1)

        if spec.kind == AGREEMENT:
            if spec.agreement_profile is None:
                raise ConfigError("agreement_profile is required for kind='agreement'")
            self._profiles = [_check_profile(spec.agreement_profile, L, "agreement_profile")]
            self._segments = None
        elif spec.kind == REGIME_SWITCHING:
            if not spec.regimes:
                raise ConfigError("regimes are required for kind='regime_switching'")
            self._profiles = []
            lengths = []
            for i, (seg_len, prof) in enumerate(spec.regimes):
                if seg_len < 1:
                    raise ConfigError(f"regimes[{i}] segment length must be >= 1")
                lengths.append(int(seg_len))
                self._profiles.append(_check_profile(prof, L, f"regimes[{i}] profile"))
            self._segments = np.cumsum(lengths)
        else:
            self._profiles = [np.ones(L)]
            self._segments = None

        self._draw_match = _confidence_sampler(dict(spec.confidence_match), "confidence_match")
        self._draw_mismatch = _confidence_sampler(dict(spec.confidence_mismatch), "confidence_mismatch")
        # top-1 probability floor so the intended argmax strictly dominates the
        # uniformly spread remainder
        self._conf_floor = 1.0 / V + 1e-9
        self._seed_key = int(seed % 2**64).to_bytes(8, "little", signed=False)
        if spec.context_hash_window < 1:
            raise ConfigError("context_hash_window must be >= 1")
        self._hash_window = spec.context_hash_window
        self._local = threading.local()

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _build_transition(base: Mapping[str, Any], V: int, rng: np.random.Generator) -> np.ndarray:
        kind = base.get("kind", "dirichlet")
        if kind == "dirichlet":
            conc = float(base.get("concentration", 0.5))
            if conc <= 0:
                raise ConfigError("base_process.concentration must be > 0")
            return rng.dirichlet(np.full(V, conc), size=V)
        if kind == "uniform":
            return np.full((V, V), 1.0 / V)
        if kind == "table":
            t = np.array(base["probs"], dtype=np.float64)
            if t.shape != (V, V):
                raise ConfigError(f"base_process.probs must be shape ({V},{V})")
            sums = t.sum(axis=1)
            if np.any(t < 0) or np.any(np.abs(sums - 1.0) > PROB_SUM_TOL):
                raise ConfigError("base_process.probs rows must be distributions")
            return t
        raise ConfigError(f"base_process.kind must be dirichlet/uniform/table, got {kind!r}")

    @staticmethod
    def _build_toy_map(base: Mapping[str, Any], V: int) -> np.ndarray:
        kind = base.get("kind", "shift")
        if kind == "next_map":
            m = np.asarray(base["map"], dtype=np.int64)
            if m.shape != (V,) or np.any(m < 0) or np.any(m >= V):
                raise ConfigError(f"base_process.map must be {V} token ids in [0,{V})")
            return m
        # any non-table base process falls back to the +1 cycle
        return (np.arange(V) + int(base.get("by", 1))) % V

    def _scratch_rng(self, key: np.ndarray) -> np.random.Generator:
        # Re-keying a thread-local Philox is ~2x faster than constructing a
        # Generator per step and yields the identical stream. The state dict
        # is kept and re-keyed in place rather than read back through the
        # ``state`` getter: with the buffer marked spent and only 64-bit draws
        # made, nothing else in the dict affects the stream.
        loc = self._local
        st = getattr(loc, "state", None)
        if st is None:
            loc.bitgen = np.random.Philox(key=0)
            loc.gen = np.random.Generator(loc.bitgen)
            loc.state = st = loc.bitgen.state
        st["state"]["counter"][:] = 0
        st["state"]["key"][:] = key
        st["buffer_pos"] = 4
        loc.bitgen.state = st
        return loc.gen

    def _profile_at(self, position: int) -> np.ndarray:
        if self._segments is None:
            return self._profiles[0]
        pos = position % int(self._segments[-1])
        idx = int(np.searchsorted(self._segments, pos, side="right"))
        return self._profiles[idx]

    # -- public API --------------------------------------------------------

    def step(self, context: Sequence[TokenId]) -> LayerStep:
        """LM-head outputs of all L layers at the position after ``context``."""
        n = len(context)
        if n == 0:
            raise ValueError("context must be non-empty")
        if n > self.spec.horizon:
            raise ValueError(f"context length {n} exceeds horizon {self.spec.horizon}")
        last = int(context[-1])
        L, V = self.L, self.V

        if self.spec.kind == DETERMINISTIC_TOY:
            nxt = int(self._next_map[last])
            return LayerStep(np.full(L - 1, nxt), np.ones(L - 1), self._transition[last], nxt)

        win = context[-self._hash_window:] if n > self._hash_window else context
        digest = hashlib.blake2b(
            n.to_bytes(8, "little") + array("I", win).tobytes(),
            digest_size=16,
            key=self._seed_key,
        ).digest()
        rng = self._scratch_rng(np.frombuffer(digest, np.uint64))

        t_star = int(self._trans_argmax[last])
        prof = self._profile_at(n)[: L - 1]

        agree = rng.random(L - 1) < prof
        conf_m = self._draw_match(rng, L - 1)
        conf_x = self._draw_mismatch(rng, L - 1)
        alt = (rng.random(L - 1) * (V - 1)).astype(np.intp)
        alt += alt >= t_star

        conf = np.maximum(np.where(agree, conf_m, conf_x), self._conf_floor)
        top = np.where(agree, t_star, alt)
        return LayerStep(top, conf, self._transition[last], t_star)

    def sample_prompt(self, length: int, rng: np.random.Generator) -> list[TokenId]:
        """Draw a prompt of the given length from the base process."""
        if length < 1:
            raise ValueError("prompt length must be >= 1")
        out = [int(rng.integers(self.V))]
        cum = np.cumsum(self._transition, axis=1)
        for _ in range(length - 1):
            u = rng.random()
            nxt = int(np.searchsorted(cum[out[-1]], u, side="right"))
            out.append(min(nxt, self.V - 1))
        return out


def build_model(spec: ModelSpec, cfg: SessionConfig, seed: int | None = None) -> LayeredModel:
    """Construct the model for a session; the model seed defaults to a stream
    derived from the session seed so all policies share one realization."""
    return LayeredModel(spec, cfg.L, cfg.V, derive_seed(cfg.seed, "model") if seed is None else seed)


class CallCountingModel:
    """Wrapper that counts ``step`` invocations; used to audit policies."""

    def __init__(self, inner: LayeredModel):
        self.inner = inner
        self.calls = 0

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def step(self, context: Sequence[TokenId]) -> LayerStep:
        self.calls += 1
        return self.inner.step(context)


class MemoizedModel:
    """Wrapper caching steps by context; useful when contexts repeat heavily."""

    def __init__(self, inner: LayeredModel, max_entries: int = 1_000_000):
        self.inner = inner
        self.max_entries = max_entries
        self._cache: dict[tuple, LayerStep] = {}

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def step(self, context: Sequence[TokenId]) -> LayerStep:
        key = tuple(context)
        hit = self._cache.get(key)
        if hit is None:
            hit = self.inner.step(context)
            if len(self._cache) < self.max_entries:
                self._cache[key] = hit
        return hit

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
import math
import threading
from array import array
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

import numpy as np

from .config import GREEDY, ConfigError, SessionConfig, as_int, derive_seed
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
        """Spec from a config file's model section; a malformed value raises
        ConfigError naming its field."""
        d = dict(d)
        if "kind" not in d:
            raise ConfigError("model.kind is required")
        kw: dict[str, Any] = {"kind": d.pop("kind")}
        for name in ("base_process", "confidence_match", "confidence_mismatch"):
            if d.get(name) is not None:
                kw[name] = _parse(f"model.{name}", dict, d[name])
        if d.get("agreement_profile") is not None:
            kw["agreement_profile"] = _parse("model.agreement_profile", _floats, d["agreement_profile"])
        if d.get("regimes") is not None:
            kw["regimes"] = _parse(
                "model.regimes",
                lambda rs: tuple((as_int(n, "segment length"), _floats(p)) for n, p in rs),
                d["regimes"],
            )
        for name in ("horizon", "context_hash_window"):
            if d.get(name) is not None:
                kw[name] = as_int(d[name], f"model.{name}")
        unknown = set(d) - {
            "base_process", "agreement_profile", "confidence_match",
            "confidence_mismatch", "regimes", "horizon", "context_hash_window",
        }
        if unknown:
            raise ConfigError(f"unknown model field(s): {sorted(unknown)}")
        return cls(**kw)


def _floats(values) -> tuple[float, ...]:
    return tuple(float(x) for x in values)


def _parse(what: str, convert, value):
    """``convert(value)``; a missing value (None) or one ``convert`` rejects
    raises ConfigError naming ``what``."""
    try:
        return convert(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad value for {what}: {value!r} ({e})") from e


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
        a, b = (_parse(f"{what}.{k}", float, spec.get(k)) for k in ("a", "b"))
        if not (0.0 < a < math.inf and 0.0 < b < math.inf):
            raise ConfigError(f"{what} beta parameters a and b must be finite and > 0")
        return lambda rng, size: rng.beta(a, b, size)
    if kind == "fixed":
        v = _parse(f"{what}.value", float, spec.get("value"))
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{what}.value out of [0,1]: {v}")
        return lambda rng, size: np.full(size, v)
    if kind == "uniform":
        lo = _parse(f"{what}.lo", float, spec.get("lo", 0.0))
        hi = _parse(f"{what}.hi", float, spec.get("hi", 1.0))
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(f"{what} uniform bounds must satisfy 0 <= lo <= hi <= 1")
        return lambda rng, size: rng.uniform(lo, hi, size)
    raise ConfigError(f"{what}.dist must be one of beta/fixed/uniform, got {kind!r}")


class LayeredModel:
    """A synthetic L-layer model over a V-token vocabulary.

    ``step`` is a pure function of (spec, seed, context): identical inputs
    always produce the identical LayerStep, which makes sessions replayable.
    With ``memo_capacity`` > 0 the model keeps the steps of that many most
    recently used contexts and hands a repeated context its stored step; that
    memo is the only state that changes after construction, and it is guarded
    by a lock, so concurrent ``step`` calls from independent sessions are
    safe.
    """

    def __init__(self, spec: ModelSpec, L: int, V: int, seed: int, memo_capacity: int = 0):
        if spec.kind not in MODEL_KINDS:
            raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {spec.kind!r}")
        if L < 2 or V < 2:
            raise ConfigError("model requires L >= 2 and V >= 2")
        if spec.horizon < 1:
            raise ConfigError(f"model.horizon must be >= 1, got {spec.horizon}")
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
        # steps keyed by the exact (length, window) message their draws are
        # keyed by, in recency order, oldest first
        self.memo_capacity = memo_capacity
        self._memo: OrderedDict[bytes, LayerStep] | None = OrderedDict() if memo_capacity > 0 else None
        self._memo_lock = threading.Lock()

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _build_transition(base: Mapping[str, Any], V: int, rng: np.random.Generator) -> np.ndarray:
        kind = base.get("kind", "dirichlet")
        if kind == "dirichlet":
            conc = _parse("base_process.concentration", float, base.get("concentration", 0.5))
            if not conc > 0:
                raise ConfigError("base_process.concentration must be > 0")
            return rng.dirichlet(np.full(V, conc), size=V)
        if kind == "uniform":
            return np.full((V, V), 1.0 / V)
        if kind == "table":
            t = _parse("base_process.probs", lambda v: np.array(v, dtype=np.float64), base.get("probs"))
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
            m = _parse("base_process.map", lambda v: np.asarray(v, dtype=np.int64), base.get("map"))
            if m.shape != (V,) or np.any(m < 0) or np.any(m >= V):
                raise ConfigError(f"base_process.map must be {V} token ids in [0,{V})")
            return m
        # any non-table base process falls back to the +1 cycle
        return (np.arange(V) + as_int(base.get("by", 1), "base_process.by")) % V

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
            raise horizon_error(n, self.spec.horizon)
        last = int(context[-1])
        L, V = self.L, self.V

        if self.spec.kind == DETERMINISTIC_TOY:
            nxt = int(self._next_map[last])
            return LayerStep(np.full(L - 1, nxt), np.ones(L - 1), self._transition[last], nxt)

        win = context[-self._hash_window:] if n > self._hash_window else context
        msg = n.to_bytes(8, "little") + array("I", win).tobytes()
        memo = self._memo
        if memo is not None:
            with self._memo_lock:
                hit = memo.get(msg)
                if hit is not None:
                    memo.move_to_end(msg)
                    return hit
        digest = hashlib.blake2b(msg, digest_size=16, key=self._seed_key).digest()
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
        step = LayerStep(top, conf, self._transition[last], t_star)
        if memo is not None:
            with self._memo_lock:
                memo[msg] = step
                if len(memo) > self.memo_capacity:
                    memo.popitem(last=False)
        return step

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


def horizon_error(n: int, horizon: int) -> ConfigError:
    """The error for a context of length ``n`` past ``model.horizon``."""
    return ConfigError(f"context length {n} exceeds horizon {horizon} (model.horizon)")


def step_memo_capacity(cfg: SessionConfig) -> int:
    """Step memo size for sessions run under ``cfg``.

    In greedy mode every session on a prompt walks the same target path, so
    the contexts one session steps come back in the next. The memo holds a
    prefill window and twice the positions one session can reach (its path
    plus the d_max + 1 contexts a last round can step past it), so a path
    context is still held when the next session reaches it; contexts drafted
    off the path are kept as room allows. Sampling sessions part ways after
    their first token and share almost no contexts: no memo.
    """
    if cfg.decode_mode != GREEDY:
        return 0
    return cfg.prefill_window + 2 * (cfg.max_new_tokens + cfg.d_max + 1)


def build_model(
    spec: ModelSpec, cfg: SessionConfig, seed: int | None = None, memo: bool = True
) -> LayeredModel:
    """Construct the model for a session; the model seed defaults to a stream
    derived from the session seed so all policies share one realization.
    With ``memo`` the model keeps a step memo sized by ``step_memo_capacity``."""
    return LayeredModel(
        spec, cfg.L, cfg.V, derive_seed(cfg.seed, "model") if seed is None else seed,
        step_memo_capacity(cfg) if memo else 0,
    )


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

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
import struct
import threading
from array import array
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .config import GREEDY, ConfigError, SessionConfig, as_int, derive_seed
from .types import PROB_SUM_TOL, LayerStep, TokenId

AGREEMENT = "agreement"
REGIME_SWITCHING = "regime_switching"
MODEL_KINDS = (AGREEMENT, REGIME_SWITCHING)

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


@lru_cache(maxsize=32)
def _check_profile(profile: tuple[float, ...], L: int, what: str) -> np.ndarray:
    """``profile`` as a read-only array of its L rates, checked, and kept
    per process for each (profile, L, what); a bad profile raises
    ConfigError naming ``what``."""
    arr = np.asarray(profile, dtype=np.float64)
    if arr.shape != (L,):
        raise ConfigError(f"{what} must have exactly L={L} entries, got {arr.shape}")
    # written so that NaN, which fails every comparison, fails it too
    if not np.all((arr >= 0) & (arr <= 1)):
        raise ConfigError(f"{what} entries must lie in [0,1]")
    if arr[-1] != 1.0:
        raise ConfigError(f"{what} last entry (layer L) must be 1.0")
    return _read_only(arr)


# the inverse CDF of a confidence law is tabulated at u = j / TABLE_SIZE
TABLE_SIZE = 2048

# the largest parameter of a beta confidence law: ``beta_table``'s nodes
# resolve Beta(10**4, 10**4), whose standard deviation is 0.0035, while near
# 1e300 the CDF rises at none of them and near 1e308 ``math.lgamma`` overflows
MAX_BETA_PARAM = 10**4

# the longest window a step's key may hold, past the default horizon: a key
# holds 4 bytes per window token, so a context this long is keyed by 4 MiB
MAX_HASH_WINDOW = 1 << 20

# a 16-byte key digest as the two 64-bit words of a Philox key, in the
# order np.frombuffer(digest, np.uint64) gives them
_KEY_WORDS = struct.Struct("<2Q")
# a key's length field and one token of its window (``LayeredModel._key``)
_LENGTH = struct.Struct("<Q")
_TOKEN = struct.Struct("<I")
# each thread's scratch generator (``LayeredModel._scratch_rng``)
_SCRATCH = threading.local()


def confidence_law(spec: Mapping[str, Any], what: str) -> tuple:
    """A confidence law's config section, checked, as the key its tables are
    kept under: ``("beta", a, b)``, ``("fixed", value)`` or ``("uniform",
    lo, hi)``, with float parameters. A malformed law raises ConfigError
    naming ``what``."""
    kind = spec.get("dist")
    if kind == "beta":
        a, b = (_parse(f"{what}.{k}", float, spec.get(k)) for k in ("a", "b"))
        for k, v in (("a", a), ("b", b)):
            # written so that NaN, which fails every comparison, fails it too
            if not 0.0 < v <= MAX_BETA_PARAM:
                raise ConfigError(f"{what}.{k} must be > 0 and at most {MAX_BETA_PARAM}, got {v}")
        return ("beta", a, b)
    if kind == "fixed":
        v = _parse(f"{what}.value", float, spec.get("value"))
        if not 0.0 <= v <= 1.0:
            raise ConfigError(f"{what}.value out of [0,1]: {v}")
        return ("fixed", v)
    if kind == "uniform":
        lo = _parse(f"{what}.lo", float, spec.get("lo", 0.0))
        hi = _parse(f"{what}.hi", float, spec.get("hi", 1.0))
        if not 0.0 <= lo <= hi <= 1.0:
            raise ConfigError(f"{what} uniform bounds must satisfy 0 <= lo <= hi <= 1")
        return ("uniform", lo, hi)
    raise ConfigError(f"{what}.dist must be one of beta/fixed/uniform, got {kind!r}")


@lru_cache(maxsize=32)
def confidence_tables(match: tuple, mismatch: tuple, V: int) -> tuple[np.ndarray, np.ndarray]:
    """The confidence table a model reads and each entry's rise to the next,
    both read-only, built once per process for each (match law, mismatch
    law, V) and shared by every model with them.

    The table holds each checked law (``confidence_law``), the match law's
    then the mismatch law's, as its inverse CDF at ``u = j / TABLE_SIZE``
    for j = 0..TABLE_SIZE, floored at ``1 / V + 1e-9``, a top-1 probability
    at which the intended argmax strictly dominates the uniformly spread
    remainder. A uniform ``u`` maps to a confidence by linear interpolation
    in its law's part (``LayeredModel._confidence``), a draw from the law
    whose CDF interpolates the exact one between the table's quantiles, so
    the two CDFs differ by at most ``1 / TABLE_SIZE`` plus the table's own
    error. ``uniform`` and ``fixed`` laws are exact; a ``beta`` law comes
    from ``beta_table``."""
    tables = []
    for kind, *params in (match, mismatch):
        if kind == "beta":
            tables.append(beta_table(*params))
        elif kind == "fixed":
            tables.append(np.full(TABLE_SIZE + 1, params[0]))
        else:
            tables.append(np.linspace(params[0], params[1], TABLE_SIZE + 1))
    conf = np.maximum(np.concatenate(tables), 1.0 / V + 1e-9)
    rise = np.diff(conf, append=conf[-1])
    rise[TABLE_SIZE] = 0.0
    return _read_only(conf), _read_only(rise)


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _beta_nodes() -> np.ndarray:
    """Where ``beta_table`` evaluates the CDF, in order: a grid of
    step 1/4096 over [1/32, 31/32], and geometric tails on either side that
    resolve a pole of the density at 0 or 1 (a or b below 1)."""
    deep = np.exp2(-np.arange(1016.0, 63.0, -8.0))
    octaves = np.exp2(-np.linspace(60.0, 5.0, 221))  # ratio 2**(1/4)
    middle = np.linspace(1.0 / 32.0, 31.0 / 32.0, 3841)[1:-1]
    top = 1.0 - np.exp2(-np.linspace(5.0, 53.0, 193))
    return np.concatenate([deep, octaves, middle, top])


def _beta_cdf_below(x: np.ndarray, a: float, b: float) -> np.ndarray:
    """The regularized incomplete beta function I_x(a, b) for x in (0, 1)
    below (a + 1) / (a + b + 2), where its continued fraction converges
    fast (Numerical Recipes, 3rd ed., section 6.4), by the modified Lentz
    method over all of ``x`` at once."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0

    def guard(v: np.ndarray) -> np.ndarray:
        v[np.abs(v) < tiny] = tiny
        return v

    c = np.ones_like(x)
    d = 1.0 / guard(1.0 - qab / qap * x)
    h = d.copy()
    for m in range(1, 10_000):
        even = m * (b - m) / ((qam + 2 * m) * (a + 2 * m)) * x
        odd = -(a + m) * (qab + m) / ((a + 2 * m) * (qap + 2 * m)) * x
        for coef in (even, odd):
            d = 1.0 / guard(1.0 + coef * d)
            c = guard(1.0 + coef / c)
            delta = d * c
            h *= delta
        if np.max(np.abs(delta - 1.0), initial=0.0) < 1e-13:
            break
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    return np.exp(a * np.log(x) + b * np.log1p(-x) - log_beta) / a * h


@lru_cache(maxsize=32)
def beta_table(a: float, b: float) -> np.ndarray:
    """The Beta(a, b) law's inverse-CDF table (see ``confidence_tables``),
    built with numpy alone and kept per process for each (a, b).

    The CDF is computed exactly at fine nodes (``_beta_nodes``) and the
    quantiles read off its linear interpolation; for the laws the tests
    cover, from a, b < 1 to the bound (``MAX_BETA_PARAM``), the tabulated
    law's CDF stays within 2e-3 of the exact one."""
    x = _beta_nodes()
    lower = x <= (a + 1.0) / (a + b + 2.0)
    cdf = np.empty_like(x)
    cdf[lower] = _beta_cdf_below(x[lower], a, b)
    cdf[~lower] = 1.0 - _beta_cdf_below(1.0 - x[~lower], b, a)
    # a CDF rises from 0 to 1 and never falls
    cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
    cdf = np.concatenate([[0.0], cdf, [1.0]])
    x = np.concatenate([[0.0], x, [1.0]])
    # the quantiles come from the nodes where the CDF rises: the last node
    # of the flat start and the first of the flat end bound the support
    rises = np.diff(cdf) > 0.0
    keep = np.concatenate([rises, [False]]) | np.concatenate([[False], rises])
    return _read_only(np.interp(np.linspace(0.0, 1.0, TABLE_SIZE + 1), cdf[keep], x[keep]))


class _PendingRow:
    """The per-layer draws of a model's step, made when they are read (a
    ``LayerStep``'s row): the step's context length ``n`` and target
    argmax, ``msg``, the key its draws are keyed by, packed when the step
    was made (``LayeredModel.step``), and once a layer is read the
    position's keyed row of uniforms, filled once and kept for the step's
    life, with the profile at ``n`` (``p``, set with the row).

    ``next`` is a memo step's successor table, ``{token: step}`` for the
    steps made after it, or None: none has been recorded, or the memo no
    longer holds the step. ``layer`` and ``shadow_block`` decode what they
    read with the reference decode's arithmetic (``tests/reference.py``),
    so the values are bit-identical to a vectorized decode of the row."""

    __slots__ = ("model", "msg", "n", "t_star", "u", "p", "next")

    def __init__(self, model: "LayeredModel", msg: bytes, n: int, t_star: int):
        self.model = model
        self.msg = msg
        self.n = n
        self.t_star = t_star
        self.u = None
        self.next = None

    def uniforms(self) -> np.ndarray:
        u = self.u
        if u is None:
            m = self.model
            self.p = m._profile_at(self.n)
            u = self.u = m._uniforms(self.msg)
        return u

    def layer(self, ell: int) -> tuple[TokenId, float]:
        """Exit layer ``ell``'s top token and confidence from the unscaled
        row, in plain Python: the reference decode's arithmetic on one
        layer's three uniforms, so the values are bit-identical."""
        m = self.model
        u = self.uniforms()
        k = m.L - 1
        j = ell - 1
        miss = u.item(j) >= self.p.item(j)
        t = u.item(k + j) * TABLE_SIZE
        if miss:
            t += TABLE_SIZE + 1.0
        i = int(t)
        conf = m._conf_rise.item(i) * (t - i) + m._conf_table.item(i)
        if not miss:
            return self.t_star, conf
        alt = int(u.item(2 * k + j) * (m.V - 1.0))
        return alt + (alt >= self.t_star), conf

    def shadow_block(self, rows: list["_PendingRow"]) -> tuple[np.ndarray, np.ndarray]:
        """Whether each exit layer's top token is the target's, and its
        confidence, for the rows in ``rows``, all of this row's model: two
        C-contiguous (L-1, len(rows)) arrays, column j for ``rows[j]``.

        A layer's top token is the target's exactly when its agreement
        uniform falls below the profile, since a disagreeing layer's token
        is picked among those other than ``t_star``; so only the agreement
        and confidence blocks are decoded, with the reference decode's
        arithmetic. The rows are filled if they are not yet, and kept; a
        filled row is stacked as it is. The two blocks are read from the
        stacked rows' transposed view straight into C-order arrays, with no
        copy of the stack between."""
        m = self.model
        k = m.L - 1
        for r in rows:
            if r.u is None:
                r.uniforms()
        u = np.array([r.u for r in rows]).T  # one column per row
        profile = m._profile_rows(r.p for r in rows)
        miss = np.greater_equal(u[:k], profile.T if profile.ndim == 2 else profile[:, None],
                                order="C")
        t = np.multiply(u[k : 2 * k], TABLE_SIZE, order="C")
        return ~miss, m._confidence(t, miss)


class LayeredModel:
    """A synthetic L-layer model over a V-token vocabulary.

    ``step`` is a pure function of (spec, seed, context): identical inputs
    always produce the identical LayerStep, which makes sessions replayable.
    With ``memo_capacity`` > 0 the model keeps the steps of that many most
    recently used contexts and hands a repeated context its stored step.
    That memo with its steps' successor tables, and the table of transition
    rows' cumulative sums, filled a row at a time as steps first need them
    (``_cdf_row``), are the only state that changes after construction, and
    all are written under a lock, so concurrent ``step`` calls from
    independent sessions are safe.
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
        self._transition = self._build_transition(base, V, rng)
        # steps hand out rows of this matrix as their target distributions
        self._transition.flags.writeable = False
        # the target argmax after each token, as Python ints
        self._trans_argmax = np.argmax(self._transition, axis=1).tolist()
        self._cum_transition = _read_only(np.cumsum(self._transition, axis=1))
        # the same sums, row after row, as one flat read-only memoryview of
        # Python floats, which ``sample_prompt`` bisects a row's slice of
        self._cum_flat = memoryview(self._cum_transition.reshape(-1))
        # row r's cumulative sums as a list of floats, and its view of the
        # matrix, once a step of row r has been made (``_cdf_row``), else
        # None: the steps' ``target_cdf`` and ``target``
        self._cdf_rows: list[list[float] | None] = [None] * V
        self._target_rows: list[np.ndarray | None] = [None] * V

        if spec.kind == AGREEMENT:
            if spec.agreement_profile is None:
                raise ConfigError("agreement_profile is required for kind='agreement'")
            self._profiles = [_check_profile(tuple(spec.agreement_profile), L, "agreement_profile")]
            self._segments = None
        else:
            if not spec.regimes:
                raise ConfigError("regimes are required for kind='regime_switching'")
            self._profiles = []
            lengths = []
            for i, (seg_len, prof) in enumerate(spec.regimes):
                if seg_len < 1:
                    raise ConfigError(f"regimes[{i}] segment length must be >= 1")
                lengths.append(int(seg_len))
                self._profiles.append(_check_profile(tuple(prof), L, f"regimes[{i}] profile"))
            self._segments = list(accumulate(lengths))
        # the draws compare against the exit layers' rates only
        self._profiles = [p[: L - 1] for p in self._profiles]

        self._conf_table, self._conf_rise = confidence_tables(
            confidence_law(dict(spec.confidence_match), "confidence_match"),
            confidence_law(dict(spec.confidence_mismatch), "confidence_mismatch"), V)
        # the keyed digest's state before any message; each row's digest
        # continues a copy of it, which skips re-keying
        self._keyed_hash = hashlib.blake2b(
            digest_size=16, key=int(seed % 2**64).to_bytes(8, "little", signed=False))
        if not 1 <= spec.context_hash_window <= MAX_HASH_WINDOW:
            raise ConfigError(f"model.context_hash_window must be in [1, {MAX_HASH_WINDOW}], "
                              f"got {spec.context_hash_window}")
        self._hash_window = spec.context_hash_window
        # steps keyed by the exact (length, window) message their draws are
        # keyed by, in recency order, oldest first
        self.memo_capacity = memo_capacity
        self._memo: OrderedDict[bytes, LayerStep] | None = OrderedDict() if memo_capacity > 0 else None
        self._lock = threading.Lock()

    # -- internals ---------------------------------------------------------

    @staticmethod
    def _build_transition(base: Mapping[str, Any], V: int, rng: np.random.Generator) -> np.ndarray:
        kind = base.get("kind", "dirichlet")
        if kind == "dirichlet":
            conc = _parse("base_process.concentration", float, base.get("concentration", 0.5))
            # written so that NaN and infinity, which build a NaN matrix, fail it
            if not 0.0 < conc < math.inf:
                raise ConfigError(f"base_process.concentration must be finite and > 0, got {conc}")
            return rng.dirichlet(np.full(V, conc), size=V)
        if kind == "uniform":
            return np.full((V, V), 1.0 / V)
        if kind == "table":
            t = _parse("base_process.probs", lambda v: np.array(v, dtype=np.float64), base.get("probs"))
            if t.shape != (V, V):
                raise ConfigError(f"base_process.probs must be shape ({V},{V})")
            sums = t.sum(axis=1)
            if not (np.all(t >= 0) and np.all(np.abs(sums - 1.0) <= PROB_SUM_TOL)):
                raise ConfigError("base_process.probs rows must be distributions")
            return t
        raise ConfigError(f"base_process.kind must be dirichlet/uniform/table, got {kind!r}")

    def _scratch_rng(self, digest: bytes) -> np.random.Generator:
        # Re-keying a thread-local Philox is ~2x faster than constructing a
        # Generator per step and yields the identical stream. The state dict
        # holds plain ints, so the ``state`` setter reads them without numpy
        # scalars, and is re-keyed in place: with the counter at 0 and the
        # buffer marked spent the setter starts the new key's stream afresh,
        # and with only 64-bit draws made nothing else in it matters. Every
        # draw re-keys it first, so one generator per thread serves every
        # model.
        loc = _SCRATCH
        st = getattr(loc, "state", None)
        if st is None:
            loc.bitgen = np.random.Philox(key=0)
            loc.gen = np.random.Generator(loc.bitgen)
            loc.state = st = {
                "bit_generator": "Philox",
                "state": {"counter": (0, 0, 0, 0), "key": (0, 0)},
                "buffer": (0, 0, 0, 0),
                "buffer_pos": 4,
                "has_uint32": 0,
                "uinteger": 0,
            }
        st["state"]["key"] = _KEY_WORDS.unpack(digest)
        loc.bitgen.state = st
        return loc.gen

    def _profile_at(self, position: int) -> np.ndarray:
        if self._segments is None:
            return self._profiles[0]
        return self._profiles[bisect_right(self._segments, position % self._segments[-1])]

    def _profile_rows(self, profiles: Iterable[np.ndarray]) -> np.ndarray:
        """The profiles ``profiles`` yields, one per context length, as rows
        of a block; one row serves every length when they all fall in one
        segment, as they do when the profile never changes (and then, with
        no regimes, ``profiles`` is not read)."""
        if self._segments is None:
            return self._profiles[0]
        rows = list(profiles)
        if rows and all(r is rows[0] for r in rows):
            return rows[0]
        return np.array(rows).reshape(len(rows), self.L - 1)

    # -- public API --------------------------------------------------------

    def step(self, context: Sequence[TokenId], prev: LayerStep | None = None) -> LayerStep:
        """LM-head outputs of all L layers at the position after ``context``.

        The target row is set at once, a read-only view of the transition
        matrix that every step of the row shares, with its cumulative sums
        as a list (``target_cdf``, from ``_cdf_row``): one list per row,
        built on the row's first step and shared by every later step of the
        row, so a model holds at most V lists of V floats (about 0.13 MB at
        V = 64). The exit layers' top tokens and
        confidences come from one keyed row of 3(L-1) uniforms (see
        ``_uniforms``), drawn when they are read: the step's row (a
        ``_PendingRow``) is filled on the first read and kept, a one-layer
        read decodes that layer alone, and ``controller.shadow_tokens``
        reads a round's steps' agreement and confidences in one block. Every
        kind makes its steps this way.

        Every step packs its key when it is made, so the step keeps nothing
        of the context itself: without ``prev``, from the context's last
        ``context_hash_window`` tokens (``_key``); with ``prev``, which must
        be this model's step of ``context[:-1]`` (checked in O(1): the same
        model and length n - 1, else ValueError), by moving ``prev``'s key
        on by one token (``_next_key``). With a memo the model stores the
        step itself under its key, so the sessions sharing it fill each row
        once, whoever reads it first.
        A memo step also keeps a successor table, ``{token: step}``, which
        a step from it checks first: a hit that the memo still holds is
        refreshed in the memo's recency order like any memo hit, and a
        miss goes through the memo by key and is recorded. An evicted step
        drops its table, so the steps alive are the memo's and at most one
        level of successors of them. A step refers back to the model
        through its row; Python's cycle collector frees that cycle when the
        model is dropped.

        A token outside [0, V) raises the ConfigError that ``argmax_chain``
        raises, naming it: without ``prev``, the first such token of the
        window; with ``prev``, the last token.
        """
        n = len(context)
        if n == 0:
            raise ValueError("context must be non-empty")
        if n > self.spec.horizon:
            raise horizon_error(n, self.spec.horizon)
        last = int(context[-1])
        memo = self._memo
        if prev is None:
            msg = self._key(n, context[-self._hash_window:])
        else:
            if not 0 <= last < self.V:
                raise token_error(last, self.V)
            row = prev._row
            if row.model is not self or row.n != n - 1:
                raise ValueError("prev must be this model's step of context[:-1]")
            table = row.next
            if table is not None:
                hit = table.get(last)
                if hit is not None:
                    key = hit._row.msg
                    # acquire and release: a with statement costs twice as
                    # much, and this is the path most greedy steps take
                    lock = self._lock
                    lock.acquire()
                    try:
                        if memo.get(key) is hit:
                            memo.move_to_end(key)
                            return hit
                    finally:
                        lock.release()
            msg = self._next_key(row.msg, n, last)
        if memo is not None:
            lock = self._lock
            lock.acquire()
            try:
                hit = memo.get(msg)
                if hit is not None:
                    memo.move_to_end(msg)
                    if prev is not None:
                        self._record(prev, last, hit)
                    return hit
            finally:
                lock.release()
        t_star = self._trans_argmax[last]
        cdf = self._cdf_rows[last]
        if cdf is None:
            cdf = self._cdf_row(last)
        step = LayerStep(self._target_rows[last], cdf, t_star, self.L,
                         _PendingRow(self, msg, n, t_star))
        if memo is None:
            return step
        lock.acquire()
        try:
            memo[msg] = step
            # drop the least recently used beyond the capacity, and its table
            while len(memo) > self.memo_capacity:
                memo.popitem(last=False)[1]._row.next = None
            if prev is not None:
                self._record(prev, last, step)
        finally:
            lock.release()
        return step

    def _record(self, prev: LayerStep, token: TokenId, step: LayerStep) -> None:
        """Enter ``step`` in ``prev``'s successor table under ``token``,
        while the memo holds ``prev``: an evicted step gets no table. The
        caller holds the lock."""
        row = prev._row
        if self._memo.get(row.msg) is prev:
            if row.next is None:
                row.next = {token: step}
            else:
                row.next[token] = step

    def _cdf_row(self, r: int) -> list[float]:
        """Transition row ``r``'s cumulative sums, ``np.cumsum``'s floats as
        a list, built the first time a step of row ``r`` is made and kept;
        the row's view of the matrix, which its steps share, is made with
        it and set first, so a step that finds the list finds the view."""
        with self._lock:
            cdf = self._cdf_rows[r]
            if cdf is None:
                self._target_rows[r] = self._transition[r]
                cdf = self._cdf_rows[r] = self._cum_transition[r].tolist()
        return cdf

    def argmax_chain(self, context: Sequence[TokenId], n: int) -> list[TokenId]:
        """The target's greedy continuation of ``context``: ``n`` tokens,
        each the target argmax after the context and the tokens before it.
        Raises the horizon ConfigError if ``step`` would, at a context past
        ``model.horizon``, and a ConfigError naming the context's last token
        if it is outside [0, V)."""
        if len(context) == 0:
            raise ValueError("context must be non-empty")
        tok = int(context[-1])
        if not 0 <= tok < self.V:
            raise token_error(tok, self.V)
        last_len = len(context) + n - 1
        if n > 0 and last_len > self.spec.horizon:
            raise horizon_error(max(len(context), self.spec.horizon + 1), self.spec.horizon)
        argmax = self._trans_argmax
        out = []
        for _ in range(n):
            tok = argmax[tok]
            out.append(tok)
        return out

    def path_agreement(self, context: Sequence[TokenId], n: int) -> tuple[list[TokenId], np.ndarray]:
        """The greedy path after ``context`` and which exit layers agree
        with the target along it: ``argmax_chain(context, n)`` and an
        (n, L-1) bool array whose row ``i`` holds, per exit layer, whether
        the top token of the step at ``context`` plus the first ``i`` tokens
        of the chain is the target's.

        Only the agreement block of each position's keyed row is drawn: its
        first L - 1 uniforms, which Philox yields first, so they are the
        full row's. Each key is the one ``step`` makes along the path: the
        first context's from its window (``_key``), and each next one moved
        on by the chain's token (``_next_key``). The memo is neither read
        nor filled. Raises the horizon ConfigError as ``argmax_chain`` does,
        and a token outside [0, V) the ConfigError ``step`` raises, naming
        the first such token of the first context's window.
        """
        n0 = len(context)
        msg = self._key(n0, context[-self._hash_window:])
        chain = self.argmax_chain(context, n)
        u = np.empty((n, self.L - 1))
        for i, row in enumerate(u):
            if i:
                msg = self._next_key(msg, n0 + i, chain[i - 1])
            self._uniforms(msg, row)
        return chain, u < self._profile_rows(map(self._profile_at, range(n0, n0 + n)))

    def _key(self, n: int, window: Sequence[TokenId]) -> bytes:
        """The message the draws of a context of length ``n`` are keyed by:
        ``n`` as 8 little-endian bytes, then ``window``, the context's last
        ``context_hash_window`` tokens (all of it when it is shorter), as 4
        little-endian bytes each. A window token outside [0, V) raises
        ``token_error`` naming the first."""
        V = self.V
        if len(window) and (min(window) < 0 or max(window) >= V):
            raise token_error(next(t for t in window if not 0 <= t < V), V)
        return n.to_bytes(8, "little") + array("I", window).tobytes()

    def _next_key(self, msg: bytes, n: int, token: TokenId) -> bytes:
        """The key (``_key``) of a context of length ``n`` from ``msg``, the
        key of its first n - 1 tokens, and ``token``, its last: the length,
        then ``msg``'s window less its oldest token once that window is
        full, then ``token``."""
        cut = 12 if n > self._hash_window else 8
        return b"".join((_LENGTH.pack(n), msg[cut:], _TOKEN.pack(token)))

    def _uniforms(self, msg: bytes, out: np.ndarray | None = None) -> np.ndarray:
        """The 3(L-1) uniforms of the position keyed by ``msg``: a blake2b
        digest of the message under the model seed keys a Philox stream.
        With ``out`` the stream fills it, so a shorter ``out`` gets the
        start of the row; without, a new row."""
        h = self._keyed_hash.copy()
        h.update(msg)
        rng = self._scratch_rng(h.digest())
        if out is None:
            return rng.random(3 * (self.L - 1))
        return rng.random(out=out)

    def _confidence(self, t: np.ndarray, miss: np.ndarray) -> np.ndarray:
        """Confidences, elementwise, from confidence uniforms times
        ``TABLE_SIZE`` (``t``, a new array, which this overwrites) and the
        mask of layers that disagree: the tabulated inverse CDF of the match
        or mismatch law, by linear interpolation between the two table
        entries around each. The result has ``t``'s layout.

        The bits are the reference decode's (``tests/reference.decode``:
        a masked add of ``TABLE_SIZE + 1``, a truncation, then ``rise *
        frac + table``) without its masked ufunc loop: ``t`` is at least 0,
        adding the mask times ``TABLE_SIZE + 1`` adds +0.0 where a layer
        agrees, which leaves ``t`` as it is, and the floor of a ``t >= 0``
        is its truncation."""
        # position in the table: the mismatch law's entries follow the match law's
        t += miss * (TABLE_SIZE + 1.0)
        f = np.floor(t)
        i = f.astype(np.intp)
        t -= f
        conf = self._conf_rise.take(i)
        conf *= t
        conf += self._conf_table.take(i)
        return conf

    def sample_prompt(self, length: int, rng: np.random.Generator) -> list[TokenId]:
        """Draw a prompt of the given length from the base process: the first
        token is ``rng.integers(V)``, and each next one is the inverse CDF of
        its uniform from ``rng.random(length - 1)`` under the row of the token
        before it: the first index whose cumulative sum (``_cum_transition``)
        exceeds the uniform, capped at V - 1 for a row that sums to less than
        1 by rounding. Each search is a ``bisect_right`` over the row's slice
        of ``_cum_flat``, so a token costs no numpy call and the walk builds
        no per-row list; it finds what ``searchsorted(u, "right")`` on the
        row finds (``tests/reference.py`` keeps that walk)."""
        if length < 1:
            raise ValueError("prompt length must be >= 1")
        V = self.V
        tok = int(rng.integers(V))
        out = [tok]
        flat, top = self._cum_flat, V - 1
        for u in rng.random(length - 1).tolist():
            lo = tok * V
            tok = bisect_right(flat, u, lo, lo + V) - lo
            if tok > top:
                tok = top
            out.append(tok)
        return out


def horizon_error(n: int, horizon: int) -> ConfigError:
    """The error for a context of length ``n`` past ``model.horizon``."""
    return ConfigError(f"context length {n} exceeds horizon {horizon} (model.horizon)")


def token_error(tok: TokenId, V: int) -> ConfigError:
    """The error for a context whose last token is outside [0, V)."""
    return ConfigError(f"context token {tok!r} is outside [0, {V})")


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


def build_model(spec: ModelSpec, cfg: SessionConfig) -> LayeredModel:
    """Construct the model for a session, with a step memo sized by
    ``step_memo_capacity``; the model seed is a stream derived from the
    session seed so all policies share one realization."""
    return LayeredModel(spec, cfg.L, cfg.V, derive_seed(cfg.seed, "model"), step_memo_capacity(cfg))

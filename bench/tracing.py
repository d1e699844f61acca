"""Span tracing of delsim's modules, from outside the package.

The traced run wraps, in spans kept in memory:

- the model passed into the sessions (``model.step``), through a proxy in the
  manner of ``CallCountingModel``; for ``grid_sweep`` the proxy is made by
  wrapping ``delsim.harness.build_model``;
- the policies' ``init``/``observe``;
- the module attributes that the layers call through, so a call into
  ``delsim.engine.draft`` from ``run_round`` is seen however it is reached.

A span's self time is its duration minus that of its child spans. The
enclosing span names the caller of each ``model.step``.
"""

from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

BLOCK = "bench.block"
CALIBRATE = "bench.calibrate"


class Tracer:
    """Spans in parallel arrays: name id, parent index, start, end."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.first_model = None  # the first model wrapped, untraced

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, fn=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, fn or original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap delsim's layers; ``restore`` undoes it."""
        from delsim import baselines, controller, engine, harness

        for attr in ("run_session", "vanilla_reference", "make_prompts", "grid_sweep",
                     "write_trace", "write_summary", "write_aggregate", "replay_check"):
            self.patch(harness, attr, f"harness.{attr}")
        self.patch(harness, "run_round", "engine.run_round")
        build = harness.build_model

        def build_traced(*args, **kwargs):
            return self.model(build(*args, **kwargs))

        self.patch(harness, "build_model", "harness.build_model", build_traced)
        for attr in ("draft", "verify_greedy", "verify_sampling"):
            self.patch(engine, attr, f"engine.{attr}")
        for attr in ("prefill_init", "shadow_tokens", "round_stats", "push", "estimate_alpha",
                     "update_threshold", "select_plan"):
            self.patch(controller, attr, f"controller.{attr}")
        for method in ("init", "observe"):
            self.patch(controller.DelController, method, f"controller.{method}")
            for cls in (baselines.VanillaPolicy, baselines.LsPolicy, baselines.FsPolicy,
                        baselines.DvPolicy):
                self.patch(cls, method, f"baselines.{method}")

    def model(self, inner) -> "TracedModel":
        if self.first_model is None:
            self.first_model = inner
        return TracedModel(inner, self)

    def arrays(self):
        n = len(self.name)
        return (
            np.frombuffer(self.name, dtype=np.int32, count=n),
            np.frombuffer(self.parent, dtype=np.int64, count=n),
            np.frombuffer(self.start, dtype=np.float64, count=n),
            np.frombuffer(self.end, dtype=np.float64, count=n),
        )

    def save(self, path) -> None:
        nid, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name=nid, parent=parent,
                            start=start, end=end)


class TracedModel:
    """Model proxy: every ``step`` is a ``model.step`` span."""

    def __init__(self, inner, tracer: Tracer):
        self.inner = inner
        self.step = tracer.wrap("model.step", inner.step)

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


def returned_bytes(step) -> int:
    """Bytes of the arrays a ``step`` call returns."""
    return sum(v.nbytes for v in vars(step).values() if isinstance(v, np.ndarray))


class Profile:
    """Per-name totals of a span set, over a timed phase of ``wall`` seconds."""

    def __init__(self, tracer: Tracer, wall: float, exact_blocks: int):
        nid, parent, start, end = tracer.arrays()
        n = nid.size
        k = len(tracer.names)
        dur = end - start
        nested = parent >= 0
        own = dur - np.bincount(parent[nested], weights=dur[nested], minlength=n)
        self.names = tracer.names
        self.calls = np.bincount(nid, minlength=k)
        self.self_s = np.bincount(nid, weights=own, minlength=k)
        self.incl_s = np.bincount(nid, weights=dur, minlength=k)
        self._ids = tracer._ids
        # the reference clock's calibration is the benchmark's, not the phase's
        self.wall = wall - self.incl_total(CALIBRATE)
        # share of the phase inside block spans: the self times account for it
        self.accounted = (self.incl_total(BLOCK) - self.incl_total(CALIBRATE)) / self.wall

        # spans of the first exact_blocks blocks repeat exactly under a seed
        blocks = np.flatnonzero(nid == self._id(BLOCK))
        limit = int(blocks[exact_blocks]) if blocks.size > exact_blocks else n
        exact = np.arange(n) < limit
        step = (nid == self._id("model.step")) & exact
        caller = np.where(nested, nid[np.maximum(parent, 0)], -1)
        in_ref = self._inside("harness.vanilla_reference", nid, start, end)
        self.step_calls = {
            "prefill": int(np.sum(step & ~in_ref & (caller == self._id("controller.prefill_init")))),
            "draft": int(np.sum(step & ~in_ref & (caller == self._id("engine.draft")))),
            "verify": int(np.sum(step & ~in_ref & (caller == self._id("engine.run_round")))),
            "reference": int(np.sum(step & in_ref)),
        }
        self.step_calls["other"] = int(step.sum()) - sum(self.step_calls.values())
        self.step_bytes = 0
        if tracer.first_model is not None:
            self.step_bytes = returned_bytes(tracer.first_model.step([0]))

    def _id(self, name: str) -> int:
        return self._ids.get(name, -2)

    def _inside(self, name, nid, start, end) -> np.ndarray:
        """Spans that descend from a span of the given name. Spans are stored
        in start order, so a span's descendants are the spans after it that
        start before it ends."""
        n = nid.size
        idx = np.flatnonzero(nid == self._id(name))
        mark = np.zeros(n + 1)
        np.add.at(mark, idx + 1, 1.0)
        np.add.at(mark, np.searchsorted(start, end[idx], side="right"), -1.0)
        return np.cumsum(mark)[:n] > 0

    def count(self, *names: str) -> int:
        return int(sum(self.calls[self._id(n)] for n in names if n in self._ids))

    def self_total(self, *names: str) -> float:
        return float(sum(self.self_s[self._id(n)] for n in names if n in self._ids))

    def incl_total(self, *names: str) -> float:
        return float(sum(self.incl_s[self._id(n)] for n in names if n in self._ids))

    def per_call_us(self, *names: str, inclusive: bool = False, per: int | None = None) -> float:
        """Mean microseconds per call (or per ``per`` events); 0 if none ran."""
        total = self.incl_total(*names) if inclusive else self.self_total(*names)
        n = self.count(*names) if per is None else per
        return 1e6 * total / n if n else 0.0

    def table(self) -> dict:
        return {
            name: {
                "calls": int(self.calls[i]),
                "self_s": float(self.self_s[i]),
                "incl_s": float(self.incl_s[i]),
                "self_share": float(self.self_s[i] / self.wall),
            }
            for i, name in enumerate(self.names)
        }

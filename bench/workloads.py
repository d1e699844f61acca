"""The benchmark's workloads.

Each workload makes its inputs from the seed and runs one block of work at a
time through delsim's public library functions. It checks every session it
runs. For the first ``exact_blocks`` blocks it also records simulated
statistics and a digest of the outputs; these repeat exactly under a fixed
seed, however fast the host is.

Library calls go through module attributes (``harness.run_session``, ...), so
the traced run can wrap them from outside.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from delsim import ModelSpec, SessionConfig, build_model, compute_etpl, derive_seed, make_policy
from delsim import harness
from delsim.config import GREEDY, SAMPLING
from delsim.controller import tpl_grid
from delsim.harness import RunReport

PROMPT_LEN = 32  # the CLI's default prompt length

# the confidence shapes of scripts/compare_policies.py and
# scripts/regime_adaptation.py
STABLE_CONF = {
    "confidence_match": {"dist": "beta", "a": 12, "b": 3},
    "confidence_mismatch": {"dist": "beta", "a": 3, "b": 12},
}
TIGHT_CONF = {
    "confidence_match": {"dist": "beta", "a": 16, "b": 4},
    "confidence_mismatch": {"dist": "beta", "a": 4, "b": 16},
}

# per exit layer: rounds, drafted, accepted, draft layer loads, verify layer
# loads, tokens emitted
LOAD_FIELDS = ("rounds", "drafted", "accepted", "draft_layers", "verify_layers", "tokens")


def specialist_profile(L: int, best: int, peak: float) -> tuple[float, ...]:
    p = [0.3] * L
    p[best - 1] = peak
    p[-1] = 1.0
    return tuple(p)


def greedy_setting(seed: int, max_new_tokens: int) -> tuple[ModelSpec, SessionConfig]:
    """L=32, V=64, stationary agreement profile with layer 2 as the specialist."""
    L = 32
    spec = ModelSpec(kind="agreement", agreement_profile=specialist_profile(L, 2, 0.95), **STABLE_CONF)
    return spec, SessionConfig(L=L, V=64, seed=seed, max_new_tokens=max_new_tokens)


@dataclass
class Block:
    """Reference seconds (see clock.py) and tokens emitted of each timed
    unit of one block.

    Unit ``block`` is the whole block; the others are what the workload's
    ``units`` map groups into per-policy rates. Reference sessions are not
    counted in any unit's tokens.
    """

    seconds: dict = field(default_factory=dict)
    tokens: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)  # host seconds, unscaled
    ref_tokens: int = 0
    records: int = 0  # trace records written

    def add(self, unit: str, tokens: int, seconds: float) -> None:
        self.tokens[unit] = self.tokens.get(unit, 0) + tokens
        self.seconds[unit] = self.seconds.get(unit, 0.0) + seconds

    def lap(self, clock, unit: str | None = None, tokens: int = 0, part: float | None = None) -> None:
        """End a stretch of work. It counts to the block, and to ``unit``
        either whole or, if ``part`` is given, for that many host seconds of
        it."""
        dt = clock.lap()
        self.add("block", tokens, dt)
        self.raw["block"] = self.raw.get("block", 0.0) + clock.raw
        if unit is not None:
            self.add(unit, tokens, dt if part is None else part * clock.scale)
            self.raw[unit] = self.raw.get(unit, 0.0) + (clock.raw if part is None else part)


class Results:
    """Everything one timed phase produced."""

    def __init__(self, exact_blocks: int):
        self.exact_blocks = exact_blocks
        self.blocks: list[Block] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # simulated statistics of the exact blocks
        self.digest = hashlib.sha256()
        self.loads: dict[str, dict[int, list[int]]] = {}
        self.layers: dict[str, int] = {}
        self.tokens: dict[str, int] = {}
        self.alpha_err: list[float] = []
        self.regret: list[float] = []
        self.io_bytes = 0
        self.io_tokens = 0
        self.del_opt_ratio = 0.0

    def fail(self, what: str, sessions: int = 1) -> None:
        self.failed += sessions
        self.failures.append(what)

    def record(self, policy: str, records: list[dict], tokens: int, layers: int) -> None:
        loads = self.loads.setdefault(policy, {})
        for rec in records:
            row = loads.setdefault(int(rec["E"]), [0] * len(LOAD_FIELDS))
            draft_layers = rec["g"] * rec["E"]
            row[0] += 1
            row[1] += rec["g"]
            row[2] += rec["accepted"]
            row[3] += draft_layers
            row[4] += rec["layers_loaded"] - draft_layers
            row[5] += rec["emitted_len"]
        self.tokens[policy] = self.tokens.get(policy, 0) + tokens
        self.layers[policy] = self.layers.get(policy, 0) + layers


def _token_bytes(tokens) -> bytes:
    return array("q", tokens).tobytes()


class RunWorkload:
    """A ``delsim run``: every block draws fresh prompts, computes the vanilla
    reference in greedy mode, runs the policies interleaved prompt by prompt,
    writes traces, summary and aggregate to a scratch directory and
    replay-checks it."""

    def __init__(self, spec: ModelSpec, cfg: SessionConfig, policies, prompts_per_block: int,
                 exact_blocks: int, scratch: Path, prompt_len: int = PROMPT_LEN):
        self.spec = spec
        self.prompt_len = prompt_len
        self.cfg = cfg
        self.policies = list(policies)
        self.prompts_per_block = prompts_per_block
        self.exact_blocks = exact_blocks
        self.scratch = scratch
        self.units = {"sim": ["block"], **{name: [name] for name, _ in self.policies}}
        self.model = build_model(spec, cfg)
        self._first_prompts = harness.make_prompts(
            self.model, self.block_cfg(0), prompts_per_block, prompt_len
        )
        if spec.regimes:
            self._segments = np.cumsum([n for n, _ in spec.regimes])
            profiles = [p for _, p in spec.regimes]
        else:
            self._segments = None
            profiles = [spec.agreement_profile]
        self._alpha = [np.asarray(p[: cfg.L - 1]) for p in profiles]
        self._grids = [tpl_grid(a, cfg.d_max, cfg.L) for a in self._alpha]
        self._echo = {
            "session": None,
            "model": spec.to_dict(),
            "run": {
                "policies": [[n, p] for n, p in self.policies],
                "prompts": prompts_per_block,
                "prompt_len": prompt_len,
            },
        }

    def block_cfg(self, b: int) -> SessionConfig:
        return self.cfg.replace(seed=derive_seed(self.cfg.seed, "block", b))

    def _regime(self, position: int) -> int:
        # the model's own lookup: regimes walked cyclically by context length
        if self._segments is None:
            return 0
        pos = position % int(self._segments[-1])
        return int(np.searchsorted(self._segments, pos, side="right"))

    def block(self, b: int, res: Results, clock) -> Block:
        clock.lap()  # the benchmark's loop between blocks
        blk = Block()
        cfg = self.block_cfg(b)
        exact = b < res.exact_blocks
        if b == 0:
            prompts = self._first_prompts
        else:
            prompts = harness.make_prompts(self.model, cfg, self.prompts_per_block, self.prompt_len)
        echo = dict(self._echo, session=cfg.to_dict())
        reports: list[RunReport] = []
        failed: set[str] = set()
        n = len(self.policies)
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            out = Path(tmp)
            (out / "traces").mkdir()
            (out / "config.json").write_text(json.dumps(echo, indent=2, sort_keys=True))
            blk.lap(clock)
            for i, prompt in enumerate(prompts):
                ref = None
                if cfg.decode_mode == GREEDY:
                    res.attempted += 1
                    try:
                        ref = harness.vanilla_reference(self.model, cfg, prompt)
                    except Exception as e:  # a failed session must not stop the run
                        res.fail(f"block {b} reference {i}: {type(e).__name__}: {e}")
                        continue
                    blk.ref_tokens += len(ref)
                    if len(ref) != cfg.max_new_tokens:
                        res.fail(f"block {b} reference {i}: emitted {len(ref)} tokens")
                    if exact:
                        res.digest.update(b"ref" + _token_bytes(ref))
                    blk.lap(clock)
                # rotate the order so no policy always runs first
                for j in range(n):
                    name, params = self.policies[(b * self.prompts_per_block + i + j) % n]
                    label = f"{name}-{i}"
                    seed = derive_seed(cfg.seed, "engine", name, i)
                    res.attempted += 1
                    s0 = time.perf_counter()
                    try:
                        sess = harness.run_session(
                            self.model, make_policy(name, cfg, **params), cfg, prompt, seed
                        )
                    except Exception as e:  # a failed session must not stop the run
                        blk.lap(clock)
                        res.fail(f"block {b} {label}: {type(e).__name__}: {e}")
                        failed.add(label)
                        continue
                    session_s = time.perf_counter() - s0
                    problems = self.check(name, sess, ref, cfg)
                    if problems:
                        res.fail(f"block {b} {label}: {'; '.join(problems)}")
                        failed.add(label)
                    path = f"traces/{label}.jsonl"
                    harness.write_trace(out / path, sess.records)
                    blk.records += len(sess.records)
                    etpl = compute_etpl(sess.ledger)
                    reports.append(RunReport(
                        policy=name, prompt_index=i, seed=seed,
                        tokens_emitted=sess.ledger.tokens_emitted,
                        layers_loaded=sess.ledger.layers_loaded,
                        etpl=etpl, sim_speedup=etpl * cfg.L, trace_path=path, config=echo,
                    ))
                    blk.lap(clock, name, len(sess.output), session_s)
                    if exact:
                        self.record(res, name, sess, len(prompt))
                        clock.lap()  # the benchmark's own records are not timed
            harness.write_summary(out / "summary.csv", reports)
            harness.write_aggregate(out / "aggregate.csv", reports, cfg)
            errors = harness.replay_check(out)
            blk.lap(clock)
            if errors:
                bad = {r.policy + "-" + str(r.prompt_index) for r in reports} - failed
                res.fail(f"block {b} replay: {errors[:3]}", len(bad))
            if exact:
                res.io_bytes += sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
                res.io_tokens += blk.tokens["block"]
                res.digest.update(b"summary" + (out / "summary.csv").read_bytes())
                res.digest.update(b"aggregate" + (out / "aggregate.csv").read_bytes())
        return blk

    def check(self, name: str, sess, ref, cfg: SessionConfig) -> list[str]:
        problems = []
        if len(sess.output) != cfg.max_new_tokens or sess.ledger.tokens_emitted != cfg.max_new_tokens:
            problems.append(f"emitted {len(sess.output)} tokens, expected {cfg.max_new_tokens}")
        if ref is not None and sess.output != ref:
            problems.append("greedy output differs from the vanilla reference")
        if name == "vanilla" and compute_etpl(sess.ledger) != 1 / cfg.L:
            problems.append(f"vanilla eTPL {compute_etpl(sess.ledger)!r} is not 1/L")
        return problems

    def record(self, res: Results, name: str, sess, prompt_len: int) -> None:
        """Simulated statistics of one session, against the model's truth."""
        res.digest.update(name.encode() + _token_bytes(sess.output))
        res.digest.update(f"{sess.ledger.tokens_emitted},{sess.ledger.layers_loaded}".encode())
        res.digest.update(json.dumps(sess.records, sort_keys=True).encode())
        res.record(name, sess.records, sess.ledger.tokens_emitted, sess.ledger.layers_loaded)
        if name != "del":
            return
        position = prompt_len
        for rec in sess.records:
            grid = self._grids[self._regime(position)]
            chosen = grid[rec["E"] - 1, rec["planned_len"]]
            res.regret.append(1.0 - chosen / grid.max())
            position += rec["emitted_len"]
            # the snapshot is the estimate after this round's update
            truth = self._alpha[self._regime(position)]
            res.alpha_err.append(float(np.mean(np.abs(np.asarray(rec["alpha_snapshot"]) - truth))))

    def finish(self, res: Results) -> None:
        """del's eTPL over the best analytic TPL of the true profile."""
        if "del" in res.layers and self._segments is None:
            etpl = res.tokens["del"] / res.layers["del"]
            res.del_opt_ratio = etpl / float(self._grids[0].max())


class SweepWorkload:
    """A ``delsim sweep``: the static policy over exit layers 1..12 and
    lengths 0..12, fresh prompts and model every block.

    Each d>=1 column is one ``grid_sweep`` call. The d=0 column runs the
    vanilla plan and is timed on its own; it is cheap, so each of its cells
    is one call, which gives enough timed samples for a steady median."""

    ells = list(range(1, 13))
    ds = list(range(0, 13))

    def __init__(self, spec: ModelSpec, cfg: SessionConfig, prompts_per_block: int, exact_blocks: int):
        self.spec = spec
        self.cfg = cfg
        self.prompts_per_block = prompts_per_block
        self.exact_blocks = exact_blocks
        # the sweep's rate sums the calls, leaving out the glue between them
        cells = [f"d=0,ell={ell}" for ell in self.ells]
        columns = [f"d={d}" for d in self.ds[1:]]
        self.units = {"sim": cells + columns, "vanilla": cells, "ls": columns}
        # the set-up grid_sweep makes before its first session
        cfg0 = self.block_cfg(0)
        harness.make_prompts(build_model(spec, cfg0), cfg0, prompts_per_block, PROMPT_LEN)
        self._exact_grids: dict[int, np.ndarray] = {}

    def block_cfg(self, b: int) -> SessionConfig:
        return self.cfg.replace(seed=derive_seed(self.cfg.seed, "block", b))

    def block(self, b: int, res: Results, clock) -> Block:
        clock.lap()  # the benchmark's loop between blocks
        blk = Block()
        cfg = self.block_cfg(b)
        P = self.prompts_per_block
        cell_tokens = P * cfg.max_new_tokens
        values = np.full((len(self.ells), len(self.ds)), np.nan)
        calls = [([ell], [0], f"d=0,ell={ell}") for ell in self.ells]
        calls += [(self.ells, [d], f"d={d}") for d in self.ds[1:]]
        for ells, ds, unit in calls:
            res.attempted += len(ells) * P
            try:
                grid = harness.grid_sweep(self.spec, cfg, ells, ds, P, PROMPT_LEN)
            except Exception as e:  # a failed call must not stop the run
                blk.lap(clock)
                res.fail(f"block {b} {unit}: {type(e).__name__}: {e}", len(ells) * P)
                continue
            blk.lap(clock, unit, len(ells) * cell_tokens)
            rows = [self.ells.index(ell) for ell in ells]
            values[rows, self.ds.index(ds[0])] = grid.values[0, :, 0]
        # a call that raised is already counted as failed
        ran = ~np.isnan(values)
        for a, ell in enumerate(self.ells):
            if ran[a, 0] and values[a, 0] != 1 / cfg.L:
                res.fail(f"block {b} cell ({ell}, 0): eTPL {values[a, 0]!r} is not 1/L", P)
        bad = ran & ~((values > 0) & (values <= 1))
        bad[:, 0] = False
        for a, j in zip(*np.nonzero(bad)):
            res.fail(f"block {b} cell ({self.ells[a]}, {self.ds[j]}): eTPL {values[a, j]!r}", P)
        if b < res.exact_blocks:
            res.digest.update(values.tobytes())
            self._exact_grids[b] = values
        blk.lap(clock)
        return blk

    def finish(self, res: Results) -> None:
        """Re-run every session of the exact blocks one by one, as grid_sweep
        does, and check each one and each cell of the grid."""
        for b, values in self._exact_grids.items():
            cfg = self.block_cfg(b)
            model = build_model(self.spec, cfg)
            prompts = harness.make_prompts(model, cfg, self.prompts_per_block, PROMPT_LEN)
            for a, ell in enumerate(self.ells):
                for j, d in enumerate(self.ds):
                    etpls = []
                    for i, prompt in enumerate(prompts):
                        res.attempted += 1
                        seed = derive_seed(cfg.seed, "sweep", ell, d, i)
                        sess = harness.run_session(
                            model, make_policy("ls", cfg, exit_layer=ell, gamma=d), cfg, prompt, seed
                        )
                        if sess.ledger.tokens_emitted != cfg.max_new_tokens:
                            res.fail(f"block {b} cell ({ell}, {d}) prompt {i}: "
                                     f"emitted {sess.ledger.tokens_emitted} tokens")
                        etpls.append(sess.ledger.tokens_emitted / sess.ledger.layers_loaded)
                        res.record("ls", sess.records, sess.ledger.tokens_emitted, sess.ledger.layers_loaded)
                    if float(np.nanmean(etpls)) != values[a, j]:
                        res.fail(f"block {b} cell ({ell}, {d}): grid {values[a, j]!r} "
                                 f"!= sessions {np.nanmean(etpls)!r}", len(prompts))


def make_workload(name: str, seed: int, scratch: Path):
    if name == "policies-greedy":
        spec, cfg = greedy_setting(seed, max_new_tokens=256)
        policies = [
            ("vanilla", {}),
            ("ls", {"exit_layer": 2, "gamma": 6}),
            ("fs", {"exit_layer": 2, "gamma": 6}),
            ("dv", {"exit_layer": 2}),
            ("del", {}),
        ]
        return RunWorkload(spec, cfg, policies, prompts_per_block=2, exact_blocks=8, scratch=scratch)
    if name == "del-sampling-long":
        L = 80
        spec = ModelSpec(
            kind="regime_switching",
            regimes=((256, specialist_profile(L, 4, 0.97)), (256, specialist_profile(L, 40, 0.97))),
            **TIGHT_CONF,
        )
        cfg = SessionConfig(L=L, V=64, seed=seed, max_new_tokens=512, decode_mode=SAMPLING,
                            d_max=18, draft_cap_mode="algorithm1")
        policies = [("vanilla", {}), ("ls", {"exit_layer": 4, "gamma": 6}), ("del", {})]
        return RunWorkload(spec, cfg, policies, prompts_per_block=4, exact_blocks=1,
                           scratch=scratch, prompt_len=1536)
    if name == "sweep-static":
        spec, cfg = greedy_setting(seed, max_new_tokens=32)
        return SweepWorkload(spec, cfg, prompts_per_block=2, exact_blocks=1)
    raise KeyError(name)


WORKLOADS = ("policies-greedy", "del-sampling-long", "sweep-static")

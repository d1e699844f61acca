"""Experiment runner: decode sessions, cost accounting, grid sweeps, decay
sensitivity sweeps, and the Monte-Carlo / enumeration oracles used to verify
the engine against closed forms."""

from __future__ import annotations

import csv
import json
import math
import os
import re
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from functools import cache
from itertools import product
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .baselines import Policy, make_policy, static_cells
from .config import GREEDY, ConfigError, SessionConfig, derive_seed
from .engine import CostLedger, DraftPlan, run_round
from .model import ModelSpec, build_model, horizon_error
from .types import InvariantViolation, TokenId


@dataclass
class SessionResult:
    output: list[TokenId]
    ledger: CostLedger
    records: list[dict]
    rounds: int


def run_session(
    model,
    policy,
    cfg: SessionConfig,
    prompt: Sequence[TokenId],
    engine_seed: int,
) -> SessionResult:
    """Decode max_new_tokens from the prompt under one policy.

    Emits one trace record per round; records are bit-stable for a given
    (config, seed) because every random draw flows from the engine seed.
    Each round after the first steps its position 0 from the last round's
    step of the context less its last token (``run_round``'s ``prev``).
    A prompt token outside [0, V) raises ConfigError naming its position.
    """
    V = model.V
    bad = next((i for i, tok in enumerate(prompt) if not 0 <= tok < V), None)
    if bad is not None:
        raise ConfigError(f"prompt token {prompt[bad]!r} at position {bad} is outside [0, {V})")
    rng = np.random.default_rng(engine_seed)
    ctx = list(prompt)
    ledger = CostLedger()
    plan = policy.init(model, prompt)
    out: list[TokenId] = []
    records: list[dict] = []
    rounds = 0
    prev = None
    while len(out) < cfg.max_new_tokens:
        budget = cfg.max_new_tokens - len(out)
        outcome = run_round(model, ctx, plan, rng, ledger, cfg, budget, prev)
        # the step before the last emitted token; a truncated round ends the session
        prev = outcome.steps[outcome.accepted_count]
        out.extend(outcome.emitted)
        next_plan = policy.observe(outcome)
        # the fields of ``TRACE_LAYOUT``, in its order
        records.append(
            {
                "round": rounds,
                "E": plan.exit_layer,
                "planned_len": plan.planned_len,
                "g": outcome.g,
                "accepted": outcome.accepted_count,
                "emitted_len": len(outcome.emitted),
                "layers_loaded": outcome.layers_loaded,
                "tau": plan.threshold,
                "alpha_snapshot": policy.alpha_snapshot,
                "u_r": policy.u_r,
            }
        )
        plan = next_plan
        rounds += 1
    return SessionResult(output=out, ledger=ledger, records=records, rounds=rounds)


def compute_etpl(ledger: CostLedger) -> float:
    """Tokens emitted per layer loaded over a whole run."""
    if ledger.layers_loaded <= 0:
        raise ValueError("layers_loaded must be > 0 to compute eTPL")
    return ledger.tokens_emitted / ledger.layers_loaded


@dataclass
class RunReport:
    policy: str
    prompt_index: int
    seed: int
    tokens_emitted: int
    layers_loaded: int
    etpl: float
    sim_speedup: float
    trace_path: str | None
    config: dict = field(default_factory=dict)


def make_prompts(model, cfg: SessionConfig, n_prompts: int, prompt_len: int) -> list[list[TokenId]]:
    """Seeded prompts drawn from the model's base process; shared across
    policies so comparisons see identical inputs."""
    prompts = []
    for i in range(n_prompts):
        rng = np.random.default_rng(derive_seed(cfg.seed, "prompt", i))
        prompts.append(model.sample_prompt(prompt_len, rng))
    return prompts


def vanilla_reference(model, cfg: SessionConfig, prompt: Sequence[TokenId]) -> list[TokenId]:
    """Target-only greedy output used by the losslessness hook: the argmax
    chain after the prompt, which is what a greedy ``vanilla`` session
    emits. It draws nothing."""
    return model.argmax_chain(prompt, cfg.max_new_tokens)


def run_experiment(
    model_spec: ModelSpec,
    cfg: SessionConfig,
    policy_specs: Sequence[tuple[str, dict]],
    n_prompts: int,
    prompt_len: int,
    out_dir: str | Path | None = None,
) -> list[RunReport]:
    """Run every (policy, prompt) pair, write traces and summary tables.

    In greedy mode each run's output is asserted token-identical to the
    vanilla reference for the same prompt; a violation raises
    InvariantViolation (CLI exit code 2). A policy name given twice raises
    ConfigError naming the second entry: its sessions would share the
    first's engine seeds and overwrite its traces.

    The run writes its files into a new sibling directory of ``out_dir``,
    and only once every session has run moves them in (``_swap_in``):
    ``config.json``, ``summary.csv``, ``aggregate.csv`` and
    ``traces/*.jsonl``, after removing the traces an earlier run left. A run
    that raises leaves ``out_dir`` as it was; nothing else in it is touched.
    """
    names = []
    for i, (name, params) in enumerate(policy_specs):
        if name in names:
            raise ConfigError(f"policy_specs[{i}] repeats policy {name!r}")
        names.append(name)
        make_policy(name, cfg, **params)  # a bad entry raises before out_dir is touched
    model = build_model(model_spec, cfg)
    prompts = make_prompts(model, cfg, n_prompts, prompt_len)
    config_echo = {
        "session": cfg.to_dict(),
        "model": model_spec.to_dict(),
        "run": {
            "policies": [[name, params] for name, params in policy_specs],
            "prompts": n_prompts,
            "prompt_len": prompt_len,
        },
    }

    # the run's files go to a new sibling of out_dir, and into it at the end
    work = None
    if out_dir is not None:
        dest = Path(out_dir).resolve()
        dest.parent.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix=f".{dest.name}.", dir=dest.parent))
    try:
        # prompt by prompt, so the model's step memo serves every session on
        # a prompt; reports stay in (policy, prompt) order
        by_policy: list[list[RunReport]] = [[] for _ in policy_specs]
        for i, prompt in enumerate(prompts):
            reference = None
            if cfg.decode_mode == GREEDY:
                reference = vanilla_reference(model, cfg, prompt)
            for (name, params), policy_reports in zip(policy_specs, by_policy):
                policy = make_policy(name, cfg, **params)
                engine_seed = derive_seed(cfg.seed, "engine", name, i)
                res = run_session(model, policy, cfg, prompt, engine_seed)
                if reference is not None and res.output != reference:
                    raise InvariantViolation(
                        f"greedy output of policy {name!r} on prompt {i} diverged from vanilla"
                    )
                etpl = compute_etpl(res.ledger)
                trace_path = None
                if work is not None:
                    trace_path = f"traces/{name}-{i}.jsonl"
                    write_trace(work / trace_path, res.records)
                policy_reports.append(
                    RunReport(
                        policy=name,
                        prompt_index=i,
                        seed=engine_seed,
                        tokens_emitted=res.ledger.tokens_emitted,
                        layers_loaded=res.ledger.layers_loaded,
                        etpl=etpl,
                        sim_speedup=etpl * cfg.L,
                        trace_path=trace_path,
                        config=config_echo,
                    )
                )
        reports = [r for rs in by_policy for r in rs]
        if work is not None:
            (work / "config.json").write_text(json.dumps(config_echo, indent=2, sort_keys=True))
            write_summary(work / "summary.csv", reports)
            write_aggregate(work / "aggregate.csv", reports, cfg)
            _swap_in(work, dest)
    finally:
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    return reports


def _swap_in(work: Path, out: Path) -> None:
    """Move a finished run's files from ``work`` into ``out``: the traces an
    earlier run left in ``out/traces`` are removed, then each of the run's
    traces, ``aggregate.csv``, ``summary.csv`` and ``config.json`` replaces
    its namesake."""
    traces = out / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    for stale in traces.glob("*.jsonl"):
        stale.unlink()
    for trace in (work / "traces").glob("*.jsonl"):
        os.replace(trace, traces / trace.name)
    for name in ("aggregate.csv", "summary.csv", "config.json"):
        os.replace(work / name, out / name)


# -- trace / table io -------------------------------------------------------

SUMMARY_FIELDS = (
    "policy", "prompt_index", "seed", "tokens_emitted", "layers_loaded",
    "etpl", "sim_speedup", "trace_path",
)


# a trace record's fields in the order ``run_session`` writes them, each
# with the text its value takes in a line: the round's counts, the plan's
# threshold, then the policy's last estimate and window index. Every value
# is its exact JSON but the estimate, a list whose entries are printed at
# six significant digits (``_alpha_template``); the record keeps them at
# full precision. A line's pattern captures the estimate's list, whose
# characters only ``trace_totals`` checks: ``delsim replay`` proves its
# values by re-running the directory
TRACE_LAYOUT = (
    ("round", r"\d+"),
    ("E", r"\d+"),
    ("planned_len", r"\d+"),
    ("g", r"\d+"),
    ("accepted", r"\d+"),
    ("emitted_len", r"\d+"),
    ("layers_loaded", r"\d+"),
    ("tau", r"[\d.e+-]+"),
    ("alpha_snapshot", r"\[(?P<entries>[^\]]*)\]"),
    ("u_r", r"\d+"),
)
# the fields a baseline leaves None, which a line writes as null
_NULLABLE = ("alpha_snapshot", "u_r")


def _line_template(nulls) -> str:
    """A line with null for each field in ``nulls``, ``%(alpha_snapshot)s``
    for the estimate's text (its entries at six significant digits, see
    ``_alpha_template``) and ``%(name)r`` for the rest. The repr of an int
    or a finite float is its exact JSON text, so every other field reads
    back equal to the record's value. One ``%`` reads every field by name; a
    loop over the fields costs several times as much per record."""
    return "{" + ", ".join(
        f'"{name}": ' + ("null" if name in nulls
                         else "%(alpha_snapshot)s" if name == "alpha_snapshot"
                         else f"%({name})r")
        for name, _ in TRACE_LAYOUT
    ) + "}\n"


# a line's template, keyed by whether each of ``_NULLABLE``'s fields is None
_LINES = {
    nones: _line_template([name for name, none in zip(_NULLABLE, nones) if none])
    for nones in product((False, True), repeat=len(_NULLABLE))
}


@cache
def _alpha_template(n: int) -> str:
    """The text of an n-entry estimate, each entry at six significant digits
    (``%.6g``): within 5e-6 relative of its float, and a JSON number for
    every finite one (1.0 prints as 1, 1e-06 as 1e-06). Fixed precision
    because the shortest repr of each float costs several times as much."""
    return "[" + ", ".join(["%.6g"] * n) + "]"


def write_trace(path: Path, records: list[dict]) -> None:
    """One JSON line per record, with ``TRACE_LAYOUT``'s keys in its order.
    Each entry of ``alpha_snapshot`` is printed at six significant digits
    (the record itself keeps full precision, which the error and regret
    metrics read); every other field is exact: the line of a record whose
    estimate is None is ``json.dumps(record)``. The values must be as
    ``run_session`` records them: Python ints, finite floats, a list of
    floats, or None (a numpy scalar's repr is not JSON)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for rec in records:
            alpha = rec["alpha_snapshot"]
            if alpha is not None:
                rec = {**rec, "alpha_snapshot": _alpha_template(len(alpha)) % tuple(alpha)}
            f.write(_LINES[alpha is None, rec["u_r"] is None] % rec)


def write_summary(path: Path, reports: Sequence[RunReport]) -> None:
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(SUMMARY_FIELDS)
        for r in reports:
            w.writerow(
                [
                    r.policy, r.prompt_index, r.seed, r.tokens_emitted,
                    r.layers_loaded, repr(r.etpl), repr(r.sim_speedup),
                    r.trace_path or "",
                ]
            )


def bootstrap_ci(values: Sequence[float], seed: int, n_resamples: int = 1000) -> tuple[float, float]:
    """Percentile bootstrap 95% interval of the mean."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 1:
        return float(arr[0]), float(arr[0])
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, arr.size, size=(n_resamples, arr.size))
    means = arr[idx].mean(axis=1)
    lo, hi = np.percentile(means, (2.5, 97.5))
    return float(lo), float(hi)


def write_aggregate(path: Path, reports: Sequence[RunReport], cfg: SessionConfig) -> None:
    rows = []
    for name in dict.fromkeys(r.policy for r in reports):
        vals = [r.etpl for r in reports if r.policy == name]
        lo, hi = bootstrap_ci(vals, derive_seed(cfg.seed, "bootstrap", name))
        mean = float(np.mean(vals))
        rows.append([name, len(vals), repr(mean), repr(lo), repr(hi), repr(mean * cfg.L)])
    with path.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["policy", "runs", "mean_etpl", "etpl_ci_lo", "etpl_ci_hi", "mean_sim_speedup"])
        w.writerows(rows)


# a line as ``write_trace`` lays it out, its two totals as named groups;
# the other fields are matched, not decoded
_GROUPS = ("emitted_len", "layers_loaded")
_RECORD = re.compile(
    r"\{"
    + ", ".join(
        f'"{name}": (?:'
        + ("null|" if name in _NULLABLE else "")
        + (f"(?P<{name}>{text}))" if name in _GROUPS else f"{text})")
        for name, text in TRACE_LAYOUT
    )
    + r"\}"
)


# the characters an estimate's entries are printed with
_ALPHA_CHARS = b"-0123456789.eE+, "


def trace_totals(path: Path) -> tuple[int, int]:
    """Summed ``emitted_len`` and ``layers_loaded`` over a trace's records.
    A line that is not a whole record raises ValueError naming the trace
    and the first such line: ``_RECORD`` must match every field, and the
    estimate's list hold only ``_ALPHA_CHARS``, checked by one
    ``bytes.translate`` (cheaper than a pattern's match of each character,
    or than ``str.translate``)."""
    tokens = layers = 0
    with path.open() as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            m = _RECORD.fullmatch(line)
            # UTF-8 writes every other character with bytes outside ASCII
            if m is None or m["entries"] and m["entries"].encode().translate(None, _ALPHA_CHARS):
                raise ValueError(f"{path} line {lineno}: not a whole trace record")
            tokens += int(m["emitted_len"])
            layers += int(m["layers_loaded"])
    return tokens, layers


def replay_check(out_dir: str | Path) -> list[str]:
    """Recompute each run's totals from its trace and cross-check the summary.

    Returns a list of mismatch descriptions (empty when everything matches).
    It reads only the totals; ``delsim replay`` then re-runs the directory
    to prove every other field.
    """
    out = Path(out_dir)
    summary = out / "summary.csv"
    if not summary.exists():
        return [f"missing summary: {summary}"]
    config = out / "config.json"
    try:
        L = int(json.loads(config.read_text())["session"]["L"])
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"bad config: {config} has no readable session.L ({type(e).__name__}: {e})"]
    try:
        with summary.open() as f:
            rows = list(csv.DictReader(f))
    except (OSError, ValueError, csv.Error) as e:
        return [f"unreadable summary: {summary} ({type(e).__name__}: {e})"]
    errors: list[str] = []
    for i, row in enumerate(rows):
        try:
            label = f"{row['policy']}-{row['prompt_index']}"
            trace_rel = row["trace_path"]
            want_tokens, want_layers = int(row["tokens_emitted"]), int(row["layers_loaded"])
            want_etpl, want_speedup = float(row["etpl"]), float(row["sim_speedup"])
        except (KeyError, TypeError, ValueError) as e:
            errors.append(f"{summary} row {i + 1}: not a whole summary row ({type(e).__name__}: {e})")
            continue
        if not trace_rel:
            errors.append(f"{label}: no trace recorded")
            continue
        try:
            tokens, layers = trace_totals(out / trace_rel)
        except (OSError, ValueError) as e:
            errors.append(f"{label}: {e}")
            continue
        if tokens != want_tokens:
            errors.append(f"{label}: tokens {tokens} != summary {row['tokens_emitted']}")
            continue
        if layers != want_layers:
            errors.append(f"{label}: layers {layers} != summary {row['layers_loaded']}")
            continue
        etpl = tokens / layers if layers else math.nan
        if etpl != want_etpl:
            errors.append(f"{label}: etpl {etpl!r} != summary {row['etpl']}")
        if etpl * L != want_speedup:
            errors.append(f"{label}: sim_speedup {etpl * L!r} != summary {row['sim_speedup']}")
    return errors


# -- sweeps ------------------------------------------------------------------

@dataclass
class SweepGrid:
    ells: list[int]
    ds: list[int]
    segment_len: int | None
    values: np.ndarray  # (segments, len(ells), len(ds)) mean eTPL over prompts

    @property
    def segments(self) -> int:
        return int(self.values.shape[0])

    def best_cell(self, segment: int = 0) -> tuple[int, int, float]:
        grid = self.values[segment]
        flat = int(np.nanargmax(grid))
        i, j = flat // grid.shape[1], flat % grid.shape[1]
        return self.ells[i], self.ds[j], float(grid[i, j])


def grid_sweep(
    model_spec: ModelSpec,
    cfg: SessionConfig,
    ells: Sequence[int],
    ds: Sequence[int],
    n_prompts: int,
    prompt_len: int,
    segment_len: int | None = None,
) -> SweepGrid:
    """Mean eTPL of the static policy over an (exit layer, length) grid.

    Every cell sees the same seeded prompts. With ``segment_len`` the run is
    split into fixed-length windows of emitted tokens and a separate grid is
    produced per window (each round attributed to the window holding its
    first emitted token).

    Greedy sweeps draw each prompt's greedy path once and read every cell's
    rounds off a next-mismatch table along it (see :func:`_greedy_windows`);
    the values equal those of a session per cell. Sampling sweeps run a
    session per cell and prompt.
    """
    ells = list(ells)
    ds = list(ds)
    if not ells or not ds:
        raise ValueError("sweep ranges must be non-empty")
    if segment_len is not None and segment_len < 1:
        raise ConfigError(f"segment_len (--segment-len) must be >= 1, got {segment_len}")
    # a bad exit layer or length raises ConfigError before any work is done
    cells = static_cells(cfg, ells, ds)
    model = build_model(model_spec, cfg)
    prompts = make_prompts(model, cfg, n_prompts, prompt_len)
    n_seg = 1 if segment_len is None else math.ceil(cfg.max_new_tokens / segment_len)
    # per prompt, each cell's eTPL per window, in one flat list
    windows = []
    for i, prompt in enumerate(prompts):
        if cfg.decode_mode == GREEDY:
            windows.append(_greedy_windows(model, prompt, cells, cfg, segment_len, n_seg))
            continue
        flat = []
        for ell, d in cells:
            # the static policy is stateless: a fixed plan
            policy = Policy(cfg, DraftPlan(ell, 0.0, d))
            res = run_session(model, policy, cfg, prompt, derive_seed(cfg.seed, "sweep", ell, d, i))
            rounds = [(rec["emitted_len"], rec["layers_loaded"]) for rec in res.records]
            flat += _segment_etpl(rounds, segment_len, n_seg)
        windows.append(flat)
    # (ells, ds, windows, prompts), laid out as the mean below reads it
    per_prompt = np.array(windows).reshape(n_prompts, len(ells), len(ds), n_seg)
    per_prompt = np.ascontiguousarray(per_prompt.transpose(1, 2, 3, 0))
    # the mean over the prompts that started a round in the window, NaN when
    # none did (np.nanmean would also warn about the empty slice); the sums
    # are np.nansum's, without its wrapper
    started = ~np.isnan(per_prompt)
    sums = np.add.reduce(np.where(started, per_prompt, 0.0), axis=-1)
    with np.errstate(invalid="ignore"):
        means = sums / np.add.reduce(started, axis=-1)
    values = np.ascontiguousarray(means.transpose(2, 0, 1))
    return SweepGrid(ells=ells, ds=ds, segment_len=segment_len, values=values)


def _segment_etpl(rounds, segment_len: int | None, n_seg: int) -> list[float]:
    """eTPL per window of emitted tokens from a session's per-round
    ``(emitted_len, layers_loaded)``; NaN for a window no round started in."""
    tok = [0] * n_seg
    lay = [0] * n_seg
    emitted_before = 0
    for emitted, layers in rounds:
        seg = 0 if segment_len is None else min(emitted_before // segment_len, n_seg - 1)
        tok[seg] += emitted
        lay[seg] += layers
        emitted_before += emitted
    return [t / n if n > 0 else math.nan for t, n in zip(tok, lay)]


def _greedy_windows(model, prompt: Sequence[TokenId], cells, cfg: SessionConfig,
                    segment_len: int | None, n_seg: int) -> list[float]:
    """Each static cell's eTPL per window on one prompt, in cell order, in
    one flat list, equal to ``_segment_etpl`` of its greedy session's rounds.
    A cell is an (exit layer, length) pair.

    Greedy speculative decoding is lossless, so every static session on the
    prompt emits the target's greedy path. A round at path position p with
    length g drafts layer E's shadow tokens: while they agree with the target
    they are the path, and the first disagreement ends acceptance. So the
    round accepts the run of agreements from p, capped at g, and emits one
    token more: the next round starts at ``min(nz[p], p + g) + 1``, where
    ``nz[p]`` is layer E's first disagreement at or after p. The path is
    drawn once, as far as any round can read, by ``model.path_agreement``;
    a sweep of d = 0 alone reads no layer and draws nothing.

    Raises the model's horizon ConfigError at the first round, in cell order,
    that would step a context past it: a round at p drafts g tokens and
    verifies up to context length ``len(prompt) + p + g``.
    """
    total = cfg.max_new_tokens
    horizon = model.spec.horizon
    n0 = len(prompt)
    # per cell, the start of the round after one that starts at each
    # position: a d = 0 round emits one token and reads no flag
    after = [range(1, total + 1)] * len(cells)
    if any(g for _, g in cells):
        exits, gs = np.array(cells).T
        # a round at p reads the flags at p .. min(p + g, total - 1) - 1,
        # and one that keeps within the horizon has p + g <= horizon - n0
        reach = max(min(total - 1, horizon - n0), 0)
        # per position and cell, whether the cell's exit layer agrees with
        # the target (none past the flags read), and where it next disagrees
        agree = np.zeros((reach + 1, len(cells)), dtype=bool)
        agree[:reach] = model.path_agreement(prompt, reach)[1][:, exits - 1]
        at = np.arange(reach + 1)[:, None]
        nz = np.minimum.accumulate(np.where(agree, reach, at)[::-1], axis=0)[::-1]
        after = (np.minimum(nz, at + gs) + 1).T.tolist()
    out = []
    for (exit_layer, g), after_p in zip(cells, after):
        # the rounds that start before ``limit`` stay within the horizon
        limit = min(total, horizon - n0 - g + 1)
        starts = []
        p = 0
        while p < limit:
            starts.append(p)
            p = after_p[p]
        if p < total:
            raise horizon_error(max(n0 + p, horizon + 1), horizon)
        layers = g * exit_layer + cfg.L
        if segment_len is None:
            # the rounds emit all ``total`` tokens
            out.append(total / (len(starts) * layers))
        else:
            rounds = [(end - p, layers) for p, end in zip(starts, starts[1:] + [total])]
            out += _segment_etpl(rounds, segment_len, n_seg)
    return out


def write_grid_csv(grid: SweepGrid, path: str | Path) -> None:
    """Grid as CSV matrices: one block per segment, d values as the header
    row, exit layers as the leading column."""
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as f:
        w = csv.writer(f)
        for seg in range(grid.segments):
            if grid.segment_len is not None:
                w.writerow(["segment", seg])
            w.writerow(["ell\\d"] + [str(d) for d in grid.ds])
            for i, ell in enumerate(grid.ells):
                w.writerow([str(ell)] + [repr(float(v)) for v in grid.values[seg, i]])


# -- oracles -----------------------------------------------------------------

def mc_expected_tokens(alpha: float, d: int, trials: int, seed: int = 0) -> float:
    """Monte-Carlo mean of tokens emitted by one round with i.i.d. per-token
    acceptance probability alpha and fixed length d (accepted prefix + 1).

    Independent oracle for the geometric-sum round-length formula.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha out of [0,1]: {alpha}")
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
    if d == 0:
        return 1.0
    rng = np.random.default_rng(seed)
    total = 0
    # blocks of ~250,000 floats; they split one stream, so their size changes no draw
    chunk = max(1, 250_000 // d)
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        draws = rng.random((n, d)) < alpha
        leading = np.logical_and.accumulate(draws, axis=1).sum(axis=1)
        total += int(leading.sum())
        done += n
    return total / trials + 1.0


def expected_tokens_closed_form(alpha: float, d: int) -> float:
    """(1 - alpha^(d+1)) / (1 - alpha), finite at alpha = 1."""
    if alpha == 1.0:
        return float(d + 1)
    return (1.0 - alpha ** (d + 1)) / (1.0 - alpha)


def enumerate_target_distribution(model, prompt: Sequence[TokenId], horizon: int) -> dict[tuple, float]:
    """Exact distribution of the target chain's next ``horizon`` tokens,
    obtained by brute-force enumeration of the auto-regressive product."""
    out: dict[tuple, float] = {}

    def rec(ctx: list[TokenId], depth: int, prob: float) -> None:
        if depth == horizon:
            key = tuple(ctx[len(prompt):])
            out[key] = out.get(key, 0.0) + prob
            return
        p = model.step(ctx).target
        for tok in np.nonzero(p > 0.0)[0]:
            rec(ctx + [int(tok)], depth + 1, prob * float(p[tok]))

    rec(list(prompt), 0, 1.0)
    return out


def empirical_sd_distribution(
    model,
    policy_factory: Callable[[], Any],
    cfg: SessionConfig,
    prompt: Sequence[TokenId],
    trials: int,
    master_seed: int,
) -> Counter:
    """Empirical distribution of SD outputs over independent engine seeds;
    the model realization stays fixed so only decoding randomness varies.
    Trials revisit the same few contexts, so give the model a step memo that
    holds them all (``LayeredModel(..., memo_capacity=...)``)."""
    counts: Counter = Counter()
    for t in range(trials):
        res = run_session(model, policy_factory(), cfg, prompt, derive_seed(master_seed, "trial", t))
        counts[tuple(res.output)] += 1
    return counts


def total_variation(empirical: Counter, exact: dict[tuple, float], trials: int) -> float:
    keys = set(empirical) | set(exact)
    return 0.5 * sum(abs(empirical.get(k, 0) / trials - exact.get(k, 0.0)) for k in keys)


def omega_sweep(
    model_spec: ModelSpec,
    cfg: SessionConfig,
    omegas: Sequence[float],
    n_prompts: int,
    prompt_len: int,
) -> list[dict]:
    """One dynamic-policy run batch per decay factor, sharing prompts, model,
    and engine seeds so only the decay differs.

    The decay does not enter the model, so one model serves every omega, and
    the sweep runs prompt by prompt: in greedy mode every omega's session on
    a prompt walks the same target path, which the model's step memo then
    computes once.
    """
    cfgs = [cfg.replace(omega=float(omega)) for omega in omegas]
    model = build_model(model_spec, cfg)
    prompts = make_prompts(model, cfg, n_prompts, prompt_len)
    tokens = [0] * len(cfgs)
    layers = [0] * len(cfgs)
    plan_changes = [0] * len(cfgs)
    for i, prompt in enumerate(prompts):
        engine_seed = derive_seed(cfg.seed, "engine", "del", i)
        for j, cfg_w in enumerate(cfgs):
            res = run_session(model, make_policy("del", cfg_w), cfg_w, prompt, engine_seed)
            tokens[j] += res.ledger.tokens_emitted
            layers[j] += res.ledger.layers_loaded
            es = [rec["E"] for rec in res.records]
            plan_changes[j] += sum(1 for a, b in zip(es, es[1:]) if a != b)
    rows = []
    for cfg_w, tok, lay, changes in zip(cfgs, tokens, layers, plan_changes):
        etpl = tok / lay
        rows.append(
            {
                "omega": cfg_w.omega,
                "etpl": etpl,
                "sim_speedup": etpl * cfg.L,
                "exit_switches": changes,
            }
        )
    return rows


def write_omega_csv(rows: list[dict], path: str | Path) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["omega", "etpl", "sim_speedup", "exit_switches"])
        for r in rows:
            w.writerow([repr(r["omega"]), repr(r["etpl"]), repr(r["sim_speedup"]), r["exit_switches"]])

"""Experiment runner: decode sessions, cost accounting, grid sweeps, decay
sensitivity sweeps, and the Monte-Carlo / enumeration oracles used to verify
the engine against closed forms."""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from .baselines import VanillaPolicy, make_policy
from .config import GREEDY, SessionConfig, derive_seed
from .controller import shadow_tokens
from .engine import CostLedger, DraftPlan, run_round
from .model import ModelSpec, build_model, horizon_error
from .types import InvariantViolation, TokenId


@dataclass
class SessionResult:
    prompt: list[TokenId]
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
    collect_trace: bool = True,
) -> SessionResult:
    """Decode max_new_tokens from the prompt under one policy.

    Emits one trace record per round; records are bit-stable for a given
    (config, seed) because every random draw flows from the engine seed.
    """
    rng = np.random.default_rng(engine_seed)
    ctx = list(prompt)
    ledger = CostLedger()
    plan = policy.init(model, prompt)
    out: list[TokenId] = []
    records: list[dict] = []
    rounds = 0
    while len(out) < cfg.max_new_tokens:
        budget = cfg.max_new_tokens - len(out)
        outcome = run_round(model, ctx, plan, rng, ledger, cfg, budget)
        out.extend(outcome.emitted)
        next_plan = policy.observe(outcome)
        if collect_trace:
            extra = policy.trace_fields()
            records.append(
                {
                    "round": rounds,
                    "E": plan.exit_layer,
                    "planned_len": plan.planned_len,
                    "g": len(outcome.drafted),
                    "accepted": outcome.accepted_count,
                    "emitted_len": len(outcome.emitted),
                    "layers_loaded": outcome.layers_loaded,
                    "tau": plan.threshold,
                    "alpha_snapshot": extra.get("alpha_snapshot"),
                    "u_r": extra.get("u_r"),
                }
            )
        plan = next_plan
        rounds += 1
    return SessionResult(prompt=list(prompt), output=out, ledger=ledger, records=records, rounds=rounds)


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
    """Target-only greedy output used by the losslessness hook."""
    res = run_session(model, VanillaPolicy(cfg), cfg, prompt, derive_seed(cfg.seed, "ref"), False)
    return res.output


def run_experiment(
    model_spec: ModelSpec,
    cfg: SessionConfig,
    policy_specs: Sequence[tuple[str, dict]],
    n_prompts: int,
    prompt_len: int,
    out_dir: str | Path | None = None,
    check_losslessness: bool = True,
) -> list[RunReport]:
    """Run every (policy, prompt) pair, write traces and summary tables.

    In greedy mode each run's output is asserted token-identical to the
    vanilla reference for the same prompt; a violation raises
    InvariantViolation (CLI exit code 2).
    """
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

    out_path = Path(out_dir) if out_dir is not None else None
    if out_path is not None:
        (out_path / "traces").mkdir(parents=True, exist_ok=True)
        (out_path / "config.json").write_text(json.dumps(config_echo, indent=2, sort_keys=True))

    # prompt by prompt, so the model's step memo serves every session on a
    # prompt; reports stay in (policy, prompt) order
    by_policy: list[list[RunReport]] = [[] for _ in policy_specs]
    for i, prompt in enumerate(prompts):
        reference = None
        if check_losslessness and cfg.decode_mode == GREEDY:
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
            if out_path is not None:
                trace_path = f"traces/{name}-{i}.jsonl"
                write_trace(out_path / trace_path, res.records)
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

    if out_path is not None:
        write_summary(out_path / "summary.csv", reports)
        write_aggregate(out_path / "aggregate.csv", reports, cfg)
    return reports


# -- trace / table io -------------------------------------------------------

SUMMARY_FIELDS = (
    "policy", "prompt_index", "seed", "tokens_emitted", "layers_loaded",
    "etpl", "sim_speedup", "trace_path",
)


def write_trace(path: Path, records: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as f:
        for rec in records:
            f.write(json.dumps(rec) + "\n")


def read_trace(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


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
    return float(np.percentile(means, 2.5)), float(np.percentile(means, 97.5))


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


def replay_check(out_dir: str | Path) -> list[str]:
    """Recompute each run's totals from its trace and cross-check the summary.

    Returns a list of mismatch descriptions (empty when everything matches).
    """
    out = Path(out_dir)
    summary = out / "summary.csv"
    if not summary.exists():
        return [f"missing summary: {summary}"]
    config = json.loads((out / "config.json").read_text())
    L = int(config["session"]["L"])
    errors: list[str] = []
    with summary.open() as f:
        for row in csv.DictReader(f):
            label = f"{row['policy']}-{row['prompt_index']}"
            trace_rel = row["trace_path"]
            if not trace_rel:
                errors.append(f"{label}: no trace recorded")
                continue
            trace = read_trace(out / trace_rel)
            tokens = sum(int(r["emitted_len"]) for r in trace)
            layers = sum(int(r["layers_loaded"]) for r in trace)
            if tokens != int(row["tokens_emitted"]):
                errors.append(f"{label}: tokens {tokens} != summary {row['tokens_emitted']}")
                continue
            if layers != int(row["layers_loaded"]):
                errors.append(f"{label}: layers {layers} != summary {row['layers_loaded']}")
                continue
            etpl = tokens / layers
            if etpl != float(row["etpl"]):
                errors.append(f"{label}: etpl {etpl!r} != summary {row['etpl']}")
            if etpl * L != float(row["sim_speedup"]):
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

    def cell_value(self, ell: int, d: int, segment: int = 0) -> float:
        return float(self.values[segment, self.ells.index(ell), self.ds.index(d)])


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

    Greedy sweeps walk every cell's rounds over each prompt's one greedy
    target path (see :class:`GreedyPath`); the values equal those of a
    session per cell. Sampling sweeps run a session per cell and prompt.
    """
    ells = list(ells)
    ds = list(ds)
    if not ells or not ds:
        raise ValueError("sweep ranges must be non-empty")
    # a bad exit layer or length raises ConfigError before any work is done;
    # the static policy is stateless, so one per cell serves every prompt
    policies = [[make_policy("ls", cfg, exit_layer=ell, gamma=d) for d in ds] for ell in ells]
    # a greedy path steps each position once, and sampling sessions share
    # almost no contexts: no step memo
    model = build_model(model_spec, cfg, memo=False)
    prompts = make_prompts(model, cfg, n_prompts, prompt_len)
    n_seg = 1 if segment_len is None else math.ceil(cfg.max_new_tokens / segment_len)
    per_prompt = np.zeros((len(ells), len(ds), n_seg, n_prompts))
    for i, prompt in enumerate(prompts):
        path = GreedyPath(model, prompt) if cfg.decode_mode == GREEDY else None
        for a, ell in enumerate(ells):
            for b, d in enumerate(ds):
                if path is not None:
                    rounds = path.static_rounds(policies[a][b].plan, cfg)
                else:
                    seed = derive_seed(cfg.seed, "sweep", ell, d, i)
                    res = run_session(model, policies[a][b], cfg, prompt, seed)
                    rounds = [(rec["emitted_len"], rec["layers_loaded"]) for rec in res.records]
                per_prompt[a, b, :, i] = _segment_etpl(rounds, segment_len, n_seg)
    # the mean over the prompts that started a round in the window, NaN when
    # none did (np.nanmean would also warn about the empty slice)
    with np.errstate(invalid="ignore"):
        means = np.nansum(per_prompt, axis=-1) / np.sum(~np.isnan(per_prompt), axis=-1)
    values = np.ascontiguousarray(means.transpose(2, 0, 1))
    return SweepGrid(ells=ells, ds=ds, segment_len=segment_len, values=values)


def _segment_etpl(rounds, segment_len: int | None, n_seg: int) -> np.ndarray:
    """eTPL per window of emitted tokens from a session's per-round
    ``(emitted_len, layers_loaded)``; NaN for a window no round started in."""
    tok = np.zeros(n_seg)
    lay = np.zeros(n_seg)
    emitted_before = 0
    for emitted, layers in rounds:
        seg = 0 if segment_len is None else min(emitted_before // segment_len, n_seg - 1)
        tok[seg] += emitted
        lay[seg] += layers
        emitted_before += emitted
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(lay > 0, tok / np.maximum(lay, 1), np.nan)


class GreedyPath:
    """The target's greedy continuation of one prompt, stepped on demand,
    with every exit layer's agreement with the target along it.

    Greedy speculative decoding is lossless, so every static session on the
    prompt emits this path. A round at path position p with length g drafts
    layer E's shadow tokens: while they agree with the target they are the
    path, and the first disagreement ends acceptance. So the round accepts
    the run of agreements from p, capped at g, and emits one more token;
    nothing drafted after the first mismatch can change the outcome.
    """

    def __init__(self, model, prompt: Sequence[TokenId]):
        self.model = model
        self.context = list(prompt)
        self.prompt_len = len(prompt)
        # row ell - 1 holds 1 where layer ell's shadow token is the target's
        self.agree = [bytearray() for _ in range(model.L - 1)]

    def extend(self, n: int) -> None:
        """Step the path until its first ``n`` positions are known."""
        steps = []
        for _ in range(n - len(self.context) + self.prompt_len):
            step = self.model.step(self.context)
            steps.append(step)
            self.context.append(step.target_token)
        if steps:
            sm = shadow_tokens(steps)
            for row, new in zip(self.agree, sm.tokens == sm.target_tokens):
                row += new.tobytes()

    def static_rounds(self, plan: DraftPlan, cfg: SessionConfig) -> list[tuple[int, int]]:
        """``(emitted_len, layers_loaded)`` of each round of a static-plan
        session, as ``run_session`` would produce them.

        Raises the model's horizon ConfigError when the session would have
        stepped a context past it: a round at position p drafts g tokens and
        verifies up to context length ``prompt_len + p + g``.
        """
        g = min(plan.planned_len, cfg.d_max)
        layers = g * plan.exit_layer + cfg.L
        row = self.agree[plan.exit_layer - 1]
        horizon = self.model.spec.horizon
        rounds = []
        p = 0
        while p < cfg.max_new_tokens:
            n0 = self.prompt_len + p
            if n0 + g > horizon:
                raise horizon_error(max(n0, horizon + 1), horizon)
            accepted = 0
            while accepted < g:
                if p + accepted >= len(row):
                    self.extend(p + g)
                if not row[p + accepted]:
                    break
                accepted += 1
            emitted = min(accepted + 1, cfg.max_new_tokens - p)
            rounds.append((emitted, layers))
            p += emitted
        return rounds


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
    chunk = 250_000
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
        res = run_session(
            model, policy_factory(), cfg, prompt, derive_seed(master_seed, "trial", t), False
        )
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
    and engine seeds so only the decay differs."""
    rows = []
    for omega in omegas:
        cfg_w = cfg.replace(omega=float(omega))
        model = build_model(model_spec, cfg_w)
        prompts = make_prompts(model, cfg_w, n_prompts, prompt_len)
        tokens = 0
        layers = 0
        plan_changes = 0
        for i, prompt in enumerate(prompts):
            policy = make_policy("del", cfg_w)
            res = run_session(model, policy, cfg_w, prompt, derive_seed(cfg.seed, "engine", "del", i))
            tokens += res.ledger.tokens_emitted
            layers += res.ledger.layers_loaded
            es = [rec["E"] for rec in res.records]
            plan_changes += sum(1 for a, b in zip(es, es[1:]) if a != b)
        etpl = tokens / layers
        rows.append(
            {
                "omega": float(omega),
                "etpl": etpl,
                "sim_speedup": etpl * cfg.L,
                "exit_switches": plan_changes,
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

#!/usr/bin/env python3
"""delsim benchmark: host throughput per policy and command, ground-truth
accuracy, and a traced per-module profile.

    python3 bench/run.py --workload policies-greedy --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; delsim is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Details, the output digest and the spans go to ``.bench_out/``. See
bench/README.md for what each metric means.
"""

from __future__ import annotations

import os

# one thread per process: the machine has two cores and the runs must not
# contend with themselves
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 7


def import_delsim() -> None:
    """Import delsim from this checkout's sources, or exit with code 1."""
    sys.path.insert(0, str(SRC))
    try:
        import delsim
    except ImportError as e:
        raise SystemExit(f"bench: cannot import delsim from {SRC}: {e}")
    if Path(delsim.__file__).resolve().parent != SRC / "delsim":
        raise SystemExit(f"bench: delsim was imported from {delsim.__file__}, not from {SRC}")


def measure_setup(workload: str, seed: int, clock) -> float:
    """Median time from starting a fresh process to its first session: the
    interpreter, importing delsim, build_model and make_prompts."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        clock.lap()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(clock.lap())
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise SystemExit(f"bench: set-up probe failed with code {proc.returncode}")
    return statistics.median(times)


def timed_phase(block, seconds: float, res, clock) -> float:
    """Run blocks until ``seconds`` have passed and the exact blocks are done."""
    t0 = time.perf_counter()
    b = 0
    while b < res.exact_blocks or time.perf_counter() - t0 < seconds:
        res.blocks.append(block(b, res, clock))
        b += 1
    return time.perf_counter() - t0


def rate(blocks, units) -> float:
    """Tokens per host second of a group of units: each unit's median tokens
    and median seconds over the blocks, summed over the units (0 if none ran).
    Every session emits a fixed number of tokens, so the medians take out
    the blocks that a burst of machine noise slowed."""
    tokens = seconds = 0.0
    for unit in units:
        runs = [b for b in blocks if b.seconds.get(unit)]
        if runs:
            tokens += statistics.median(b.tokens[unit] for b in runs)
            seconds += statistics.median(b.seconds[unit] for b in runs)
    return tokens / seconds if seconds else 0.0


def simulated(res) -> dict:
    """Simulated (cost-model) per-layer numbers of the exact blocks."""
    rows = [row for by_exit in res.loads.values() for row in by_exit.values()]
    tot = [sum(col) for col in zip(*rows)] if rows else [0] * 6
    rounds, drafted, accepted, draft_layers, verify_layers, tokens = tot
    mean = statistics.fmean
    return {
        "engine.draft.accept_ratio": (accepted / drafted if drafted else 0.0, "ratio", "higher"),
        "engine.rounds_per_token": (rounds / tokens if tokens else 0.0, "rounds/tok", "lower"),
        "engine.layers_per_token.draft": (draft_layers / tokens if tokens else 0.0, "layers/tok", "lower"),
        "engine.layers_per_token.verify": (verify_layers / tokens if tokens else 0.0, "layers/tok", "lower"),
        "controller.alpha_abs_err": (mean(res.alpha_err) if res.alpha_err else 0.0, "abs", "lower"),
        "controller.plan_regret": (mean(res.regret) if res.regret else 0.0, "ratio", "lower"),
        "del_opt_ratio": (res.del_opt_ratio, "ratio", "higher"),
    }


def layer_metrics(prof, res, untraced, units) -> dict:
    """Per-layer metrics: host numbers of the traced phase, simulated numbers
    of its exact blocks, per-policy rates of the untraced phase."""
    blocks = res.blocks
    tokens = sum(b.tokens["block"] + b.ref_tokens for b in blocks)
    rounds = prof.count("engine.run_round")
    records = sum(b.records for b in blocks)
    traced_rate = rate(blocks, units["sim"])
    untraced_rate = rate(untraced.blocks, units["sim"])
    m = {
        "model.step.us": (prof.per_call_us("model.step"), "us", "lower"),
        "model.step.share": (prof.self_total("model.step") / prof.wall, "share", "lower"),
        "model.step.calls_per_token": (prof.count("model.step") / tokens, "calls/tok", "lower"),
        "model.step.bytes": (prof.step_bytes, "B", "lower"),
        "engine.run_round.self_us": (prof.per_call_us("engine.run_round", per=rounds), "us", "lower"),
        "engine.draft.self_us": (prof.per_call_us("engine.draft", per=rounds), "us", "lower"),
        "engine.verify.self_us": (
            prof.per_call_us("engine.verify_greedy", "engine.verify_sampling", per=rounds), "us", "lower"),
        "controller.observe.us": (prof.per_call_us("controller.observe", inclusive=True), "us", "lower"),
        "controller.prefill_init.us": (
            prof.per_call_us("controller.prefill_init", inclusive=True), "us", "lower"),
        "baselines.observe.us": (prof.per_call_us("baselines.observe"), "us", "lower"),
        "harness.run_session.self_us": (prof.per_call_us("harness.run_session"), "us", "lower"),
        "harness.trace_io.us_per_record": (
            prof.per_call_us("harness.write_trace", "harness.write_summary", "harness.write_aggregate",
                             per=records) if records else 0.0, "us", "lower"),
        "harness.trace_io.bytes_per_token": (
            res.io_bytes / res.io_tokens if res.io_tokens else 0.0, "B/tok", "lower"),
        "harness.reference.share": (
            prof.incl_total("harness.vanilla_reference") / prof.wall, "share", "lower"),
        "trace.overhead": (1.0 - traced_rate / untraced_rate, "share", "lower"),
        "trace.accounted_share": (prof.accounted, "share", "higher"),
    }
    for kind, n in prof.step_calls.items():
        if kind != "other":
            m[f"model.step.calls.{kind}"] = (n, "count", "lower")
    for stage in ("shadow_tokens", "round_stats", "push", "estimate_alpha", "update_threshold",
                  "select_plan"):
        m[f"controller.{stage}.us"] = (prof.per_call_us(f"controller.{stage}"), "us", "lower")
    for policy in ("fs", "dv", "del"):
        m[f"tok_per_s.{policy}"] = (rate(untraced.blocks, units.get(policy, [])), "tok/s", "higher")
    m.update(simulated(res))
    return m


def end_to_end(res, units, setup_s: float) -> dict:
    return {
        "sim_tokens_per_s": (rate(res.blocks, units["sim"]), "tok/s", "higher"),
        "tok_per_s.vanilla": (rate(res.blocks, units["vanilla"]), "tok/s", "higher"),
        "tok_per_s.ls": (rate(res.blocks, units["ls"]), "tok/s", "higher"),
        "setup_s": (setup_s, "s", "lower"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", "lower"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    import_delsim()
    import workloads
    from clock import RefClock
    from tracing import BLOCK, CALIBRATE, Profile, Tracer

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"expected one of {', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        workloads.make_workload(args.workload, args.seed, OUT)
        print("ready", flush=True)
        return 0

    clock = RefClock()
    setup_s = measure_setup(args.workload, args.seed, clock) if args.trace == 0 else 0.0
    wl = workloads.make_workload(args.workload, args.seed, OUT)
    res = workloads.Results(wl.exact_blocks)
    wall = timed_phase(wl.block, args.seconds, res, clock)
    phases = [res]
    detail: dict = {}
    if args.trace == 0:
        wl.finish(res)
        metrics = end_to_end(res, wl.units, setup_s)
    else:
        untraced = res
        res = workloads.Results(wl.exact_blocks)
        phases.append(res)
        tracer = Tracer()
        plain_model = getattr(wl, "model", None)
        tracer.install()
        tracer.patch(clock, "calibrate", CALIBRATE)
        try:
            if plain_model is not None:
                wl.model = tracer.model(plain_model)
            wall = timed_phase(tracer.wrap(BLOCK, wl.block), args.seconds, res, clock)
        finally:
            tracer.restore()
            if plain_model is not None:
                wl.model = plain_model
        prof = Profile(tracer, wall, wl.exact_blocks)
        wl.finish(res)
        if res.digest.hexdigest() != untraced.digest.hexdigest():
            res.fail("traced outputs differ from untraced outputs")
        metrics = layer_metrics(prof, res, untraced, wl.units)
        tracer.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        detail = {"spans": prof.table(), "model_step_calls": prof.step_calls}

    attempted = sum(r.attempted for r in phases)
    failed = sum(r.failed for r in phases)
    failures = [f for r in phases for f in r.failures]
    loads = {
        policy: {str(e): dict(zip(workloads.LOAD_FIELDS, row)) for e, row in sorted(by_exit.items())}
        for policy, by_exit in res.loads.items()
    }
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "timed_wall_s": wall,
        "host_speed": {"median": statistics.median(clock.speeds), "min": min(clock.speeds),
                       "max": max(clock.speeds)},
        "blocks": [{"seconds": b.seconds, "tokens": b.tokens, "raw": b.raw} for b in res.blocks],
        "exact_blocks": wl.exact_blocks,
        "digest": res.digest.hexdigest(),
        "metrics": {k: {"value": v, "unit": u, "better": b} for k, (v, u, b) in metrics.items()},
        "sim_layer_loads": loads,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        **detail,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )
    for f in failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} blocks={len(res.blocks)} digest={res.digest.hexdigest()}")
    for k, (v, u, _) in sorted(metrics.items()):
        print(f"  {k:<36} {v:>14.6g} {u}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point binding configs, models, policies, and the harness.

Exit codes: 0 success, 1 usage/config error, 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .config import (
    MAX_D_MAX,
    MAX_V,
    ConfigError,
    SessionConfig,
    as_int,
    derive_seed,
    load_config_file,
    validate_config,
)
from .baselines import make_policy
from .controller import tpl
from .harness import (
    empirical_sd_distribution,
    enumerate_target_distribution,
    expected_tokens_closed_form,
    grid_sweep,
    mc_expected_tokens,
    omega_sweep,
    replay_check,
    run_experiment,
    total_variation,
    write_grid_csv,
    write_omega_csv,
)
from .model import AGREEMENT, LayeredModel, ModelSpec
from .types import InvariantViolation


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors must map to exit code 1, not 2
        raise ConfigError(message)


SESSION_FLAGS = (
    ("--L", int, "layer count L"),
    ("--V", int, "vocabulary size V"),
    ("--d-max", int, "maximum speculation length"),
    ("--omega", float, "decay factor in [0,1]"),
    ("--prefill-window", int, "prompt positions used at initialization"),
    ("--max-new-tokens", int, "generation budget per prompt"),
    ("--decode-mode", str, "greedy or sampling"),
    ("--seed", int, "master 64-bit seed; all randomness derives from it"),
    ("--draft-cap-mode", str, "algorithm1 or plan_capped"),
)

# each policy parameter, the run-section key and flag that set it, and its type
POLICY_PARAMS = (
    ("exit_layer", "exit_layer", int),
    ("gamma", "gamma", int),
    ("target_rate", "dv_target_rate", float),
    ("step", "dv_step", float),
    ("threshold", "dv_threshold", float),
)
RUN_KEYS = {"policy", "policies", "prompts", "prompt_len"} | {key for _, key, _ in POLICY_PARAMS}

# the most output paths (vocab ** horizon) the distribution check enumerates
MAX_ENUMERATED_PATHS = 10**6


def _inputs_parser() -> argparse.ArgumentParser:
    """The flags of every command that runs sessions: the config file, the
    prompt counts, the session and model fields, and the output directory."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", default=None, help="JSON config file (flag > file > default)")
    p.add_argument("--prompts", type=int, default=None)
    p.add_argument("--prompt-len", type=int, default=None)
    for flag, typ, help_text in SESSION_FLAGS:
        p.add_argument(flag, type=typ, default=None, help=help_text)
    p.add_argument("--model-kind", default=None, help="agreement or regime_switching")
    p.add_argument("--profile", default=None,
                   help="comma-separated per-layer agreement rates (last must be 1)")
    p.add_argument("--out", default=None,
                   help="output directory (overrides DELSIM_OUT; default ./results)")
    return p


def build_parser() -> _Parser:
    p = _Parser(prog="delsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)
    inputs = [_inputs_parser()]

    run = sub.add_parser("run", parents=inputs, help="run policies and report eTPL")
    run.add_argument("--policy", default=None,
                     help="vanilla, ls, fs, dv, or del (overrides the file's run.policies)")
    for _, key, typ in POLICY_PARAMS:
        run.add_argument("--" + key.replace("_", "-"), type=typ, default=None)

    sweep = sub.add_parser("sweep", parents=inputs,
                           help="grid-sweep the static policy and emit grid.csv")
    sweep.add_argument("--ell", default=None, help="exit-layer range a..b or comma list")
    sweep.add_argument("--d", default=None, help="speculation-length range a..b or comma list")
    sweep.add_argument("--segment-len", type=int, default=None,
                       help="emit one grid per fixed-length window of emitted tokens")

    oracle = sub.add_parser("oracle", help="check closed forms against independent oracles")
    oracle.add_argument("--alpha", type=float, default=None)
    oracle.add_argument("--d", type=int, default=None)
    oracle.add_argument("--trials", type=int, default=100_000)
    oracle.add_argument("--distribution-check", action="store_true",
                        help="compare SD sampling output against brute-force enumeration")
    oracle.add_argument("--vocab", type=int, default=3)
    oracle.add_argument("--horizon", type=int, default=2)
    oracle.add_argument("--seed", type=int, default=0)

    om = sub.add_parser("omega-sweep", parents=inputs,
                        help="run the dynamic policy across decay factors")
    om.add_argument("--omegas", default="0.5,0.6,0.7,0.8,0.9,0.95,1.0")

    rep = sub.add_parser("replay", help="check the summary against the traces, then re-run "
                                        "the directory's config.json and byte-compare every file")
    rep.add_argument("--dir", required=True, help="output directory of a previous run")

    return p


# -- config assembly ---------------------------------------------------------

def _section(file_cfg: dict, name: str) -> dict:
    """A copy of one section of the config file, which must be an object."""
    sec = file_cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {sec!r}")
    return dict(sec)


def _inputs(args):
    """What ``run``, ``sweep`` and ``omega-sweep`` share: the config file's
    run section, the session, the model spec, the prompt count and length,
    and the output directory (``--out`` > DELSIM_OUT > ./results)."""
    file_cfg = load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - {"session", "model", "run"}
    if unknown:
        raise ConfigError(f"unknown config section(s): {sorted(unknown)}")
    run_cfg = _section(file_cfg, "run")
    if not RUN_KEYS.issuperset(run_cfg):
        raise ConfigError(f"unknown run field(s): {sorted(set(run_cfg) - RUN_KEYS)}")
    if {"policy", "policies"} <= set(run_cfg):
        raise ConfigError("run.policy and run.policies are both given; keep one")
    n = as_int(run_cfg.get("prompts", 50), "run.prompts") if args.prompts is None else args.prompts
    plen = (as_int(run_cfg.get("prompt_len", 32), "run.prompt_len") if args.prompt_len is None
            else args.prompt_len)
    if n < 1:
        raise ConfigError(f"prompts must be >= 1, got {n}")
    if plen < 1:
        raise ConfigError(f"prompt_len must be >= 1, got {plen}")
    cfg, spec = _session_from(args, file_cfg), _model_from(args, file_cfg)
    if plen > spec.horizon >= 1:
        # no step of a longer prompt is inside the horizon
        raise ConfigError(f"prompt_len must be at most model.horizon ({spec.horizon}), got {plen}")
    out = Path(args.out or os.environ.get("DELSIM_OUT") or "results")
    return run_cfg, cfg, spec, n, plen, out


def _session_from(args, file_cfg: dict) -> SessionConfig:
    merged = _section(file_cfg, "session")
    for flag, _typ, _h in SESSION_FLAGS:
        name = flag.lstrip("-").replace("-", "_")
        val = getattr(args, name)
        if val is not None:
            merged[name] = val
    for required in ("L", "V"):
        if required not in merged:
            raise ConfigError(f"session.{required} is required (flag or config file)")
    return SessionConfig.from_dict(merged)


def _model_from(args, file_cfg: dict) -> ModelSpec:
    merged = _section(file_cfg, "model")
    if args.model_kind:
        merged["kind"] = args.model_kind
    if args.profile:
        merged["agreement_profile"] = _parse_list(args.profile, float, "--profile")
    if "kind" not in merged:
        raise ConfigError("model.kind is required (flag --model-kind or config file)")
    return ModelSpec.from_dict(merged)


def _policy_specs(args, run_cfg: dict, cfg: SessionConfig) -> list[tuple[str, dict]]:
    """The (name, params) pairs to run: ``--policy`` or ``run.policy`` with
    the parameter flags and keys (a flag overrides its key), else the
    ``run.policies`` list that ``config.json`` echoes, checked up front."""
    params = {}
    for param, key, _typ in POLICY_PARAMS:
        val = getattr(args, key)
        if val is None:
            val = run_cfg.get(key)
        if val is not None:
            params[param] = val
    if args.policy or "policies" not in run_cfg:
        name = args.policy or run_cfg.get("policy")
        if not name:
            raise ConfigError("run.policy or run.policies is required (--policy or config file)")
        return [(name, params)]
    if params:
        raise ConfigError(f"run.policies gives each policy its parameters; "
                          f"{sorted(params)} need --policy")
    entries = run_cfg["policies"]
    if not isinstance(entries, list) or not entries:
        raise ConfigError(f"run.policies must list one or more [name, params], got {entries!r}")
    specs: list[tuple[str, dict]] = []
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                and isinstance(entry[1], dict)):
            raise ConfigError(f"run.policies[{i}] must be a [name, params] pair, got {entry!r}")
        if any(entry[0] == name for name, _ in specs):
            # one trace file per policy and prompt: a second entry would overwrite the first's
            raise ConfigError(f"run.policies[{i}] repeats policy {entry[0]!r}")
        try:
            make_policy(entry[0], cfg, **entry[1])
        except ConfigError as e:
            raise ConfigError(f"run.policies[{i}]: {e}") from e
        specs.append((entry[0], entry[1]))
    return specs


def _parse_list(text: str, typ, field: str) -> list:
    try:
        return [typ(x) for x in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"bad {field} list {text!r}: {e}") from e


def _parse_range(text: str | None, field: str, lo: int, hi: int) -> list[int]:
    """The ints a range (``a..b``) or comma list names, each in [lo, hi]; a
    range's ends are checked before it is expanded."""
    if not text:
        raise ConfigError(f"{field} range is required (e.g. 1..8 or 0,2,4)")
    try:
        if ".." in text:
            a, b = text.split("..")
            ends = [int(a), int(b)]
        else:
            ends = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad {field} range {text!r}: {e}") from e
    if any(not lo <= v <= hi for v in ends):
        raise ConfigError(f"{field} values must lie in [{lo}, {hi}]")
    values = list(range(ends[0], ends[1] + 1)) if ".." in text else ends
    if not values:
        raise ConfigError(f"{field} range is empty: {text!r}")
    return values


# -- subcommands ---------------------------------------------------------------

def cmd_run(args) -> int:
    run_cfg, cfg, spec, n_prompts, prompt_len, out = _inputs(args)
    policies = _policy_specs(args, run_cfg, cfg)
    reports = run_experiment(spec, cfg, policies, n_prompts, prompt_len, out)
    # reports come in (policy, prompt) order
    for k, (name, _params) in enumerate(policies):
        runs = reports[k * n_prompts:(k + 1) * n_prompts]
        mean = sum(r.etpl for r in runs) / len(runs)
        print(f"policy={name} runs={len(runs)} mean_etpl={mean:.6f} "
              f"mean_sim_speedup={mean * cfg.L:.4f}")
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_sweep(args) -> int:
    _run_cfg, cfg, spec, n_prompts, prompt_len, out = _inputs(args)
    ells = _parse_range(args.ell, "--ell", 1, cfg.L - 1)
    ds = _parse_range(args.d, "--d", 0, cfg.d_max)
    grid = grid_sweep(spec, cfg, ells, ds, n_prompts, prompt_len, args.segment_len)
    out.mkdir(parents=True, exist_ok=True)
    write_grid_csv(grid, out / "grid.csv")
    for seg in range(grid.segments):
        where = "first segment" if args.segment_len is None else f"segment {seg}"
        if np.isnan(grid.values[seg]).all():
            print(f"best cell ({where}): none, no round started in this segment")
            continue
        ell, d, val = grid.best_cell(seg)
        print(f"best cell ({where}): exit_layer={ell} gamma={d} etpl={val:.6f}")
    print(f"wrote {out / 'grid.csv'}")
    return 0


def _oracle_distribution_check(args) -> int:
    V = args.vocab
    if not 2 <= V <= MAX_V:
        raise ConfigError(f"--vocab must be in [2, {MAX_V}], got {V}")
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
    # by repeated multiplication, so that a huge horizon is not a huge power
    paths = 1
    for _ in range(args.horizon):
        paths *= V
        if paths > MAX_ENUMERATED_PATHS:
            raise ConfigError(f"--horizon {args.horizon} at --vocab {V} enumerates more than "
                              f"{MAX_ENUMERATED_PATHS} paths (vocab ** horizon)")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    L = 4
    cfg = validate_config(SessionConfig(
        L=L, V=V, d_max=4, max_new_tokens=args.horizon,
        decode_mode="sampling", seed=args.seed, prefill_window=4,
    ))
    spec = ModelSpec(kind=AGREEMENT, agreement_profile=(0.5, 0.75, 0.9, 1.0))
    # room for every context a session from a one-token prompt can step
    memo = min(V ** (args.horizon + cfg.d_max), 1_000_000)
    model = LayeredModel(spec, L, V, derive_seed(args.seed, "model"), memo)
    prompt = [0]
    exact = enumerate_target_distribution(model, prompt, args.horizon)

    counts = empirical_sd_distribution(
        model, lambda: make_policy("ls", cfg, exit_layer=1, gamma=min(2, cfg.d_max)),
        cfg, prompt, args.trials, args.seed,
    )
    tv = total_variation(counts, exact, args.trials)
    ok = tv < 0.02
    print(f"distribution-check vocab={V} horizon={args.horizon} trials={args.trials} "
          f"tv_distance={tv:.5f} tolerance=0.02 {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


def cmd_oracle(args) -> int:
    # one rule for both checks: the seed keys 64-bit streams
    if not 0 <= args.seed < 2**64:
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    if args.distribution_check:
        return _oracle_distribution_check(args)
    if args.alpha is None or args.d is None:
        raise ConfigError("--alpha and --d are required (or use --distribution-check)")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if not 0.0 <= args.alpha <= 1.0:
        raise ConfigError(f"--alpha out of [0,1]: {args.alpha}")
    if not 0 <= args.d <= MAX_D_MAX:
        raise ConfigError(f"--d must be in [0, {MAX_D_MAX}], got {args.d}")
    mc = mc_expected_tokens(args.alpha, args.d, args.trials, args.seed)
    closed = expected_tokens_closed_form(args.alpha, args.d)
    rel = abs(mc - closed) / closed
    ok = rel < 0.01
    print(f"alpha={args.alpha} d={args.d} trials={args.trials} "
          f"mc={mc:.6f} closed_form={closed:.6f} rel_err={rel:.5f} {'PASS' if ok else 'FAIL'}")
    # anchor: the per-layer objective at the same alpha, for reference
    print(f"tpl(alpha={args.alpha}, ell=8, d={args.d}, L=32) = "
          f"{tpl(args.alpha, 8, args.d, 32):.6f}")
    return 0 if ok else 2


def cmd_omega_sweep(args) -> int:
    _run_cfg, cfg, spec, n_prompts, prompt_len, out = _inputs(args)
    try:
        omegas = [float(x) for x in args.omegas.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad --omegas list: {e}") from e
    if not omegas or any(not 0.0 <= w <= 1.0 for w in omegas):
        raise ConfigError("--omegas must be a non-empty list of values in [0,1]")
    rows = omega_sweep(spec, cfg, omegas, n_prompts, prompt_len)
    out.mkdir(parents=True, exist_ok=True)
    write_omega_csv(rows, out / "omega.csv")
    for r in rows:
        print(f"omega={r['omega']:.2f} etpl={r['etpl']:.6f} "
              f"sim_speedup={r['sim_speedup']:.4f} exit_switches={r['exit_switches']}")
    speeds = [r["sim_speedup"] for r in rows]
    print(f"spread: {(max(speeds) - min(speeds)) / max(speeds) * 100:.2f}% of max")
    print(f"wrote {out / 'omega.csv'}")
    return 0


def _rerun_mismatches(out: Path) -> list[str]:
    """Re-run ``out/config.json`` as ``delsim run --config`` does, into a
    temporary directory, and name each file the two trees do not share byte
    for byte, with the first line that differs. A config the re-run rejects
    is a mismatch naming it."""
    config = out / "config.json"
    with tempfile.TemporaryDirectory() as tmp:
        args = build_parser().parse_args(["run", f"--config={config}", f"--out={tmp}"])
        try:
            run_cfg, cfg, spec, n_prompts, prompt_len, rerun = _inputs(args)
            policies = _policy_specs(args, run_cfg, cfg)
            run_experiment(spec, cfg, policies, n_prompts, prompt_len, rerun)
        except ConfigError as e:
            return [f"{config}: the re-run rejects it: {e}"]
        trees = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
                 for root in (out, rerun)]
        errors = []
        for rel in sorted(trees[0] | trees[1]):
            if rel not in trees[1]:
                errors.append(f"{out / rel}: the re-run writes no such file")
            elif rel not in trees[0]:
                errors.append(f"{out / rel}: missing; the re-run writes it")
            else:
                # split at each newline, so that equal lines mean equal bytes
                lines = zip_longest(*((root / rel).read_bytes().split(b"\n")
                                      for root in (out, rerun)))
                diff = next(((i, a, b) for i, (a, b) in enumerate(lines, 1) if a != b), None)
                if diff is not None:
                    errors.append("{} line {}: {!r} != re-run {!r}".format(out / rel, *diff))
        return errors


def cmd_replay(args) -> int:
    out = Path(args.dir)
    if not out.is_dir():
        raise ConfigError(f"--dir {args.dir} is not a directory")
    errors = replay_check(out) or _rerun_mismatches(out)
    if errors:
        for e in errors:
            print(f"replay mismatch: {e}", file=sys.stderr)
        raise InvariantViolation(f"{len(errors)} replay mismatch(es) in {args.dir}")
    print(f"replay OK: {args.dir}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "run": cmd_run,
            "sweep": cmd_sweep,
            "oracle": cmd_oracle,
            "omega-sweep": cmd_omega_sweep,
            "replay": cmd_replay,
        }[args.command]
        return handler(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InvariantViolation as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 2
    except SystemExit as e:  # argparse --help
        return int(e.code or 0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()

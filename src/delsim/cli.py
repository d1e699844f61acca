"""Command-line entry point binding configs, models, policies, and the harness.

Exit codes: 0 success, 1 usage/config error, 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import (
    ConfigError,
    SessionConfig,
    as_int,
    derive_seed,
    load_config_file,
    validate_config,
)
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
    ("--alpha-clamp-eps", float, "lower clamp for acceptance estimates"),
    ("--default-threshold", float, "threshold used before any signal exists"),
)


def _add_session_flags(p: argparse.ArgumentParser) -> None:
    for flag, typ, help_text in SESSION_FLAGS:
        p.add_argument(flag, type=typ, default=None, help=help_text)


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model-kind", default=None,
                   help="agreement, regime_switching, or deterministic_toy")
    p.add_argument("--profile", default=None,
                   help="comma-separated per-layer agreement rates (last must be 1)")
    p.add_argument("--toy-map", default=None,
                   help="comma-separated next-token table for deterministic_toy")


def _add_out_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None,
                   help="output directory (overrides DELSIM_OUT; default ./results)")


def build_parser() -> _Parser:
    p = _Parser(prog="delsim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", parents=[], help="run policies and report eTPL")
    run.add_argument("--config", default=None, help="JSON config file (flag > file > default)")
    run.add_argument("--policy", default=None, help="vanilla, ls, fs, dv, or del")
    run.add_argument("--exit-layer", type=int, default=None)
    run.add_argument("--gamma", type=int, default=None)
    run.add_argument("--dv-target-rate", type=float, default=None)
    run.add_argument("--dv-step", type=float, default=None)
    run.add_argument("--dv-threshold", type=float, default=None)
    run.add_argument("--del-per-layer-window", action="store_true", default=None,
                     help="study variant: window each layer by its own first mismatch")
    run.add_argument("--prompts", type=int, default=None)
    run.add_argument("--prompt-len", type=int, default=None)
    _add_session_flags(run)
    _add_model_flags(run)
    _add_out_flag(run)

    sweep = sub.add_parser("sweep", help="grid-sweep the static policy and emit grid.csv")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--ell", default=None, help="exit-layer range a..b or comma list")
    sweep.add_argument("--d", default=None, help="speculation-length range a..b or comma list")
    sweep.add_argument("--segment-len", type=int, default=None,
                       help="emit one grid per fixed-length window of emitted tokens")
    sweep.add_argument("--prompts", type=int, default=None)
    sweep.add_argument("--prompt-len", type=int, default=None)
    _add_session_flags(sweep)
    _add_model_flags(sweep)
    _add_out_flag(sweep)

    oracle = sub.add_parser("oracle", help="check closed forms against independent oracles")
    oracle.add_argument("--alpha", type=float, default=None)
    oracle.add_argument("--d", type=int, default=None)
    oracle.add_argument("--trials", type=int, default=100_000)
    oracle.add_argument("--distribution-check", action="store_true",
                        help="compare SD sampling output against brute-force enumeration")
    oracle.add_argument("--vocab", type=int, default=3)
    oracle.add_argument("--horizon", type=int, default=2)
    oracle.add_argument("--seed", type=int, default=0)

    om = sub.add_parser("omega-sweep", help="run the dynamic policy across decay factors")
    om.add_argument("--config", default=None)
    om.add_argument("--omegas", default="0.5,0.6,0.7,0.8,0.9,0.95,1.0")
    om.add_argument("--prompts", type=int, default=None)
    om.add_argument("--prompt-len", type=int, default=None)
    _add_session_flags(om)
    _add_model_flags(om)
    _add_out_flag(om)

    rep = sub.add_parser("replay", help="recompute eTPL from traces and verify the summary")
    rep.add_argument("--dir", required=True, help="output directory of a previous run")

    return p


# -- config assembly ---------------------------------------------------------

def _resolve_out(args) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    env = os.environ.get("DELSIM_OUT")
    return Path(env) if env else Path("results")


def _section(file_cfg: dict, name: str) -> dict:
    """A copy of one section of the config file, which must be an object."""
    sec = file_cfg.get(name, {})
    if not isinstance(sec, dict):
        raise ConfigError(f"{name} must be a JSON object, got {sec!r}")
    return dict(sec)


def _session_from(args, file_cfg: dict) -> SessionConfig:
    merged = _section(file_cfg, "session")
    for flag, _typ, _h in SESSION_FLAGS:
        name = flag.lstrip("-").replace("-", "_")
        val = getattr(args, name, None)
        if val is not None:
            merged[name] = val
    for required in ("L", "V"):
        if required not in merged:
            raise ConfigError(f"session.{required} is required (flag or config file)")
    return SessionConfig.from_dict(merged)


def _model_from(args, file_cfg: dict) -> ModelSpec:
    merged = _section(file_cfg, "model")
    if getattr(args, "model_kind", None):
        merged["kind"] = args.model_kind
    if getattr(args, "profile", None):
        merged["agreement_profile"] = _parse_list(args.profile, float, "--profile")
    if getattr(args, "toy_map", None):
        merged["base_process"] = {"kind": "next_map",
                                  "map": _parse_list(args.toy_map, int, "--toy-map")}
    if "kind" not in merged:
        raise ConfigError("model.kind is required (flag --model-kind or config file)")
    return ModelSpec.from_dict(merged)


def _policy_spec_from(args, file_cfg: dict) -> tuple[str, dict]:
    run_cfg = _section(file_cfg, "run")
    name = args.policy or run_cfg.get("policy")
    if not name:
        raise ConfigError("run.policy is required (flag --policy or config file)")
    params: dict = {}
    # params are keyed by their flag name in the config file's run section too
    for param, flag in (
        ("exit_layer", "exit_layer"),
        ("gamma", "gamma"),
        ("target_rate", "dv_target_rate"),
        ("step", "dv_step"),
        ("threshold", "dv_threshold"),
        ("per_layer_window", "del_per_layer_window"),
    ):
        val = getattr(args, flag, None)
        if val is None:
            val = run_cfg.get(flag)
        if val is not None:
            params[param] = val
    return name, params


def _run_int(flag_val, run_cfg: dict, key: str, default: int) -> int:
    if flag_val is not None:
        return flag_val
    return as_int(run_cfg.get(key, default), f"run.{key}")


def _run_counts(args, file_cfg: dict) -> tuple[int, int]:
    run_cfg = _section(file_cfg, "run")
    n = _run_int(args.prompts, run_cfg, "prompts", 50)
    plen = _run_int(args.prompt_len, run_cfg, "prompt_len", 32)
    if n < 1:
        raise ConfigError(f"prompts must be >= 1, got {n}")
    if plen < 1:
        raise ConfigError(f"prompt_len must be >= 1, got {plen}")
    return n, plen


def _parse_list(text: str, typ, field: str) -> list:
    try:
        return [typ(x) for x in text.split(",")]
    except ValueError as e:
        raise ConfigError(f"bad {field} list {text!r}: {e}") from e


def _parse_range(text: str | None, field: str) -> list[int]:
    if not text:
        raise ConfigError(f"{field} range is required (e.g. 1..8 or 0,2,4)")
    try:
        if ".." in text:
            a, b = text.split("..")
            values = list(range(int(a), int(b) + 1))
        else:
            values = [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad {field} range {text!r}: {e}") from e
    if not values:
        raise ConfigError(f"{field} range is empty: {text!r}")
    return values


# -- subcommands ---------------------------------------------------------------

def cmd_run(args) -> int:
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = _session_from(args, file_cfg)
    spec = _model_from(args, file_cfg)
    policy = _policy_spec_from(args, file_cfg)
    n_prompts, prompt_len = _run_counts(args, file_cfg)
    out = _resolve_out(args)
    reports = run_experiment(spec, cfg, [policy], n_prompts, prompt_len, out)
    mean = sum(r.etpl for r in reports) / len(reports)
    print(f"policy={policy[0]} runs={len(reports)} mean_etpl={mean:.6f} "
          f"mean_sim_speedup={mean * cfg.L:.4f}")
    print(f"wrote {out / 'summary.csv'}")
    return 0


def cmd_sweep(args) -> int:
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = _session_from(args, file_cfg)
    spec = _model_from(args, file_cfg)
    n_prompts, prompt_len = _run_counts(args, file_cfg)
    ells = _parse_range(args.ell, "--ell")
    ds = _parse_range(args.d, "--d")
    if any(not 1 <= e < cfg.L for e in ells):
        raise ConfigError(f"--ell values must lie in [1, {cfg.L})")
    if any(not 0 <= d <= cfg.d_max for d in ds):
        raise ConfigError(f"--d values must lie in [0, {cfg.d_max}]")
    if args.segment_len is not None and args.segment_len < 1:
        raise ConfigError(f"--segment-len must be >= 1, got {args.segment_len}")
    out = _resolve_out(args)
    grid = grid_sweep(spec, cfg, ells, ds, n_prompts, prompt_len, args.segment_len)
    out.mkdir(parents=True, exist_ok=True)
    write_grid_csv(grid, out / "grid.csv")
    ell, d, val = grid.best_cell()
    print(f"best cell (first segment): exit_layer={ell} gamma={d} etpl={val:.6f}")
    print(f"wrote {out / 'grid.csv'}")
    return 0


def _oracle_distribution_check(args) -> int:
    V = args.vocab
    if V < 2:
        raise ConfigError(f"--vocab must be >= 2, got {V}")
    if args.horizon < 1:
        raise ConfigError(f"--horizon must be >= 1, got {args.horizon}")
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

    from .baselines import make_policy
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
    if args.distribution_check:
        return _oracle_distribution_check(args)
    if args.alpha is None or args.d is None:
        raise ConfigError("--alpha and --d are required (or use --distribution-check)")
    if args.trials < 1:
        raise ConfigError(f"--trials must be >= 1, got {args.trials}")
    if not 0.0 <= args.alpha <= 1.0:
        raise ConfigError(f"--alpha out of [0,1]: {args.alpha}")
    if args.d < 0:
        raise ConfigError(f"--d must be >= 0, got {args.d}")
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
    file_cfg = load_config_file(args.config) if args.config else {}
    cfg = _session_from(args, file_cfg)
    spec = _model_from(args, file_cfg)
    n_prompts, prompt_len = _run_counts(args, file_cfg)
    try:
        omegas = [float(x) for x in args.omegas.split(",") if x.strip() != ""]
    except ValueError as e:
        raise ConfigError(f"bad --omegas list: {e}") from e
    if not omegas or any(not 0.0 <= w <= 1.0 for w in omegas):
        raise ConfigError("--omegas must be a non-empty list of values in [0,1]")
    out = _resolve_out(args)
    rows = omega_sweep(spec, cfg, omegas, n_prompts, prompt_len)
    out.mkdir(parents=True, exist_ok=True)
    write_omega_csv(rows, out / "omega.csv")
    for r in rows:
        print(f"omega={r['omega']:.2f} etpl={r['etpl']:.6f} "
              f"sim_speedup={r['sim_speedup']:.4f} exit_switches={r['exit_switches']}")
    print(f"wrote {out / 'omega.csv'}")
    return 0


def cmd_replay(args) -> int:
    errors = replay_check(args.dir)
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

"""Command-line experiment runner.

Subcommands:
  run     execute one configured experiment and write its artifacts
  sweep   run one experiment per value of a numeric config field
  audit   re-check a stored trajectory against its config
  report  render a plain-text summary table from a JSON report

Exit codes: 0 all audits pass, 1 usage, config or I/O error, 2 at least one
audit failure, 3 hypothesis-not-met outcomes without failures.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._util import read_json
from .config import load_config, read_config
from .errors import ConfigError, GraphmannError
from .experiment import audit_stored, run_experiment, run_sweep


def _parse_values(raw: str) -> list[float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--values must be comma-separated numbers: {exc}") from exc


def _audit_table(audits: dict) -> list[str]:
    header = f"{'auditor':<20} {'status':<20} {'trials':>8} {'failures':>9}"
    return [header, "-" * len(header)] + [
        f"{name:<20} {entry['status']:<20} {entry['trials']:>8} {entry['failures']:>9}"
        for name, entry in audits.items()
    ]


def _cmd_run(args) -> int:
    config = load_config(args.config)
    result = run_experiment(config, out_dir=args.out, seed=args.seed)
    if not args.quiet:
        traj = result.trajectory
        print(
            f"run: {traj.n_iterates} iterates, stop={traj.stop_reason}, "
            f"final residual {traj.final_residual:.3e}"
        )
        print("\n".join(_audit_table(result.audits)))
        print(f"artifacts in {result.out_dir}")
    return result.exit_code


def _cmd_sweep(args) -> int:
    data = read_config(args.config)
    values = _parse_values(args.values)
    code, rows = run_sweep(data, args.axis, values, out_dir=args.out, seed=args.seed)
    if not args.quiet:
        for row in rows:
            print(
                f"{args.axis}={row['value']:g}: residual {row['final_residual']:.3e} "
                f"in {row['iterations']} iterates, "
                f"{'pass' if row['all_audits_pass'] else 'FLAGGED'}"
            )
    return code


def _cmd_audit(args) -> int:
    config = load_config(args.config)
    code, audits = audit_stored(args.trajectory, config, out_dir=args.out)
    if not args.quiet:
        print("\n".join(_audit_table(audits)))
    return code


def _cmd_report(args) -> int:
    path = Path(args.input)
    try:
        data = read_json(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a JSON report")
    if "audits" not in data and "trajectory" not in data:
        raise ConfigError(f"{path} contains neither an audit nor a run record")
    # a malformed report fails here, before any line is printed
    try:
        if "audits" in data:
            keys = ("stop_reason", "iterations", "final_residual", "exit_code")
            lines = [f"{key}: {data[key]}" for key in keys if key in data]
            lines += _audit_table(data["audits"])
        else:
            traj = data["trajectory"]
            residuals = traj.get("residuals", [])
            final = residuals[-1] if len(residuals) else float("nan")
            lines = [
                f"stop_reason: {traj.get('stop_reason')}",
                f"iterates: {len(residuals)}",
                f"final residual: {final:.6e}",
            ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not a well-formed report: {exc!r}") from exc
    print("\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphmann",
        description="Mann-iteration experiments with order-theoretic audits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("--config", required=True, help="experiment config (JSON)")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed", type=int, default=None, help="seed override")
    run_p.add_argument("--quiet", action="store_true")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="sweep a numeric config field")
    sweep_p.add_argument("--config", required=True)
    sweep_p.add_argument("--axis", required=True, help="dotted field, e.g. schedule.t")
    sweep_p.add_argument("--values", required=True, help="comma-separated numbers")
    sweep_p.add_argument("--out", default=None)
    sweep_p.add_argument("--seed", type=int, default=None)
    sweep_p.add_argument("--quiet", action="store_true")
    sweep_p.set_defaults(func=_cmd_sweep)

    audit_p = sub.add_parser("audit", help="re-audit a stored trajectory")
    audit_p.add_argument("trajectory", help="trajectory file (run.json or CSV)")
    audit_p.add_argument("--config", required=True)
    audit_p.add_argument("--out", default=None, help="write audits.json here")
    audit_p.add_argument("--quiet", action="store_true")
    audit_p.set_defaults(func=_cmd_audit)

    report_p = sub.add_parser("report", help="summarize a JSON report")
    report_p.add_argument("input", help="audits.json or run.json")
    report_p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage and its message (or the help); a
        # usage error exits 1, since 2 means an audit failed
        return 1 if exc.code else 0
    try:
        return args.func(args)
    except (ConfigError, GraphmannError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())

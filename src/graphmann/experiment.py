"""Experiment pipeline: build, run, audit, and write reports.

One experiment produces up to three artifacts in its output directory:
`trajectory.csv` (per-iterate table), `run.json` (full trajectory record
with the config echoed), and `audits.json` (per-auditor status).  The
auditors read the run's own iterates while the loop produces them, so a run
is computed once and never replayed, and it keeps in memory only the
iterates its `record_stride` records plus the audit blocks still pending.
The audit of a stored decimated record replays it gap by gap into the same
blocks.  Sweeps run one experiment per axis value, in the given order, keep
one summary row per value and aggregate a summary CSV.  Identical config
and seed give byte-identical files.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._util import dumps_indent2, fmt17
from .config import (
    ExperimentConfig,
    build_body,
    build_operator,
    build_relation,
    build_schedule,
    build_space,
    build_start,
)
from .diagnostics import AuditPass, exit_code_from_audits, run_audits, write_gk_records_csv
from .errors import ConfigError
from .mann import (
    STOP_MAX_ITER,
    STOP_TOLERANCE,
    Trajectory,
    read_trajectory_csv,
    run,
    trajectory_from_dict,
    trajectory_to_dict,
    write_trajectory_csv,
)
from .normed_space import diameter

RUN_SCHEMA_VERSION = 1


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    trajectory: Trajectory
    audits: dict[str, dict]
    exit_code: int
    out_dir: Path | None


def _write_outputs(
    out_dir: Path, config: ExperimentConfig, traj: Trajectory, audits: dict
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.output.formats:
        write_trajectory_csv(traj, out_dir / "trajectory.csv")
        gk_records = audits.get("gk_inequality", {}).get("records")
        if gk_records:
            write_gk_records_csv(gk_records, out_dir / "gk_records.csv")
    if "json" in config.output.formats:
        record = {
            "schema_version": RUN_SCHEMA_VERSION,
            "config": config.to_dict(),
            "trajectory": trajectory_to_dict(traj),
        }
        (out_dir / "run.json").write_text(dumps_indent2(record) + "\n")
    report = {
        "schema_version": RUN_SCHEMA_VERSION,
        "stop_reason": traj.stop_reason,
        "iterations": traj.n_iterates,
        "final_residual": traj.final_residual,
        "exit_code": exit_code_from_audits(audits),
        "audits": audits,
    }
    (out_dir / "audits.json").write_text(dumps_indent2(report) + "\n")


def _build(config: ExperimentConfig):
    """The space, relation, operator, schedule and domain diameter of a config."""
    space = build_space(config)
    body = build_body(config, space)
    rel = build_relation(config, space)
    operator = build_operator(config, space, body)
    return space, rel, operator, build_schedule(config), diameter(space, body)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    write: bool = True,
) -> ExperimentResult:
    """Execute one configured experiment end to end.

    The loop runs at the configured `record_stride` and streams every
    iterate into the audit's pass (`AuditPass`) as it goes, so the auditors
    read all N iterates while the record written (and returned) keeps only
    the recorded ones, and no (N, d) history is ever held.
    """
    seed = config.seed if seed is None else int(seed)
    space, rel, operator, schedule, diam = _build(config)
    rng = np.random.default_rng([seed, 1])
    x1 = build_start(config, operator, rel, rng)
    audit = AuditPass(config.audits, operator, rel, space)
    traj = run(
        operator,
        x1,
        schedule,
        max_iter=config.run.max_iter,
        tol=config.run.tol,
        rel=rel,
        record_stride=config.run.record_stride,
        relation_ref=config.relation.kind,
        audit=audit,
    )
    audits = run_audits(
        config.audits,
        traj,
        operator,
        rel,
        space,
        schedule,
        diam=diam,
        seed=seed,
        audit=audit,
    )
    code = exit_code_from_audits(audits)
    target = Path(out_dir) if out_dir is not None else Path(config.output.directory)
    if write:
        _write_outputs(target, config, traj, audits)
    return ExperimentResult(config, traj, audits, code, target if write else None)


# --- stored-trajectory audit --------------------------------------------------

def load_stored_trajectory(path: str | Path, config: ExperimentConfig) -> Trajectory:
    """Read a trajectory export (run.json or full-history CSV).

    CSV exports carry no stop reason, so it is inferred from the final
    residual against the configured tolerance.
    """
    path = Path(path)
    if path.suffix == ".json":
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read trajectory {path}: {exc}") from exc
        record = data.get("trajectory", data) if isinstance(data, dict) else None
        if not isinstance(record, dict):
            raise ConfigError(f"{path} does not contain a trajectory record")
        traj = trajectory_from_dict(record)
    else:
        traj = read_trajectory_csv(path)
        traj.stop_reason = (
            STOP_TOLERANCE if traj.final_residual <= config.run.tol else STOP_MAX_ITER
        )
    if traj.dimension != config.space.dimension:
        raise ConfigError(
            f"trajectory dimension {traj.dimension} does not match the config"
        )
    return traj


def audit_stored(
    trajectory_path: str | Path,
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> tuple[int, dict]:
    """Re-run the trajectory consistency check plus all configured auditors
    on a stored trajectory.

    A decimated record is replayed gap by gap into the audit's blocks as the
    auditors read them (`run_audits`), so the audit never holds all N
    iterates.  The report written to `out_dir` names its source by file name only, so
    it does not depend on the directory the trajectory was read from.
    """
    space, rel, operator, schedule, diam = _build(config)
    traj = load_stored_trajectory(trajectory_path, config)
    names = ["trajectory"] + [a for a in config.audits if a != "trajectory"]
    audits = run_audits(
        names,
        traj,
        operator,
        rel,
        space,
        schedule,
        diam=diam,
        seed=config.seed,
    )
    code = exit_code_from_audits(audits)
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        report = {
            "schema_version": RUN_SCHEMA_VERSION,
            "source": Path(trajectory_path).name,
            "exit_code": code,
            "audits": audits,
        }
        (out / "audits.json").write_text(dumps_indent2(report) + "\n")
    return code, audits


# --- sweeps -------------------------------------------------------------------

def set_config_value(data: dict, axis: str, value: float) -> dict:
    """Return a copy of the raw config dict with the dotted `axis` replaced."""
    parts = axis.split(".")
    out = json.loads(json.dumps(data))
    node = out
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        node = node[part]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    old = node[leaf]
    if not isinstance(old, (int, float)) or isinstance(old, bool):
        raise ConfigError(f"sweep axis {axis!r} is not numeric")
    if isinstance(old, int) and float(value).is_integer():
        node[leaf] = int(value)
    else:
        node[leaf] = float(value)
    return out


def _summary(value: float, res: ExperimentResult) -> tuple[dict, int]:
    """A sweep's summary row for one value, and the experiment's exit code."""
    row = {
        "value": value,
        "final_residual": res.trajectory.final_residual,
        "iterations": res.trajectory.n_iterates,
        "all_audits_pass": res.exit_code == 0,
    }
    return row, res.exit_code


def run_sweep(
    config_data: dict,
    axis: str,
    values: list[float],
    out_dir: str | Path | None = None,
    seed: int | None = None,
) -> tuple[int, list[dict]]:
    """Run one experiment per axis value, in order; aggregate a summary.

    Each value writes to its own subdirectory `<axis>=<value:g>`; values
    that share a directory name (duplicates, or values equal to six
    significant digits) are a ConfigError, raised before any run.  The
    summary CSV has one row per value (in the given order): value,
    final_residual, iterations, all_audits_pass.  The exit code follows the
    single-run contract over the aggregate.  Only each value's summary row
    and exit code outlive its experiment, so the sweep holds one record at a
    time.
    """
    if not values:
        raise ConfigError("sweep needs a nonempty list of values")
    names = [f"{axis.replace('.', '_')}={value:g}" for value in values]
    first_value: dict[str, float] = {}
    for value, name in zip(values, names):
        if name in first_value:
            raise ConfigError(
                f"sweep values {first_value[name]!r} and {value!r} "
                f"share the output directory {name}"
            )
        first_value[name] = value
    base = ExperimentConfig.from_dict(config_data)
    root = Path(out_dir) if out_dir is not None else Path(base.output.directory)
    configs = []
    for value in values:
        data = set_config_value(config_data, axis, value)
        configs.append(ExperimentConfig.from_dict(data))
    rows, codes = [], []
    for value, config, name in zip(values, configs, names):
        row, code = _summary(value, run_experiment(config, out_dir=root / name, seed=seed))
        rows.append(row)
        codes.append(code)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "sweep_summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["value", "final_residual", "iterations", "all_audits_pass"])
        for row in rows:
            writer.writerow(
                [
                    fmt17(row["value"]),
                    fmt17(row["final_residual"]),
                    str(row["iterations"]),
                    str(row["all_audits_pass"]).lower(),
                ]
            )
    if any(c == 2 for c in codes):
        return 2, rows
    if any(c == 3 for c in codes):
        return 3, rows
    return 0, rows

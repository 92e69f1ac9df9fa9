"""Experiment pipeline: build, run, audit, and write reports.

One experiment produces up to three artifacts in its output directory:
`trajectory.csv` (per-iterate table), `run.json` (full trajectory record
with the config echoed), and `audits.json` (per-auditor status).  The
auditors read the run's own iterates while the loop produces them, so a run
is computed once and never replayed, and it keeps in memory only the
iterates its `record_stride` records plus the block the loop fills and the
one the audit holds.  The audit of a stored decimated record replays it gap
by gap into the same blocks.  The JSON artifacts are written piece by piece, never as one string.
Sweeps run one experiment per axis value, in the given order, keep one
summary row per value and aggregate a summary CSV; the values' configs
share every section the axis does not touch, and their runs every object
built from those sections.  Identical config and seed give byte-identical
files.
"""

from __future__ import annotations

import csv
# unused here, but perfbench's tracer patches `experiment.json`
import json  # noqa: F401
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ._util import fmt17, read_json, write_json
from .config import (
    ExperimentConfig,
    build_body,
    build_operator,
    build_relation,
    build_schedule,
    build_space,
    build_start,
    check_seed,
)
from .diagnostics import AuditPass, exit_code_from_audits, run_audits, write_gk_records_csv
from .errors import ConfigError
from .mann import (
    STOP_MAX_ITER,
    STOP_TOLERANCE,
    Schedule,
    Trajectory,
    read_trajectory_csv,
    run,
    trajectory_fields,
    trajectory_from_dict,
    write_trajectory_csv,
)
from .normed_space import ConvexBody, NormSpace, diameter
from .operators import Operator
from .order_graph import ConeRelation

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
            "trajectory": trajectory_fields(traj),
        }
        write_json(record, out_dir / "run.json")
    report = {
        "schema_version": RUN_SCHEMA_VERSION,
        "stop_reason": traj.stop_reason,
        "iterations": traj.n_iterates,
        "final_residual": traj.final_residual,
        "exit_code": exit_code_from_audits(audits),
        "audits": audits,
    }
    write_json(report, out_dir / "audits.json")


@dataclass(frozen=True)
class Built:
    """What the builders make of a config: its space, body, relation,
    operator, schedule and domain diameter, and the start drawn for a run."""

    space: NormSpace
    body: ConvexBody
    rel: ConeRelation
    operator: Operator
    schedule: Schedule
    diam: float
    start: np.ndarray | None = None


def _build(
    config: ExperimentConfig,
    seed: int | None = None,
    shared: Built | None = None,
    section: str = "",
) -> Built:
    """Build a config, with its start when given the run's seed.

    `shared` is the build of a config that differs from this one only in
    config section `section`; what that section does not reach is taken from
    it, not built again.  A space or body section reaches every object, a
    relation or operator section only the object of its name, and the
    schedule and the start are always built.
    """

    def reached(*names: str) -> bool:
        return shared is None or section in ("space", "body", *names)

    space = build_space(config) if reached() else shared.space
    body = build_body(config, space) if reached() else shared.body
    rel = build_relation(config, space) if reached("relation") else shared.rel
    operator = build_operator(config, space, body) if reached("operator") else shared.operator
    diam = diameter(space, body) if reached() else shared.diam
    start = None
    if seed is not None:
        start = build_start(config, operator, rel, np.random.default_rng([seed, 1]))
    return Built(space, body, rel, operator, build_schedule(config), diam, start)


def run_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
    seed: int | None = None,
    write: bool = True,
    built: Built | None = None,
) -> ExperimentResult:
    """Execute one configured experiment end to end.

    The loop runs at the configured `record_stride`; when an auditor reads
    the iterates it streams each into the audit's pass (`AuditPass`), so the
    record written (and returned) keeps only the recorded ones and no (N, d)
    history is ever held, while the auditors read all N.  `built` is the
    config's build with the start for `seed` (a sweep builds every value
    first); without it the config is built here.  The config is echoed, and
    returned, with the seed the run used.
    """
    seed = config.seed if seed is None else check_seed(seed)
    config = replace(config, seed=seed)
    if built is None:
        built = _build(config, seed)
    space, rel, operator, schedule = built.space, built.rel, built.operator, built.schedule
    audit = AuditPass(config.audits, operator, rel)
    traj = run(
        operator,
        built.start,
        schedule,
        max_iter=config.run.max_iter,
        tol=config.run.tol,
        rel=rel,
        record_stride=config.run.record_stride,
        relation_ref=config.relation.kind,
        audit=audit if audit.reads_iterates else None,
    )
    audits = run_audits(
        config.audits,
        traj,
        operator,
        rel,
        space,
        schedule,
        diam=built.diam,
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

    run.json is read by `read_json`, its number arrays straight into arrays.
    CSV exports carry no stop reason, so it is inferred from the final
    residual against the configured tolerance.
    """
    path = Path(path)
    if path.suffix == ".json":
        try:
            data = read_json(path)
        except (OSError, ValueError) as exc:
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
    built = _build(config)
    traj = load_stored_trajectory(trajectory_path, config)
    names = ["trajectory"] + [a for a in config.audits if a != "trajectory"]
    audits = run_audits(
        names,
        traj,
        built.operator,
        built.rel,
        built.space,
        built.schedule,
        diam=built.diam,
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
        write_json(report, out / "audits.json")
    return code, audits


# --- sweeps -------------------------------------------------------------------

def set_config_value(data: dict, axis: str, value: float) -> dict:
    """Return the raw config dict with the dotted `axis` replaced.

    Only the dicts on the axis path are copied: every other subtree (a
    d x d matrix, say) is shared with `data`, which is left unchanged.
    """
    *path, leaf = axis.split(".")
    out = node = dict(data)
    for part in path:
        child = node.get(part)
        if not isinstance(child, dict):
            raise ConfigError(f"unknown sweep axis {axis!r}")
        node[part] = dict(child)
        node = node[part]
    if leaf not in node:
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
    significant digits) are a ConfigError, raised before any run.  Every
    value's config is parsed and built, start included, before the first
    run, so a value that any check rejects stops the sweep before anything
    is written.  What the axis does not reach is built once, from the first
    value, and shared by every run (see `_build`): a schedule.t sweep builds
    its operator once, an operator.offset sweep once per value.  The
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
    if seed is not None:
        seed = check_seed(seed)
    base = ExperimentConfig.from_dict(config_data)
    root = Path(out_dir) if out_dir is not None else Path(base.output.directory)
    configs = [
        ExperimentConfig.from_dict(set_config_value(config_data, axis, value))
        for value in values
    ]
    section = axis.split(".")[0]
    builds: list[Built] = []
    for config in configs:
        run_seed = config.seed if seed is None else seed
        shared = builds[0] if builds else None
        builds.append(_build(config, run_seed, shared, section))
    rows, codes = [], []
    for value, config, name, built in zip(values, configs, names, builds):
        row, code = _summary(
            value, run_experiment(config, out_dir=root / name, seed=seed, built=built)
        )
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

"""The four benchmark workloads: input generation, timed operations, checks.

Every workload drives graphmann through its public entry points, looked up
as module attributes at call time so that the tracer's wrappers apply:
`graphmann.cli.main` for run / sweep / audit, and the corpus, run-loop,
auditor and modulus functions directly.  Inputs come from the workload seed
alone.

Why these four (see METRICS.md for what each metric should move):
  long_full   d = 4, full history, ~32k iterates: per-iterate interpreter
              overhead of the loop, the trajectory replay, CSV/JSON I/O.
  wide_sweep  d = 256, record_stride 50, 4-value sweep on a thread pool:
              matvecs, gap replay in the auditors, the sweep pool.
  corpus      100 short in-process instances, d 1..16, every p and family:
              per-call fixed costs.
  modulus     the SLSQP multistart in normed_space, touched by nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import graphmann.cli
import graphmann.corpus
import graphmann.diagnostics
import graphmann.experiment
import graphmann.mann
import graphmann.normed_space
from graphmann.config import ExperimentConfig
from graphmann.normed_space import MODULUS_OPTIMIZER_TOL, Box, NormSpace, contains
from graphmann.operators import Componentwise, MatrixAffine
from graphmann.order_graph import ConeRelation

ALL_AUDITS = graphmann.diagnostics.ALL_AUDITS
SWEEP_VALUES = (0.3, 0.5, 0.7, 0.9)
CORPUS_AUDITS = tuple(a for a in ALL_AUDITS if a != "convergence")
MODULUS_PS = (1.5, 2.0, 3.0)
MODULUS_EPS = (0.5, 1.0, 1.5)
MODULUS_BUDGET = 64


class Checks:
    """Correctness checks of one benchmark run: counted, failures kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return bool(ok)

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclass
class RepResult:
    """One repetition of a workload's timed operations.

    `items_s` splits the repetition into the units whose times are kept
    (ops, corpus instances, modulus grid points); by default the ops.
    """

    op_s: dict[str, float]
    iterates: object
    digests: dict[str, str]
    items_s: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.items_s = self.items_s or dict(self.op_s)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())


def typical_wall_s(reps: list[RepResult]) -> float:
    """Sum over items of each item's median time across repetitions.

    A slow spell of the host that covers part of a repetition inflates only
    the items it overlaps, and the per-item median drops them.
    """
    return sum(statistics.median(r.items_s[key] for r in reps) for key in reps[0].items_s)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_digests(root: Path) -> dict[str, str]:
    return {
        str(p.relative_to(root.parent)): sha256_file(p)
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def cli(args: list) -> tuple[int, float]:
    """Run `graphmann <args>`; return its exit code and wall time."""
    start = time.perf_counter()
    code = graphmann.cli.main([str(a) for a in args] + ["--quiet"])
    return code, time.perf_counter() - start


def audit_statuses(path: Path) -> dict[str, str]:
    report = json.loads(path.read_text())
    return {name: entry["status"] for name, entry in report["audits"].items()}


def check_audits(checks: Checks, path: Path, label: str) -> None:
    for name, status in audit_statuses(path).items():
        checks.expect(status == "pass", f"{label}: auditor {name} is {status}")


def averaged_permutation(seed: int, d: int) -> np.ndarray:
    """Average of 3 seeded d x d permutation matrices (doubly stochastic)."""
    rng = np.random.default_rng([seed, d])
    return sum(np.eye(d)[rng.permutation(d)] for _ in range(3)) / 3.0


def averaged_permutation_config(seed: int, d: int, s: float, stride: int) -> dict:
    """MatrixAffine with M = s P, P the average of 3 seeded permutations.

    P is doubly stochastic, so M contracts by exactly s in l_2, the fixed
    point is 0.5 * 1 and the iteration count does not depend on the seed.
    """
    return {
        "schema_version": 1,
        "seed": seed,
        "space": {"dimension": d, "p": 2.0},
        "body": {"kind": "box", "lo": 0.0, "hi": 1.0},
        "relation": {"kind": "coordinatewise"},
        "operator": {
            "kind": "matrix_affine",
            "matrix": (s * averaged_permutation(seed, d)).tolist(),
            "offset": (1.0 - s) * 0.5,
        },
        "start": {"kind": "explicit", "value": 0.0},
        "schedule": {"kind": "constant", "t": 0.5},
        "run": {"max_iter": 100_000, "tol": 1e-10, "record_stride": stride},
        "audits": list(ALL_AUDITS),
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }


def write_config(data: dict, path: Path) -> Path:
    path.write_text(json.dumps(data) + "\n")
    return path


def sweep_pair(data: dict, values, out: Path) -> tuple[float, float]:
    """Wall time of one sweep on the pool, then of the same sub-experiments
    run one after another."""
    start = time.perf_counter()
    graphmann.experiment.run_sweep(data, "schedule.t", list(values), out_dir=out / "pool")
    pool_s = time.perf_counter() - start
    start = time.perf_counter()
    configs = [
        ExperimentConfig.from_dict(graphmann.experiment.set_config_value(data, "schedule.t", v))
        for v in values
    ]
    for value, config in zip(values, configs):
        graphmann.experiment.run_experiment(config, out_dir=out / "seq" / f"{value:g}")
    return pool_s, time.perf_counter() - start


class Workload:
    name = ""
    why = ""
    # (dimension, p) at which the per-call micro costs are measured
    shape: tuple[int, float]

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        """Generate this workload's inputs (timed as setup_s)."""

    def rep(self, checks: Checks) -> RepResult:
        raise NotImplementedError

    def sweep_input(self) -> tuple[dict, tuple] | None:
        """Config and values of this workload's sweep, if it has one."""
        return None

    def check_once(self, checks: Checks) -> None:
        """Checks on the artifacts that one repetition suffices for."""

    def report(self, reps: list[RepResult]) -> list[tuple[str, float, int, str]]:
        """Workload-specific end-to-end metrics: (name, value, samples, unit)."""
        return []


def _median_op(reps: list[RepResult], op: str) -> tuple[float, int]:
    return statistics.median(r.op_s[op] for r in reps), len(reps)


class LongFull(Workload):
    name = "long_full"
    why = ("d=4, full history, ~32k iterates: per-iterate loop overhead, "
           "the trajectory replay and CSV/JSON I/O dominate")
    shape = (4, 2.0)
    S = 0.999

    def setup(self) -> None:
        data = averaged_permutation_config(self.seed, d=4, s=self.S, stride=1)
        self.config = write_config(data, self.work / "long_full.json")

    def rep(self, checks: Checks) -> RepResult:
        run_dir = fresh_dir(self.work / "lf_run")
        audit_json = fresh_dir(self.work / "lf_audit_json")
        audit_csv = fresh_dir(self.work / "lf_audit_csv")
        ops, codes = {}, {}
        codes["run"], ops["run_s"] = cli(
            ["run", "--config", self.config, "--out", run_dir])
        codes["audit"], ops["audit_s"] = cli(
            ["audit", run_dir / "run.json", "--config", self.config, "--out", audit_json])
        codes["audit_csv"], ops["audit_csv_s"] = cli(
            ["audit", run_dir / "trajectory.csv", "--config", self.config, "--out", audit_csv])
        for op, code in codes.items():
            checks.expect(code == 0, f"long_full {op} exited {code}")
        for label, path in (("run", run_dir), ("audit", audit_json), ("audit_csv", audit_csv)):
            check_audits(checks, path / "audits.json", f"long_full {label}")
        iterates = json.loads((run_dir / "audits.json").read_text())["iterations"]
        digests = {}
        for path in (run_dir, audit_json, audit_csv):
            digests.update(tree_digests(path))
        return RepResult(ops, iterates, digests)

    def check_once(self, checks: Checks) -> None:
        # M contracts by s, so ||x - x*|| <= ||x - T x|| / (1 - s); the
        # residual itself carries a rounding error below 1e-15 at d = 4
        record = json.loads((self.work / "lf_run" / "run.json").read_text())["trajectory"]
        err = float(np.linalg.norm(np.array(record["iterates"][-1]) - 0.5))
        bound = (record["residuals"][-1] + 1e-15) / (1.0 - self.S)
        checks.expect(err <= bound,
                      f"long_full final iterate is {err:.3e} from 0.5*1, bound {bound:.3e}")

    def report(self, reps):
        return [
            ("run_s", *_median_op(reps, "run_s"), "s"),
            ("audit_s", *_median_op(reps, "audit_s"), "s"),
            ("audit_csv_s", *_median_op(reps, "audit_csv_s"), "s"),
        ]


class WideSweep(Workload):
    name = "wide_sweep"
    why = ("d=256, record_stride 50, 4-value sweep on the thread pool: matvecs, "
           "gap replay in three auditors and the pool dominate")
    shape = (256, 2.0)

    def setup(self) -> None:
        self.data = averaged_permutation_config(self.seed, d=256, s=0.995, stride=50)
        self.config = write_config(self.data, self.work / "wide_sweep.json")

    def sweep_input(self):
        return self.data, SWEEP_VALUES

    def rep(self, checks: Checks) -> RepResult:
        out = fresh_dir(self.work / "ws_sweep")
        audit_dir = fresh_dir(self.work / "ws_audit")
        values = ",".join(f"{v:g}" for v in SWEEP_VALUES)
        ops = {}
        code, ops["sweep_s"] = cli(["sweep", "--config", self.config, "--axis", "schedule.t",
                                    "--values", values, "--out", out])
        checks.expect(code == 0, f"wide_sweep sweep exited {code}")
        sub = out / "schedule_t=0.5" / "run.json"
        code, ops["audit_s"] = cli(["audit", sub, "--config", self.config, "--out", audit_dir])
        checks.expect(code == 0, f"wide_sweep audit exited {code}")
        with open(out / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        checks.expect(len(rows) == len(SWEEP_VALUES), "wide_sweep summary row count")
        for row in rows:
            checks.expect(row["all_audits_pass"] == "true",
                          f"wide_sweep t={row['value']} not all true")
        for value in SWEEP_VALUES:
            check_audits(checks, out / f"schedule_t={value:g}" / "audits.json",
                         f"wide_sweep t={value:g}")
        check_audits(checks, audit_dir / "audits.json", "wide_sweep audit")
        iterates = tuple(int(row["iterations"]) for row in rows)
        digests = {**tree_digests(out), **tree_digests(audit_dir)}
        return RepResult(ops, iterates, digests)

    def report(self, reps):
        return [
            ("sweep_s", *_median_op(reps, "sweep_s"), "s"),
            ("audit_s", *_median_op(reps, "audit_s"), "s"),
        ]


class Corpus(Workload):
    name = "corpus"
    why = ("100 short in-process instances over d 1..16, every p, both families "
           "and cones: per-call fixed costs dominate")
    shape = (8, 3.0)

    def setup(self) -> None:
        # the canonical corpus, so every seed does the same work; the seed
        # drives the auditors' sampling
        self.instances = graphmann.corpus.acceptance_instances(100)

    def rep(self, checks: Checks) -> RepResult:
        run = graphmann.mann.run
        run_audits = graphmann.diagnostics.run_audits
        diameter = graphmann.normed_space.diameter
        items, iterates, reports = {}, 0, []
        start = time.perf_counter()
        for inst in self.instances:
            t0 = time.perf_counter()
            audit_traj = run(inst.operator, inst.x1, inst.schedule,
                             max_iter=201, tol=0.0, rel=inst.relation)
            conv_traj = run(inst.operator, inst.x1, inst.schedule,
                            max_iter=100_000, tol=1e-10, rel=inst.relation)
            diam = diameter(inst.space, inst.body)
            audits = run_audits(CORPUS_AUDITS, audit_traj, inst.operator, inst.relation,
                                inst.space, inst.schedule, diam=diam, seed=self.seed)
            audits.update(run_audits(("convergence",), conv_traj, inst.operator,
                                     inst.relation, inst.space, inst.schedule,
                                     diam=diam, seed=self.seed))
            items[inst.name] = time.perf_counter() - t0
            iterates += audit_traj.n_iterates + conv_traj.n_iterates
            reports.append(audits)
        wall = time.perf_counter() - start
        for inst, audits in zip(self.instances, reports):
            for name, entry in audits.items():
                checks.expect(entry["status"] == "pass",
                              f"corpus {inst.name}: auditor {name} is {entry['status']}")
        blob = json.dumps(reports, sort_keys=True).encode()
        return RepResult({"corpus_s": wall}, iterates,
                         {"corpus_audits": hashlib.sha256(blob).hexdigest()}, items)

    def report(self, reps):
        items = [1e3 * sec for r in reps for sec in r.items_s.values()]
        per_s = [r.iterates / r.wall_s for r in reps]
        q = np.percentile(items, [50, 90])
        return [
            ("iterates_per_s", statistics.median(per_s), len(reps), "1/s"),
            ("instance_p50_ms", float(q[0]), len(items), "ms"),
            ("instance_p90_ms", float(q[1]), len(items), "ms"),
        ]


class Modulus(Workload):
    name = "modulus"
    why = ("modulus_uc_estimate at d=2, p in {1.5,2,3}: the SLSQP multistart "
           "in normed_space that no other workload reaches")
    shape = (2, 2.0)

    def rep(self, checks: Checks) -> RepResult:
        estimate = graphmann.normed_space.modulus_uc_estimate
        values, items = {}, {}
        start = time.perf_counter()
        for p in MODULUS_PS:
            space = NormSpace(2, p)
            for eps in MODULUS_EPS:
                t0 = time.perf_counter()
                values[(p, eps)] = estimate(space, eps, budget=MODULUS_BUDGET, seed=self.seed)
                items[f"p{p:g}_eps{eps:g}"] = time.perf_counter() - t0
        wall = time.perf_counter() - start
        for (p, eps), value in values.items():
            checks.expect(0.0 <= value <= 1.0, f"modulus p={p} eps={eps} is {value}")
            if p == 2.0:
                exact = 1.0 - math.sqrt(1.0 - eps * eps / 4.0)
                checks.expect(abs(value - exact) <= MODULUS_OPTIMIZER_TOL,
                              f"modulus p=2 eps={eps}: {value} vs closed form {exact}")
        blob = repr(sorted(values.items())).encode()
        return RepResult({"modulus_s": wall}, len(values),
                         {"modulus_estimates": hashlib.sha256(blob).hexdigest()}, items)

    def report(self, reps):
        return [("modulus_s", *_median_op(reps, "modulus_s"), "s")]


WORKLOADS = {w.name: w for w in (LongFull, WideSweep, Corpus, Modulus)}


# --- negative controls --------------------------------------------------------

CONTROL_CONFIG = dict(d=4, s=0.9, stride=1)


def negative_controls(seed: int, work: Path, checks: Checks) -> None:
    """Three runs that must be flagged; each one not caught counts as failed."""
    root = fresh_dir(work / "controls")
    swap = write_config(graphmann.corpus.negative_swap_config(), root / "swap.json")
    code, _ = cli(["run", "--config", swap, "--out", root / "swap"])
    statuses = audit_statuses(root / "swap" / "audits.json")
    checks.expect(code == 2 and statuses["edge_propagation"] == "fail",
                  f"control swap: exit {code}, edge_propagation {statuses['edge_propagation']}")

    t_one = write_config(graphmann.corpus.t_one_config(), root / "t_one.json")
    code, _ = cli(["run", "--config", t_one, "--out", root / "t_one"])
    checks.expect(code == 3, f"control t=1: exit {code}")

    config = write_config(averaged_permutation_config(seed, **CONTROL_CONFIG),
                          root / "tamper.json")
    code, _ = cli(["run", "--config", config, "--out", root / "clean"])
    checks.expect(code == 0, f"control clean run: exit {code}")
    record = json.loads((root / "clean" / "run.json").read_text())
    iterates = record["trajectory"]["iterates"]
    iterates[len(iterates) // 2][0] += 1e-6
    tampered = root / "tampered.json"
    tampered.write_text(json.dumps(record))
    code, _ = cli(["audit", tampered, "--config", config, "--out", root / "tampered_audit"])
    status = audit_statuses(root / "tampered_audit" / "audits.json")["trajectory"]
    checks.expect(code == 2 and status == "fail",
                  f"control tampered iterate: exit {code}, trajectory {status}")
    shutil.rmtree(root, ignore_errors=True)


# --- layer probe --------------------------------------------------------------

def layer_probe(seed: int, work: Path) -> tuple[dict, tuple]:
    """A small fixed pass through every layer, run under tracing on every
    workload so that each traced function is timed on each of them.

    Returns the config and values of its two-value sweep, whose pool and
    sequential times are then taken untraced.
    """
    root = fresh_dir(work / "probe")
    data = averaged_permutation_config(seed, **CONTROL_CONFIG)
    config = write_config(data, root / "probe.json")
    cli(["run", "--config", config, "--out", root / "run"])
    cli(["audit", root / "run" / "run.json", "--config", config])
    cli(["audit", root / "run" / "trajectory.csv", "--config", config])
    cli(["sweep", "--config", config, "--axis", "schedule.t", "--values", "0.5,0.7",
         "--out", root / "sweep"])
    graphmann.corpus.acceptance_instances(2)
    for p in MODULUS_PS:
        graphmann.normed_space.modulus_uc_estimate(NormSpace(2, p), 1.0, budget=1, seed=seed)
    return data, (0.5, 0.7)


# --- per-call micro costs -----------------------------------------------------

def _per_call_us(fn, arg, repeats: int = 5, min_s: float = 0.01) -> float:
    """Median over `repeats` timed loops of the cost of one call, in us."""
    number = 1
    while True:
        start = time.perf_counter()
        for _ in range(number):
            fn(arg)
        if time.perf_counter() - start >= min_s:
            break
        number *= 4
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            fn(arg)
        samples.append((time.perf_counter() - start) / number)
    return 1e6 * statistics.median(samples)


def micro_costs(shape: tuple[int, float], seed: int) -> dict[str, float]:
    """Per-call costs of the per-iterate primitives at one (d, p)."""
    d, p = shape
    space = NormSpace(d, p)
    box = Box(np.zeros(d), np.ones(d))
    rng = np.random.default_rng([seed, d, 1])
    families = {
        "matrix_affine": MatrixAffine(space, box, 0.9 * averaged_permutation(seed, d),
                                      np.full(d, 0.05)),
        "componentwise": Componentwise(
            space, box,
            tuple(np.array([0.0, 0.3, 0.7, 1.0]) for _ in range(d)),
            tuple(np.array([0.25, 0.4, 0.65, 0.75]) for _ in range(d)),
        ),
    }
    x = rng.uniform(0.0, 1.0, d)
    rows = rng.uniform(0.0, 1.0, (256, d))
    out = {}
    for family, op in families.items():
        out[f"operators.evaluate_us.{family}"] = _per_call_us(op.evaluate, x)
        out[f"operators.apply_batch_us_per_row.{family}"] = (
            _per_call_us(op.apply_batch, rows) / rows.shape[0])
    out["normed_space.norm_us"] = _per_call_us(space.norm, x)
    out["normed_space.contains_us"] = _per_call_us(lambda v: contains(space, box, v), x)
    cone = ConeRelation(np.eye(d))
    out["order_graph.diffs_in_cone_us_per_row"] = (
        _per_call_us(cone.diffs_in_cone, rows - 0.5) / rows.shape[0])
    return out

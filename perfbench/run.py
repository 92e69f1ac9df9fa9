#!/usr/bin/env python3
"""Benchmark for graphmann: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout (graphmann is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload long_full --seed 1 --seconds 50 --trace 0

Workloads: long_full, wide_sweep, corpus, modulus (see workloads.py).
With --trace 0 the end-to-end metrics are measured: the workload's
operations repeat until --seconds have passed and medians are reported.
With --trace 1 untraced and traced repetitions alternate for --seconds and
the per-layer metrics are reported (see METRICS.md and tracing.py).  Each
run also applies the correctness checks and the three negative controls;
every check that fails is counted in "failed".  The last line of standard
output is the JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in ("mann", "operators", "normed_space", "order_graph", "diagnostics",
                  "experiment", "config", "corpus", "cli"):
        units[f"{layer}.self_s"] = "s"
    units.update({
        "mann.iterates": "count",
        "mann.run_us_per_iterate": "us",
        "mann.verify_trajectory_s": "s",
        "mann.full_iterates_s": "s",
        "mann.full_iterates_calls": "count",
        "mann.full_iterates_replayed_steps": "count",
        "mann.write_csv_s": "s",
        "mann.write_json_s": "s",
        "mann.read_csv_s": "s",
        "mann.read_json_s": "s",
        "mann.csv_bytes": "bytes",
        "mann.json_bytes": "bytes",
    })
    for family in ("matrix_affine", "componentwise"):
        units[f"operators.evaluate_us.{family}"] = "us"
        units[f"operators.apply_batch_us_per_row.{family}"] = "us"
    units.update({
        "operators.apply_batch_s": "s",
        "operators.apply_batch_rows": "count",
        "normed_space.norm_us": "us",
        "normed_space.contains_us": "us",
        "normed_space.modulus_s.p1.5": "s",
        "normed_space.modulus_s.p2": "s",
        "normed_space.modulus_s.p3": "s",
        "order_graph.diffs_in_cone_us_per_row": "us",
        "order_graph.diffs_in_cone_s": "s",
        "order_graph.diffs_in_cone_rows": "count",
    })
    for auditor in ("trajectory", "edge_propagation", "residual_monotone", "gk_inequality",
                    "fejer", "rate", "convergence"):
        units[f"diagnostics.{auditor}_s"] = "s"
        units[f"diagnostics.{auditor}_trials"] = "count"
    units.update({
        "experiment.sweep_subrun_s.median": "s",
        "experiment.sweep_subrun_s.max": "s",
        "experiment.sweep_pool_s": "s",
        "experiment.sweep_sequential_s": "s",
        "config.from_dict_s": "s",
        "corpus.build_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


PER_LAYER = _per_layer_units()


def import_source() -> None:
    """Put ./src first on the path; refuse to run without it."""
    if not (SRC / "graphmann" / "__init__.py").is_file():
        sys.exit(f"perfbench: no graphmann sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import graphmann

    if Path(graphmann.__file__).resolve().parent != SRC / "graphmann":
        sys.exit(f"perfbench: imported graphmann from {graphmann.__file__}, not {SRC}")


def setup_probe(workload: str, seed: int, work: Path) -> None:
    """Child process: time the graphmann import plus input generation."""
    start = time.perf_counter()
    import_source()
    import workloads

    work.mkdir(parents=True)
    try:
        workloads.WORKLOADS[workload](seed, work).setup()
        print(time.perf_counter() - start)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure_setup(workload: str, seed: int, work: Path) -> list[float]:
    samples = []
    for k in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--work", str(work / f"setup{k}")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def compare_reps(checks, reps) -> None:
    """Every repetition must reproduce the first one's iterates and bytes."""
    first = reps[0]
    for k, rep in enumerate(reps[1:], start=2):
        checks.expect(rep.iterates == first.iterates,
                      f"repetition {k}: iterates {rep.iterates} != {first.iterates}")
        checks.expect(rep.digests == first.digests,
                      f"repetition {k}: artifacts differ from repetition 1")


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
    }


def repeat(rep, seconds: float, started: float, minimum: int) -> list:
    """Call `rep` at least `minimum` times, then while another call is
    expected to end within `seconds` of `started`."""
    out, walls = [], []
    while True:
        t0 = time.perf_counter()
        out.append(rep())
        walls.append(time.perf_counter() - t0)
        expected_end = time.perf_counter() + statistics.median(walls)
        if len(out) >= minimum and expected_end - started > seconds:
            return out


def run_untraced(w, checks, seconds: float) -> tuple[dict, list]:
    import workloads

    first_peak = []

    def rep():
        result = w.rep(checks)
        if not first_peak:
            # later repetitions add only allocator slack from the sweep's threads
            first_peak.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        return result

    reps = repeat(rep, seconds, time.perf_counter(), minimum=3)
    compare_reps(checks, reps)
    w.check_once(checks)
    metrics = {
        "wall_s": workloads.typical_wall_s(reps),
        "peak_rss_mb": first_peak[0],
    }
    return metrics, reps


def run_traced(w, checks, seconds: float, trace_path: Path) -> tuple[dict, list]:
    import tracing
    import workloads

    started = time.perf_counter()
    tracer = tracing.Tracer()

    def traced(fn, *args):
        tracer.install()
        try:
            return fn(*args)
        finally:
            tracer.uninstall()

    traced(w.setup)
    setup_spans = tracer.take()
    sweeps = [traced(workloads.layer_probe, w.seed, w.work)]
    probe_spans = tracer.take()
    if w.sweep_input() is not None:
        sweeps.append(w.sweep_input())
    pool_s = seq_s = 0.0
    for k, (data, values) in enumerate(sweeps):
        pool, seq = workloads.sweep_pair(data, values, w.work / f"sweep_pair{k}")
        pool_s += pool
        seq_s += seq
    micro = workloads.micro_costs(w.shape, w.seed)

    def pair():
        plain = w.rep(checks)
        return plain, traced(w.rep, checks), tracer.take()

    pairs = repeat(pair, seconds, started, minimum=1)
    plain = [p[0] for p in pairs]
    compare_reps(checks, plain + [p[1] for p in pairs])
    w.check_once(checks)
    rep_spans = [p[2] for p in pairs]

    per_rep = [tracing.layer_metrics(setup_spans + spans + probe_spans) for spans in rep_spans]
    metrics = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    for key, unit in PER_LAYER.items():
        if unit in ("count", "bytes"):
            metrics[key] = int(metrics[key])
    metrics.update(micro)
    metrics["experiment.sweep_pool_s"] = pool_s
    metrics["experiment.sweep_sequential_s"] = seq_s
    metrics["trace.overhead_s"] = (statistics.median(p[1].wall_s for p in pairs)
                                   - statistics.median(r.wall_s for r in plain))
    tracing.write_spans(
        {"setup": setup_spans, "reps": rep_spans, "probe": probe_spans}, trace_path)
    return metrics, plain


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.work)
        return 0

    import_source()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    work = workloads.fresh_dir(ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}")
    traces = ROOT / ".perfbench_traces"
    try:
        setup = measure_setup(args.workload, args.seed, work) if not args.trace else []
        w = workloads.WORKLOADS[args.workload](args.seed, work)
        checks = workloads.Checks()
        if args.trace:
            traces.mkdir(exist_ok=True)
            trace_path = traces / f"{args.workload}-seed{args.seed}.json"
            metrics, reps = run_traced(w, checks, args.seconds, trace_path)
            units = PER_LAYER
        else:
            w.setup()
            metrics, reps = run_untraced(w, checks, args.seconds)
            metrics["setup_s"] = statistics.median(setup)
            units = END_TO_END
        workloads.negative_controls(args.seed, work, checks)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}: {w.why}")
    print("environment " + json.dumps(environment(args.seed)))
    print(f"{'metric':<44} {'value':>14} {'unit':<6} samples")
    rows = w.report(reps)
    if not args.trace:
        rows += [("setup_s", metrics["setup_s"], len(setup), "s"),
                 ("wall_s", metrics["wall_s"], len(reps), "s"),
                 ("peak_rss_mb", metrics["peak_rss_mb"], 1, "MiB")]
    fail_frac = checks.failed / checks.attempted
    rows.append(("fail_frac", fail_frac, checks.attempted, "ratio"))
    for name, value, samples, unit in rows:
        print(f"{name:<44} {value:>14.6g} {unit:<6} {samples}")
    if args.trace:
        for name, unit in units.items():
            print(f"{name:<44} {metrics[name]:>14.6g} {unit:<6} {len(reps)}")
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    print("repetition walls (s): " + " ".join(f"{r.wall_s:.3f}" for r in reps))
    for name, digest in sorted(reps[0].digests.items()):
        print(f"sha256 {digest} {name}")
    for failure in checks.failures:
        print(f"FAILED: {failure}")
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Turn benchmark outputs into a trend file, BENCH_<label>.json.

Usage:
    python scripts/bench_trend.py LABEL --change RUN... [--parent RUN...]

Each RUN is the standard output of one `perfbench/run.py` run, saved to a
file.  Runs are grouped by side (parent, change) and workload.  For each
group the file records the seeds, the checks attempted and failed, and for
each metric of the run's JSON result the median with its quartiles (and the
values, in seed order).  The runs of `--trace 1` carry per-layer metrics;
they are summarized the same way, in their own section.  When both sides
ran a workload with the same seeds, each end-to-end metric of
BENCHMARK.json also gets a paired comparison: in how many pairs the change
is better, the median gap and the parent's quartile distance.  Versions and
`nproc` come from the runs' environment lines, which must agree.

The file is written to BENCH_<label>.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENVIRONMENT_KEYS = ("python", "numpy", "scipy", "nproc", "machine")


def parse_run(path: Path) -> dict:
    """Workload, environment and JSON result of one saved run."""
    lines = path.read_text().splitlines()
    workload = environment = None
    for line in lines:
        if line.startswith("workload "):
            workload = line.split()[1].rstrip(":")
        elif line.startswith("environment "):
            environment = json.loads(line.removeprefix("environment "))
    if workload is None or environment is None or not lines:
        raise SystemExit(f"{path}: not the output of perfbench/run.py")
    result = json.loads(lines[-1])
    traced = "wall_s" not in result["metrics"]
    return {"workload": workload, "environment": environment, "result": result,
            "traced": traced}


def summary(values: list[float]) -> dict:
    """Median and quartiles; a single value is its own quartiles."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def group(runs: list[dict]) -> dict:
    runs = sorted(runs, key=lambda r: r["environment"]["seed"])
    out = {
        "seeds": [r["environment"]["seed"] for r in runs],
        "attempted": sum(r["result"]["attempted"] for r in runs),
        "failed": sum(r["result"]["failed"] for r in runs),
        "metrics": {},
    }
    for name, entry in runs[0]["result"]["metrics"].items():
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        out["metrics"][name] = {"unit": entry["unit"], **summary(values)}
    return out


def paired(parent: dict, change: dict, better: dict[str, str]) -> dict:
    """Seed-paired comparison of the end-to-end metrics both groups hold."""
    out = {}
    for name, direction in better.items():
        if name not in parent["metrics"] or name not in change["metrics"]:
            continue
        before = parent["metrics"][name]
        after = change["metrics"][name]
        sign = 1.0 if direction == "lower" else -1.0
        gains = [sign * (a - b) for a, b in zip(before["values"], after["values"])]
        out[name] = {
            "better": direction,
            "pairs": len(gains),
            "change_better": sum(g > 0 for g in gains),
            "median_gain": statistics.median(gains),
            "parent_quartile_distance": before["q3"] - before["q1"],
        }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("label", help="names the file BENCH_<label>.json")
    parser.add_argument("--change", nargs="+", type=Path, required=True,
                        help="saved runs of the change")
    parser.add_argument("--parent", nargs="*", type=Path, default=[],
                        help="saved runs of the parent commit")
    args = parser.parse_args()

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    environment = None
    sides: dict[str, dict] = {}
    for side, paths in (("parent", args.parent), ("change", args.change)):
        groups: dict[tuple[str, str], list[dict]] = {}
        for path in paths:
            run = parse_run(path)
            env = {k: run["environment"][k] for k in ENVIRONMENT_KEYS}
            if environment is not None and env != environment:
                raise SystemExit(f"{path}: environment {env} differs from {environment}")
            environment = env
            mode = "per_layer" if run["traced"] else "end_to_end"
            groups.setdefault((run["workload"], mode), []).append(run)
        for (workload, mode), runs in sorted(groups.items()):
            sides.setdefault(side, {}).setdefault(workload, {})[mode] = group(runs)

    comparison = {}
    for workload, modes in sides.get("change", {}).items():
        before = sides.get("parent", {}).get(workload, {}).get("end_to_end")
        after = modes.get("end_to_end")
        if before and after and before["seeds"] == after["seeds"]:
            comparison[workload] = paired(before, after, better)

    trend = {
        "label": args.label,
        "command": " ".join(benchmark["command"]),
        "environment": environment,
        "sides": sides,
        "comparison": comparison,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(trend, indent=2) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

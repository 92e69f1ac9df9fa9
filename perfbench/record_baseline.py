#!/usr/bin/env python3
"""Run every workload of the benchmark, untraced and traced, from one seed.

Writes one JSON record (default perfbench/baseline.json) holding the
environment (Python/numpy/scipy versions, nproc, CPU model, L2/L3 sizes,
git commit, seed) and, per workload and mode, the result line of
perfbench/run.py plus its readable report.  Run from the repository root:

    python3 perfbench/record_baseline.py --seed 0
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("long_full", "wide_sweep", "corpus", "modulus")


def _command(args: list[str]) -> str:
    try:
        proc = subprocess.run(args, capture_output=True, text=True, cwd=ROOT, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return proc.stdout if proc.returncode == 0 else ""


def environment(seed: int) -> dict:
    cpu = {}
    for line in _command(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in ("Model name", "L2 cache", "L3 cache"):
            cpu[key.strip()] = value.strip()
    return {
        **run.environment(seed),
        "cpu_model": cpu.get("Model name", "unknown"),
        "l2_cache": cpu.get("L2 cache", "unknown"),
        "l3_cache": cpu.get("L3 cache", "unknown"),
        "git_commit": _command(["git", "rev-parse", "HEAD"]).strip() or "unknown",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = parser.parse_args()

    record = {"environment": environment(args.seed), "workloads": {}}
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} trace={trace} failed:\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            mode = "traced" if trace else "untraced"
            record["workloads"].setdefault(workload, {})[mode] = {
                "result": result,
                "report": lines[:-1],
            }
            print(f"{workload} {mode}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", flush=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Check that two source trees write byte-identical artifacts.

Usage:
    python scripts/compare_artifacts.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are checkouts of graphmann, each holding
src/graphmann: for instance a git worktree of a base commit and the working
tree.  On a fixed set of configs each tree runs `graphmann run`, then
`graphmann audit` of the run.json and of the trajectory.csv that run wrote.
Every exit code and every file written must be the same under both trees.
The two trees run one after the other on the same machine, so BLAS
differences between hosts cannot show up as differences here.

No configurable operator leaves its box, so the configs named in DRIFT run
with T patched to x + s (s the given shift in every coordinate), under both
trees alike, to cover a run that diverges from its domain.

Exits 0 when everything matches and 1 when any file or exit code differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# runs each command of a JSON list through graphmann.cli.main, with the
# given source directory first on sys.path, and T = x + shift for the
# commands whose config has a shift; prints the exit codes
RUNNER = """
import json, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import graphmann.cli
import graphmann.experiment as experiment
from graphmann.operators import Operator


class Drift(Operator):
    def __init__(self, space, domain, shift):
        self.space, self.domain = space, domain
        self.shift = np.full(space.dimension, shift)

    def _apply(self, x):
        return x + self.shift


build_operator = experiment.build_operator
job = json.loads(sys.argv[2])
codes = []
for args in job["commands"]:
    shift = job["shifts"].get(args[args.index("--config") + 1])
    experiment.build_operator = build_operator if shift is None else (
        lambda config, space, body, shift=shift: Drift(space, body, shift))
    codes.append(graphmann.cli.main(args + ["--quiet"]))
print(json.dumps(codes))
"""

# configs run with T = x + shift: with t = 0.5 from 0 the iterates
# x_n = (n - 1) s / 2 leave the unit box first at n = 1 500, inside the
# audit block still pending at d = 256 (rows 1 024..1 499)
DRIFT = {"leave_box_d256": 1.0 / (0.5 * (1500 - 1.5))}


def source_dir(tree: str) -> Path:
    src = Path(tree).resolve() / "src"
    if not (src / "graphmann").is_dir():
        raise SystemExit(f"{tree} has no src/graphmann")
    return src


def configs(head_src: Path) -> dict[str, dict]:
    """The demo configs, the benchmark's averaged-permutation family
    (long_full is d = 4, wide_sweep d = 256), a swap run whose auditors fail
    in every audit block, and d = 256 runs that end just past an audit
    block or leave the box, with HEAD_SRC's graphmann."""
    sys.path[:0] = [str(head_src), str(ROOT)]
    from graphmann.corpus import negative_swap_config, oracle_1d_config, t_one_config
    from perfbench.workloads import averaged_permutation_config as permutation

    explicit = permutation(3, d=4, s=0.99, stride=1)
    steps = 0.3 + 0.5 * np.random.default_rng(5).random(3000)
    explicit["schedule"] = {"kind": "explicit", "values": steps.tolist(), "a": 0.3, "b": 0.8}
    # 2 049 iterates: one past the second 1 024-row audit block, so the
    # one-row tail folds into it
    past_block = permutation(3, d=256, s=0.995, stride=7)
    past_block["run"].update(max_iter=2049, tol=0.0)
    # the identity config, run with T = x + s (DRIFT); its record is
    # decimated, so the audit of run.json replays up to the first iterate
    # outside the box
    leave_box = permutation(3, d=256, s=0.995, stride=50)
    leave_box["operator"] = {"kind": "identity"}
    leave_box["run"]["tol"] = 0.0
    # the audit of the decimated record streams its replay through blocks
    # that all fail
    swap_thin = swap_d256(negative_swap_config())
    swap_thin["run"]["record_stride"] = 50
    return {
        "oracle": oracle_1d_config(),
        "swap": negative_swap_config(),
        "t1": t_one_config(),
        "perm_d4_stride1": permutation(3, d=4, s=0.999, stride=1),
        "perm_d4_stride50": permutation(3, d=4, s=0.999, stride=50),
        "perm_d256_stride50": permutation(3, d=256, s=0.995, stride=50),
        "explicit_d4": explicit,
        "swap_d256": swap_d256(negative_swap_config()),
        "perm_d256_stride7_past_block": past_block,
        "leave_box_d256": leave_box,
        "swap_d256_stride50": swap_thin,
    }


def swap_d256(config: dict) -> dict:
    """The swap demo at d = 256, run to 3 100 iterates with tol 0.

    T x = 0.999 reverse(x) + 0.0005 fixes 0.5 * 1, and the start is 0.5 * 1
    plus an antisymmetric vector, so x_n - 0.5 * 1 flips sign every step
    and shrinks by 0.997 per step.  The first coordinate therefore falls on
    every other step, and `edge_propagation` and `fejer` fail in all three
    1 024-row audit blocks (the 28-row tail folds into the third); the run
    exits 2.
    """
    d = 256
    config["space"]["dimension"] = d
    config["relation"]["row"] = [1.0] + [0.0] * (d - 1)
    config["operator"].update(factor=0.999, offset=0.0005)
    config["start"]["value"] = (0.5 + 0.4 * np.linspace(-1.0, 1.0, d)).tolist()
    config["schedule"]["t"] = 0.999
    config["run"].update(max_iter=3100, tol=0.0)
    return config


def commands(config_paths: dict[str, Path], out: Path) -> list[list[str]]:
    cmds = []
    for name, config in config_paths.items():
        case = out / name
        cmds += [
            ["run", "--config", str(config), "--out", str(case / "run")],
            ["audit", str(case / "run" / "run.json"), "--config", str(config),
             "--out", str(case / "audit_json")],
            ["audit", str(case / "run" / "trajectory.csv"), "--config", str(config),
             "--out", str(case / "audit_csv")],
        ]
    return cmds


def run_tree(src: Path, cmds: list[list[str]], shifts: dict[str, float]) -> list[int]:
    job = {"commands": cmds, "shifts": shifts}
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, str(src), json.dumps(job)],
        capture_output=True,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"graphmann under {src} crashed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def digests(root: Path) -> dict[str, str]:
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", metavar="BASE_SRC", help="checkout of the base commit")
    parser.add_argument("head", metavar="HEAD_SRC", help="checkout of the change")
    args = parser.parse_args()
    base_src, head_src = source_dir(args.base), source_dir(args.head)

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        config_paths = {}
        for name, data in configs(head_src).items():
            config_paths[name] = work / "configs" / f"{name}.json"
            config_paths[name].parent.mkdir(parents=True, exist_ok=True)
            config_paths[name].write_text(json.dumps(data) + "\n")
        shifts = {str(config_paths[name]): shift for name, shift in DRIFT.items()}
        results = {}
        for label, src in (("base", base_src), ("head", head_src)):
            cmds = commands(config_paths, work / label)
            codes = run_tree(src, cmds, shifts)
            results[label] = (codes, digests(work / label))
        cmds = commands(config_paths, Path("."))

    (base_codes, base_files), (head_codes, head_files) = results["base"], results["head"]
    differ = 0
    for cmd, a, b in zip(cmds, base_codes, head_codes):
        if a != b:
            differ += 1
            print(f"exit code differs ({a} -> {b}): graphmann {' '.join(cmd)}")
    for name in sorted(base_files.keys() | head_files.keys()):
        if base_files.get(name) != head_files.get(name):
            differ += 1
            state = ("only in base" if name not in head_files
                     else "only in head" if name not in base_files else "bytes differ")
            print(f"{state}: {name}")
    print(f"{len(cmds)} commands, {len(base_files | head_files)} files compared, "
          f"{differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

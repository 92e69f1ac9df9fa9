#!/usr/bin/env python3
"""Check that two source trees write byte-identical artifacts.

Usage:
    python scripts/compare_artifacts.py BASE_SRC HEAD_SRC

BASE_SRC and HEAD_SRC are checkouts of graphmann, each holding
src/graphmann: for instance a git worktree of a base commit and the working
tree.  On a fixed set of configs each tree runs `graphmann run`, then
`graphmann audit` of the run.json and of the trajectory.csv that run wrote;
the configs named in SWEEPS also run each of their `graphmann sweep`s, and
the run.json of each config named in REDUMPED is written again without
indentation (REDUMPS) and audited in that form.  Each tree also writes the
seeded 100-instance corpus (`graphmann.corpus.acceptance_instances`): per
instance its x1, omega, schedule steps and `operator.describe()`.  Every
exit code and every file written must be the same under both trees.
The two trees run one after the other on the same machine, so BLAS
differences between hosts cannot show up as differences here.

No configurable operator leaves its box, so the configs named in DRIFT run
with T patched to x + s (s the given shift in every coordinate), under both
trees alike, to cover a run that diverges from its domain.

Exits 0 when everything matches and 1 when any file or exit code differs.
"""

from __future__ import annotations

import argparse
import copy
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
# commands whose config has a shift; a "redump SOURCE TARGET STYLE" command
# writes the record at SOURCE again in a style of REDUMPS, and a "corpus
# DIRECTORY" command writes one JSON file per corpus instance there; prints
# the exit codes
RUNNER = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import graphmann.cli
import graphmann.experiment as experiment
from graphmann.corpus import acceptance_instances
from graphmann.operators import Operator


class Drift(Operator):
    def __init__(self, space, domain, shift):
        self.space, self.domain = space, domain
        self.shift = np.full(space.dimension, shift)

    def _apply(self, x):
        return x + self.shift


REDUMPS = {
    "compact": lambda record: json.dumps(record),
    "tabs_crlf": lambda record: json.dumps(record, indent="\\t").replace("\\n", "\\r\\n"),
}


def redump(source, target, style):
    with open(source) as fh:
        record = json.load(fh)
    os.makedirs(os.path.dirname(target), exist_ok=True)
    with open(target, "w", newline="") as fh:
        fh.write(REDUMPS[style](record))


def corpus(directory):
    # json writes each float by repr, so equal text means equal bits
    os.makedirs(directory, exist_ok=True)
    for inst in acceptance_instances():
        schedule = inst.schedule
        steps = (schedule.t_constant if schedule.t_values is None
                 else schedule.t_values.tolist())
        instance = {"operator": inst.operator.describe(), "x1": inst.x1.tolist(),
                    "omega": inst.omega.tolist(), "steps": steps}
        with open(os.path.join(directory, inst.name + ".json"), "w") as fh:
            json.dump(instance, fh)


WRITERS = {"redump": redump, "corpus": corpus}
build_operator = experiment.build_operator
job = json.loads(sys.argv[2])
codes = []
for args in job["commands"]:
    if args[0] in WRITERS:
        WRITERS[args[0]](*args[1:])
        codes.append(0)
        continue
    shift = job["shifts"].get(args[args.index("--config") + 1])
    experiment.build_operator = build_operator if shift is None else (
        lambda config, space, body, shift=shift: Drift(space, body, shift))
    codes.append(graphmann.cli.main(args + ["--quiet"]))
print(json.dumps(codes))
"""

# configs run with T = x + shift: with t = 0.5 from 0 the iterates
# x_n = (n - 1) s / 2 leave the unit box first at n = 1 500, inside the
# 256-row audit block of rows 1 280..1 535 at d = 256, still held when the
# run stops at row 1 499; at d = 4 first at n = 16 700, inside the second
# 16 384-row audit block and between two of the run's 256-row box checks
DRIFT = {
    "leave_box_d256": 1.0 / (0.5 * (1500 - 1.5)),
    "leave_box_d4": 1.0 / (0.5 * (16_700 - 1.5)),
}


# sweeps of a config, by axis and values: schedule.t and run.tol, whose
# sub-runs share every built object (the d x d operator included), and
# operator.offset, which lies in the section that holds the matrix, so each
# sub-run builds its own operator
SWEEPS = {
    "perm_d256_stride50": [("schedule.t", "0.7,0.9"), ("operator.offset", "0.001,0.004"),
                           ("run.tol", "1e-6,1e-10")],
}


# a full-history and a decimated run.json, each also audited as written
# again by the runner's REDUMPS: `json.dumps(record)` on one line, and with
# tab indents and CRLF line ends
REDUMPED = ("perm_d4_stride1", "perm_d256_stride50")
REDUMP_STYLES = ("compact", "tabs_crlf")


def source_dir(tree: str) -> Path:
    src = Path(tree).resolve() / "src"
    if not (src / "graphmann").is_dir():
        raise SystemExit(f"{tree} has no src/graphmann")
    return src


def configs(head_src: Path) -> dict[str, dict]:
    """The demo configs, the benchmark's averaged-permutation family
    (long_full is d = 4, wide_sweep d = 256), a swap run whose auditors fail
    in every audit block, d = 256 and d = 4 runs that end one row past an
    audit block (one of them without the auditors that read images),
    d = 256 and d = 4 runs that leave the box, two small runs of the
    remaining section kinds,
    a d = 3 run that sets the fields no other config sets, and d = 2 runs
    from a start incomparable with its image, with int entries in its
    number arrays, with only int number arrays, from a start beyond 64 bits
    (exit 1), from a reverse-comparable start and from a fixed point, with
    HEAD_SRC's graphmann."""
    sys.path[:0] = [str(head_src), str(ROOT)]
    from graphmann.corpus import negative_swap_config, oracle_1d_config, t_one_config
    from perfbench.workloads import averaged_permutation_config as permutation

    explicit = permutation(3, d=4, s=0.99, stride=1)
    steps = 0.3 + 0.5 * np.random.default_rng(5).random(3000)
    explicit["schedule"] = {"kind": "explicit", "values": steps.tolist(), "a": 0.3, "b": 0.8}
    # 2 049 = 8 x 256 + 1 iterates: one row past the eighth 256-row audit
    # block at d = 256.  The tail is not folded into that block: it is a
    # one-row block, and the step into its row, off the stride's grid, is
    # checked from the block before it
    past_block = permutation(3, d=256, s=0.995, stride=7)
    past_block["run"].update(max_iter=2049, tol=0.0)
    # the same at d = 4, one row past one and two 16 384-row audit blocks
    # (16 385 - 1 is off the grid of stride 3), where a one-row block's
    # image differs in the last bit from that row's in a folded batch
    past_block_d4 = permutation(3, d=4, s=0.999, stride=3)
    past_block_d4["run"].update(max_iter=16_385, tol=0.0)
    past_two_blocks_d4 = permutation(3, d=4, s=0.999, stride=1)
    past_two_blocks_d4["run"].update(max_iter=32_769, tol=0.0)
    # the same run with no auditor that reads T of every iterate: the stream
    # still applies T once per block, and gk_inequality reads the images of
    # its first rows from those blocks
    no_images = copy.deepcopy(past_block)
    no_images["audits"] = ["residual_monotone", "gk_inequality", "fejer", "rate", "convergence"]
    # the identity configs, run with T = x + s (DRIFT); their records are
    # decimated, so the audit of run.json replays up to the first iterate
    # outside the box
    leave_box = permutation(3, d=256, s=0.995, stride=50)
    leave_box["operator"] = {"kind": "identity"}
    leave_box["run"]["tol"] = 0.0
    leave_box_d4 = permutation(3, d=4, s=0.999, stride=50)
    leave_box_d4["operator"] = {"kind": "identity"}
    leave_box_d4["run"].update(max_iter=40_000, tol=0.0)
    # the audit of the decimated record streams its replay through blocks
    # that all fail
    swap_thin = swap_d256(negative_swap_config())
    swap_thin["run"]["record_stride"] = 50
    # the section kinds no config above uses: a ball, the identity and a
    # custom cone; T x = 0.9 x + 0.05 (fixed point 0.5 * 1) by scale from a
    # drawn comparable start, under an explicit schedule with bounds
    ball = permutation(3, d=2, s=0.999, stride=1)
    ball.update(
        body={"kind": "ball", "center": [0.5, 0.5], "radius": 0.5},
        relation={"kind": "custom", "generator_matrix": [[1.0, 0.0], [1.0, 1.0]]},
        operator={"kind": "identity"},
        start={"kind": "explicit", "value": [0.25, 0.5]},
    )
    scaled = permutation(3, d=3, s=0.9, stride=1)
    scaled.update(
        operator={"kind": "matrix_affine", "scale": 0.9, "offset": 0.05},
        start={"kind": "random_comparable"},
        schedule={"kind": "explicit", "a": 0.3, "b": 0.8,
                  "values": (0.3 + 0.5 * np.random.default_rng(6).random(2000)).tolist()},
    )
    # the echo of p = "inf", slack_tol, a, b and enforce_bounds, under a
    # half-space cone from a drawn comparable start
    echo_fields = oracle_1d_config()
    echo_fields.update(
        space={"dimension": 3, "p": "inf"},
        relation={"kind": "half_space", "row": [1.0, 0.5, 0.25], "slack_tol": 1e-10},
        operator={"kind": "componentwise",
                  "functions": [{"knots_x": [0.0, 1.0], "knots_y": [0.3, 0.8]}] * 3},
        start={"kind": "random_comparable"},
        schedule={"kind": "constant", "t": 0.4, "a": 0.3, "b": 0.6, "enforce_bounds": True},
        run={"max_iter": 5000, "tol": 1e-9, "record_stride": 3},
    )
    contraction = {"kind": "matrix_affine", "scale": 0.9, "offset": 0.05}
    int_entries = oracle_d2(
        oracle_1d_config(),
        {"kind": "matrix_affine", "matrix": [[0, 0.9], [0.9, 0]], "offset": 0.05},
        [0, 0])
    int_entries["body"] = {"kind": "box", "lo": [0, 0], "hi": [1, 1]}
    int_arrays = oracle_d2(
        oracle_1d_config(), {"kind": "matrix_affine", "matrix": [[0, 1], [0, 0]]}, [1, 1])
    int_arrays["body"] = {"kind": "box", "lo": [0, 0], "hi": [1, 1]}
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
        "perm_d256_stride7_no_images": no_images,
        "perm_d4_stride3_past_block": past_block_d4,
        "perm_d4_stride1_past_two_blocks": past_two_blocks_d4,
        "leave_box_d256": leave_box,
        "leave_box_d4": leave_box_d4,
        "swap_d256_stride50": swap_thin,
        "ball_identity_custom_d2": ball,
        "scale_random_start_explicit_d3": scaled,
        "echo_fields_d3": echo_fields,
        # x_1 and T x_1 = (0.86, 0.14) are incomparable, so every auditor
        # that needs a comparable start is not met (exit 3)
        "incomparable_d2": oracle_d2(
            oracle_1d_config(),
            {"kind": "matrix_affine", "matrix": [[0.0, 0.9], [0.9, 0.0]], "offset": 0.05},
            [0.1, 0.9]),
        # the matrix mixes ints and floats, and the start and the box
        # corners are int lists, so the config echo in run.json writes ints
        # where the config file has them
        "int_entries_d2": int_entries,
        # every number array is all ints (int64 arrays when read), and so is
        # its echo in run.json
        "int_arrays_d2": int_arrays,
        # a start beyond 64 bits, read as a list of ints: exit 1, nothing
        # written
        "start_beyond_int64_d2": oracle_d2(oracle_1d_config(), contraction,
                                           [9223372036854775808, 0]),
        # T x = 0.9 x + 0.05 fixes 0.5 * 1; from above it, the audits run mirrored
        "reverse_d2": oracle_d2(oracle_1d_config(), contraction, [1.0, 0.8]),
        # a one-iterate run: no Goebel-Kirk pair or rate span is checked
        "fixed_start_d2": oracle_d2(oracle_1d_config(), contraction, [0.5, 0.5]),
    }


def oracle_d2(config: dict, operator: dict, start: list[float]) -> dict:
    """The oracle config at d = 2, on the box [0, 1]^2 under the
    coordinatewise cone, with the given operator section and start."""
    config["space"]["dimension"] = 2
    config.update(operator=operator, start={"kind": "explicit", "value": start})
    return config


def swap_d256(config: dict) -> dict:
    """The swap demo at d = 256, run to 3 100 iterates with tol 0.

    T x = 0.999 reverse(x) + 0.0005 fixes 0.5 * 1, and the start is 0.5 * 1
    plus an antisymmetric vector, so x_n - 0.5 * 1 flips sign every step
    and shrinks by 0.997 per step.  The first coordinate therefore falls on
    every other step, and `edge_propagation` and `fejer` fail in all
    thirteen audit blocks (3 100 = 12 x 256 + 28: twelve 256-row blocks and
    a 28-row one); the run exits 2.
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
        cmds += [
            ["sweep", "--config", str(config), "--axis", axis, "--values", values,
             "--out", str(case / f"sweep_{axis}")]
            for axis, values in SWEEPS.get(name, ())
        ]
        for style in REDUMP_STYLES if name in REDUMPED else ():
            record = case / "redump" / f"{style}.json"
            cmds += [
                ["redump", str(case / "run" / "run.json"), str(record), style],
                ["audit", str(record), "--config", str(config),
                 "--out", str(case / f"audit_{style}")],
            ]
    return cmds + [["corpus", str(out / "corpus")]]


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

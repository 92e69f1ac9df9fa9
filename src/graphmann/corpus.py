"""Seeded experiment corpus: library instances and hypothesis-necessity cases.

`acceptance_instances` builds reproducible (cone, operator, schedule, start)
quadruples cycling through coordinatewise and half-space cones, both library
operator families, and both start orientations.  Every instance carries an
analytically known fixed point comparable to its start, and construction
re-verifies the comparability edges before returning.

The negative configs exercise hypothesis necessity end to end through the
CLI: a non-monotone swap operator that breaks edge propagation, and a t = 1
schedule that voids the step-product hypotheses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .diagnostics import ALL_AUDITS
from .errors import GraphmannError
from .mann import Schedule, start_edges
from .normed_space import Box, NormSpace, box_reach, contains
from .operators import Componentwise, MatrixAffine, Operator
from .order_graph import ConeRelation

CORPUS_SEED = 20250809
EXPLICIT_SCHEDULE_LEN = 20_000

_P_CHOICES = (1.0, 1.5, 2.0, 3.0, math.inf)
_DIMS = (1, 2, 3, 4, 8, 16)


@dataclass(frozen=True, eq=False)
class Instance:
    name: str
    space: NormSpace
    body: Box
    relation: ConeRelation
    operator: Operator
    schedule: Schedule
    x1: np.ndarray
    omega: np.ndarray
    start_case: str  # "forward" or "reverse"


def _half_space_row(rng: np.random.Generator, d: int) -> np.ndarray:
    while True:
        row = rng.standard_normal(d)
        norm = np.linalg.norm(row)
        if norm > 0.3:
            return row / norm


def _cone_direction(
    rng: np.random.Generator, rel: ConeRelation, cone_kind: str, d: int
) -> np.ndarray:
    """A cone element suitable for start construction.

    Coordinatewise cones get a nearly flat positive vector, which keeps
    (I - M) v nonnegative for the affine family; half-space cones get a
    direction well inside the half-space.
    """
    if cone_kind == "coordinatewise":
        return rng.uniform(0.8, 1.0, d)
    g = rel.generator_matrix[0]
    while True:
        w = rng.standard_normal(d)
        if g @ w < 0:
            w = -w
        if g @ w >= 0.05 * np.linalg.norm(w):
            return w


def _affine_coordinatewise(
    rng: np.random.Generator, space: NormSpace, body: Box, target: np.ndarray
) -> MatrixAffine:
    d = space.dimension
    rho = rng.uniform(0.5, 0.75)
    matrix = rng.uniform(0.0, 1.0, (d, d))
    scale = max(matrix.sum(axis=0).max(), matrix.sum(axis=1).max())
    matrix *= rho / scale
    image = matrix @ target
    positive = image > 0
    if np.any(positive):
        # rare fallback: a spread-out target can make some offset negative
        shrink = min(1.0, 0.95 * float((target[positive] / image[positive]).min()))
        matrix *= shrink
    offset = target - matrix @ target
    return MatrixAffine(space, body, matrix, offset)


def _componentwise_coordinatewise(
    rng: np.random.Generator, space: NormSpace, body: Box, target: np.ndarray
) -> Componentwise:
    knots_x, knots_y = [], []
    for i in range(space.dimension):
        lo, hi, z = body.lo[i], body.hi[i], target[i]
        interior = rng.uniform(lo, hi, rng.integers(1, 4))
        xs = np.unique(np.concatenate([[lo, z, hi], interior]))
        anchor = int(np.searchsorted(xs, z))
        slopes = rng.uniform(0.05, 0.9, xs.shape[0] - 1)
        ys = np.empty_like(xs)
        ys[anchor] = z
        for j in range(anchor + 1, xs.shape[0]):
            ys[j] = ys[j - 1] + slopes[j - 1] * (xs[j] - xs[j - 1])
        for j in range(anchor - 1, -1, -1):
            ys[j] = ys[j + 1] - slopes[j] * (xs[j + 1] - xs[j])
        knots_x.append(xs)
        knots_y.append(ys)
    return Componentwise(space, body, tuple(knots_x), tuple(knots_y))


def _uniform_slope_componentwise(
    rng: np.random.Generator, space: NormSpace, body: Box, target: np.ndarray
) -> Componentwise:
    # equal slope in every coordinate: monotone for any half-space cone
    s = rng.uniform(0.3, 0.9)
    knots_x, knots_y = [], []
    for i in range(space.dimension):
        lo, hi, z = body.lo[i], body.hi[i], target[i]
        knots_x.append(np.array([lo, hi]))
        knots_y.append(np.array([z + s * (lo - z), z + s * (hi - z)]))
    return Componentwise(space, body, tuple(knots_x), tuple(knots_y))


def _build_instance(k: int, seed: int) -> Instance:
    rng = np.random.default_rng([seed, k])
    cone_kind = ("coordinatewise", "half_space")[k % 2]
    family = ("matrix_affine", "componentwise")[(k // 2) % 2]
    start_case = "reverse" if k % 5 == 4 else "forward"
    dims = _DIMS if cone_kind == "coordinatewise" else _DIMS[1:]
    d = int(rng.choice(dims))
    p = float(rng.choice(_P_CHOICES))
    space = NormSpace(d, p)
    lo = rng.uniform(0.0, 0.2, d)
    hi = lo + rng.uniform(0.9, 1.1, d)
    body = Box(lo, hi)
    if cone_kind == "coordinatewise":
        rel = ConeRelation(np.eye(d))
    else:
        rel = ConeRelation(_half_space_row(rng, d)[None, :])

    if family == "matrix_affine" and cone_kind == "coordinatewise":
        # a nearly flat fixed point keeps the affine offset nonnegative
        target = rng.uniform(0.45, 0.6) * (1.0 + rng.uniform(0.0, 0.3, d))
        operator = _affine_coordinatewise(rng, space, body, target)
    elif family == "matrix_affine":
        target = lo + (hi - lo) * rng.uniform(0.35, 0.75, d)
        s = rng.uniform(0.3, 0.9)
        operator = MatrixAffine(space, body, s * np.eye(d), (1.0 - s) * target)
    elif cone_kind == "coordinatewise":
        target = lo + (hi - lo) * rng.uniform(0.35, 0.75, d)
        operator = _componentwise_coordinatewise(rng, space, body, target)
    else:
        target = lo + (hi - lo) * rng.uniform(0.35, 0.75, d)
        operator = _uniform_slope_componentwise(rng, space, body, target)

    # small steps keep a 200-step audit window well above the float noise
    # floor, where the telescoped inequality is checkable at 1e-9
    if rng.uniform() < 0.3:
        values = rng.uniform(0.05, 0.12, EXPLICIT_SCHEDULE_LEN)
        schedule = Schedule.explicit(values, a=0.05, b=0.12)
    else:
        schedule = Schedule.constant(rng.uniform(0.05, 0.12), a=0.05, b=0.12)

    for _ in range(32):
        v = _cone_direction(rng, rel, cone_kind, d)
        w = -v if start_case == "forward" else v
        x1 = target + rng.uniform(0.3, 0.9) * box_reach(body, target, w) * w
        if not contains(space, body, x1):
            continue
        forward, reverse = start_edges(rel, x1, operator._apply(x1))
        if start_case == "forward":
            start_ok = forward and rel.contains(x1, target)
        else:
            start_ok = reverse and rel.contains(target, x1)
        if start_ok and space.norm(x1 - target) > 1e-6:
            return Instance(
                name=f"inst_{k:03d}_{cone_kind}_{family}_{start_case}",
                space=space,
                body=body,
                relation=rel,
                operator=operator,
                schedule=schedule,
                x1=x1,
                omega=target,
                start_case=start_case,
            )
    raise GraphmannError(f"corpus instance {k} could not construct a comparable start")


def acceptance_instances(count: int = 100, seed: int = CORPUS_SEED) -> list[Instance]:
    return [_build_instance(k, seed) for k in range(count)]


# --- negative / reference configs -------------------------------------------

def oracle_1d_config(out_dir: str = "out_oracle") -> dict:
    """1-d reference run: f(x) = (x + 1)/2 on [0, 1], t = 0.5, start 0."""
    return {
        "schema_version": 1,
        "seed": 1,
        "space": {"dimension": 1, "p": 2.0},
        "body": {"kind": "box", "lo": 0.0, "hi": 1.0},
        "relation": {"kind": "coordinatewise"},
        "operator": {
            "kind": "componentwise",
            "functions": {"knots_x": [0.0, 1.0], "knots_y": [0.5, 1.0]},
        },
        "start": {"kind": "explicit", "value": [0.0]},
        "schedule": {"kind": "constant", "t": 0.5},
        "run": {"max_iter": 100000, "tol": 1e-10, "record_stride": 1},
        "audits": list(ALL_AUDITS),
        "output": {"directory": out_dir, "formats": ["csv", "json"]},
    }


def negative_swap_config(out_dir: str = "out_swap") -> dict:
    """Non-monotone swap contraction under a half-space cone.

    The start (0.55, 0.55) is forward-comparable, but the first coordinate
    of the iterates overshoots, so edge propagation fails within a few
    steps.
    """
    return {
        "schema_version": 1,
        "seed": 7,
        "space": {"dimension": 2, "p": 2.0},
        "body": {"kind": "box", "lo": 0.0, "hi": 1.0},
        "relation": {"kind": "half_space", "row": [1.0, 0.0]},
        "operator": {
            "kind": "test_only_nonmonotone",
            "factor": 0.5,
            "offset": [0.3, 0.1],
        },
        "start": {"kind": "explicit", "value": [0.55, 0.55]},
        "schedule": {"kind": "constant", "t": 0.5},
        "run": {"max_iter": 5000, "tol": 1e-10, "record_stride": 1},
        "audits": list(ALL_AUDITS),
        "output": {"directory": out_dir, "formats": ["csv", "json"]},
    }


def t_one_config(out_dir: str = "out_t1") -> dict:
    """Full-step schedule t_n = 1: the step-product hypotheses are void."""
    config = oracle_1d_config(out_dir)
    config["schedule"] = {"kind": "constant", "t": 1.0, "enforce_bounds": False}
    return config

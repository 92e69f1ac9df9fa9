"""Finite-dimensional l_p spaces, convex bounded domains, and convexity modulus.

The space fixes an l_p norm on R^d; domains are boxes (clamping projection,
valid in every l_p) or norm balls (radial projection, p = 2 only).  The
modulus-of-uniform-convexity estimator runs a seeded multistart search with
local SLSQP refinement and reports the smallest feasible value found, which
upper-bounds the true infimum up to optimizer tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import as_vector, frozen_array
from .errors import (
    DimensionMismatchError,
    InputError,
    UnsupportedCombinationError,
)

MEMBERSHIP_TOL = 1e-9

# the convexity-modulus estimate upper-bounds the true infimum and can dip
# below it by at most this much: accepted candidates may violate the
# distance constraint by ~1e-10, and near eps = 2 the infimum's sensitivity
# to that constraint grows like the square root of the slack
MODULUS_OPTIMIZER_TOL = 1e-4


@dataclass(frozen=True)
class NormSpace:
    """R^d equipped with the l_p norm, 1 <= p <= inf."""

    dimension: int
    p: float = 2.0

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise InputError(f"dimension must be >= 1, got {self.dimension}")
        if not (self.p >= 1.0):
            raise InputError(f"p must satisfy p >= 1, got {self.p}")

    @property
    def uniformly_convex(self) -> bool:
        return 1.0 < self.p < math.inf

    def norm(self, x) -> float:
        v = as_vector(x, self.dimension, "x")
        return float(np.linalg.norm(v, ord=np.inf if math.isinf(self.p) else self.p))

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise norms of a (n, d) array."""
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"expected (n, {self.dimension}) array, got {rows.shape}"
            )
        ord_ = np.inf if math.isinf(self.p) else self.p
        return np.linalg.norm(rows, ord=ord_, axis=1)


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box {x : lo <= x <= hi}."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", frozen_array(as_vector(self.lo, name="lo")))
        object.__setattr__(
            self, "hi", frozen_array(as_vector(self.hi, self.lo.shape[0], "hi"))
        )
        if np.any(self.lo > self.hi):
            raise InputError("box requires lo <= hi componentwise")

    @property
    def dimension(self) -> int:
        return self.lo.shape[0]


@dataclass(frozen=True, eq=False)
class Ball:
    """Norm ball {x : ||x - center|| <= radius} in the ambient space's norm."""

    center: np.ndarray
    radius: float

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "center", frozen_array(as_vector(self.center, name="center"))
        )
        if not self.radius > 0:
            raise InputError(f"ball radius must be positive, got {self.radius}")

    @property
    def dimension(self) -> int:
        return self.center.shape[0]


ConvexBody = Box | Ball


def _check_body(space: NormSpace, body: ConvexBody) -> None:
    if body.dimension != space.dimension:
        raise DimensionMismatchError(
            f"body dimension {body.dimension} != space dimension {space.dimension}"
        )


def contains(space: NormSpace, body: ConvexBody, x, tol: float = MEMBERSHIP_TOL) -> bool:
    _check_body(space, body)
    v = as_vector(x, space.dimension, "x")
    if isinstance(body, Box):
        return bool(np.all(v >= body.lo - tol) and np.all(v <= body.hi + tol))
    return space.norm(v - body.center) <= body.radius + tol


def project(space: NormSpace, body: ConvexBody, x) -> np.ndarray:
    """Nearest point of the body; clamping for boxes, radial scaling for p=2 balls."""
    _check_body(space, body)
    v = as_vector(x, space.dimension, "x")
    if isinstance(body, Box):
        return np.clip(v, body.lo, body.hi)
    if space.p != 2.0:
        raise UnsupportedCombinationError(
            "ball projection is only defined for p = 2"
        )
    offset = v - body.center
    dist = float(np.linalg.norm(offset))
    if dist <= body.radius:
        return v
    return body.center + offset * (body.radius / dist)


def diameter(space: NormSpace, body: ConvexBody) -> float:
    """sup of pairwise distances in the body, in the space's norm."""
    _check_body(space, body)
    if isinstance(body, Box):
        return space.norm(body.hi - body.lo)
    return 2.0 * body.radius


def sample_point(space: NormSpace, body: ConvexBody, rng: np.random.Generator) -> np.ndarray:
    """Draw a member of the body (uniform for boxes and p=2 balls)."""
    _check_body(space, body)
    d = space.dimension
    if isinstance(body, Box):
        return rng.uniform(body.lo, body.hi)
    direction = rng.standard_normal(d)
    n = space.norm(direction)
    while n < 1e-12:
        direction = rng.standard_normal(d)
        n = space.norm(direction)
    radius = body.radius * rng.uniform() ** (1.0 / d)
    return body.center + direction * (radius / n)


def _feasible_value(space: NormSpace, epsilon: float, x: np.ndarray, y: np.ndarray) -> float | None:
    """Objective at (x, y) after pulling both points exactly into the unit ball.

    Returns None when the distance constraint no longer holds (beyond a
    round-off allowance), so only genuinely feasible values are reported.
    """
    nx, ny = space.norm(x), space.norm(y)
    if nx > 1.0:
        x = x / nx
    if ny > 1.0:
        y = y / ny
    if space.norm(x - y) < epsilon * (1.0 - 1e-10) - 1e-12:
        return None
    return 1.0 - space.norm((x + y) / 2.0)


def modulus_uc_estimate(
    space: NormSpace,
    epsilon: float,
    budget: int = 512,
    seed: int = 0,
    refine_maxiter: int = 150,
) -> float:
    """Estimate the modulus of uniform convexity at epsilon.

    Minimizes 1 - ||(x+y)/2|| over ||x|| <= 1, ||y|| <= 1, ||x-y|| >= epsilon
    by seeded random multistart plus SLSQP refinement.  `budget` counts the
    random starts; the first k starts of a larger budget coincide with those
    of budget k, so raising the budget never raises the reported value.
    A fixed set of deterministic starts (antipodal pair, face pair) is always
    included, which pins the flat-witness value 0 for p in {1, inf}.

    The returned value upper-bounds the true infimum up to
    MODULUS_OPTIMIZER_TOL (candidates are pulled exactly into the unit ball
    before evaluation, so only the distance constraint carries slack).
    """
    if not (0.0 < epsilon <= 2.0):
        raise InputError(f"epsilon must lie in (0, 2], got {epsilon}")
    if budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    # scipy.optimize costs more to import than the rest of the package
    # together, and only this estimator needs it
    from scipy.optimize import minimize

    d = space.dimension
    rng = np.random.default_rng(seed)

    def objective(z: np.ndarray) -> float:
        return -space.norm((z[:d] + z[d:]) / 2.0)

    constraints = [
        {"type": "ineq", "fun": lambda z: 1.0 - space.norm(z[:d])},
        {"type": "ineq", "fun": lambda z: 1.0 - space.norm(z[d:])},
        {"type": "ineq", "fun": lambda z: space.norm(z[:d] - z[d:]) - epsilon},
    ]

    starts: list[tuple[np.ndarray, np.ndarray]] = []
    e1 = np.zeros(d)
    e1[0] = 1.0
    starts.append((e1, -e1))
    if d >= 2:
        e2 = np.zeros(d)
        e2[1] = 1.0
        # convex combination of two unit vectors: feasible in every l_p
        face = (1.0 - epsilon / 2.0) * e1 + (epsilon / 2.0) * e2
        starts.append((e1, face))
        starts.append((-e1, -face))
    for _ in range(budget):
        w = rng.standard_normal(d)
        x0 = w / max(space.norm(w), 1e-12)
        y0 = -x0 + 0.3 * rng.standard_normal(d)
        ny = space.norm(y0)
        if ny > 1e-12:
            y0 = y0 / ny
        if space.norm(x0 - y0) < epsilon:
            y0 = -x0
        starts.append((x0, y0))

    best = math.inf
    for x0, y0 in starts:
        val = _feasible_value(space, epsilon, x0, y0)
        if val is not None and val < best:
            best = val
        try:
            res = minimize(
                objective,
                np.concatenate([x0, y0]),
                method="SLSQP",
                constraints=constraints,
                options={"maxiter": refine_maxiter, "ftol": 1e-12},
            )
        except Exception:
            continue
        val = _feasible_value(space, epsilon, res.x[:d], res.x[d:])
        if val is not None and val < best:
            best = val
    return best

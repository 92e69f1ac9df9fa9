"""Finite-dimensional l_p spaces, convex bounded domains, and convexity modulus.

The space fixes an l_p norm on R^d; domains are boxes or norm balls.  The
modulus of uniform convexity is computed from its closed forms (Clarkson for
p >= 2, Hanner for 1 < p < 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from ._util import as_vector, frozen_array
from .errors import DimensionMismatchError, InputError

MEMBERSHIP_TOL = 1e-9

# how far the float modulus may lie from the exact one: against a 60-digit
# decimal reference over eps in (0, 2], Hanner's bisection stays within 1e-14
# (p in [1.01, 2)) and Clarkson's formula within 3e-16
MODULUS_OPTIMIZER_TOL = 1e-13


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
        return vector_norm(self.p)(as_vector(x, self.dimension, "x"))

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise norms of a (n, d) array."""
        if rows.ndim != 2 or rows.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"expected (n, {self.dimension}) array, got {rows.shape}"
            )
        ord_ = np.inf if math.isinf(self.p) else self.p
        return np.linalg.norm(rows, ord=ord_, axis=1)


@cache
def vector_norm(p: float):
    """The l_p norm of one float vector, by the expression np.linalg.norm
    itself evaluates for that p, without its per-call dispatch (bit-identical).
    For p = 2 that includes its ravel: BLAS sums a strided vector's dot
    product in another order than a contiguous one's."""
    if p == 2.0:
        def norm2(v):
            v = v.ravel(order="K")
            return math.sqrt(v.dot(v))
        return norm2
    if p == 1.0:
        return lambda v: float(np.add.reduce(np.abs(v)))
    if math.isinf(p):
        return lambda v: float(np.abs(v).max(initial=0.0))
    inv = 1.0 / p
    return lambda v: float(np.add.reduce(np.abs(v) ** p) ** inv)


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
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise InputError("box corners must be finite")
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
        if not np.isfinite(self.center).all():
            raise InputError("ball center must be finite")
        if not 0 < self.radius < math.inf:
            raise InputError(f"ball radius must be positive and finite, got {self.radius}")

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
        return first_outside(v[None, :], body.lo - tol, body.hi + tol) == 1
    return space.norm(v - body.center) <= body.radius + tol


def first_outside(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Index of the first row outside [lo, hi] (NaN is outside), or the row
    count when every row is inside."""
    inside = ((rows >= lo) & (rows <= hi)).all(axis=1)
    return rows.shape[0] if inside.all() else int(inside.argmin())


def box_reach(body: Box, anchor: np.ndarray, w: np.ndarray) -> float:
    """The largest gamma for which anchor + gamma * w stays in the box, over
    the coordinates with |w| > 1e-12, the only ones divided by (inf if none)."""
    caps = np.full(w.shape, np.inf)
    np.divide(body.lo - anchor, w, out=caps, where=w < -1e-12)
    np.divide(body.hi - anchor, w, out=caps, where=w > 1e-12)
    return float(caps.min())


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


def modulus_uc_estimate(
    space: NormSpace,
    epsilon: float,
    *,
    budget: int | None = None,
    seed: int | None = None,
) -> float:
    """The modulus of uniform convexity at epsilon,
    inf { 1 - ||(x+y)/2|| : ||x|| <= 1, ||y|| <= 1, ||x-y|| >= epsilon },
    in closed form: eps/2 on the line; for d >= 2, where l_p^2 embeds
    isometrically in l_p^d and l_p^d in L_p, 0 for p in {1, inf},
    1 - (1 - (eps/2)^p)^(1/p) for p >= 2 (Clarkson 1936), and for 1 < p < 2
    1 - u where u in [0, 1] solves (u + eps/2)^p + |u - eps/2|^p = 2
    (Hanner 1956), by bisection down to adjacent floats.

    `budget` and `seed` are ignored; they stay until perfbench's modulus
    workload and layer probe stop passing them.
    """
    if not (0.0 < epsilon <= 2.0):
        raise InputError(f"epsilon must lie in (0, 2], got {epsilon}")
    half, p = epsilon / 2.0, space.p
    if space.dimension == 1:
        return half
    if not space.uniformly_convex:
        return 0.0
    if epsilon == 2.0:
        # only antipodal unit vectors lie 2 apart in a strictly convex space
        return 1.0
    if p >= 2.0:
        return 1.0 - (1.0 - half**p) ** (1.0 / p)
    # the left side rises from below 2 at u = 0 to at least 2 at u = 1
    lo, mid, hi = 0.0, 0.5, 1.0
    while lo < mid < hi:
        if (mid + half) ** p + abs(mid - half) ** p < 2.0:
            lo = mid
        else:
            hi = mid
        mid = (lo + hi) / 2.0
    return 1.0 - lo

"""Self-maps of a convex domain: constructors, evaluation, and order audits.

The library families are analytically monotone (for the intended cone) and
nonexpansive, so auditor failures on them indicate implementation bugs rather
than modeling error:

* `MatrixAffine` -- x |-> clamp(M x + c) with entrywise nonnegative M whose
  certified l_p operator norm is <= 1, and nonnegative offset c.
* `Componentwise` -- coordinatewise monotone piecewise-linear maps with
  slopes in [0, 1] and range inside the box.
* `Identity`.
* `NonmonotoneSwap` -- coordinate reversal composed with a contraction;
  deliberately breaks edge preservation for asymmetric cones and exists for
  negative tests and the CLI's hypothesis-necessity corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._util import as_vector, frozen_array
from .errors import DomainError, InputError
from .normed_space import (
    Box,
    ConvexBody,
    MEMBERSHIP_TOL,
    NormSpace,
    contains,
    diameter,
    project,
    sample_point,
)
from .order_graph import AuditReport, ConeRelation, sample_cone_element

OPNORM_TOL = 1e-9
FIXED_POINT_TOL = 1e-12


def matrix_opnorm_bound(matrix: np.ndarray, p: float) -> float:
    """Certified upper bound on the l_p operator norm.

    Exact for p in {1, 2, inf}; Riesz-Thorin interpolation between the
    max-column-sum and max-row-sum norms otherwise.
    """
    absm = np.abs(matrix)
    col = float(absm.sum(axis=0).max(initial=0.0))
    row = float(absm.sum(axis=1).max(initial=0.0))
    if p == 1.0:
        return col
    if math.isinf(p):
        return row
    interp = col ** (1.0 / p) * row ** (1.0 - 1.0 / p) if col and row else 0.0
    if p == 2.0:
        spectral = float(np.linalg.svd(matrix, compute_uv=False)[0]) if matrix.size else 0.0
        return min(interp, spectral) if interp else spectral
    return interp


@dataclass(frozen=True)
class FixedPointSet:
    """Analytically known fixed points, possibly empty."""

    known_points: tuple[np.ndarray, ...]
    description: str


class Operator:
    """Base class: a self-map of a convex body in a normed space."""

    space: NormSpace
    domain: ConvexBody

    def _apply(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, x) -> np.ndarray:
        v = as_vector(x, self.space.dimension, "x")
        if not contains(self.space, self.domain, v, MEMBERSHIP_TOL):
            raise DomainError("point lies outside the operator domain")
        return self._apply(v)

    def apply_batch(self, rows: np.ndarray) -> np.ndarray:
        """Apply to each row of an (n, d) array without domain checks."""
        return np.stack([self._apply(row) for row in np.asarray(rows, dtype=float)])

    def describe(self) -> str:
        return f"{type(self).__name__.lower()}(d={self.space.dimension})"

    def _check_domain_box(self) -> Box:
        if not isinstance(self.domain, Box):
            raise InputError(f"{type(self).__name__} requires a box domain")
        if self.domain.dimension != self.space.dimension:
            raise InputError("domain dimension does not match the space")
        return self.domain


@dataclass(frozen=True, eq=False)
class Identity(Operator):
    space: NormSpace
    domain: ConvexBody

    def __post_init__(self) -> None:
        if self.domain.dimension != self.space.dimension:
            raise InputError("domain dimension does not match the space")

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return np.array(x)

    def apply_batch(self, rows: np.ndarray) -> np.ndarray:
        return np.array(rows, dtype=float)


@dataclass(frozen=True, eq=False)
class MatrixAffine(Operator):
    space: NormSpace
    domain: ConvexBody
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self) -> None:
        box = self._check_domain_box()
        d = self.space.dimension
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (d, d):
            raise InputError(f"matrix must have shape ({d}, {d}), got {mat.shape}")
        if np.any(mat < 0):
            raise InputError("matrix entries must be nonnegative")
        off = as_vector(self.offset, d, "offset")
        if np.any(off < 0):
            raise InputError("offset components must be nonnegative")
        bound = matrix_opnorm_bound(mat, self.space.p)
        if bound > 1.0 + OPNORM_TOL:
            raise InputError(
                f"certified operator norm bound {bound:.6g} exceeds 1 for p={self.space.p}"
            )
        object.__setattr__(self, "matrix", frozen_array(mat))
        object.__setattr__(self, "offset", frozen_array(off))
        del box

    def _apply(self, x: np.ndarray) -> np.ndarray:
        # np.clip(M x + c, lo, hi) without its dispatch: the same ufuncs,
        # applied in place to the fresh image
        box = self.domain
        v = self.matrix @ x
        v += self.offset
        return v.clip(box.lo, box.hi, out=v)

    def apply_batch(self, rows: np.ndarray) -> np.ndarray:
        # np.clip(rows @ M.T + c, lo, hi), in place on the fresh product
        box = self.domain
        v = rows @ self.matrix.T
        v += self.offset
        return v.clip(box.lo, box.hi, out=v)

    def describe(self) -> str:
        return f"matrix_affine(d={self.space.dimension})"


@dataclass(frozen=True, eq=False)
class Componentwise(Operator):
    """Coordinatewise piecewise-linear maps given by per-coordinate knots.

    Each coordinate map interpolates (knots_x[i], knots_y[i]) and extends
    constantly beyond the first/last knot.  Slopes must lie in [0, 1] and all
    knot values inside the box range for that coordinate.
    """

    space: NormSpace
    domain: ConvexBody
    knots_x: tuple[np.ndarray, ...]
    knots_y: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        box = self._check_domain_box()
        d = self.space.dimension
        if len(self.knots_x) != d or len(self.knots_y) != d:
            raise InputError(f"need knot arrays for each of the {d} coordinates")
        xs_all, ys_all = [], []
        for i in range(d):
            xs = as_vector(self.knots_x[i], name=f"knots_x[{i}]")
            ys = as_vector(self.knots_y[i], xs.shape[0], f"knots_y[{i}]")
            if xs.shape[0] < 1:
                raise InputError(f"coordinate {i} needs at least one knot")
            if np.any(np.diff(xs) <= 0):
                raise InputError(f"knots_x[{i}] must be strictly increasing")
            if xs.shape[0] > 1:
                slopes = np.diff(ys) / np.diff(xs)
                if np.any(slopes < -1e-12) or np.any(slopes > 1.0 + 1e-12):
                    raise InputError(
                        f"coordinate {i} has a slope outside [0, 1]"
                    )
            if np.any(ys < box.lo[i] - 1e-12) or np.any(ys > box.hi[i] + 1e-12):
                raise InputError(
                    f"coordinate {i} knot values leave the box range"
                )
            xs_all.append(frozen_array(xs))
            ys_all.append(frozen_array(ys))
        object.__setattr__(self, "knots_x", tuple(xs_all))
        object.__setattr__(self, "knots_y", tuple(ys_all))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        return np.array(
            [
                np.interp(x[i], self.knots_x[i], self.knots_y[i])
                for i in range(x.shape[0])
            ]
        )

    def apply_batch(self, rows: np.ndarray) -> np.ndarray:
        cols = [
            np.interp(rows[:, i], self.knots_x[i], self.knots_y[i])
            for i in range(rows.shape[1])
        ]
        return np.stack(cols, axis=1)

    def coordinate_fixed_points(self, i: int) -> list[float]:
        """All solutions of f_i(t) = t, found exactly per linear piece."""
        xs, ys = self.knots_x[i], self.knots_y[i]
        roots: list[float] = []
        if ys[0] <= xs[0] + 1e-15:
            roots.append(float(ys[0]))  # constant tail below the first knot
        for k in range(xs.shape[0] - 1):
            dx = xs[k + 1] - xs[k]
            s = (ys[k + 1] - ys[k]) / dx
            if abs(1.0 - s) < 1e-14:
                if abs(ys[k] - xs[k]) < 1e-12:  # identity segment
                    roots.extend([float(xs[k]), float(xs[k + 1])])
                continue
            t = (ys[k] - s * xs[k]) / (1.0 - s)
            if xs[k] - 1e-12 <= t <= xs[k + 1] + 1e-12:
                roots.append(float(t))
        if ys[-1] >= xs[-1] - 1e-15:
            roots.append(float(ys[-1]))  # constant tail above the last knot
        out: list[float] = []
        for r in sorted(roots):
            if not out or abs(r - out[-1]) > 1e-10:
                out.append(r)
        return out

    def describe(self) -> str:
        return f"componentwise(d={self.space.dimension})"


def _reversal(d: int) -> np.ndarray:
    return np.eye(d)[::-1]


@dataclass(frozen=True, eq=False)
class NonmonotoneSwap(Operator):
    """Coordinate reversal scaled by `factor`, shifted, then clamped.

    Nonexpansive (reversal is an isometry, factor < 1) but not edge
    preserving for cones that the reversal does not map into themselves.
    Test-support operator; excluded from the library families.
    """

    space: NormSpace
    domain: ConvexBody
    factor: float
    offset: np.ndarray

    def __post_init__(self) -> None:
        self._check_domain_box()
        if not (0.0 <= self.factor < 1.0):
            raise InputError(f"factor must lie in [0, 1), got {self.factor}")
        off = as_vector(self.offset, self.space.dimension, "offset")
        object.__setattr__(self, "offset", frozen_array(off))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        box = self.domain
        v = self.factor * x[::-1]
        v += self.offset
        return v.clip(box.lo, box.hi, out=v)

    def apply_batch(self, rows: np.ndarray) -> np.ndarray:
        box = self.domain
        return np.clip(self.factor * rows[:, ::-1] + self.offset, box.lo, box.hi)

    def describe(self) -> str:
        return f"test_only_nonmonotone(d={self.space.dimension})"


def known_fixed_points(operator: Operator) -> FixedPointSet:
    """Fixed points known analytically for the constructor families.

    Returns representatives for the identity, the solution of
    (I - M) x = offset when it lies inside the box with the clamp inactive,
    and the product of per-coordinate roots for componentwise maps.  Every
    returned point is re-verified to satisfy ||T(x) - x|| <= 1e-12.
    """
    space, body = operator.space, operator.domain

    def verified(points: Sequence[np.ndarray], description: str) -> FixedPointSet:
        good = tuple(
            np.array(p)
            for p in points
            if contains(space, body, p)
            and space.norm(operator._apply(np.asarray(p, dtype=float)) - p)
            <= FIXED_POINT_TOL
        )
        if not good:
            return FixedPointSet((), "none known")
        return FixedPointSet(good, description)

    if isinstance(operator, Identity):
        if isinstance(body, Box):
            reps = [(body.lo + body.hi) / 2.0, np.array(body.lo), np.array(body.hi)]
        else:
            reps = [np.array(body.center)]
        return FixedPointSet(tuple(reps), "all of C")
    if isinstance(operator, MatrixAffine):
        system = np.eye(space.dimension) - operator.matrix
        try:
            sol = np.linalg.solve(system, operator.offset)
        except np.linalg.LinAlgError:
            return FixedPointSet((), "none known")
        return verified([sol], "solution of (I - M) x = offset")
    if isinstance(operator, Componentwise):
        coords = [operator.coordinate_fixed_points(i) for i in range(space.dimension)]
        if any(not c for c in coords):
            return FixedPointSet((), "none known")
        point = np.array([c[0] for c in coords])
        return verified([point], "per-coordinate piecewise-linear roots")
    if isinstance(operator, NonmonotoneSwap):
        system = np.eye(space.dimension) - operator.factor * _reversal(space.dimension)
        try:
            sol = np.linalg.solve(system, operator.offset)
        except np.linalg.LinAlgError:
            return FixedPointSet((), "none known")
        return verified([sol], "solution of (I - f J) x = offset")
    return FixedPointSet((), "none known")


# --- edge sampling and audits ----------------------------------------------

def sample_domain_edge(
    rel: ConeRelation,
    space: NormSpace,
    body: ConvexBody,
    rng: np.random.Generator,
    max_tries: int = 400,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) in C x C with edge(x, y).

    x is uniform in C; y projects x plus a cone element of norm uniform in
    (0, diam(C)/2) back into C.  Projection can break cone membership for
    general cones, so candidates are rejected until the edge holds.
    """
    diam = diameter(space, body)
    for _ in range(max_tries):
        x = sample_point(space, body, rng)
        v = sample_cone_element(rel, rng)
        nv = space.norm(v)
        if nv < 1e-12:
            continue
        v = v * (rng.uniform(0.0, diam / 2.0) / nv)
        y = project(space, body, x + v)
        if space.norm(y - x) < 1e-12:
            continue
        if rel.contains(x, y):
            return x, y
    raise InputError("edge sampler failed; cone and domain may be incompatible")


def audit_monotone(
    operator: Operator,
    rel: ConeRelation,
    edge_count: int,
    rng: np.random.Generator | None = None,
) -> AuditReport:
    """Check edge preservation, edge(T(x), T(y)), on sampled domain edges."""
    if edge_count < 1:
        raise InputError(f"edge_count must be >= 1, got {edge_count}")
    rng = rng if rng is not None else np.random.default_rng(0)
    report = AuditReport("monotone_on_edges")
    for _ in range(edge_count):
        x, y = sample_domain_edge(rel, operator.space, operator.domain, rng)
        report.record(rel.contains(operator._apply(x), operator._apply(y)), x, y)
    return report


def audit_lipschitz_on_edges(
    operator: Operator,
    rel: ConeRelation,
    space: NormSpace,
    edge_count: int,
    rng: np.random.Generator | None = None,
) -> float:
    """Largest ||T(y)-T(x)|| / ||y-x|| over sampled edges (pairs closer than
    1e-12 are skipped)."""
    if edge_count < 1:
        raise InputError(f"edge_count must be >= 1, got {edge_count}")
    rng = rng if rng is not None else np.random.default_rng(0)
    worst = 0.0
    seen = 0
    while seen < edge_count:
        x, y = sample_domain_edge(rel, space, operator.domain, rng)
        gap = space.norm(y - x)
        if gap < 1e-12:
            continue
        seen += 1
        ratio = space.norm(operator._apply(y) - operator._apply(x)) / gap
        worst = max(worst, ratio)
    return worst

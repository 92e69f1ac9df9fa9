"""Edge audits of an operator on sampled domain edges, the nearest-point
projection that their edge sampler uses, and reference images of the
library families.

The library operators are monotone and nonexpansive on edges by
construction; `audit_monotone` and `audit_lipschitz_on_edges` check those
hypotheses numerically, away from any run.  `reference_apply` and
`reference_apply_batch` are T as each family once wrote it twice, for one
vector and for rows, which its single map must match bit for bit.
"""

import numpy as np

from graphmann._util import as_vector
from graphmann.errors import GraphmannError, InputError
from graphmann.normed_space import (
    Box,
    ConvexBody,
    NormSpace,
    _check_body,
    diameter,
    sample_point,
)
from graphmann.operators import Componentwise, Identity, MatrixAffine, NonmonotoneSwap, Operator
from graphmann.order_graph import AuditReport, ConeRelation, sample_cone_element


class UnsupportedCombinationError(GraphmannError):
    """A valid pair of objects that `project` deliberately does not combine."""


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


def sample_domain_edge(
    rel: ConeRelation, space: NormSpace, body: ConvexBody, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (x, y) in C x C with edge(x, y).

    x is uniform in C; y projects x plus a cone element of norm uniform in
    (0, diam(C)/2) back into C.  Projection can break cone membership for
    general cones, so candidates are rejected until the edge holds (400 draws
    at most).
    """
    diam = diameter(space, body)
    for _ in range(400):
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


def reference_apply(op: Operator, x: np.ndarray) -> np.ndarray:
    """T(x) of one vector, as each library family wrote it for a vector."""
    if isinstance(op, Identity):
        return np.array(x)
    box = op.domain
    if isinstance(op, MatrixAffine):
        return np.clip(op.matrix @ x + op.offset, box.lo, box.hi)
    if isinstance(op, Componentwise):
        return np.array(
            [np.interp(x[i], op.knots_x[i], op.knots_y[i]) for i in range(x.shape[0])]
        )
    if isinstance(op, NonmonotoneSwap):
        return np.clip(op.factor * x[::-1] + op.offset, box.lo, box.hi)
    raise TypeError(f"no reference for {type(op).__name__}")


def reference_apply_batch(op: Operator, rows: np.ndarray) -> np.ndarray:
    """T of each row of an (n, d) array, as each library family wrote it for
    rows."""
    if isinstance(op, Identity):
        return np.array(rows, dtype=float)
    box = op.domain
    if isinstance(op, MatrixAffine):
        return np.clip(rows @ op.matrix.T + op.offset, box.lo, box.hi)
    if isinstance(op, Componentwise):
        cols = [
            np.interp(rows[:, i], op.knots_x[i], op.knots_y[i]) for i in range(rows.shape[1])
        ]
        return np.stack(cols, axis=1)
    if isinstance(op, NonmonotoneSwap):
        return np.clip(op.factor * rows[:, ::-1] + op.offset, box.lo, box.hi)
    raise TypeError(f"no reference for {type(op).__name__}")

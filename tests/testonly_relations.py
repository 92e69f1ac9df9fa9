"""The graph axioms of an edge relation, audited on sampled points, and
deliberately broken relations to test those audits against.

A cone relation is reflexive, transitive and compatible with convex
combinations by construction; `audit_reflexive`, `audit_transitive` and
`audit_cg` verify those facts numerically.  The broken relations are not
constructible through the public cone-based path: the metric ball is not
transitive, and the strict cone test has no loop at any vertex.
"""

from typing import Callable

import numpy as np

from graphmann.errors import InputError
from graphmann.order_graph import AuditReport, ConeRelation, sample_cone_element


class MetricBallRelation:
    """edge(x, y) iff ||y - x||_2 <= radius; reflexive but not transitive."""

    def __init__(self, dimension: int, radius: float = 1.0):
        self.dimension = dimension
        self.radius = radius

    def contains(self, x, y) -> bool:
        return float(np.linalg.norm(np.asarray(y, float) - np.asarray(x, float))) <= self.radius


class StrictConeRelation:
    """edge(x, y) iff G (y - x) > 0 strictly; not reflexive."""

    def __init__(self, generator_matrix):
        self.generator_matrix = np.asarray(generator_matrix, dtype=float)
        self.dimension = self.generator_matrix.shape[1]

    def contains(self, x, y) -> bool:
        diff = np.asarray(y, float) - np.asarray(x, float)
        return bool(np.all(self.generator_matrix @ diff > 0.0))


def reference_coordinate_sign(generator_matrix: np.ndarray) -> int:
    """`ConeRelation._coordinate_sign` as it was first written: G compared
    with I and with -I, each built whole.  +1 for I, -1 for -I, 0 otherwise."""
    mat = generator_matrix
    if mat.shape[0] != mat.shape[1]:
        return 0
    eye = np.eye(mat.shape[0])
    if np.array_equal(mat, eye):
        return 1
    return -1 if np.array_equal(mat, -eye) else 0


# --- samplers -------------------------------------------------------------

def gaussian_point_source(
    dimension: int, rng: np.random.Generator, scale: float = 1.0
) -> Callable[[], np.ndarray]:
    def draw() -> np.ndarray:
        return scale * rng.standard_normal(dimension)

    return draw


def chained_triple_source(
    rel: ConeRelation, rng: np.random.Generator, scale: float = 1.0
) -> Callable[[], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Triples (x, y, z) with exact cone increments, so edge(x,y) and edge(y,z) hold."""

    def draw() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        x = scale * rng.standard_normal(rel.dimension)
        y = x + sample_cone_element(rel, rng)
        z = y + sample_cone_element(rel, rng)
        return x, y, z

    return draw


def edge_pair_source(
    rel: ConeRelation, rng: np.random.Generator, scale: float = 1.0
) -> Callable[[], tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]]:
    """Two independent edges ((x, y), (w, z)) built from cone increments."""

    def draw():
        x = scale * rng.standard_normal(rel.dimension)
        w = scale * rng.standard_normal(rel.dimension)
        return (x, x + sample_cone_element(rel, rng)), (
            w,
            w + sample_cone_element(rel, rng),
        )

    return draw


# --- axiom auditors -------------------------------------------------------

def audit_reflexive(rel, sample_count: int, sampler: Callable[[], np.ndarray]) -> AuditReport:
    """Check edge(x, x) on sampled points."""
    if sample_count < 1:
        raise InputError(f"sample_count must be >= 1, got {sample_count}")
    report = AuditReport("reflexive")
    for _ in range(sample_count):
        x = sampler()
        report.record(rel.contains(x, x), x)
    return report


def audit_transitive(rel, triple_count: int, sampler: Callable[[], tuple]) -> AuditReport:
    """Check edge(x, z) on sampled chained triples.

    Triples whose chain precondition edge(x,y), edge(y,z) does not hold are
    skipped without counting; the attempt budget is 50x the requested count.
    """
    if triple_count < 1:
        raise InputError(f"triple_count must be >= 1, got {triple_count}")
    report = AuditReport("transitive")
    attempts = 0
    while report.trials < triple_count and attempts < 50 * triple_count:
        attempts += 1
        x, y, z = sampler()
        if not (rel.contains(x, y) and rel.contains(y, z)):
            continue
        report.record(rel.contains(x, z), x, y, z)
    if report.trials < triple_count:
        raise InputError("triple sampler produced too few chained triples")
    return report


def audit_cg(
    rel,
    sample_count: int,
    alphas: list[float],
    sampler: Callable[[], tuple] | None = None,
    rng: np.random.Generator | None = None,
) -> AuditReport:
    """Check that convex combinations of sampled edge pairs are edges."""
    if sample_count < 1:
        raise InputError(f"sample_count must be >= 1, got {sample_count}")
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise InputError("alphas must be nonempty")
    if any(a < 0.0 or a > 1.0 for a in alphas):
        raise InputError(f"alphas must lie in [0, 1], got {alphas}")
    if sampler is None:
        sampler = edge_pair_source(rel, rng if rng is not None else np.random.default_rng(0))
    report = AuditReport("convexity_cg")
    for _ in range(sample_count):
        (x, y), (w, z) = sampler()
        for a in alphas:
            report.record(
                rel.contains(a * x + (1 - a) * w, a * y + (1 - a) * z), x, y, w, z
            )
    return report

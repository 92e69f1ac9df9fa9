"""Cone-generated edge relations, the audit report shape, and a cone sampler.

An edge x -> y holds iff y - x lies in the polyhedral cone
K = {v : G v >= 0 componentwise}.  Cones are closed under addition and
nonnegative scaling and contain 0, so the relation is reflexive, transitive,
and compatible with convex combinations by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._util import as_vector, frozen_array, jsonable
from .errors import DimensionMismatchError, InputError

EDGE_SLACK_TOL = 1e-12

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_HYPOTHESIS_NOT_MET = "hypothesis_not_met"


@dataclass(frozen=True, eq=False)
class ConeRelation:
    """Edge relation generated by a polyhedral cone.

    `generator_matrix` has one row per defining inequality; zero rows (an
    empty matrix with shape (0, d)) give the full relation.  `slack_tol` is
    the absolute per-component allowance that keeps round-off in convex
    combinations from flipping membership.
    """

    generator_matrix: np.ndarray
    slack_tol: float = EDGE_SLACK_TOL

    def __post_init__(self) -> None:
        mat = np.asarray(self.generator_matrix, dtype=float)
        if mat.ndim != 2:
            raise InputError(
                f"generator_matrix must be 2-d, got shape {mat.shape}"
            )
        if mat.shape[1] < 1:
            raise InputError("generator_matrix must have at least one column")
        if not self.slack_tol >= 0:
            raise InputError(f"slack_tol must be >= 0, got {self.slack_tol}")
        object.__setattr__(self, "generator_matrix", frozen_array(mat))

    @property
    def dimension(self) -> int:
        return self.generator_matrix.shape[1]

    def contains(self, x, y) -> bool:
        """True iff (x, y) is an edge, i.e. y - x is in the cone."""
        xv = as_vector(x, self.dimension, "x")
        yv = as_vector(y, self.dimension, "y")
        return self.diff_in_cone(yv - xv)

    def diff_in_cone(self, diff: np.ndarray) -> bool:
        if self.generator_matrix.shape[0] == 0:
            return True
        if self._coordinate_sign:
            return bool(self._coordinatewise(diff))
        return bool(np.all(self.generator_matrix @ diff >= -self.slack_tol))

    def diffs_in_cone(self, diffs: np.ndarray) -> np.ndarray:
        """Vectorized membership for rows of a (n, d) difference array."""
        if diffs.shape[1] != self.dimension:
            raise DimensionMismatchError(
                f"difference rows have dimension {diffs.shape[1]}, expected {self.dimension}"
            )
        if self.generator_matrix.shape[0] == 0:
            return np.ones(diffs.shape[0], dtype=bool)
        if self._coordinate_sign:
            return self._coordinatewise(diffs)
        return np.all(diffs @ self.generator_matrix.T >= -self.slack_tol, axis=1)

    @cached_property
    def _coordinate_sign(self) -> int:
        """+1 when the generator is I (the coordinatewise cone), -1 when it is
        -I (its reverse), 0 otherwise: a square G whose diagonal is all 1 (or
        all -1) and which has no other nonzero entry (NaN is nonzero, -0.0
        is zero), decided without a d x d temporary."""
        mat = self.generator_matrix
        d = mat.shape[1]
        if mat.shape[0] != d or np.count_nonzero(mat) != d:
            return 0
        diagonal = mat.diagonal()
        if np.all(diagonal == 1.0):
            return 1
        return -1 if np.all(diagonal == -1.0) else 0

    def _coordinatewise(self, diffs: np.ndarray):
        """The decisions of the product with +-I, elementwise on the last axis.

        The product's entry i is +-diff_i plus d - 1 zero terms 0 * diff_k,
        which are exact for finite diff_k and NaN otherwise; so in d >= 2 a
        row with any inf or NaN is outside the cone.
        """
        tol = self.slack_tol
        ok = diffs >= -tol if self._coordinate_sign > 0 else diffs <= tol
        if self.dimension > 1:
            ok &= np.isfinite(diffs)
        return ok.all(axis=-1)

    def reversed(self) -> "ConeRelation":
        """Relation of the reversed graph (cone -K)."""
        return ConeRelation(-self.generator_matrix, self.slack_tol)

    @cached_property
    def _pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.generator_matrix)


@dataclass(eq=False)
class AuditReport:
    """Outcome of one sampled property check.

    `witness` carries the vectors of the first failure and is present exactly
    when failures > 0, except in an inequality audit.  `hypothesis_met`
    distinguishes "the property's hypotheses did not apply" from a genuine
    pass or fail.  `records` holds the per-instance payload of an inequality
    audit, one dict per checked instance, and is exported only when set.
    `witness_key` orders the failures counted by `fail` and is not exported.
    """

    property_name: str
    trials: int = 0
    failures: int = 0
    witness: tuple[np.ndarray, ...] | None = None
    hypothesis_met: bool = True
    extra: dict = field(default_factory=dict)
    records: list[dict] | None = None
    witness_key: tuple | None = None

    @classmethod
    def not_met(cls, property_name: str, note: str) -> "AuditReport":
        """A report whose hypotheses did not apply, with the reason."""
        return cls(property_name, hypothesis_met=False, extra={"note": note})

    @property
    def status(self) -> str:
        if not self.hypothesis_met:
            return STATUS_HYPOTHESIS_NOT_MET
        return STATUS_FAIL if self.failures else STATUS_PASS

    def record(self, ok: bool, *witness_vectors: np.ndarray) -> None:
        """Count one trial, failed unless `ok`, witnessed by the vectors given."""
        self.trials += 1
        if not ok:
            self.fail(1, (self.trials,), witness_vectors)

    def fail(self, count: int, key: tuple, witness: tuple = (), **detail) -> None:
        """Count `count` failures, the first of which sorts as `key` (a tuple
        such as (family, index)) among this report's failures.

        Its `witness` vectors (none for an inequality audit, whose records
        show the failure) and `detail` entries are kept unless a failure of
        a lower key was counted before, so a report extended block by block
        keeps the witness of one check over the whole run.
        """
        self.failures += count
        if self.witness_key is None or key < self.witness_key:
            self.witness_key = key
            self.witness = tuple(np.array(v) for v in witness)
            self.extra.update(detail)

    def to_dict(self) -> dict:
        return {
            "property": self.property_name,
            "status": self.status,
            "trials": self.trials,
            "failures": self.failures,
            "witness": jsonable([v for v in self.witness]) if self.witness else None,
            **({"detail": jsonable(self.extra)} if self.extra else {}),
            **({"records": jsonable(self.records)} if self.records is not None else {}),
        }


# --- sampler --------------------------------------------------------------

def sample_cone_element(rel: ConeRelation, rng: np.random.Generator) -> np.ndarray:
    """Draw a nonzero element of the cone.

    Solves G v = s for a nonnegative slack vector s via the pseudoinverse and
    adds null-space noise; exact for full-row-rank generators, verified and
    retried (64 draws at most) otherwise.
    """
    d = rel.dimension
    m = rel.generator_matrix.shape[0]
    if m == 0:
        v = rng.standard_normal(d)
        while np.linalg.norm(v) < 1e-12:
            v = rng.standard_normal(d)
        return v
    pinv = rel._pinv
    null_proj = np.eye(d) - pinv @ rel.generator_matrix
    for _ in range(64):
        slack = np.abs(rng.standard_normal(m))
        v = pinv @ slack + null_proj @ rng.standard_normal(d)
        if np.linalg.norm(v) > 1e-12 and np.all(
            rel.generator_matrix @ v >= -rel.slack_tol
        ):
            return v
    raise InputError(
        "could not sample a cone element; generator matrix may be infeasible"
    )

"""The averaged iteration x_{n+1} = t_n T(x_n) + (1 - t_n) x_n with recording.

Runs are sequential by definition; the recorded trajectory keeps residuals
and step sizes for every n and (optionally decimated) iterates, and every
step can be recomputed bit-identically from the records.  Indices are
1-based in all exported artifacts.

One stepping kernel serves the run, the replay and the recheck: `_step`
writes t T(x) + (1 - t) x in place into a preallocated row, with t and
1 - t as 0-d arrays, and T is the operator's single-vector `_apply`.
run() steps into blocks of RUN_BLOCK_ROWS rows and checks a box domain once
per block; `full_iterates` steps straight into its output array;
`verify_trajectory` steps whole columns of rows at once, one audit block
(`audit_blocks`) at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from ._util import as_vector, frozen_array, jsonable
from .errors import ConfigError, DomainError, InputError
from .normed_space import MEMBERSHIP_TOL, Box, contains
from .operators import Operator
from .order_graph import AuditReport, ConeRelation

STOP_TOLERANCE = "tolerance_met"
STOP_MAX_ITER = "max_iterations"
STOP_DIVERGED = "diverged_from_domain"

STEP_RECOMPUTE_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
DEFAULT_TOL = 1e-10

# the audit reads a run's iterates in blocks of AUDIT_BLOCK_BYTES and at
# least AUDIT_BLOCK_ROWS rows, and applies T once per block, so its scratch
# memory is a few blocks whatever the length of the run.  T of a block this
# long has the bits of T of the whole array (a product of a few rows can
# differ in the last bit), and a shorter tail folds into the block before it,
# so no block is a smaller product than the others
AUDIT_BLOCK_ROWS = 256
AUDIT_BLOCK_BYTES = 2 << 20

# rows per block of the run loop: iterates are stepped in place into a block
# and a box domain is checked once per block
RUN_BLOCK_ROWS = 256

# rows per `%` template of the CSV writer; bounds the Python floats alive at
# once whatever the length of the record
CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Schedule:
    """Step sequence (t_n) with declared bounds [a, b].

    With `enforce_bounds` (the hypothesis under which residuals provably
    vanish) every step must satisfy 0 < a <= t_n <= b < 1.  Without it
    (negative-test mode) steps may be anywhere in [0, 1] and the bounds are
    informational.
    """

    a: float
    b: float
    enforce_bounds: bool = True
    t_constant: float | None = None
    t_values: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.t_constant is None) == (self.t_values is None):
            raise ConfigError("schedule needs exactly one of t_constant / t_values")
        if self.t_values is not None:
            vals = as_vector(self.t_values, name="t_values")
            if vals.shape[0] < 1:
                raise ConfigError("explicit schedule must contain at least one step")
            object.__setattr__(self, "t_values", frozen_array(vals))
        lo, hi = self._range()
        if self.enforce_bounds:
            if not (0.0 < self.a <= self.b < 1.0):
                raise ConfigError(
                    f"bounds must satisfy 0 < a <= b < 1, got a={self.a}, b={self.b}"
                )
            if lo < self.a - 1e-15 or hi > self.b + 1e-15:
                raise ConfigError("schedule steps leave the declared [a, b]")
        else:
            if lo < 0.0 or hi > 1.0:
                raise ConfigError("schedule steps must lie in [0, 1]")

    def _range(self) -> tuple[float, float]:
        if self.t_constant is not None:
            return self.t_constant, self.t_constant
        return float(self.t_values.min()), float(self.t_values.max())

    @classmethod
    def constant(
        cls,
        t: float,
        a: float | None = None,
        b: float | None = None,
        enforce_bounds: bool = True,
    ) -> "Schedule":
        return cls(
            a=t if a is None else a,
            b=t if b is None else b,
            enforce_bounds=enforce_bounds,
            t_constant=float(t),
        )

    @classmethod
    def explicit(
        cls,
        values,
        a: float | None = None,
        b: float | None = None,
        enforce_bounds: bool = True,
    ) -> "Schedule":
        vals = as_vector(values, name="values")
        return cls(
            a=float(vals.min()) if a is None else a,
            b=float(vals.max()) if b is None else b,
            enforce_bounds=enforce_bounds,
            t_values=vals,
        )

    @property
    def steps_available(self) -> int | None:
        """Length cap for explicit schedules, None when unbounded."""
        return None if self.t_values is None else int(self.t_values.shape[0])


@dataclass(eq=False)
class Trajectory:
    """Recorded Mann run.

    `residuals` and `schedule_used` cover every n (one residual per iterate,
    one step per transition); `iterates` may be decimated, with 1-based
    original indices in `iterate_indices` (the first and final iterates are
    always present).
    """

    iterates: np.ndarray
    iterate_indices: np.ndarray
    residuals: np.ndarray
    schedule_used: np.ndarray
    stop_reason: str
    start_edge_forward: bool | None = None
    start_edge_reverse: bool | None = None
    operator_ref: str = ""
    space_ref: str = ""
    relation_ref: str = ""

    @property
    def n_iterates(self) -> int:
        return int(self.residuals.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.iterates.shape[1])

    @property
    def is_full_history(self) -> bool:
        return self.iterates.shape[0] == self.n_iterates

    @property
    def final_iterate(self) -> np.ndarray:
        return self.iterates[-1]

    @property
    def final_residual(self) -> float:
        return float(self.residuals[-1])

    def start_edge_case(self) -> str | None:
        """'forward' / 'reverse' / 'both' / 'none', or None when unchecked."""
        if self.start_edge_forward is None or self.start_edge_reverse is None:
            return None
        if self.start_edge_forward and self.start_edge_reverse:
            return "both"
        if self.start_edge_forward:
            return "forward"
        if self.start_edge_reverse:
            return "reverse"
        return "none"

    def validate(self) -> None:
        """Check that the record is internally consistent.

        Residuals cover n = 1..N, steps n = 1..N-1, and every stored iterate
        row has its own index, strictly increasing from 1 to N.
        """
        n_total = self.n_iterates
        if n_total == 0 or self.iterates.ndim != 2 or self.iterates.shape[0] == 0:
            raise InputError("empty trajectory")
        if self.schedule_used.shape != (n_total - 1,):
            raise InputError("schedule_used length must be n_iterates - 1")
        indices = self.iterate_indices
        if indices.ndim != 1 or indices.shape[0] != self.iterates.shape[0]:
            raise InputError(
                f"{self.iterates.shape[0]} iterate rows but "
                f"{indices.shape[0]} iterate indices"
            )
        if int(indices[0]) != 1 or int(indices[-1]) != n_total:
            raise InputError("recorded iterates must span indices 1..N")
        if np.any(np.diff(indices) <= 0):
            raise InputError("iterate indices must be strictly increasing")


class AuditBlock(NamedTuple):
    """Rows start..stop-1 of a run's iterates and, when the audit reads
    images, T of those rows (`tx`)."""

    start: int
    stop: int
    tx: np.ndarray | None


def audit_block_rows(d: int) -> int:
    """Rows of one audit block at dimension d."""
    return max(AUDIT_BLOCK_ROWS, AUDIT_BLOCK_BYTES // (8 * d))


def audit_blocks(x_all: np.ndarray, operator: Operator | None = None):
    """The audit's blocks of the rows of x_all, in order.

    Each block has `audit_block_rows(d)` rows, and a shorter tail folds into
    the block before it, so the last block has up to twice as many.  With
    `operator`, T is applied to each block's rows as one batch.
    """
    n, d = x_all.shape
    rows = audit_block_rows(d)
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] < rows:
        del starts[-1]
    for start, stop in zip(starts, starts[1:] + [n]):
        tx = None if operator is None else operator.apply_batch(x_all[start:stop])
        yield AuditBlock(start, stop, tx)


def start_edges(rel: ConeRelation, x1, tx1) -> tuple[bool, bool]:
    """(edge(x1, T x1), edge(T x1, x1)): whether the start is comparable with
    its image forward and in reverse.  Every auditor reads this decision from
    the trajectory's start flags."""
    return rel.contains(x1, tx1), rel.contains(tx1, x1)


def _step(x, tx, t, out=None, s=None, scratch=None):
    """The averaged step t*T(x) + (1-t)*x, with s = 1 - t (computed when
    not given).

    Elementwise, so columns of step sizes step every row of an (n, d) array
    with the same arithmetic as one vector.  The loops pass t and s as 0-d
    arrays, which numpy multiplies by without converting a Python float on
    every call, and preallocated rows: the step is written to `out` and
    (1-t)*x to `scratch`, neither of which may overlap x or tx.  Without
    them fresh arrays are returned, with the same bits.
    """
    if s is None:
        s = 1.0 - t
    out = np.multiply(tx, t, out)
    return np.add(out, np.multiply(x, s, scratch), out)


def _vector_norm(p: float):
    """The l_p norm of one vector, by the expression np.linalg.norm itself
    evaluates for that p, without its per-call dispatch (bit-identical)."""
    if p == 2.0:
        return lambda v: math.sqrt(v.dot(v))
    if p == 1.0:
        return lambda v: float(np.add.reduce(np.abs(v)))
    if math.isinf(p):
        return lambda v: float(np.abs(v).max(initial=0.0))
    inv = 1.0 / p
    return lambda v: float(np.add.reduce(np.abs(v) ** p) ** inv)


def _first_outside(rows: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> int:
    """Index of the first row outside [lo, hi] (NaN is outside), or the row
    count when every row is inside."""
    inside = ((rows >= lo) & (rows <= hi)).all(axis=1)
    return rows.shape[0] if inside.all() else int(inside.argmin())


def run(
    operator: Operator,
    x1,
    schedule: Schedule,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    rel: ConeRelation | None = None,
    record_stride: int = 1,
    relation_ref: str = "",
) -> Trajectory:
    """Iterate from x1 until the residual ||x_n - T(x_n)|| falls to `tol` or
    `max_iter` iterates are produced.

    When `rel` is given, comparability of (x1, T(x1)) is checked in both
    orientations (`start_edges`) and recorded on the trajectory.  Explicit
    schedules cap the run at their own length.  An iterate outside the
    domain (beyond MEMBERSHIP_TOL) ends the run with STOP_DIVERGED and its
    own residual as the last one.

    Iterates are stepped in place into blocks of RUN_BLOCK_ROWS rows.  A box
    domain is checked once per block, so a run that leaves the box applies
    T to at most RUN_BLOCK_ROWS - 1 further iterates and then discards them;
    any other body is checked after every step.  Only the rows
    `record_stride` selects and the final iterate are kept.
    """
    if max_iter < 1:
        raise InputError(f"max_iter must be >= 1, got {max_iter}")
    if record_stride < 1:
        raise InputError(f"record_stride must be >= 1, got {record_stride}")
    space = operator.space
    d = space.dimension
    x = as_vector(x1, d, "x1")
    if not contains(space, operator.domain, x, MEMBERSHIP_TOL):
        raise DomainError("starting point lies outside the operator domain")
    tx = as_vector(operator._apply(x), d, "T(x1)")
    forward = reverse = None
    if rel is not None:
        forward, reverse = start_edges(rel, x, tx)

    effective_max = max_iter
    if schedule.steps_available is not None:
        effective_max = min(max_iter, schedule.steps_available + 1)
    # the step size and its complement, rewritten per step for an explicit
    # schedule
    t, s = np.empty(()), np.empty(())
    t_values = None if schedule.t_values is None else schedule.t_values.tolist()
    if t_values is None:
        t[()], s[()] = schedule.t_constant, 1.0 - schedule.t_constant
    norm = _vector_norm(space.p)
    body = operator.domain
    box = isinstance(body, Box)
    if box:
        lo = body.lo - MEMBERSHIP_TOL
        hi = body.hi + MEMBERSHIP_TOL
    else:
        inside = partial(contains, space, body, tol=MEMBERSHIP_TOL)
    apply = operator._apply
    block_rows = RUN_BLOCK_ROWS

    kept: list[np.ndarray] = []  # recorded rows, one array per block
    indices: list[int] = []
    residuals: list[float] = []
    diff = np.empty(d)
    scratch = np.empty(d)

    def keep(block: np.ndarray, base: int, count: int) -> None:
        # rows 0..count-1 of a block whose row 0 is iterate `base`
        first = -(base - 1) % record_stride
        if first < count:
            picked = block[first:count:record_stride]
            kept.append(picked if record_stride == 1 else picked.copy())
            indices.extend(range(base + first, base + count, record_stride))

    block = np.empty((block_rows, d))
    block[0] = x
    x = block[0]
    base = 1  # iterate index of block row 0
    row = 0
    n = 1
    stop = None
    while True:
        residual = norm(np.subtract(x, tx, out=diff))
        residuals.append(residual)
        if residual <= tol:
            stop = STOP_TOLERANCE
            break
        if n >= effective_max:
            stop = STOP_MAX_ITER
            break
        if row + 1 == block_rows:
            if box and _first_outside(block, lo, hi) < block_rows:
                break
            keep(block, base, block_rows)
            block = np.empty((block_rows, d))
            base, row = n + 1, -1
        if t_values is not None:
            t[()] = step = t_values[n - 1]
            s[()] = 1.0 - step
        row += 1
        x = _step(x, tx, t, block[row], s, scratch)
        n += 1
        try:
            tx = apply(x)
        except Exception:
            # T may refuse a point past one that already left the box
            if box and _first_outside(block[:row], lo, hi) < row:
                break
            raise
        if not box and not inside(x):
            residuals.append(norm(np.subtract(x, tx, out=diff)))
            stop = STOP_DIVERGED
            break
    if box:
        out = _first_outside(block[: row + 1], lo, hi)
        if out <= row:
            # the first iterate outside the box ends the run
            row, n, stop = out, base + out, STOP_DIVERGED
            del residuals[n:]
    keep(block, base, row + 1)
    if indices[-1] != n:  # always keep the final iterate
        kept.append(block[row : row + 1])
        indices.append(n)

    return Trajectory(
        iterates=np.concatenate(kept),
        iterate_indices=np.array(indices, dtype=int),
        residuals=np.array(residuals),
        schedule_used=(
            np.full(n - 1, schedule.t_constant)
            if t_values is None
            else schedule.t_values[: n - 1].copy()
        ),
        stop_reason=stop,
        start_edge_forward=forward,
        start_edge_reverse=reverse,
        operator_ref=operator.describe(),
        space_ref=f"l{space.p}(d={space.dimension})",
        relation_ref=relation_ref,
    )


def decimate(traj: Trajectory, stride: int) -> Trajectory:
    """The record `run(..., record_stride=stride)` keeps of a full-history run.

    x_n is kept for (n - 1) % stride == 0, plus the final iterate; residuals
    and steps are shared with `traj`.  With stride 1 `traj` itself is
    returned, without a copy.
    """
    if stride < 1:
        raise InputError(f"record_stride must be >= 1, got {stride}")
    if not traj.is_full_history:
        raise InputError("only a full-history trajectory can be decimated")
    if stride == 1:
        return traj
    rows = np.arange(0, traj.n_iterates, stride)
    if rows[-1] != traj.n_iterates - 1:
        rows = np.append(rows, traj.n_iterates - 1)
    return replace(traj, iterates=traj.iterates[rows], iterate_indices=rows + 1)


def full_iterates(traj: Trajectory, operator: Operator) -> np.ndarray:
    """All iterates x_1..x_N as one (N, d) array.

    A full-history record is returned as stored, without a copy.  The gaps
    of a decimated record are replayed in order with the recorded step sizes,
    each step written in place into the output row by the same `_step` and
    the same single-vector T as run()'s loop, so every replayed iterate is
    bit-identical to the original run.  This is the only replay:
    `run_audits` calls it once when it is not handed the iterates (the audit
    of a stored record) and shares the array with every auditor that reads
    iterates.
    """
    traj.validate()
    if traj.is_full_history:
        return traj.iterates
    out = np.empty((traj.n_iterates, traj.dimension))
    apply = operator._apply
    steps = traj.schedule_used.tolist()
    t, s, scratch = np.empty(()), np.empty(()), np.empty(traj.dimension)
    for j in range(traj.iterate_indices.shape[0] - 1):
        lo, hi = int(traj.iterate_indices[j]), int(traj.iterate_indices[j + 1])
        out[lo - 1] = traj.iterates[j]
        for n in range(lo, hi):
            x = out[n - 1]
            t[()] = step = steps[n - 1]
            s[()] = 1.0 - step
            _step(x, apply(x), t, out[n], s, scratch)
    out[-1] = traj.iterates[-1]
    return out


def verify_trajectory(
    traj: Trajectory,
    operator: Operator,
    x_all: np.ndarray | None = None,
    block: AuditBlock | None = None,
    report: AuditReport | None = None,
) -> AuditReport:
    """Recompute every residual and every recorded step of a trajectory.

    `x_all` holds all iterates x_1..x_N as `full_iterates` returns them
    (computed here when not given).  The rows are checked one
    `audit_blocks` block at a time, with T applied once per block, in two
    families of vector comparisons, each with tolerance STEP_RECOMPUTE_TOL
    (1e-12):

    * residual n, for every n = 1..N: | ||x_n - T x_n|| - r_n |;
    * step to each recorded iterate x_h after the first: the norm of
      t_{h-1} T x_{h-1} + (1 - t_{h-1}) x_{h-1} minus the recorded x_h.  For
      a full-history record that is every step; for a decimated one the
      steps inside a gap are the replay itself, and the check at the gap's
      end compares the replay with the record.

    That makes N + k - 1 trials for k recorded iterates (2N - 1 for full
    history), and the first witness is the first failure in the order
    residual_1, (step into x_2), residual_2, ...  The batched T can differ
    from run()'s single-vector T in the last bit (a matrix-matrix product
    against a matrix-vector product), an error of order 1e-16 times the
    size of the iterates, far inside the tolerance, so any run() output
    verifies with zero failures.

    `run_audits` checks a run in one pass over its blocks: it passes one
    `block` per call and, from the second block on, the `report` the
    previous call returned, which the call extends.  Without `block` every
    block is checked here.
    """
    if report is None:
        # a later block of the same pass was validated with the first
        traj.validate()
        report = AuditReport("trajectory_consistency")
    if x_all is None:
        x_all = full_iterates(traj, operator)
    space = operator.space
    ends = traj.iterate_indices[1:]
    for start, stop, tx in audit_blocks(x_all, operator) if block is None else (block,):
        x = x_all[start:stop]
        residual_ok = (
            np.abs(space.norms(x - tx) - traj.residuals[start:stop])
            <= STEP_RECOMPUTE_TOL
        )
        # steps into recorded iterates whose source row lies in this block
        first, last = np.searchsorted(ends, [start + 2, stop + 2])
        rows = ends[first:last] - 2 - start
        t = traj.schedule_used[rows + start][:, None]
        predicted = _step(x[rows], tx[rows], t)
        recorded = traj.iterates[first + 1 : last + 1]
        step_ok = space.norms(predicted - recorded) <= STEP_RECOMPUTE_TOL
        report.trials += stop - start + int(last - first)
        # residual of row r comes before the step leaving row r
        bad = np.flatnonzero(~residual_ok)
        if bad.size:
            report.fail(int(bad.size), (start + int(bad[0]), 0), (x[bad[0]],))
        bad = np.flatnonzero(~step_ok)
        if bad.size:
            k = bad[0]
            report.fail(
                int(bad.size), (start + int(rows[k]), 1), (predicted[k], recorded[k])
            )
    return report


# --- serialization ----------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with one row per recorded iterate: n, x_1..x_d, residual, t_n.

    t_n is the step leaving x_n and is empty on the final row.  Numbers use
    17 significant digits, which round-trips doubles exactly.  The bytes are
    those of `csv.writer` over `fmt17` fields (`%.17g` is the same
    conversion; no field needs quoting).  The rows are gathered into one
    (k, d + 3) table, and each block of CSV_BLOCK_ROWS rows is formatted by
    one `%` template.
    """
    k, d = traj.iterates.shape
    indices = traj.iterate_indices
    table = np.empty((k, d + 3))
    table[:, 0] = indices
    table[:, 1 : d + 1] = traj.iterates
    table[:, d + 1] = traj.residuals[indices - 1]
    table[:-1, d + 2] = traj.schedule_used[indices[:-1] - 1]
    row = "%d" + ",%.17g" * (d + 2) + "\r\n"
    final_row = "%d" + ",%.17g" * (d + 1) + ",\r\n"
    header = ["n"] + [f"x_{i + 1}" for i in range(d)] + ["residual", "t_n"]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, k - 1, CSV_BLOCK_ROWS):
            block = table[start : min(start + CSV_BLOCK_ROWS, k - 1)]
            fh.write(row * block.shape[0] % tuple(block.ravel().tolist()))
        fh.write(final_row % tuple(table[-1, :-1].tolist()))


# what an empty t_n field reads as: a NaN whose payload no parsed number
# carries, so a missing step stays apart from a recorded "nan"
_EMPTY_STEP_BITS = 0x7FF8_0000_0000_0001
_EMPTY_STEP = float(np.array(_EMPTY_STEP_BITS, dtype=np.uint64).view(np.float64))


def _step_field(field: str) -> float:
    # the t_n field, empty on the final row
    return float(field) if field else _EMPTY_STEP


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from a full-history CSV export.

    The header is checked here and the body parsed by numpy's C reader
    (`np.loadtxt`).  Lines may end in CRLF, LF or CR, and empty lines are
    skipped.  Rows must carry consecutive indices starting at 1, and every
    row but the last a step size; decimated exports cannot be audited from
    CSV alone (use the JSON record).  A malformed file raises ConfigError
    naming its 1-based line.
    """
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header == [""]:
            raise ConfigError("line 1: trajectory CSV is empty")
        if len(header) < 4 or header[0] != "n" or header[-2:] != ["residual", "t_n"]:
            raise ConfigError(
                "line 1: trajectory CSV header must be n, x_1..x_d, residual, t_n"
            )
        d = len(header) - 3
        if header[1 : 1 + d] != [f"x_{i + 1}" for i in range(d)]:
            raise ConfigError("line 1: trajectory CSV coordinate columns must be x_1..x_d")
        lines: list[int] = []  # the file line of each row handed to the parser

        def rows():
            for number, text in enumerate(fh, start=2):
                if text != "\n":
                    lines.append(number)
                    yield text

        body = rows()
        first = next(body, None)
        if first is None:
            raise ConfigError("line 2: trajectory CSV has no data rows")
        if first.count(",") != d + 2:
            raise ConfigError(
                f"line {lines[0]}: {first.count(',') + 1} fields, expected {d + 3}"
            )
        try:
            table = np.loadtxt(
                chain((first,), body),
                delimiter=",",
                comments=None,
                ndmin=2,
                converters={d + 2: _step_field},
            )
        except ValueError as exc:
            # the parser takes one line at a time from `body`, so it failed
            # on the last line taken; its own row count is dropped
            reason = str(exc).partition(" at row ")[0]
            raise ConfigError(f"line {lines[-1]}: {reason}") from exc
    k = table.shape[0]
    wrong = np.flatnonzero(table[:, 0] != np.arange(1, k + 1))
    if wrong.size:
        j = int(wrong[0])
        raise ConfigError(
            f"line {lines[j]}: index {table[j, 0]:g} where {j + 1} was expected; "
            "CSV audit requires consecutive indices starting at 1"
        )
    missing = np.flatnonzero(table[:-1, d + 2].view(np.uint64) == _EMPTY_STEP_BITS)
    if missing.size:
        raise ConfigError(f"line {lines[int(missing[0])]}: the step size t_n is missing")
    return Trajectory(
        iterates=table[:, 1 : d + 1].copy(),
        iterate_indices=np.arange(1, k + 1),
        residuals=table[:, d + 1].copy(),
        schedule_used=table[:-1, d + 2].copy(),
        stop_reason="unknown",
    )


def trajectory_to_dict(traj: Trajectory) -> dict:
    return jsonable(
        {
            "iterates": traj.iterates,
            "iterate_indices": traj.iterate_indices,
            "residuals": traj.residuals,
            "schedule_used": traj.schedule_used,
            "stop_reason": traj.stop_reason,
            "start_edge_forward": traj.start_edge_forward,
            "start_edge_reverse": traj.start_edge_reverse,
            "operator_ref": traj.operator_ref,
            "space_ref": traj.space_ref,
            "relation_ref": traj.relation_ref,
        }
    )


def trajectory_from_dict(data: dict) -> Trajectory:
    """Rebuild a trajectory from its JSON record; inconsistent records raise
    ConfigError."""
    try:
        traj = Trajectory(
            iterates=np.array(data["iterates"], dtype=float),
            iterate_indices=np.array(data["iterate_indices"], dtype=int),
            residuals=np.array(data["residuals"], dtype=float),
            schedule_used=np.array(data["schedule_used"], dtype=float),
            stop_reason=str(data["stop_reason"]),
            start_edge_forward=data.get("start_edge_forward"),
            start_edge_reverse=data.get("start_edge_reverse"),
            operator_ref=data.get("operator_ref", ""),
            space_ref=data.get("space_ref", ""),
            relation_ref=data.get("relation_ref", ""),
        )
        traj.validate()
    except (KeyError, TypeError, ValueError, InputError) as exc:
        raise ConfigError(f"malformed trajectory record: {exc}") from exc
    return traj

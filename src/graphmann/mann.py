"""The averaged iteration x_{n+1} = t_n T(x_n) + (1 - t_n) x_n with recording.

Runs are sequential by definition; the recorded trajectory keeps residuals
and step sizes for every n and (optionally decimated) iterates, and every
step can be recomputed bit-identically from the records.  Indices are
1-based in all exported artifacts.

One stepping kernel serves the run, the replay and the recheck: `_step`
writes t T(x) + (1 - t) x in place into a preallocated row, with t and
1 - t as 0-d arrays, and T is the operator's one map, `_apply` of a vector.
run() and `iterate_rows` (the replay of a decimated record) step into the
audit's blocks, and run() checks a box domain every AUDIT_BLOCK_ROWS rows;
`verify_trajectory` steps whole columns of rows at once, one audit block at
a time.  The audit's one pass (`diagnostics.AuditPass`) reads those blocks
in place as a run pushes them, or as `stream_record` pushes a stored
record, each block with its own slices of r_n and t_n; the pass applies T
once per block (`apply_batch`), the one place the audit computes images,
so no (N, d) history is needed to audit a run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain
from typing import NamedTuple

import numpy as np

from ._util import as_vector, frozen_array, jsonable
from .errors import ConfigError, DomainError, InputError
from .normed_space import MEMBERSHIP_TOL, Box, NormSpace, contains, first_outside, vector_norm
from .operators import Operator
from .order_graph import AuditReport, ConeRelation

STOP_TOLERANCE = "tolerance_met"
STOP_MAX_ITER = "max_iterations"
STOP_DIVERGED = "diverged_from_domain"

STEP_RECOMPUTE_TOL = 1e-12
DEFAULT_MAX_ITER = 100_000
DEFAULT_TOL = 1e-10

# a run steps its iterates into, and the audit reads them in, blocks of
# AUDIT_BLOCK_BYTES and at least AUDIT_BLOCK_ROWS rows (run() checks a box
# every AUDIT_BLOCK_ROWS rows), and T is applied once per block, so the
# audit's scratch memory is a few blocks whatever the length of the run.
# 512 KiB keeps a block, its images and each auditor temporary (x - Tx, edge
# differences, Fejer distances) within a 2 MiB L2 cache: 16 384 rows at
# d = 4, 256 at d = 256; only a run's last block is shorter.
# The bits of a batched T depend on the number of rows in the batch (at
# d = 255, 257 and 300 a 256-row product differs in the last bit from the
# same rows of a 3 000-row one), so a block's images are not those of T of
# the whole array; run(), the replay of a decimated record and the audit of
# a stored one cut the same blocks, so their images agree
AUDIT_BLOCK_ROWS = 256
AUDIT_BLOCK_BYTES = 512 << 10

# numbers per `%` template of the CSV writer (a block holds at least one
# row); bounds the Python floats and the text alive at once whatever the
# length and the dimension of the record
CSV_BLOCK_VALUES = 4096


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
        if vals.shape[0] < 1:  # before its bounds are read from it
            raise ConfigError("explicit schedule must contain at least one step")
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
        return edge_case(self.start_edge_forward, self.start_edge_reverse)

    def validate(self) -> None:
        """Check that the record is internally consistent.

        Residuals cover n = 1..N, steps n = 1..N-1, and every stored iterate
        row has its own index, strictly increasing from 1 to N.
        """
        for name, ndim in (
            ("iterates", 2), ("iterate_indices", 1), ("residuals", 1), ("schedule_used", 1)
        ):
            shape = getattr(self, name).shape
            if len(shape) != ndim:
                raise InputError(f"{name} must be {ndim}-dimensional, got shape {shape}")
        n_total = self.n_iterates
        if n_total == 0 or self.iterates.shape[0] == 0:
            raise InputError("empty trajectory: residuals and iterates must be nonempty")
        if self.schedule_used.shape[0] != n_total - 1:
            raise InputError("schedule_used length must be the length of residuals - 1")
        indices = self.iterate_indices
        if indices.shape[0] != self.iterates.shape[0]:
            raise InputError(
                f"{self.iterates.shape[0]} rows of iterates but "
                f"{indices.shape[0]} iterate_indices"
            )
        if int(indices[0]) != 1 or int(indices[-1]) != n_total:
            raise InputError("iterate_indices must span 1..N")
        if np.any(np.diff(indices) <= 0):
            raise InputError("iterate_indices must be strictly increasing")


def edge_case(forward: bool | None, reverse: bool | None) -> str | None:
    """'forward' / 'reverse' / 'both' / 'none' for a start comparable with its
    image in the given directions (`start_edges`), or None when unchecked."""
    if forward is None or reverse is None:
        return None
    if forward and reverse:
        return "both"
    if forward:
        return "forward"
    if reverse:
        return "reverse"
    return "none"


class AuditBlock(NamedTuple):
    """Rows start..stop-1 of a run's iterates, with what the auditors read of
    them.

    `x` holds the block's rows and then row `stop` when the run goes on (the
    step leaving the block's last row ends there); `prev` is row start - 1,
    None in the first block; `tx` is T of the block's rows, as one batch.
    `residuals` are the recorded r_n of the block's rows, `checked` the
    offsets of the rows whose step leads to a recorded iterate (that iterate
    is x[checked + 1]) and `steps` the recorded t_n of those steps.
    """

    start: int
    stop: int
    x: np.ndarray
    prev: np.ndarray | None
    tx: np.ndarray
    residuals: np.ndarray
    checked: np.ndarray
    steps: np.ndarray


def audit_block_rows(d: int) -> int:
    """Rows of one audit block at dimension d."""
    return max(AUDIT_BLOCK_ROWS, AUDIT_BLOCK_BYTES // (8 * d))


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


def _grown(array: np.ndarray, filled: int, length: int, limit: int) -> np.ndarray:
    """`array`, or when it holds fewer than `length` entries a new array
    of twice its size (at least `length`, at most `limit`) with its first
    `filled` entries."""
    if array.shape[0] >= length:
        return array
    grown = np.empty(min(max(length, 2 * array.shape[0]), limit), array.dtype)
    grown[:filled] = array[:filled]
    return grown


def run(
    operator: Operator,
    x1,
    schedule: Schedule,
    max_iter: int = DEFAULT_MAX_ITER,
    tol: float = DEFAULT_TOL,
    rel: ConeRelation | None = None,
    record_stride: int = 1,
    relation_ref: str = "",
    audit=None,
) -> Trajectory:
    """Iterate from x1 until the residual ||x_n - T(x_n)|| falls to `tol` or
    `max_iter` iterates are produced.

    When `rel` is given, comparability of (x1, T(x1)) is checked in both
    orientations (`start_edges`) and recorded on the trajectory.  Explicit
    schedules cap the run at their own length.  An iterate outside the
    domain (beyond MEMBERSHIP_TOL) ends the run with STOP_DIVERGED and its
    own residual as the last one.

    Iterates are stepped in place into audit blocks (`audit_block_rows`).
    A box domain is checked every AUDIT_BLOCK_ROWS rows, so a run that
    leaves the box applies T to at most AUDIT_BLOCK_ROWS - 1 further
    iterates and then discards them; any other body is checked after every
    step.  Only the rows `record_stride` selects and the final iterate are
    kept, and r_n goes into an array grown a block at a time, so beyond its
    record the run holds a few blocks.

    With `audit` (a `diagnostics.AuditPass`), the run is audited while it
    runs: the pass is opened with the record stride and the start flags,
    each block is pushed with its slices of r_n and t_n once it has passed
    the box check (so no discarded row is ever handed over), and the pass
    is closed after the final iterate.
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
    norm = vector_norm(space.p)
    body = operator.domain
    box = isinstance(body, Box)
    if box:
        lo, hi = body.lo - MEMBERSHIP_TOL, body.hi + MEMBERSHIP_TOL
    else:
        inside = partial(contains, space, body, tol=MEMBERSHIP_TOL)
    apply = operator._apply
    size = audit_block_rows(d)

    kept: list[np.ndarray] = []  # recorded rows, one array per block
    # r_n of the first n iterates, grown a block at a time (`_grown`)
    residuals = np.empty(min(size, effective_max))
    diff = np.empty(d)
    scratch = np.empty(d)
    if audit is not None:
        audit.open(record_stride, forward, reverse)

    pushed = None  # the block pushed last, its spare row still empty

    def keep(block: np.ndarray, base: int, count: int) -> None:
        # rows 0..count-1 of a block whose row 0 is iterate `base`, past the
        # box check; they are never written again
        nonlocal pushed
        first = -(base - 1) % record_stride
        if first < count:
            picked = block[first:count:record_stride]
            kept.append(picked if record_stride == 1 else picked.copy())
        if audit is not None:
            if pushed is not None:
                pushed[size] = block[0]
            at = base - 1  # the 0-based index of row 0's r_n and t_n
            t_n = np.broadcast_to(t, (count,)) if t_values is None else schedule.t_values[at:]
            audit.push(block, count, residuals[at : at + count], t_n[:count])
            pushed = block

    block = np.empty((size + 1, d))
    block[0] = x
    x = block[0]
    base = 1  # iterate index of block row 0
    row = 0
    checked, check = 0, AUDIT_BLOCK_ROWS  # rows checked / to check next
    n = 1
    stop = None
    while True:
        residual = norm(np.subtract(x, tx, out=diff))
        residuals[n - 1] = residual
        if residual <= tol:
            stop = STOP_TOLERANCE
            break
        if n >= effective_max:
            stop = STOP_MAX_ITER
            break
        if row + 1 == check:
            if box and first_outside(block[checked:check], lo, hi) < check - checked:
                break
            if check == size:
                # grown first, so the block pushed holds no view of the array
                # replaced
                residuals = _grown(residuals, n, n + size, effective_max)
                keep(block, base, size)
                block = np.empty((size + 1, d))
                base, row, check = n + 1, -1, 0
            checked, check = check, min(check + AUDIT_BLOCK_ROWS, size)
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
            if box and first_outside(block[checked:row], lo, hi) < row - checked:
                break
            raise
        if not box and not inside(x):
            residuals[n - 1] = norm(np.subtract(x, tx, out=diff))
            stop = STOP_DIVERGED
            break
    if box:
        out = checked + first_outside(block[checked : row + 1], lo, hi)
        if out <= row:
            # the first iterate outside the box ends the run
            row, n, stop = out, base + out, STOP_DIVERGED
    keep(block, base, row + 1)
    if (n - 1) % record_stride:  # always keep the final iterate
        kept.append(block[row : row + 1])
    if audit is not None:
        audit.close()

    indices = np.arange(1, n + 1, record_stride)
    return Trajectory(
        iterates=np.concatenate(kept),
        iterate_indices=indices if indices[-1] == n else np.append(indices, n),
        residuals=residuals[:n],
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


def iterate_rows(traj: Trajectory, operator: Operator):
    """The iterates x_1..x_N of a record, in order, as the (block, count)
    pairs of audit blocks that `AuditPass.push` takes.

    A full-history record is yielded as views of its stored rows.  The gaps
    of a decimated record are replayed in order with the recorded step
    sizes, each step written in place into a block by the same `_step` and
    the same single-vector T as run()'s loop, so every replayed iterate is
    bit-identical to the original run; the recorded iterates are copied in
    as stored.  A block is never written after it is yielded, and none is
    kept here, so the replay holds O(block) memory.  The record is not
    validated here.
    """
    d = traj.dimension
    size = audit_block_rows(d)
    if traj.is_full_history:
        rows = traj.iterates
        n = rows.shape[0]
        for start in range(0, n, size):
            yield rows[start : start + size + 1], min(size, n - start)
        return
    apply = operator._apply
    steps = traj.schedule_used.tolist()
    indices = traj.iterate_indices.tolist()
    t, s, scratch = np.empty(()), np.empty(()), np.empty(d)
    block, row = np.empty((size + 1, d)), 0
    for j, lo in enumerate(indices):
        hi = indices[j + 1] if j + 1 < len(indices) else lo + 1
        for n in range(lo, hi):
            if n == lo:
                block[row] = traj.iterates[j]
            else:
                t[()] = step = steps[n - 2]
                s[()] = 1.0 - step
                _step(x, apply(x), t, block[row], s, scratch)
            x = block[row]
            if row == size:  # the spare row: the first row of the next block
                yield block, size
                block, row = np.empty((size + 1, d)), 0
                block[0] = x
                x = block[0]
            row += 1
    yield block, row


def stream_record(traj: Trajectory, operator: Operator, audit) -> None:
    """Validate a stored record and push its iterates x_1..x_N into `audit`
    (a `diagnostics.AuditPass`), opened with the record's indices and start
    flags, each block (`iterate_rows`) with its slices of the record's
    residuals and steps."""
    traj.validate()
    indices = 1 if traj.is_full_history else traj.iterate_indices
    audit.open(indices, traj.start_edge_forward, traj.start_edge_reverse)
    start = 0
    for block, count in iterate_rows(traj, operator):
        stop = start + count
        audit.push(block, count, traj.residuals[start:stop], traj.schedule_used[start:stop])
        start = stop
    audit.close()


def full_iterates(traj: Trajectory, operator: Operator) -> np.ndarray:
    """All iterates x_1..x_N of a validated record as one (N, d) array.

    A full-history record is returned as stored, without a copy; a
    decimated one is replayed by `iterate_rows`.  The audit itself never
    needs this array: it reads the rows block by block as they are
    replayed.
    """
    traj.validate()
    if traj.is_full_history:
        return traj.iterates
    return np.concatenate([block[:count] for block, count in iterate_rows(traj, operator)])


def verify_trajectory(space: NormSpace, block: AuditBlock, report: AuditReport) -> AuditReport:
    """Recompute the residuals and recorded steps of one audit block, and
    extend `report` with them.

    `run_audits` calls this once per block of its one pass over a run's
    iterates (stored, or replayed gap by gap when decimated), with T applied
    once per block.  Over the run that makes two families of vector
    comparisons, each with tolerance STEP_RECOMPUTE_TOL (1e-12):

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
    """
    x, tx, checked = block.x[: block.stop - block.start], block.tx, block.checked
    residual_ok = np.abs(space.norms(x - tx) - block.residuals) <= STEP_RECOMPUTE_TOL
    predicted = _step(x[checked], tx[checked], block.steps[:, None])
    recorded = block.x[checked + 1]
    step_ok = space.norms(predicted - recorded) <= STEP_RECOMPUTE_TOL
    report.trials += block.stop - block.start + checked.shape[0]
    # residual of row r comes before the step leaving row r
    bad = np.flatnonzero(~residual_ok)
    if bad.size:
        report.fail(int(bad.size), (block.start + int(bad[0]), 0), (x[bad[0]],))
    bad = np.flatnonzero(~step_ok)
    if bad.size:
        k = bad[0]
        report.fail(
            int(bad.size),
            (block.start + int(checked[k]), 1),
            (predicted[k], recorded[k]),
        )
    return report


# --- serialization ----------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV with one row per recorded iterate: n, x_1..x_d, residual, t_n.

    t_n is the step leaving x_n and is empty on the final row.  Numbers use
    17 significant digits, which round-trips doubles exactly.  The bytes are
    those of `csv.writer` over `fmt17` fields (`%.17g` is the same
    conversion; no field needs quoting).  The rows are cut into blocks of
    about CSV_BLOCK_VALUES numbers, and each block is gathered from the
    record's arrays into a (rows, d + 3) table and formatted by one `%`
    template.
    """
    k, d = traj.iterates.shape
    indices = traj.iterate_indices
    residuals = traj.residuals[indices - 1]
    steps = traj.schedule_used[indices[:-1] - 1]
    row = "%d" + ",%.17g" * (d + 2) + "\r\n"
    final_row = "%d" + ",%.17g" * (d + 1) + ",\r\n"
    header = ["n"] + [f"x_{i + 1}" for i in range(d)] + ["residual", "t_n"]
    block_rows = max(1, CSV_BLOCK_VALUES // (d + 3))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, k - 1, block_rows):
            stop = min(start + block_rows, k - 1)
            table = np.empty((stop - start, d + 3))
            table[:, 0] = indices[start:stop]
            table[:, 1 : d + 1] = traj.iterates[start:stop]
            table[:, d + 1] = residuals[start:stop]
            table[:, d + 2] = steps[start:stop]
            fh.write(row * (stop - start) % tuple(table.ravel().tolist()))
        last = (int(indices[-1]), *traj.iterates[-1].tolist(), float(residuals[-1]))
        fh.write(final_row % last)


# what an empty t_n field reads as: a NaN whose payload no parsed number
# carries, so a missing step stays apart from a recorded "nan"
_EMPTY_STEP_BITS = 0x7FF8_0000_0000_0001
_EMPTY_STEP = float(np.array(_EMPTY_STEP_BITS, dtype=np.uint64).view(np.float64))


def _step_field(field: str) -> float:
    # the t_n field, empty on the final row
    return float(field) if field else _EMPTY_STEP


def _file_line(row: int, blank: list[int]) -> int:
    """The file line of data row `row` (0-based) of a trajectory CSV whose
    empty lines after the header are `blank`, in order."""
    line = row + 2
    for skipped in blank:
        if skipped > line:
            break
        line += 1
    return line


def read_trajectory_csv(path) -> Trajectory:
    """Rebuild a trajectory from a full-history CSV export.

    The header is checked here and the body parsed by numpy's C reader
    (`np.loadtxt`).  Lines may end in CRLF, LF or CR, and empty lines are
    skipped.  Rows must carry consecutive indices starting at 1, and every
    row but the last a step size; decimated exports cannot be audited from
    CSV alone (use the JSON record).  A malformed file raises ConfigError
    naming its 1-based line; one that is not UTF-8 names none.
    """
    with open(path, encoding="utf-8") as fh:
        try:
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
            blank: list[int] = []  # the file lines skipped as empty
            last = 0  # the file line of the last row handed to the parser

            def rows():
                nonlocal last
                for number, text in enumerate(fh, start=2):
                    if text == "\n":
                        blank.append(number)
                    else:
                        last = number
                        yield text

            body = rows()
            first = next(body, None)
            if first is None:
                raise ConfigError("line 2: trajectory CSV has no data rows")
            if first.count(",") != d + 2:
                raise ConfigError(
                    f"line {last}: {first.count(',') + 1} fields, expected {d + 3}"
                )
            table = np.loadtxt(
                chain((first,), body),
                delimiter=",",
                comments=None,
                ndmin=2,
                converters={d + 2: _step_field},
            )
        except UnicodeDecodeError as exc:
            raise ConfigError(f"trajectory CSV is not UTF-8: {exc}") from exc
        except ValueError as exc:
            # the parser takes one line at a time from `body`, so it failed
            # on the last line taken; its own row count is dropped
            reason = str(exc).partition(" at row ")[0]
            raise ConfigError(f"line {last}: {reason}") from exc
    k = table.shape[0]
    wrong = np.flatnonzero(table[:, 0] != np.arange(1, k + 1))
    if wrong.size:
        j = int(wrong[0])
        raise ConfigError(
            f"line {_file_line(j, blank)}: index {table[j, 0]:g} where {j + 1} was expected; "
            "CSV audit requires consecutive indices starting at 1"
        )
    missing = np.flatnonzero(table[:-1, d + 2].view(np.uint64) == _EMPTY_STEP_BITS)
    if missing.size:
        line = _file_line(int(missing[0]), blank)
        raise ConfigError(f"line {line}: the step size t_n is missing")
    return Trajectory(
        iterates=table[:, 1 : d + 1].copy(),
        iterate_indices=np.arange(1, k + 1),
        residuals=table[:, d + 1].copy(),
        schedule_used=table[:-1, d + 2].copy(),
        stop_reason="unknown",
    )


def trajectory_fields(traj: Trajectory) -> dict:
    """The JSON record of a trajectory with its arrays as they are, for
    `_util.write_json`, which converts them a chunk at a time."""
    return {
        "iterates": traj.iterates,
        "iterate_indices": traj.iterate_indices,
        "residuals": traj.residuals,
        "schedule_used": traj.schedule_used,
        **jsonable(
            {
                "stop_reason": traj.stop_reason,
                "start_edge_forward": traj.start_edge_forward,
                "start_edge_reverse": traj.start_edge_reverse,
                "operator_ref": traj.operator_ref,
                "space_ref": traj.space_ref,
                "relation_ref": traj.relation_ref,
            }
        ),
    }


def trajectory_to_dict(traj: Trajectory) -> dict:
    """The JSON record of a trajectory as plain Python values."""
    return jsonable(trajectory_fields(traj))


def trajectory_from_dict(data: dict) -> Trajectory:
    """Rebuild a trajectory from its JSON record, its number arrays as
    `_util.read_json` reads them (arrays) or as lists; inconsistent records
    raise ConfigError."""
    try:
        forward, reverse = data.get("start_edge_forward"), data.get("start_edge_reverse")
        if any(f is not None and type(f) is not bool for f in (forward, reverse)):
            raise ValueError("start flags must be true, false or null")
        traj = Trajectory(
            iterates=np.asarray(data["iterates"], dtype=float),
            iterate_indices=_iterate_indices(data["iterate_indices"]),
            residuals=np.asarray(data["residuals"], dtype=float),
            schedule_used=np.asarray(data["schedule_used"], dtype=float),
            stop_reason=str(data["stop_reason"]),
            start_edge_forward=forward,
            start_edge_reverse=reverse,
            operator_ref=data.get("operator_ref", ""),
            space_ref=data.get("space_ref", ""),
            relation_ref=data.get("relation_ref", ""),
        )
        traj.validate()
    except (KeyError, TypeError, ValueError, OverflowError, InputError) as exc:
        raise ConfigError(f"malformed trajectory record: {exc}") from exc
    return traj


def _iterate_indices(indices) -> np.ndarray:
    """A record's iterate indices as int64: integers, or integral floats,
    below 2**63 in magnitude.  Any other index (2.5, true, 2**63) raises
    ValueError, as config does, where int() would read 2.5 or true as 2 or
    1.  `read_json` gives a nonempty number array as a list unless its
    numbers are all floats or all ints that fit in int64."""
    if isinstance(indices, list) and not set(map(type, indices)) <= {int, float}:
        raise ValueError("iterate indices must be integers below 2**63")
    indices = np.asarray(indices)
    if indices.dtype.kind == "f" and np.all(
        (np.floor(indices) == indices) & (np.abs(indices) < 2.0**63)
    ):
        return indices.astype(np.int64)
    if indices.dtype.kind != "i":
        raise ValueError("iterate indices must be integers below 2**63")
    return indices

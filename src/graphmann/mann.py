"""The averaged iteration x_{n+1} = t_n T(x_n) + (1 - t_n) x_n with recording.

Runs are sequential by definition; the recorded trajectory keeps residuals
and step sizes for every n and (optionally decimated) iterates, and every
step can be recomputed bit-identically from the records.  Indices are
1-based in all exported artifacts.

One stepping kernel serves the run, the replay and the recheck: `_step`
writes t T(x) + (1 - t) x in place into a preallocated row, with t and
1 - t as 0-d arrays, and T is the operator's single-vector `_apply`.
run() steps into blocks of RUN_BLOCK_ROWS rows and checks a box domain once
per block; `iterate_rows` replays a decimated record gap by gap into blocks
of the same size; `verify_trajectory` steps whole columns of rows at once,
one audit block at a time.  The audit reads a run's rows through an
`AuditStream`, which cuts them into audit blocks as a run or a replay hands
them over, so no (N, d) history is needed to audit a run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
        return edge_case(self.start_edge_forward, self.start_edge_reverse)

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
    None in the first block; `tx` is T of the block's rows when the audit
    reads images.  `residuals` are the recorded r_n of the block's rows,
    `checked` the offsets of the rows whose step leads to a recorded iterate
    (that iterate is x[checked + 1]) and `steps` the recorded t_n of those
    steps.
    """

    start: int
    stop: int
    x: np.ndarray
    prev: np.ndarray | None
    tx: np.ndarray | None
    residuals: np.ndarray
    checked: np.ndarray
    steps: np.ndarray


def audit_block_rows(d: int) -> int:
    """Rows of one audit block at dimension d."""
    return max(AUDIT_BLOCK_ROWS, AUDIT_BLOCK_BYTES // (8 * d))


class AuditStream:
    """Cuts the rows of a run, handed over in order, into the audit's blocks.

    A producer calls `open` once with the run's record, `push` with its rows
    in order and `close` after the last.  Each block has
    `audit_block_rows(d)` rows, and a shorter tail folds into the block
    before it, so the last block has up to twice as many: a block is cut
    once its successor is full-size, or at `close`.  Pushed rows are copied
    into a ring of two blocks and a spare row, allocated at the first push,
    so the stream holds O(block) memory and allocates nothing per block but
    T of its rows, applied as one batch when `operator` is given.  Blocks
    are cut at multiples of a block, so a block's rows and the row after
    them are contiguous in the ring (the spare row repeats ring row 0);
    only a last block that wraps round is copied out.  Each block goes
    to `audit`, which queues a copy on `blocks`; a subclass audits it there
    instead, before the ring moves on.
    """

    def __init__(self, operator: Operator | None = None) -> None:
        self.images = operator
        self.blocks: list[AuditBlock] = []

    def open(self, residuals, steps, indices, forward=None, reverse=None) -> None:
        """Start a run.

        `residuals` (r_n), `steps` (t_n) and `indices` (the increasing
        1-based indices of the recorded iterates) are indexed from 0 and may
        grow while rows are pushed, as long as they cover every row pushed.
        `forward` and `reverse` are the start flags (`start_edges`), kept as
        `case` (`edge_case`).
        """
        self.record = (residuals, steps, indices)
        self.case = edge_case(forward, reverse)
        self.pending = None  # the ring, allocated at the first push
        self.start = 0  # run row of the first pending row, at ring row start % ring
        self.count = 0
        self.prev = None
        self.cursor = 1  # the first recorded index a step may lead to

    def push(self, rows: np.ndarray) -> None:
        """Hand over the run's next rows (copied)."""
        if self.pending is None:
            d = rows.shape[1]
            self.size = audit_block_rows(d)
            self.pending = np.empty((2 * self.size + 1, d))
        ring = 2 * self.size
        done = 0
        while done < rows.shape[0]:
            at = (self.start + self.count) % ring
            n = min(rows.shape[0] - done, ring - self.count, ring - at)
            self.pending[at : at + n] = rows[done : done + n]
            if at == 0:
                # the spare row after the ring: the row after a block in
                # the second half
                self.pending[ring] = rows[done]
            self.count += n
            done += n
            if self.count == ring:
                self._cut(self.size)

    def close(self) -> None:
        """End the run: the rows still pending form its last block.  The
        ring and the record are released."""
        if self.count:
            self._cut(self.count)
        self.pending = self.record = None

    def audit(self, block: AuditBlock) -> None:
        """Take one block, whose rows stay valid only for this call."""
        self.blocks.append(block._replace(x=block.x.copy()))

    def _cut(self, k: int) -> None:
        # the first k pending rows form a block; x adds the row after them
        start, stop = self.start, self.start + k
        ring = 2 * self.size
        at = start % ring
        end = at + min(k + 1, self.count)
        if end <= ring + 1:
            x = self.pending[at:end]
        else:  # a last block that wraps round the ring
            x = np.concatenate((self.pending[at:ring], self.pending[: end - ring]))
        rows = x[:k]
        # the recorded x_h with h - 2 in [start, stop): at most k of them
        residuals, steps, indices = self.record
        ends = np.array(indices[self.cursor : self.cursor + k], dtype=int)
        ends = ends[: np.searchsorted(ends, stop + 2)]
        self.cursor += ends.shape[0]
        checked = ends - (start + 2)
        self.audit(
            AuditBlock(
                start,
                stop,
                x,
                self.prev,
                None if self.images is None else self.images.apply_batch(rows),
                np.array(residuals[start:stop], dtype=float),
                checked,
                steps[checked + start],
            )
        )
        self.prev = rows[-1].copy()
        self.start, self.count = stop, self.count - k


_NO_RECORD = np.empty(0)


def audit_blocks(
    x_all,
    operator: Operator | None = None,
    traj: Trajectory | None = None,
    images: bool = True,
):
    """The audit's blocks of a run's rows, in order, as `AuditStream` cuts
    them.

    The rows are x_all, an (N, d) array, or, when it is None, the iterates
    of the record `traj` (`iterate_rows`).  With `traj`, which is validated
    first, each block carries its slices of the record, and with `operator`
    and `images`, T of its rows.
    """
    stream = AuditStream(operator if images else None)
    if traj is None:
        stream.open(_NO_RECORD, _NO_RECORD, _NO_RECORD)
    else:
        traj.validate()
        stream.open(traj.residuals, traj.schedule_used, traj.iterate_indices)
    for rows in (x_all,) if x_all is not None else iterate_rows(traj, operator):
        stream.push(rows)
        yield from stream.blocks
        stream.blocks.clear()
    stream.close()
    yield from stream.blocks


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
    audit: AuditStream | None = None,
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

    With `audit`, the run is audited while it runs: the stream is opened
    with the run's record, each block of rows is pushed once it has passed
    the box check (so no discarded row is ever handed over), and the stream
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
    if audit is not None:
        steps = (
            np.broadcast_to(schedule.t_constant, (effective_max,))
            if t_values is None
            else schedule.t_values
        )
        audit.open(residuals, steps, indices, forward, reverse)

    def keep(block: np.ndarray, base: int, count: int) -> None:
        # rows 0..count-1 of a block whose row 0 is iterate `base`, past the
        # box check; the block is never written again
        first = -(base - 1) % record_stride
        if first < count:
            picked = block[first:count:record_stride]
            kept.append(picked if record_stride == 1 else picked.copy())
            indices.extend(range(base + first, base + count, record_stride))
        if audit is not None:
            audit.push(block[:count])

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
    if audit is not None:
        audit.close()

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


def iterate_rows(traj: Trajectory, operator: Operator):
    """The iterates x_1..x_N of a record, in order, in blocks of rows.

    A full-history record is yielded as stored, in one block.  The gaps of a
    decimated record are replayed in order with the recorded step sizes,
    each step written in place into a block of RUN_BLOCK_ROWS rows by the
    same `_step` and the same single-vector T as run()'s loop, so every
    replayed iterate is bit-identical to the original run; the recorded
    iterates are copied in as stored.  A block is never written after it is
    yielded, and none is kept here, so the replay holds O(block) memory.
    The record is not validated here.
    """
    if traj.is_full_history:
        yield traj.iterates
        return
    d = traj.dimension
    apply = operator._apply
    steps = traj.schedule_used.tolist()
    indices = traj.iterate_indices.tolist()
    t, s, scratch = np.empty(()), np.empty(()), np.empty(d)
    block, row = np.empty((RUN_BLOCK_ROWS, d)), 0
    for j, lo in enumerate(indices):
        hi = indices[j + 1] if j + 1 < len(indices) else lo + 1
        for n in range(lo, hi):
            if row == RUN_BLOCK_ROWS:
                yield block
                block, row = np.empty((RUN_BLOCK_ROWS, d)), 0
            if n == lo:
                block[row] = traj.iterates[j]
            else:
                t[()] = step = steps[n - 2]
                s[()] = 1.0 - step
                _step(x, apply(x), t, block[row], s, scratch)
            x = block[row]
            row += 1
    yield block[:row]


def full_iterates(traj: Trajectory, operator: Operator) -> np.ndarray:
    """All iterates x_1..x_N of a validated record as one (N, d) array.

    A full-history record is returned as stored, without a copy; a
    decimated one is replayed by `iterate_rows`.  The audit itself never
    needs this array: it reads the rows block by block as they are
    replayed.
    """
    traj.validate()
    rows = list(iterate_rows(traj, operator))
    return rows[0] if len(rows) == 1 else np.concatenate(rows)


def verify_trajectory(
    traj: Trajectory | None,
    operator: Operator,
    x_all: np.ndarray | None = None,
    block: AuditBlock | None = None,
    report: AuditReport | None = None,
) -> AuditReport:
    """Recompute every residual and every recorded step of a trajectory.

    `x_all` holds all iterates x_1..x_N; without it the record's own are
    read, replayed gap by gap when decimated (`iterate_rows`).  The rows
    are checked one `audit_blocks` block at a time, with T applied once per
    block, in two families of vector comparisons, each with tolerance
    STEP_RECOMPUTE_TOL (1e-12):

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

    `run_audits` checks a run in one pass over its blocks as they stream
    in: it passes one `block` per call, which carries its slices of the
    record (so `traj` is not read and may be None), and the `report` the
    checks of the earlier blocks extended.  Without `block` every block is
    checked here.
    """
    if report is None:
        report = AuditReport("trajectory_consistency")
    space = operator.space
    for b in audit_blocks(x_all, operator, traj) if block is None else (block,):
        x, tx, checked = b.x[: b.stop - b.start], b.tx, b.checked
        residual_ok = np.abs(space.norms(x - tx) - b.residuals) <= STEP_RECOMPUTE_TOL
        predicted = _step(x[checked], tx[checked], b.steps[:, None])
        recorded = b.x[checked + 1]
        step_ok = space.norms(predicted - recorded) <= STEP_RECOMPUTE_TOL
        report.trials += b.stop - b.start + checked.shape[0]
        # residual of row r comes before the step leaving row r
        bad = np.flatnonzero(~residual_ok)
        if bad.size:
            report.fail(int(bad.size), (b.start + int(bad[0]), 0), (x[bad[0]],))
        bad = np.flatnonzero(~step_ok)
        if bad.size:
            k = bad[0]
            report.fail(
                int(bad.size),
                (b.start + int(checked[k]), 1),
                (predicted[k], recorded[k]),
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

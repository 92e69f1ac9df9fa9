import csv
import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphmann.mann
from graphmann._util import fmt17
from graphmann.cli import main
from graphmann.corpus import oracle_1d_config
from graphmann.errors import ConfigError, DomainError, InputError
from graphmann.mann import (
    AUDIT_BLOCK_ROWS,
    STEP_RECOMPUTE_TOL,
    STOP_DIVERGED,
    STOP_MAX_ITER,
    STOP_TOLERANCE,
    Schedule,
    Trajectory,
    _step,
    full_iterates,
    read_trajectory_csv,
    run,
    start_edges,
    trajectory_from_dict,
    trajectory_to_dict,
    write_trajectory_csv,
)
from graphmann.normed_space import MEMBERSHIP_TOL, Ball, Box, NormSpace, contains
from graphmann.operators import (
    Componentwise,
    Identity,
    MatrixAffine,
    NonmonotoneSwap,
    Operator,
)
from graphmann.order_graph import AuditReport, ConeRelation
from testonly_records import audit_record, decimate

SPACE1 = NormSpace(1, 2.0)
BOX1 = Box([0.0], [1.0])
REL1 = ConeRelation(np.eye(1))
REL5 = ConeRelation(np.eye(5))


def midpoint_map():
    """f(x) = (x + 1)/2 on [0, 1]; closed-form iterates are known."""
    return Componentwise(SPACE1, BOX1, (np.array([0.0, 1.0]),), (np.array([0.5, 1.0]),))


def doubly_stochastic_map(d, p, seed=0):
    """x |-> clamp(0.9 P x + 0.05) on [0, 1]^d, P an average of permutations,
    so its operator norm is 0.9 in every l_p."""
    rng = np.random.default_rng([seed, d])
    perm = sum(np.eye(d)[rng.permutation(d)] for _ in range(3)) / 3.0
    return MatrixAffine(NormSpace(d, p), Box(np.zeros(d), np.ones(d)), 0.9 * perm, np.full(d, 0.05))


def piecewise_map(d, p):
    knots_x = tuple(np.array([0.0, 0.3, 0.7, 1.0]) for _ in range(d))
    knots_y = tuple(np.array([0.25, 0.4, 0.65, 0.75]) + 0.01 * i for i in range(d))
    return Componentwise(NormSpace(d, p), Box(np.zeros(d), np.ones(d)), knots_x, knots_y)


def swap_map(d, p):
    return NonmonotoneSwap(NormSpace(d, p), Box(np.zeros(d), np.ones(d)), 0.8,
                           np.linspace(0.05, 0.15, d))


def identity_map(d, p):
    return Identity(NormSpace(d, p), Box(np.zeros(d), np.ones(d)))


class BallContraction(Operator):
    """x |-> c + s (x - c) + shift on a ball around c; maps the ball into
    itself while ||shift|| <= (1 - s) r."""

    def __init__(self, d, p=2.0):
        self.space = NormSpace(d, p)
        self.domain = Ball(np.full(d, 0.5), 1.0)
        self.shift = np.linspace(-0.05, 0.05, d)

    def _apply(self, x):
        c = self.domain.center
        return c + 0.7 * (x - c) + self.shift


def reference_verify(traj, operator):
    """The per-step recheck that verify_trajectory batches: replay each gap
    with the single-vector T, checking residual n, then the step into each
    recorded iterate, then the final residual."""
    space = operator.space
    report = AuditReport("trajectory_consistency")
    for j in range(traj.iterate_indices.shape[0] - 1):
        lo, hi = int(traj.iterate_indices[j]), int(traj.iterate_indices[j + 1])
        x = np.array(traj.iterates[j])
        for n in range(lo, hi):
            tx = operator._apply(x)
            report.record(
                abs(space.norm(x - tx) - traj.residuals[n - 1]) <= STEP_RECOMPUTE_TOL, x
            )
            t = traj.schedule_used[n - 1]
            x = t * tx + (1.0 - t) * x
        report.record(
            space.norm(x - traj.iterates[j + 1]) <= STEP_RECOMPUTE_TOL,
            x,
            traj.iterates[j + 1],
        )
    final = traj.iterates[-1]
    report.record(
        abs(space.norm(final - operator._apply(final)) - traj.residuals[-1])
        <= STEP_RECOMPUTE_TOL,
        final,
    )
    return report


def reference_run(operator, x1, schedule, max_iter, tol, rel=None, record_stride=1):
    """The per-iterate loop that run() blocks: one fresh array per step, the
    domain checked after every step, every recorded iterate kept."""
    space = operator.space
    x = np.asarray(x1, dtype=float)
    tx = operator._apply(x)
    forward = reverse = None
    if rel is not None:
        forward, reverse = rel.contains(x, tx), rel.contains(tx, x)
    effective_max = max_iter
    if schedule.steps_available is not None:
        effective_max = min(max_iter, schedule.steps_available + 1)
    t_values = None if schedule.t_values is None else schedule.t_values.tolist()
    recorded, indices, residuals, steps = [], [], [], []
    n = 1
    while True:
        residual = space.norm(x - tx)
        residuals.append(residual)
        if (n - 1) % record_stride == 0:
            recorded.append(x)
            indices.append(n)
        if residual <= tol:
            stop = STOP_TOLERANCE
            break
        if n >= effective_max:
            stop = STOP_MAX_ITER
            break
        t = schedule.t_constant if t_values is None else t_values[n - 1]
        x = t * tx + (1.0 - t) * x
        steps.append(t)
        n += 1
        tx = operator._apply(x)
        if not contains(space, operator.domain, x, MEMBERSHIP_TOL):
            residuals.append(space.norm(x - tx))
            stop = STOP_DIVERGED
            break
    if indices[-1] != n:
        recorded.append(x)
        indices.append(n)
    return Trajectory(
        iterates=np.stack(recorded),
        iterate_indices=np.array(indices, dtype=int),
        residuals=np.array(residuals),
        schedule_used=np.array(steps),
        stop_reason=stop,
        start_edge_forward=forward,
        start_edge_reverse=reverse,
        operator_ref=operator.describe(),
        space_ref=f"l{space.p}(d={space.dimension})",
    )


def reference_write_csv(traj, path):
    """The csv.writer + fmt17 writer that write_trajectory_csv's one
    template per row reproduces byte for byte."""
    d = traj.dimension
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n"] + [f"x_{i + 1}" for i in range(d)] + ["residual", "t_n"])
        for j, n in enumerate(traj.iterate_indices):
            n = int(n)
            t = fmt17(traj.schedule_used[n - 1]) if n <= traj.n_iterates - 1 else ""
            writer.writerow(
                [str(n)]
                + [fmt17(v) for v in traj.iterates[j]]
                + [fmt17(traj.residuals[n - 1]), t]
            )


def reference_read_csv(path):
    """The csv.reader loop that read_trajectory_csv's numpy parse replaces."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ConfigError("trajectory CSV is empty")
    header = rows[0]
    if len(header) < 4 or header[0] != "n" or header[-2] != "residual" or header[-1] != "t_n":
        raise ConfigError("trajectory CSV header must be n, x_1..x_d, residual, t_n")
    d = len(header) - 3
    if header[1 : 1 + d] != [f"x_{i + 1}" for i in range(d)]:
        raise ConfigError("trajectory CSV coordinate columns must be x_1..x_d")
    body = rows[1:]
    if not body:
        raise ConfigError("trajectory CSV has no data rows")
    iterates, indices, residuals, steps = [], [], [], []
    for k, row in enumerate(body):
        if len(row) != len(header):
            raise ConfigError(f"row {k + 2} has {len(row)} fields, expected {len(header)}")
        try:
            n = int(row[0])
            if n != k + 1:
                raise ConfigError("CSV audit requires consecutive indices starting at 1")
            indices.append(n)
            iterates.append([float(v) for v in row[1 : 1 + d]])
            residuals.append(float(row[1 + d]))
            t_field = row[2 + d]
            if k < len(body) - 1:
                if t_field == "":
                    raise ConfigError(f"row {k + 2} is missing its step size")
                steps.append(float(t_field))
        except ValueError as exc:
            raise ConfigError(f"row {k + 2} is not numeric: {exc}") from exc
    return Trajectory(
        iterates=np.array(iterates),
        iterate_indices=np.array(indices, dtype=int),
        residuals=np.array(residuals),
        schedule_used=np.array(steps),
        stop_reason="unknown",
    )


def assert_same_trajectory(a, b):
    for field in dataclasses.fields(Trajectory):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.shape == y.shape, field.name
            assert x.tobytes() == y.tobytes(), field.name  # bitwise, NaN included
        else:
            assert x == y, field.name


class Drifting(Operator):
    def __init__(self):
        self.space = SPACE1
        self.domain = BOX1

    def _apply(self, x):
        return x + 0.3  # leaves [0, 1] after a few steps


class Escape(Operator):
    """T(x) = x + s in d coordinates, so with step t the iterates x_n =
    (n - 1) t s first leave the unit box at x_target.  Counts its calls; with
    `refuse_after` it raises on a point past that many steps beyond x_target,
    and with `body` it runs on that body instead of the box."""

    def __init__(self, target, t, d=2, p=2.0, refuse_after=None, body=None):
        self.space = NormSpace(d, p)
        self.domain = body if body is not None else Box(np.zeros(d), np.ones(d))
        self.shift = np.full(d, 1.0 / (t * (target - 1.5)))
        self.limit = None if refuse_after is None else 1.0 + (refuse_after + 1.0) * t * self.shift[0]
        self.calls = 0

    def _apply(self, x):
        self.calls += 1
        if self.limit is not None and x[0] > self.limit:
            raise DomainError("refused a point far outside the box")
        return x + self.shift


def closed_form(n, t, x1=0.0):
    # recurrence oracle: x_{n+1} = (1 - t/2) x_n + t/2 has fixed point 1
    return 1.0 - (1.0 - x1) * (1.0 - t / 2.0) ** (n - 1)


class TestMannStep:
    """The averaged step that run() and full_iterates() share."""

    def test_zero_step_keeps_x(self):
        x, tx = np.array([0.2, 0.4]), np.array([0.9, 0.9])
        assert np.array_equal(_step(x, tx, 0.0), x)

    def test_full_step_moves_to_image(self):
        x, tx = np.array([0.2, 0.4]), np.array([0.9, 0.9])
        assert np.array_equal(_step(x, tx, 1.0), tx)

    def test_fixed_point_is_stationary(self):
        x = np.array([0.3, 0.7])
        for t in (0.1, 0.5, 0.9):
            assert np.allclose(_step(x, x, t), x)

    def test_step_out_of_range(self):
        # a step outside [0, 1] cannot reach run(): schedules refuse it
        with pytest.raises(ConfigError):
            Schedule.explicit([0.5, 1.5], enforce_bounds=False)
        with pytest.raises(ConfigError):
            Schedule.constant(-0.1, enforce_bounds=False)

    @given(st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
    def test_stays_on_segment(self, t, a, b):
        out = _step(np.array([a]), np.array([b]), t)
        assert min(a, b) - 1e-12 <= out[0] <= max(a, b) + 1e-12

    def test_run_takes_this_step(self):
        op = midpoint_map()
        traj = run(op, [0.0], Schedule.constant(0.3), max_iter=30, tol=0.0)
        for n in range(traj.n_iterates - 1):
            x = traj.iterates[n]
            assert np.array_equal(traj.iterates[n + 1], _step(x, op._apply(x), 0.3))

    def test_step_into_out_matches_allocating_step(self, rng):
        x, tx = rng.uniform(0, 1, (40, 9)), rng.uniform(0, 1, (40, 9))
        for k, t in enumerate(rng.uniform(0, 1, 40)):
            out = np.empty(9)
            assert _step(x[k], tx[k], t, out=out) is out
            assert np.array_equal(out, t * tx[k] + (1.0 - t) * x[k])

    def test_zero_d_steps_into_rows_match_float_steps(self, rng):
        x, tx = rng.uniform(0, 1, (40, 9)), rng.uniform(0, 1, (40, 9))
        t, s, out, scratch = np.empty(()), np.empty(()), np.empty(9), np.empty(9)
        for k, step in enumerate(rng.uniform(0, 1, 40)):
            t[()], s[()] = step, 1.0 - step
            assert _step(x[k], tx[k], t, out, s, scratch) is out
            assert out.tobytes() == (step * tx[k] + (1.0 - step) * x[k]).tobytes()

    def test_column_of_steps_matches_rowwise_steps(self, rng):
        x, tx = rng.uniform(0, 1, (20, 3)), rng.uniform(0, 1, (20, 3))
        t = rng.uniform(0, 1, 20)
        rowwise = np.stack([_step(x[k], tx[k], t[k]) for k in range(20)])
        assert np.array_equal(_step(x, tx, t[:, None]), rowwise)


class TestSchedule:
    def test_constant_bounds_default_to_t(self):
        sched = Schedule.constant(0.4)
        assert sched.a == sched.b == 0.4

    def test_enforced_bounds_reject_t_one(self):
        with pytest.raises(ConfigError):
            Schedule.constant(1.0)

    def test_unenforced_allows_t_one(self):
        sched = Schedule.constant(1.0, enforce_bounds=False)
        assert sched.t_constant == 1.0

    def test_steps_outside_declared_bounds_rejected(self):
        with pytest.raises(ConfigError):
            Schedule.explicit([0.2, 0.8], a=0.3, b=0.7)

    def test_unenforced_still_requires_unit_interval(self):
        with pytest.raises(ConfigError):
            Schedule.constant(1.2, enforce_bounds=False)


class TestStartEdges:
    """(edge(x1, T x1), edge(T x1, x1)), with y standing for T x1."""

    def test_reverse_edge(self):
        assert start_edges(ConeRelation(np.eye(2)), [1, 2], [0, 0]) == (False, True)

    def test_incomparable(self):
        assert start_edges(ConeRelation(np.eye(2)), [1, 0], [0, 1]) == (False, False)

    def test_loop(self):
        assert start_edges(ConeRelation(np.eye(2)), [0.5, 0.5], [0.5, 0.5]) == (True, True)

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    )
    def test_symmetric(self, x, y):
        rel = ConeRelation(np.array([[1.0, 1.0]]))
        assert start_edges(rel, x, y) == start_edges(rel, y, x)[::-1]


class TestRun:
    def test_one_dimensional_oracle_first_steps(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=5, tol=0.0)
        assert traj.iterates[:, 0] == pytest.approx([0.0, 0.25, 0.4375, 0.578125, 0.68359375])

    @pytest.mark.parametrize("t", [0.3, 0.5, 0.9])
    def test_matches_closed_form_for_100_iterates(self, t):
        traj = run(midpoint_map(), [0.0], Schedule.constant(t), max_iter=100, tol=0.0)
        n_got = traj.n_iterates  # fast schedules reach the fixed point exactly
        if n_got < 100:
            assert traj.stop_reason == STOP_TOLERANCE
            assert traj.final_iterate[0] == 1.0
        expect = np.array([closed_form(n, t) for n in range(1, n_got + 1)])
        assert np.max(np.abs(traj.iterates[:, 0] - expect)) <= 1e-10

    def test_converges_to_fixed_point(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), rel=REL1)
        assert traj.stop_reason == STOP_TOLERANCE
        assert traj.final_iterate[0] == pytest.approx(1.0, abs=1e-8)
        assert traj.start_edge_forward and not traj.start_edge_reverse

    def test_start_at_fixed_point_stops_immediately(self):
        op = MatrixAffine(
            NormSpace(2, 2.0), Box([0, 0], [1, 1]), 0.5 * np.eye(2), [0.25, 0.25]
        )
        traj = run(op, [0.5, 0.5], Schedule.constant(0.3))
        assert traj.stop_reason == STOP_TOLERANCE
        assert traj.n_iterates == 1
        assert traj.residuals[0] == 0.0
        assert traj.schedule_used.shape == (0,)

    def test_identity_operator_every_iterate_equal(self, rng):
        op = Identity(NormSpace(2, 2.0), Box([0, 0], [1, 1]))
        x1 = rng.uniform(0, 1, 2)
        traj = run(op, x1, Schedule.constant(0.5))
        assert traj.n_iterates == 1 and traj.residuals[0] == 0.0
        assert np.array_equal(traj.final_iterate, x1)

    def test_record_lengths_are_consistent(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=40, tol=0.0)
        assert traj.residuals.shape[0] == 40
        assert traj.schedule_used.shape[0] == 39
        assert traj.iterates.shape[0] == 40
        assert traj.iterate_indices[0] == 1 and traj.iterate_indices[-1] == 40

    def test_step_recomputation_tolerance(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=60, tol=0.0)
        op = midpoint_map()
        for n in range(traj.n_iterates - 1):
            x = traj.iterates[n]
            t = traj.schedule_used[n]
            expect = t * op.evaluate(x) + (1 - t) * x
            assert SPACE1.norm(traj.iterates[n + 1] - expect) <= 1e-12

    def test_domain_retention(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.7), max_iter=200, tol=0.0)
        assert np.all(traj.iterates[:, 0] >= -1e-9)
        assert np.all(traj.iterates[:, 0] <= 1.0 + 1e-9)

    def test_outside_start_rejected(self):
        with pytest.raises(DomainError):
            run(midpoint_map(), [1.5], Schedule.constant(0.5))

    def test_deterministic_reruns_bit_identical(self):
        a = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=50, tol=0.0)
        b = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=50, tol=0.0)
        assert np.array_equal(a.iterates, b.iterates)
        assert np.array_equal(a.residuals, b.residuals)

    def test_explicit_schedule_exhaustion_caps_run(self):
        sched = Schedule.explicit([0.5] * 10)
        traj = run(midpoint_map(), [0.0], sched, max_iter=10_000, tol=0.0)
        assert traj.stop_reason == STOP_MAX_ITER
        assert traj.n_iterates == 11

    def test_diverging_operator_stops_with_reason(self):
        class Leaky(Operator):
            def __init__(self):
                self.space = SPACE1
                self.domain = BOX1

            def _apply(self, x):
                return x + 2.0  # leaves [0, 1] immediately after one step

        traj = run(Leaky(), [0.5], Schedule.constant(0.5), max_iter=50, tol=0.0)
        assert traj.stop_reason == STOP_DIVERGED
        assert traj.n_iterates == 2


class TestDecimation:
    def test_residuals_remain_full_length(self):
        traj = run(
            midpoint_map(), [0.0], Schedule.constant(0.5),
            max_iter=100, tol=0.0, record_stride=10,
        )
        assert traj.residuals.shape[0] == 100
        assert traj.schedule_used.shape[0] == 99
        assert traj.iterates.shape[0] < 100
        assert traj.iterate_indices[0] == 1 and traj.iterate_indices[-1] == 100

    def test_replay_recovers_bitwise_iterates(self):
        full = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=100, tol=0.0)
        thin = run(
            midpoint_map(), [0.0], Schedule.constant(0.5),
            max_iter=100, tol=0.0, record_stride=7,
        )
        assert np.array_equal(full_iterates(thin, midpoint_map()), full.iterates)
        op = doubly_stochastic_map(16, 2.0)
        x1 = np.random.default_rng(5).uniform(0, 1, 16)
        full = run(op, x1, Schedule.constant(0.6), max_iter=150, tol=0.0)
        thin = run(op, x1, Schedule.constant(0.6), max_iter=150, tol=0.0, record_stride=11)
        assert np.array_equal(full_iterates(thin, op), full.iterates)

    def test_verify_decimated_trajectory(self):
        thin = run(
            midpoint_map(), [0.0], Schedule.constant(0.5),
            max_iter=80, tol=0.0, record_stride=9,
        )
        assert audit_record("trajectory", thin, midpoint_map()).failures == 0

    @pytest.mark.parametrize("stride", [1, 2, 7, 50, 1000])
    def test_decimate_matches_strided_run(self, stride):
        op = doubly_stochastic_map(4, 2.0)
        x1 = np.random.default_rng(3).uniform(0, 1, 4)
        schedule = Schedule.constant(0.6)
        for n in sorted({1, 2, stride, stride + 1}):
            full = run(op, x1, schedule, max_iter=n, tol=0.0)
            thin = run(op, x1, schedule, max_iter=n, tol=0.0, record_stride=stride)
            assert_same_trajectory(decimate(full, stride), thin)

    @pytest.mark.parametrize("stride", [1, 2, 3, 50])
    def test_decimate_matches_strided_run_on_divergence(self, stride):
        full = run(Drifting(), [0.0], Schedule.constant(0.5), max_iter=50, tol=0.0)
        thin = run(Drifting(), [0.0], Schedule.constant(0.5), max_iter=50, tol=0.0,
                   record_stride=stride)
        assert full.stop_reason == STOP_DIVERGED
        assert_same_trajectory(decimate(full, stride), thin)

    def test_decimate_stride_one_is_the_trajectory(self):
        full = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=20, tol=0.0)
        assert decimate(full, 1) is full

    def test_decimate_needs_full_history(self):
        thin = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=20, tol=0.0,
                   record_stride=3)
        with pytest.raises(InputError):
            decimate(thin, 2)
        with pytest.raises(InputError):
            decimate(run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=5), 0)


class TestVerify:
    def test_any_run_output_passes(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=60, tol=0.0)
        report = audit_record("trajectory", traj, midpoint_map())
        assert report.status == "pass" and report.failures == 0

    def test_tampered_iterate_detected(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=60, tol=0.0)
        traj.iterates = traj.iterates.copy()
        traj.iterates[30, 0] += 1e-6
        report = audit_record("trajectory", traj, midpoint_map())
        assert report.failures >= 1

    def test_empty_trajectory_is_input_error(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=5, tol=0.0)
        traj.residuals = np.array([])
        with pytest.raises(InputError):
            audit_record("trajectory", traj, midpoint_map())


class TestLoopFastPath:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, np.inf])
    @pytest.mark.parametrize("family", [doubly_stochastic_map, piecewise_map])
    def test_residuals_bitwise_equal_to_space_norm(self, family, p):
        op = family(6, p)
        x1 = np.random.default_rng(2).uniform(0, 1, 6)
        traj = run(op, x1, Schedule.constant(0.4), max_iter=200, tol=0.0)
        for n in range(traj.n_iterates):
            x = traj.iterates[n]
            assert traj.residuals[n] == op.space.norm(x - op._apply(x))

    def test_ball_residuals_bitwise_equal_to_space_norm(self):
        op = BallContraction(5)
        traj = run(op, np.full(5, 0.1), Schedule.constant(0.5), max_iter=120, tol=0.0)
        assert traj.stop_reason == STOP_MAX_ITER
        for n in range(traj.n_iterates):
            x = traj.iterates[n]
            assert traj.residuals[n] == op.space.norm(x - op._apply(x))

    @pytest.mark.parametrize("overshoot, diverged", [(5e-10, False), (2e-9, True)])
    def test_box_membership_tolerance_kept(self, overshoot, diverged):
        # leaving the box by less than MEMBERSHIP_TOL (1e-9) is not divergence
        class Nudge(Operator):
            def __init__(self):
                self.space, self.domain = SPACE1, BOX1

            def _apply(self, x):
                return np.array([1.0 + overshoot])

        traj = run(Nudge(), [0.0], Schedule.constant(1.0, enforce_bounds=False),
                   max_iter=5, tol=0.0)
        assert (traj.stop_reason == STOP_DIVERGED) == diverged
        assert traj.n_iterates == 2


K = AUDIT_BLOCK_ROWS  # rows between box checks
STRIDES = (1, 7, K, K + 1)


def kernel_schedules():
    values = np.random.default_rng(8).uniform(0.2, 0.8, 4 * K)
    return {"constant": Schedule.constant(0.4), "explicit": Schedule.explicit(values)}


class TestBlockKernel:
    """run()'s block kernel against the per-iterate loop it replaced."""

    @pytest.mark.parametrize("schedule", ["constant", "explicit"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    @pytest.mark.parametrize(
        "family", [doubly_stochastic_map, piecewise_map, identity_map, swap_map]
    )
    def test_box_runs_bitwise_equal_to_reference(self, family, p, schedule):
        op = family(5, p)
        sched = kernel_schedules()[schedule]
        x1 = np.random.default_rng(4).uniform(0, 1, 5)
        # a max_iter stop two blocks in, a tolerance stop, and N = 1
        for max_iter, tol in ((2 * K + 3, 0.0), (100_000, 1e-12), (1, 0.0)):
            for stride in STRIDES:
                args = (op, x1, sched, max_iter, tol, REL5, stride)
                assert_same_trajectory(run(*args), reference_run(*args))

    @pytest.mark.parametrize("schedule", ["constant", "explicit"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    def test_ball_runs_bitwise_equal_to_reference(self, p, schedule):
        op = BallContraction(5, p)
        sched = kernel_schedules()[schedule]
        for max_iter, tol in ((2 * K + 3, 0.0), (100_000, 1e-6), (1, 0.0)):
            for stride in STRIDES:
                args = (op, np.full(5, 0.3), sched, max_iter, tol, REL5, stride)
                assert_same_trajectory(run(*args), reference_run(*args))

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("target", [2, K - 1, K, K + 1, K + 2, 2 * K + 1])
    def test_divergence_ends_at_the_first_outside_iterate(self, target, stride):
        sched = Schedule.constant(0.5)
        expect = reference_run(Escape(target, 0.5), np.zeros(2), sched, 10 * K, 0.0,
                               record_stride=stride)
        assert expect.stop_reason == STOP_DIVERGED and expect.n_iterates == target
        op = Escape(target, 0.5)
        got = run(op, np.zeros(2), sched, max_iter=10 * K, tol=0.0, record_stride=stride)
        assert_same_trajectory(got, expect)
        # T is applied to x_1..x_target, then to at most K - 1 discarded
        # iterates (under the shipped rule a block is 32 768 rows at d = 2)
        assert target <= op.calls <= target + K - 1

    @pytest.mark.parametrize("n_stop", [K - 1, K, K + 1])
    def test_tolerance_stop_at_block_edges(self, n_stop):
        sched = Schedule.constant(0.02)
        tol = reference_run(midpoint_map(), [0.0], sched, 2 * K, 0.0).residuals[n_stop - 1]
        for stride in STRIDES:
            args = (midpoint_map(), [0.0], sched, 2 * K, tol, REL1, stride)
            expect = reference_run(*args)
            assert expect.stop_reason == STOP_TOLERANCE and expect.n_iterates == n_stop
            assert_same_trajectory(run(*args), expect)

    @pytest.mark.parametrize("target", [K - 1, K, K + 1])
    def test_divergence_with_a_stop_inside_the_block(self, target):
        # the outside iterate wins over a later max_iter or tolerance stop
        sched = Schedule.explicit(np.full(target + 3, 0.5))
        for max_iter, tol in ((target, 0.0), (target + 2, 0.0), (10 * K, 1e9)):
            args = (Escape(target, 0.5), np.zeros(2), sched, max_iter, tol)
            assert_same_trajectory(run(*args), reference_run(*args))

    @pytest.mark.parametrize("target", [K - 1, K, K + 1])
    def test_divergence_on_a_ball_is_checked_every_step(self, target):
        ball = Ball(np.full(2, 0.5), 0.5)
        args = (np.full(2, 0.5), Schedule.constant(0.5), 10 * K, 0.0)
        expect = reference_run(Escape(target, 0.5, body=ball), *args)
        op = Escape(target, 0.5, body=ball)
        assert_same_trajectory(run(op, *args), expect)
        assert expect.stop_reason == STOP_DIVERGED
        assert op.calls == expect.n_iterates

    @pytest.mark.parametrize("target", [K - 1, K, K + 1])
    def test_refusal_past_an_outside_iterate_is_divergence(self, target):
        args = (np.zeros(2), Schedule.constant(0.5), 10 * K, 0.0)
        expect = reference_run(Escape(target, 0.5, refuse_after=0), *args)
        assert expect.stop_reason == STOP_DIVERGED
        assert_same_trajectory(run(Escape(target, 0.5, refuse_after=0), *args), expect)

    @pytest.mark.parametrize("stride", [1, 7])
    def test_nan_iterate_is_divergence(self, stride):
        class GoesNaN(Operator):
            def __init__(self):
                self.space, self.domain = NormSpace(2, 2.0), Box(np.zeros(2), np.ones(2))

            def _apply(self, x):
                return np.full(2, np.nan) if x[0] > 0.99 else 0.5 * (x + 1.0)

        args = (GoesNaN(), np.zeros(2), Schedule.constant(0.02), 10 * K, 0.0, None, stride)
        expect = reference_run(*args)
        assert expect.stop_reason == STOP_DIVERGED and expect.n_iterates > K
        assert_same_trajectory(run(*args), expect)

    def test_refusal_inside_the_box_is_raised(self):
        class Refusing(Operator):
            def __init__(self):
                self.space, self.domain, self.calls = SPACE1, BOX1, 0

            def _apply(self, x):
                self.calls += 1
                if self.calls > K + 3:
                    raise DomainError("refused")
                return 0.5 * (x + 1.0)

        with pytest.raises(DomainError):
            run(Refusing(), [0.0], Schedule.constant(0.01), max_iter=10 * K, tol=0.0)

    def test_start_and_images_are_not_written(self):
        class FrozenImages(Operator):
            def __init__(self):
                self.space, self.domain = NormSpace(3, 1.5), Box(np.zeros(3), np.ones(3))

            def _apply(self, x):
                v = 0.5 * x + 0.25
                v.flags.writeable = False
                return v

        x1 = np.array([0.0, 0.5, 1.0])
        x1.flags.writeable = False
        op = FrozenImages()
        args = (op, x1, Schedule.constant(0.3), 2 * K + 5, 0.0, None, 7)
        assert_same_trajectory(run(*args), reference_run(*args))
        assert np.array_equal(x1, [0.0, 0.5, 1.0])

    @pytest.mark.parametrize("d", [1, 16, 256])
    def test_replayed_decimated_records_equal_full_history(self, d):
        op = doubly_stochastic_map(d, 1.5)
        x1 = np.random.default_rng(d).uniform(0, 1, d)
        sched = kernel_schedules()["explicit"]
        full = run(op, x1, sched, max_iter=2 * K + 9, tol=0.0)
        for stride in (7, K, K + 1):
            thin = run(op, x1, sched, max_iter=2 * K + 9, tol=0.0, record_stride=stride)
            assert np.array_equal(full_iterates(thin, op), full.iterates)


class TestBlockKernelSmallBlocks(TestBlockKernel):
    """The same with box checks every 16 rows in blocks of 40 rows at d = 5
    (100 at d = 2, 200 at d = 1), so runs cross many blocks and a block
    ends between two box checks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", 16)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 8 * 5 * 40)


def tampered(kind, p, family):
    op = family(5, p)
    x1 = np.random.default_rng(3).uniform(0, 1, 5)
    stride = 7 if kind == "decimated_iterate" else 1
    traj = run(op, x1, Schedule.constant(0.3), max_iter=120, tol=0.0, record_stride=stride)
    traj.iterates = traj.iterates.copy()
    if kind in ("iterate", "decimated_iterate"):
        traj.iterates[traj.iterates.shape[0] // 2, 1] += 1e-6
    elif kind == "residual":
        traj.residuals = traj.residuals.copy()
        traj.residuals[70] += 1e-9
    elif kind == "step":
        traj.schedule_used = traj.schedule_used.copy()
        traj.schedule_used[40] += 1e-3
    elif kind == "residual_and_step":
        # residual 41 and the step leaving x_41 fail; the residual comes first
        traj.residuals = traj.residuals.copy()
        traj.schedule_used = traj.schedule_used.copy()
        traj.residuals[40] += 1e-9
        traj.schedule_used[40] += 1e-3
    return traj, op


class TestBatchedVerify:
    @pytest.mark.parametrize("block", [1024, 7])
    @pytest.mark.parametrize(
        "kind",
        ["none", "iterate", "residual", "step", "residual_and_step", "decimated_iterate"],
    )
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, np.inf])
    @pytest.mark.parametrize("family", [doubly_stochastic_map, piecewise_map])
    def test_matches_per_step_reference(self, monkeypatch, family, p, kind, block):
        # blocks of `block` rows: the byte budget never exceeds the minimum
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", block)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)
        traj, op = tampered(kind, p, family)
        expect = reference_verify(traj, op)
        got = audit_record("trajectory", traj, op)
        assert (got.trials, got.failures) == (expect.trials, expect.failures)
        assert (got.failures > 0) == (kind != "none")
        if expect.witness is None:
            assert got.witness is None
        else:
            assert len(got.witness) == len(expect.witness)
            for a, b in zip(got.witness, expect.witness):
                assert np.max(np.abs(a - b)) <= 1e-12


class TestSerialization:
    def test_csv_round_trip_lossless(self, tmp_path):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=40, tol=0.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        back = read_trajectory_csv(path)
        assert np.array_equal(back.iterates, traj.iterates)
        assert np.array_equal(back.residuals, traj.residuals)
        assert np.array_equal(back.schedule_used, traj.schedule_used)
        assert audit_record("trajectory", back, midpoint_map()).failures == 0

    def test_csv_one_based_indices(self, tmp_path):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=3, tol=0.0)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "n,x_1,residual,t_n"
        assert lines[1].startswith("1,")
        assert lines[-1].endswith(",")  # final row carries no step

    # 2 048 + 3 numbers make a row longer than a CSV block
    @pytest.mark.parametrize("d", [1, 4, 256, 2048])
    @pytest.mark.parametrize("stride", [1, 9])
    def test_csv_bytes_match_reference_writer(self, tmp_path, d, stride):
        op = doubly_stochastic_map(d, 2.0)
        x1 = np.random.default_rng(d).uniform(0, 1, d)
        traj = run(op, x1, Schedule.constant(0.6), max_iter=40, tol=0.0,
                   record_stride=stride)
        write_trajectory_csv(traj, tmp_path / "new.csv")
        reference_write_csv(traj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_bytes_match_reference_writer_edge_records(self, tmp_path):
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
        one = run(midpoint_map(), [0.25], Schedule.constant(0.5), max_iter=1)
        records = [
            one,
            Trajectory(
                iterates=np.array([special, special[::-1], [0.1] * 6]),
                iterate_indices=np.array([1, 3, 4]),
                residuals=np.array([math.inf, -0.0, 5e-324, math.nan]),
                schedule_used=np.array([1.7976931348623157e308, 0.5, -0.0]),
                stop_reason=STOP_MAX_ITER,
            ),
        ]
        for k, traj in enumerate(records):
            write_trajectory_csv(traj, tmp_path / f"new{k}.csv")
            reference_write_csv(traj, tmp_path / f"ref{k}.csv")
            new = (tmp_path / f"new{k}.csv").read_bytes()
            assert new == (tmp_path / f"ref{k}.csv").read_bytes()

    # at d = 3 a row holds 6 numbers, so these are blocks of 1, 2 and 7 rows
    @pytest.mark.parametrize("block", [1, 12, 47])
    @pytest.mark.parametrize("n", [1, 2, 6, 7, 8, 15, 16])
    def test_csv_blocks_match_reference_writer(self, tmp_path, monkeypatch, block, n):
        monkeypatch.setattr(graphmann.mann, "CSV_BLOCK_VALUES", block)
        traj = run(doubly_stochastic_map(3, 2.0), [0.1, 0.5, 0.9], Schedule.constant(0.6),
                   max_iter=n, tol=0.0)
        assert traj.n_iterates == n
        write_trajectory_csv(traj, tmp_path / "new.csv")
        reference_write_csv(traj, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    def test_csv_missing_column_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,x_1,t_n\n1,0.0,0.5\n")
        with pytest.raises(ConfigError):
            read_trajectory_csv(path)

    @pytest.mark.parametrize(
        "change",
        [
            {"iterate_indices": [1, 3, 2]},
            {"iterate_indices": [1, 2, 3, 4]},
            {"iterate_indices": [2, 3, 4, 5, 6]},
            {"iterate_indices": [[1, 2, 3, 4, 5]]},
            {"schedule_used": [0.5, 0.5, 0.5]},
            {"residuals": []},
            # arrays of the wrong number of dimensions
            {"iterates": [0.0, 0.5, 0.75, 0.875, 0.9375]},
            {"iterate_indices": [[1], [2], [3], [4], [5]]},
            {"residuals": [[0.5], [0.25], [0.125], [0.0625], [0.03125]]},
            {"residuals": [[0.5, 0.5]] * 5},
            {"residuals": 0.5},
            {"schedule_used": [[0.5]] * 4},
        ],
    )
    def test_inconsistent_json_record_rejected(self, change):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=5, tol=0.0)
        record = trajectory_to_dict(traj)
        record.update(change)
        with pytest.raises(ConfigError):
            trajectory_from_dict(record)

    def test_json_round_trip(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), rel=REL1)
        back = trajectory_from_dict(json.loads(json.dumps(trajectory_to_dict(traj))))
        assert np.array_equal(back.iterates, traj.iterates)
        assert back.stop_reason == traj.stop_reason
        assert back.start_edge_forward == traj.start_edge_forward


SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]


def csv_records(d):
    """Full-history records of dimension d: a run, a one-iterate run, and
    one holding every special float (a nan step included)."""
    op = doubly_stochastic_map(d, 2.0)
    x1 = np.random.default_rng(d).uniform(0, 1, d)
    n = 9
    return [
        run(op, x1, Schedule.constant(0.6), max_iter=40, tol=0.0),
        run(op, x1, Schedule.constant(0.6), max_iter=1),
        Trajectory(
            iterates=np.resize(SPECIAL_FLOATS, (n, d)),
            iterate_indices=np.arange(1, n + 1),
            residuals=np.resize(SPECIAL_FLOATS[::-1], n),
            schedule_used=np.resize(SPECIAL_FLOATS[2:] + SPECIAL_FLOATS[:2], n - 1),
            stop_reason=STOP_MAX_ITER,
        ),
    ]


def long_csv_lines(tmp_path, n=5000):
    traj = Trajectory(
        iterates=np.linspace(0.0, 1.0, n)[:, None],
        iterate_indices=np.arange(1, n + 1),
        residuals=np.linspace(1.0, 0.0, n),
        schedule_used=np.full(n - 1, 0.5),
        stop_reason=STOP_MAX_ITER,
    )
    write_trajectory_csv(traj, tmp_path / "long.csv")
    return (tmp_path / "long.csv").read_text().splitlines()


def replace_field(lines, line, field, text):
    cells = lines[line - 1].split(",")
    cells[field] = text
    lines[line - 1] = ",".join(cells)
    return lines


# (lines of a valid 6-iterate 1-d export) -> (malformed lines, 1-based line named)
MALFORMED_CSV = {
    "field_missing": lambda ls: (ls[:3] + [ls[3].rsplit(",", 1)[0]] + ls[4:], 4),
    "field_extra_on_first_row": lambda ls: ([ls[0], ls[1] + ",0.5"] + ls[2:], 2),
    "non_numeric_iterate": lambda ls: (replace_field(ls, 5, 1, "zero"), 5),
    "non_numeric_step": lambda ls: (replace_field(ls, 3, 3, "abc"), 3),
    "non_numeric_final_step": lambda ls: (replace_field(ls, 7, 3, "abc"), 7),
    "missing_step": lambda ls: (replace_field(ls, 3, 3, ""), 3),
    "index_gap": lambda ls: (replace_field(ls, 5, 0, "5"), 5),
    "index_not_integral": lambda ls: (replace_field(ls, 4, 0, "3.5"), 4),
    "first_index_not_one": lambda ls: (replace_field(ls, 2, 0, "0"), 2),
    "header_only": lambda ls: (ls[:1], 2),
    "empty_file": lambda ls: ([], 1),
    "bad_header": lambda ls: (["n,x_1,t_n"] + ls[1:], 1),
    "non_numeric_after_blank_lines": lambda ls: (
        ls[:2] + ["", ""] + replace_field(ls, 4, 2, "?")[2:], 6),
    "index_gap_after_blank_line": lambda ls: (
        ls[:3] + [""] + replace_field(ls, 6, 0, "9")[3:], 7),
}


class TestCsvReader:
    """read_trajectory_csv against the csv.reader loop it replaces."""

    @pytest.mark.parametrize("ending", ["\r\n", "\n", "\r"])
    @pytest.mark.parametrize("d", [1, 4, 256])
    def test_fields_match_reference_reader(self, tmp_path, d, ending):
        for k, traj in enumerate(csv_records(d)):
            path = tmp_path / f"t{k}.csv"
            write_trajectory_csv(traj, path)
            path.write_bytes(path.read_bytes().replace(b"\r\n", ending.encode()))
            new, ref = read_trajectory_csv(path), reference_read_csv(path)
            assert_same_trajectory(new, ref)
            assert new.iterates.tobytes() == traj.iterates.tobytes()
            assert new.residuals.tobytes() == traj.residuals.tobytes()
            assert new.schedule_used.tobytes() == traj.schedule_used.tobytes()

    def test_empty_lines_are_skipped(self, tmp_path):
        traj = csv_records(4)[0]
        write_trajectory_csv(traj, tmp_path / "clean.csv")
        lines = (tmp_path / "clean.csv").read_text().splitlines()
        spaced = lines[:1] + [""] + lines[1:5] + ["", ""] + lines[5:] + [""]
        (tmp_path / "spaced.csv").write_text("\n".join(spaced) + "\n")
        assert_same_trajectory(
            read_trajectory_csv(tmp_path / "spaced.csv"),
            read_trajectory_csv(tmp_path / "clean.csv"),
        )

    @pytest.mark.parametrize("case", sorted(MALFORMED_CSV))
    def test_malformed_file_names_its_line(self, tmp_path, case):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=6, tol=0.0)
        write_trajectory_csv(traj, tmp_path / "good.csv")
        lines, line = MALFORMED_CSV[case]((tmp_path / "good.csv").read_text().splitlines())
        bad = tmp_path / "bad.csv"
        bad.write_text("".join(text + "\r\n" for text in lines))
        with pytest.raises(ConfigError, match=rf"\bline {line}\b"):
            read_trajectory_csv(bad)
        config = tmp_path / "oracle.json"
        config.write_text(json.dumps(oracle_1d_config(str(tmp_path / "out"))))
        assert main(["audit", str(bad), "--config", str(config), "--quiet"]) == 1

    @pytest.mark.parametrize("case", ["index_gap", "first_index_not_one", "missing_step",
                                      "non_numeric_iterate", "non_numeric_step",
                                      "field_missing", "field_extra_on_first_row"])
    def test_blank_lines_shift_only_the_line_named(self, tmp_path, case):
        # one empty line after the header and two before the bad row, and
        # more after it: the message is the clean file's, three lines on
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=6, tol=0.0)
        write_trajectory_csv(traj, tmp_path / "good.csv")
        lines, line = MALFORMED_CSV[case]((tmp_path / "good.csv").read_text().splitlines())
        spaced = [lines[0], ""] + lines[1:line - 1] + ["", ""] + lines[line - 1:] + ["", ""]
        messages = []
        for name, text in (("clean", lines), ("spaced", spaced)):
            (tmp_path / name).write_text("\n".join(text) + "\n")
            with pytest.raises(ConfigError) as caught:
                read_trajectory_csv(tmp_path / name)
            messages.append(str(caught.value))
        clean, moved = messages
        assert clean.startswith(f"line {line}: ")
        assert moved == f"line {line + 3}: " + clean.removeprefix(f"line {line}: ")

    @pytest.mark.parametrize("line, field", [(2, 1), (2500, 0), (4000, 2), (4000, 3), (5001, 1)])
    def test_malformed_line_deep_in_a_long_file(self, tmp_path, line, field):
        lines = replace_field(long_csv_lines(tmp_path), line, field, "x")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=rf"\bline {line}\b"):
            read_trajectory_csv(bad)

    def test_recorded_nan_step_is_not_a_missing_step(self, tmp_path):
        traj = csv_records(1)[0]
        traj.schedule_used[3] = math.nan
        write_trajectory_csv(traj, tmp_path / "t.csv")
        back = read_trajectory_csv(tmp_path / "t.csv")
        assert back.schedule_used.tobytes() == traj.schedule_used.tobytes()
        assert audit_record("trajectory", back, doubly_stochastic_map(1, 2.0)).failures > 0

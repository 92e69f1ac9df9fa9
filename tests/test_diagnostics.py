import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphmann.diagnostics
import graphmann.mann
from graphmann.config import ExperimentConfig
from graphmann.diagnostics import (
    ALL_AUDITS,
    AuditPass,
    FEJER_FIXED_POINT_TOL,
    INCOMPARABLE_START,
    MONOTONE_TOL,
    audit_edge_propagation,
    audit_fejer,
    convergence_audit,
    exit_code_from_audits,
    gk_inequality_check,
    rate_audit,
    rate_bound,
    residual_monotone_check,
    run_audits,
    verify_fixed_point,
    _gk_report,
    _rate_report,
)
from graphmann.errors import ConfigError, DomainError, InputError, UndefinedProductError
from graphmann.experiment import audit_stored, run_experiment
from graphmann.mann import (
    STEP_RECOMPUTE_TOL,
    STOP_DIVERGED,
    Schedule,
    Trajectory,
    _step,
    audit_block_rows,
    full_iterates,
    read_trajectory_csv,
    run,
    start_edges,
    write_trajectory_csv,
)
from graphmann.normed_space import Box, NormSpace, diameter
from graphmann.operators import (
    Componentwise,
    Identity,
    MatrixAffine,
    NonmonotoneSwap,
    Operator,
    known_fixed_points,
)
from graphmann.order_graph import AuditReport, ConeRelation
from testonly_records import decimate

SPACE1 = NormSpace(1, 2.0)
BOX1 = Box([0.0], [1.0])
REL1 = ConeRelation(np.eye(1))

SPACE2 = NormSpace(2, 2.0)
BOX2 = Box([0.0, 0.0], [1.0, 1.0])
COORD2 = ConeRelation(np.eye(2))


def midpoint_map():
    return Componentwise(SPACE1, BOX1, (np.array([0.0, 1.0]),), (np.array([0.5, 1.0]),))


def half_maps():
    return MatrixAffine(SPACE2, BOX2, 0.5 * np.eye(2), [0.25, 0.25])


def gentle_maps():
    # slow contraction keeps a 200-step forced run far above the float
    # noise floor, which the telescoped products would otherwise amplify
    return MatrixAffine(SPACE2, BOX2, 0.9 * np.eye(2), [0.05, 0.05])


def oracle_run(n=100, t=0.5):
    return run(midpoint_map(), [0.0], Schedule.constant(t), max_iter=n, tol=0.0, rel=REL1)


def constant_trajectory(point, n, t=0.5, residual=0.0):
    point = np.asarray(point, dtype=float)
    return Trajectory(
        iterates=np.tile(point, (n, 1)),
        iterate_indices=np.arange(1, n + 1),
        residuals=np.full(n, residual),
        schedule_used=np.full(n - 1, t),
        stop_reason="max_iterations",
        start_edge_forward=True,
        start_edge_reverse=True,
    )


def reference_run_audits(names, traj, operator, rel, space, schedule, diam, seed=0, x_all=None):
    """The unblocked audit that run_audits does in one pass over blocks: T
    applied to all iterates as one batch, and the trajectory,
    edge-propagation and Fejer checks each over the whole run at once."""
    if traj.start_edge_case() is None:
        x1 = traj.iterates[0]
        forward, reverse = start_edges(rel, x1, operator._apply(x1))
        traj = replace(traj, start_edge_forward=forward, start_edge_reverse=reverse)
    if x_all is None:
        x_all = full_iterates(traj, operator)
    tx_all = operator.apply_batch(x_all)
    audits = {
        "trajectory": lambda: reference_verify(traj, operator, x_all, tx_all),
        "edge_propagation": lambda: reference_edges(traj, rel, x_all, tx_all),
        "residual_monotone": lambda: residual_monotone_check(traj),
        "gk_inequality": lambda: _gk_report(traj, operator, seed, x_all, tx_all),
        "fejer": lambda: reference_fejer(traj, operator, rel, space, x_all),
        "rate": lambda: _rate_report(traj, schedule, diam),
        "convergence": lambda: convergence_audit(traj, operator, rel),
    }
    return {name: audits[name]().to_dict() for name in names}


def reference_verify(traj, operator, x_all, tx_all):
    space = operator.space
    report = AuditReport("trajectory_consistency")
    report.trials = traj.n_iterates + traj.iterate_indices.shape[0] - 1
    residual_ok = np.abs(space.norms(x_all - tx_all) - traj.residuals) <= STEP_RECOMPUTE_TOL
    rows = traj.iterate_indices[1:] - 2
    predicted = _step(x_all[rows], tx_all[rows], traj.schedule_used[rows][:, None])
    recorded = traj.iterates[1:]
    step_ok = space.norms(predicted - recorded) <= STEP_RECOMPUTE_TOL
    bad_residual, bad_step = np.flatnonzero(~residual_ok), np.flatnonzero(~step_ok)
    report.failures = int(bad_residual.size + bad_step.size)
    if bad_residual.size and (not bad_step.size or bad_residual[0] <= rows[bad_step[0]]):
        report.witness = (np.array(x_all[bad_residual[0]]),)
    elif bad_step.size:
        k = bad_step[0]
        report.witness = (np.array(predicted[k]), np.array(recorded[k]))
    return report


def reference_edges(traj, rel, x_all, tx_all):
    case = traj.start_edge_case()
    if case == "none":
        return AuditReport.not_met("edge_propagation", INCOMPARABLE_START)
    report = AuditReport("edge_propagation")
    if case == "reverse":
        step_diffs, image_diffs = x_all[:-1] - x_all[1:], x_all[1:] - tx_all[:-1]
        report.extra["case"] = "reverse"
    else:
        step_diffs, image_diffs = x_all[1:] - x_all[:-1], tx_all[:-1] - x_all[1:]
        report.extra["case"] = "forward"
    for diffs, label in ((step_diffs, "step_edge"), (image_diffs, "image_edge")):
        if diffs.shape[0] == 0:
            continue
        ok = rel.diffs_in_cone(diffs)
        report.trials += int(ok.shape[0])
        bad = np.flatnonzero(~ok)
        if bad.size:
            report.failures += int(bad.size)
            if report.witness is None:
                k = int(bad[0])
                report.witness = (np.array(x_all[k]), np.array(x_all[k + 1]))
                report.extra["first_failure"] = {"family": label, "step": k + 1}
    return report


def reference_fejer(traj, operator, rel, space, x_all):
    x1 = traj.iterates[0]
    for w in known_fixed_points(operator).known_points:
        for direction, edge_rel in (("forward", rel), ("reverse", rel.reversed())):
            if edge_rel.contains(x1, w):
                if space.norm(operator._apply(w) - w) > FEJER_FIXED_POINT_TOL:
                    report = AuditReport.not_met("fejer_monotone", "omega is not a fixed point")
                elif not edge_rel.contains(x_all[0], w):
                    report = AuditReport.not_met(
                        "fejer_monotone", "edge(x_1, omega) does not hold"
                    )
                else:
                    report = AuditReport("fejer_monotone")
                    member = edge_rel.diffs_in_cone(w - x_all)
                    report.trials += int(member.shape[0])
                    bad = np.flatnonzero(~member)
                    if bad.size:
                        report.failures += int(bad.size)
                        report.witness = (np.array(x_all[int(bad[0])]), np.array(w))
                    dist = space.norms(x_all - w)
                    increases = np.flatnonzero(dist[1:] > dist[:-1] + MONOTONE_TOL)
                    report.trials += int(dist.shape[0] - 1)
                    if increases.size:
                        report.failures += int(increases.size)
                        if report.witness is None:
                            k = int(increases[0])
                            report.witness = (np.array(x_all[k]), np.array(x_all[k + 1]))
                    report.extra["initial_distance"] = float(dist[0])
                    report.extra["limit_estimate"] = float(dist[-1])
                report.extra["direction"] = direction
                return report
    note = (
        "no known fixed point is comparable to x_1"
        if known_fixed_points(operator).known_points
        else "operator has no analytically known fixed point"
    )
    return AuditReport.not_met("fejer_monotone", note)


def permutation_map(d, s):
    """x |-> clamp(s P x + (1 - s) / 2) on [0, 1]^d, P an average of three
    permutations: it contracts by s and fixes 0.5 * 1."""
    rng = np.random.default_rng([0, d])
    perm = sum(np.eye(d)[rng.permutation(d)] for _ in range(3)) / 3.0
    box = Box(np.zeros(d), np.ones(d))
    return MatrixAffine(NormSpace(d, 2.0), box, s * perm, np.full(d, (1.0 - s) / 2.0))


def oscillating_swap(d):
    """The swap map 0.999 reverse(x) + 0.0005 from 0.5 * 1 plus an
    antisymmetric vector: x_n - 0.5 * 1 flips sign every step, so the first
    coordinate falls on every other step."""
    box = Box(np.zeros(d), np.ones(d))
    op = NonmonotoneSwap(NormSpace(d, 2.0), box, 0.999, np.full(d, 0.0005))
    x1 = 0.5 + 0.4 * np.linspace(-1.0, 1.0, d)
    return op, x1, ConeRelation(np.eye(d)[:1])


def tamper(traj, kind, m):
    """A copy of a full-history record with row m (0-based) of one kind of
    record changed."""
    traj = replace(traj, iterates=traj.iterates.copy(), residuals=traj.residuals.copy(),
                   schedule_used=traj.schedule_used.copy())
    if kind == "iterate_up":
        traj.iterates[m, 0] += 0.1
    elif kind == "iterate_down":
        traj.iterates[m, 0] -= 0.1
    elif kind == "residual":
        traj.residuals[m] += 1e-9
    elif kind == "step":
        traj.schedule_used[m] += 1e-3
    elif kind == "fejer_late_member":
        # a distance increase into row m, and an iterate past the fixed
        # point 5 rows later
        traj.iterates[m, 0] -= 0.1
        traj.iterates[m + 5, 0] = 0.9
    return traj


class TestGoebelKirk:
    def test_hand_computed_one_dimensional_case(self):
        # t = 0.5, x1 = 0: r1 = 0.5, x2 = 0.25, T(x2) = 0.625, r2 = 0.375,
        # so lhs = 1.5 * 0.5 and rhs = 0.625 + 2 * (0.5 - 0.375)
        traj = oracle_run(n=3)
        (record,) = gk_inequality_check(traj, midpoint_map(), [(1, 1)])
        assert record.lhs == pytest.approx(0.75, abs=1e-12)
        assert record.rhs == pytest.approx(0.875, abs=1e-12)
        assert record.slack == pytest.approx(0.125, abs=1e-12)

    def test_fixed_point_run_has_nonnegative_slack(self):
        traj = constant_trajectory([0.5, 0.5], 10)
        records = gk_inequality_check(traj, half_maps(), [(1, 1), (2, 5), (1, 9)])
        for record in records:
            assert record.lhs == 0.0
            assert record.slack >= 0.0

    def test_random_library_run_all_slacks_nonnegative(self, rng):
        traj = run(gentle_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        pairs = []
        for _ in range(50):
            i = int(rng.integers(1, 199))
            pairs.append((i, int(rng.integers(1, 200 - i + 1))))
        for record in gk_inequality_check(traj, gentle_maps(), pairs):
            assert record.slack >= -1e-9

    def test_span_beyond_trajectory_rejected(self):
        traj = oracle_run(n=5)
        with pytest.raises(InputError):
            gk_inequality_check(traj, midpoint_map(), [(3, 4)])

    def test_images_of_the_head_rows_only(self, monkeypatch):
        d = 256
        op = permutation_map(d, 0.999)
        schedule = Schedule.constant(0.5)
        traj = run(op, np.zeros(d), schedule, max_iter=3000, tol=0.0)
        pairs = [(1, 199), (150, 50)]
        whole = gk_inequality_check(traj, op, pairs, tx_head=op.apply_batch(traj.iterates))
        rows = []
        apply_batch = MatrixAffine.apply_batch

        def counted(self, x):
            rows.append(len(x))
            return apply_batch(self, x)

        monkeypatch.setattr(MatrixAffine, "apply_batch", counted)
        # one batch of an audit block, whose bits are those of the whole array
        assert gk_inequality_check(traj, op, pairs) == whole
        assert rows == [audit_block_rows(d)]
        # pairs beyond the block widen the batch to the rows they read
        gk_inequality_check(traj, op, [(2000, 500)])
        assert rows[1:] == [2500]
        rows.clear()
        rel = ConeRelation(np.eye(d))
        run_audits(["gk_inequality"], traj, op, rel, op.space, schedule, diam=16.0)
        assert rows == [audit_block_rows(d)]

    def test_unit_step_makes_product_undefined(self):
        sched = Schedule.constant(1.0, enforce_bounds=False)
        traj = run(midpoint_map(), [0.0], sched, max_iter=5, tol=0.0)
        with pytest.raises(UndefinedProductError):
            gk_inequality_check(traj, midpoint_map(), [(1, 2)])


class TestRate:
    def test_bound_hand_arithmetic(self):
        assert rate_bound(2, 0.5, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert rate_bound(10, 0.25, np.sqrt(2.0)) == pytest.approx(0.40406, abs=1e-5)

    def test_bound_tends_to_zero(self):
        assert rate_bound(10**6, 0.3, 5.0) < 5.0e-5 / 0.3 * 1.001

    def test_bound_input_errors(self):
        with pytest.raises(InputError):
            rate_bound(0, 0.5, 1.0)
        with pytest.raises(InputError):
            rate_bound(3, 0.0, 1.0)
        with pytest.raises(InputError):
            rate_bound(3, 0.5, -1.0)

    def test_bound_strictly_decreasing_in_n_and_a(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 50))
            a = rng.uniform(0.05, 0.9)
            diam = rng.uniform(0.1, 5.0)
            assert rate_bound(n + 1, a, diam) < rate_bound(n, a, diam)
            assert rate_bound(n, a + 0.05, diam) < rate_bound(n, a, diam)

    @given(st.floats(0.1, 4.0), st.floats(0.1, 4.0))
    def test_bound_linear_in_diam(self, d1, d2):
        assert rate_bound(7, 0.3, d1 + d2) == pytest.approx(
            rate_bound(7, 0.3, d1) + rate_bound(7, 0.3, d2), rel=1e-12
        )

    def test_hand_computed_inequality_sides(self):
        # (i, n) = (1, 2) on the 1-d oracle: lhs = 2 r1 = 1,
        # rhs = 1 + (1 - 0.5)^{-2} (r1 - r3) = 1.875
        traj = oracle_run(n=3)
        (check,) = rate_audit(traj, Schedule.constant(0.5), 1.0, [2], samples_per_span=1)
        assert check.trials == 1 and check.failures == 0
        assert check.min_slack == pytest.approx(0.875, abs=1e-12)
        assert check.bound == pytest.approx(0.5)

    def test_library_run_spans_pass(self):
        traj = run(gentle_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        diam = diameter(SPACE2, BOX2)
        for check in rate_audit(traj, Schedule.constant(0.4), diam, [1, 5, 10, 50]):
            assert check.failures == 0
            assert check.min_slack >= -1e-9

    def test_fixed_point_run_reduces_to_diameter_bound(self):
        traj = constant_trajectory([0.5, 0.5], 60, t=0.4)
        for check in rate_audit(traj, Schedule.constant(0.4), 2.0, [1, 5, 50]):
            assert check.failures == 0
            assert check.min_slack == pytest.approx(2.0)  # 0 <= diam exactly

    def test_span_beyond_trajectory_rejected(self):
        traj = oracle_run(n=10)
        with pytest.raises(InputError):
            rate_audit(traj, Schedule.constant(0.5), 1.0, [50])


class TestFejer:
    def test_oracle_distances_match_closed_form(self):
        traj = oracle_run(n=100)
        op = midpoint_map()
        report = audit_fejer(traj, [1.0], op, REL1, SPACE1)
        assert report.status == "pass" and report.failures == 0
        dist = np.abs(full_iterates(traj, op)[:, 0] - 1.0)
        expect = 0.75 ** np.arange(100)
        assert np.max(np.abs(dist - expect)) <= 1e-10
        assert report.extra["initial_distance"] == pytest.approx(1.0)
        assert report.extra["limit_estimate"] == pytest.approx(0.75**99, rel=1e-9)

    def test_start_at_fixed_point_all_distances_zero(self):
        traj = run(half_maps(), [0.5, 0.5], Schedule.constant(0.3), rel=COORD2)
        report = audit_fejer(traj, [0.5, 0.5], half_maps(), COORD2, SPACE2)
        assert report.status == "pass"
        assert report.extra["limit_estimate"] == 0.0

    def test_matrix_run_nonincreasing_distances(self):
        traj = run(half_maps(), [0.05, 0.1], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        report = audit_fejer(traj, [0.5, 0.5], half_maps(), COORD2, SPACE2)
        assert report.failures == 0
        assert report.extra["limit_estimate"] <= report.extra["initial_distance"]

    def test_non_fixed_omega_is_hypothesis_not_met(self):
        traj = oracle_run(n=10)
        report = audit_fejer(traj, [0.3], midpoint_map(), REL1, SPACE1)
        assert report.status == "hypothesis_not_met"

    def test_missing_start_edge_is_hypothesis_not_met(self):
        traj = run(half_maps(), [0.9, 0.9], Schedule.constant(0.4), max_iter=20, tol=0.0, rel=COORD2)
        report = audit_fejer(traj, [0.5, 0.5], half_maps(), COORD2, SPACE2)
        assert report.status == "hypothesis_not_met"


class TestEdgePropagation:
    def test_monotone_library_run_passes(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        report = audit_edge_propagation(traj, half_maps(), COORD2)
        assert report.status == "pass" and report.failures == 0
        assert report.trials == 2 * 199

    def test_identity_run_all_loops(self, rng):
        op = Identity(SPACE2, BOX2)
        traj = run(op, rng.uniform(0, 1, 2), Schedule.constant(0.5), rel=COORD2)
        assert audit_edge_propagation(traj, op, COORD2).status == "pass"

    def test_reverse_comparable_start_uses_mirrored_edges(self):
        traj = run(half_maps(), [0.9, 0.8], Schedule.constant(0.4), max_iter=100, tol=0.0, rel=COORD2)
        assert traj.start_edge_reverse and not traj.start_edge_forward
        report = audit_edge_propagation(traj, half_maps(), COORD2)
        assert report.status == "pass"
        assert report.extra["case"] == "reverse"

    def test_nonmonotone_swap_fails_at_step_two(self):
        # frozen counterexample: half-space order v1 >= 0, start (0.55, 0.55)
        rel = ConeRelation(np.array([[1.0, 0.0]]))
        op = NonmonotoneSwap(SPACE2, BOX2, 0.5, [0.3, 0.1])
        traj = run(op, [0.55, 0.55], Schedule.constant(0.5), max_iter=50, tol=0.0, rel=rel)
        assert traj.start_edge_forward
        report = audit_edge_propagation(traj, op, rel)
        assert report.status == "fail"
        assert report.failures > 0
        assert report.extra["first_failure"]["step"] == 2

    def test_incomparable_start_is_hypothesis_not_met(self):
        op = MatrixAffine(SPACE2, BOX2, np.array([[0.0, 0.5], [0.5, 0.0]]), [0.2, 0.2])
        traj = run(op, [0.9, 0.05], Schedule.constant(0.5), max_iter=20, tol=0.0, rel=COORD2)
        report = audit_edge_propagation(traj, op, COORD2)
        assert report.status == "hypothesis_not_met"

    def test_record_without_start_flags_rejected(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=20, tol=0.0)
        assert traj.start_edge_case() is None
        with pytest.raises(InputError):
            audit_edge_propagation(traj, half_maps(), COORD2)


class TestResidualMonotone:
    def test_library_run_passes(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        report = residual_monotone_check(traj)
        assert report.status == "pass" and report.trials == 199

    def test_identity_residuals_are_zero(self, rng):
        op = Identity(SPACE2, BOX2)
        traj = run(op, rng.uniform(0, 1, 2), Schedule.constant(0.5), rel=COORD2)
        assert np.all(traj.residuals == 0.0)
        assert residual_monotone_check(traj).status == "pass"

    def test_flags_increase_without_erroring(self):
        traj = constant_trajectory([0.5, 0.5], 5)
        traj.residuals = np.array([0.1, 0.2, 0.15, 0.1, 0.05])
        report = residual_monotone_check(traj)
        assert report.status == "fail" and report.failures == 1
        assert report.extra["first_failure_step"] == 1


class TestConvergence:
    def test_oracle_limit_is_one(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), rel=REL1)
        report = convergence_audit(traj, midpoint_map(), REL1)
        assert report.status == "pass"
        assert abs(traj.final_iterate[0] - 1.0) <= 1e-8

    def test_fixed_point_start_loop_edge(self):
        traj = run(half_maps(), [0.5, 0.5], Schedule.constant(0.3), rel=COORD2)
        assert convergence_audit(traj, half_maps(), COORD2).status == "pass"

    def test_unconverged_run_is_hypothesis_not_met(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=5, tol=0.0, rel=COORD2)
        assert convergence_audit(traj, half_maps(), COORD2).status == "hypothesis_not_met"

    def test_record_without_start_flags_rejected(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4))
        assert traj.start_edge_case() is None
        with pytest.raises(InputError):
            convergence_audit(traj, half_maps(), COORD2)

    def test_verify_fixed_point(self):
        op = half_maps()
        assert verify_fixed_point(op, [0.5, 0.5], 1e-10)
        assert not verify_fixed_point(op, [0.0, 0.0], 1e-10)
        with pytest.raises(DomainError):
            verify_fixed_point(op, [2.0, 0.0], 1e-10)


class TestOrchestration:
    def test_unknown_auditor_rejected(self):
        traj = oracle_run(n=5)
        with pytest.raises(ConfigError):
            run_audits(
                ["nope"], traj, midpoint_map(), REL1, SPACE1,
                Schedule.constant(0.5), diam=1.0,
            )

    def test_full_pass_run(self):
        traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), rel=REL1)
        results = run_audits(
            ["trajectory", "edge_propagation", "residual_monotone",
             "gk_inequality", "fejer", "rate", "convergence"],
            traj, midpoint_map(), REL1, SPACE1, Schedule.constant(0.5), diam=1.0,
        )
        assert all(entry["status"] == "pass" for entry in results.values())
        assert exit_code_from_audits(results) == 0

    def test_given_iterates_are_not_replayed(self, monkeypatch):
        op = gentle_maps()
        schedule = Schedule.constant(0.5)
        full = run(op, [0.1, 0.2], schedule, max_iter=300, tol=0.0, rel=COORD2)
        thin = decimate(full, 7)
        args = (op, COORD2, SPACE2, schedule)
        replayed = run_audits(ALL_AUDITS, thin, *args, diam=2.0)

        def no_replay(*args):
            raise AssertionError("full_iterates called although x_all was given")

        monkeypatch.setattr(graphmann.diagnostics, "full_iterates", no_replay)
        given_iterates = run_audits(ALL_AUDITS, thin, *args, diam=2.0, x_all=full.iterates)
        assert given_iterates == replayed
        assert all(entry["status"] != "fail" for entry in replayed.values())

    def test_image_of_the_iterates_computed_once(self, monkeypatch):
        op = gentle_maps()
        schedule = Schedule.constant(0.5)
        traj = run(op, [0.1, 0.2], schedule, max_iter=300, tol=0.0, rel=COORD2)
        rows = []
        apply_batch = MatrixAffine.apply_batch

        def counted(self, x):
            rows.append(len(x))
            return apply_batch(self, x)

        monkeypatch.setattr(MatrixAffine, "apply_batch", counted)
        run_audits(ALL_AUDITS, traj, op, COORD2, SPACE2, schedule, diam=2.0)
        # one batch shared by the trajectory recheck and the
        # edge-propagation and Goebel-Kirk auditors
        assert sum(rows) == traj.n_iterates

    @pytest.mark.parametrize(
        "op, x1, case",
        [
            # T swaps the coordinates, so x1 is incomparable with its image
            (MatrixAffine(SPACE2, BOX2, np.array([[0.0, 0.5], [0.5, 0.0]]), [0.2, 0.2]),
             [0.9, 0.05], "none"),
            (half_maps(), [0.9, 0.8], "reverse"),
        ],
    )
    def test_csv_export_audits_like_the_run(self, tmp_path, op, x1, case):
        schedule = Schedule.constant(0.4)
        traj = run(op, x1, schedule, rel=COORD2)
        assert traj.start_edge_case() == case
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        exported = read_trajectory_csv(tmp_path / "trajectory.csv")
        exported.stop_reason = traj.stop_reason
        assert exported.start_edge_case() is None
        args = (op, COORD2, SPACE2, schedule)
        own = run_audits(ALL_AUDITS, traj, *args, diam=2.0)
        assert run_audits(ALL_AUDITS, exported, *args, diam=2.0) == own

    def test_exit_code_precedence(self):
        assert exit_code_from_audits({"a": {"status": "pass"}}) == 0
        assert exit_code_from_audits(
            {"a": {"status": "hypothesis_not_met"}, "b": {"status": "pass"}}
        ) == 3
        assert exit_code_from_audits(
            {"a": {"status": "hypothesis_not_met"}, "b": {"status": "fail"}}
        ) == 2


def piecewise_map2():
    knots = tuple(np.array([0.0, 0.3, 0.7, 1.0]) for _ in range(2))
    values = (np.array([0.25, 0.4, 0.65, 0.75]), np.array([0.3, 0.45, 0.7, 0.8]))
    return Componentwise(SPACE2, BOX2, knots, values)


B = 7  # block rows of the blocked audit in TestBlockedAudit


class TestBlockedAudit:
    """run_audits in blocks writes what the unblocked audit writes, whichever
    block holds a failure."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of B rows: the byte budget never exceeds the minimum
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", B)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)

    @staticmethod
    def assert_same(traj, op, rel, schedule, x_all=None):
        args = (traj, op, rel, op.space, schedule)
        got = run_audits(ALL_AUDITS, *args, diam=2.0, seed=3, x_all=x_all)
        assert got == reference_run_audits(ALL_AUDITS, *args, diam=2.0, seed=3, x_all=x_all)
        return got

    @pytest.mark.parametrize("d", [2, 4])
    def test_swap_fails_in_every_block(self, d):
        op, x1, rel = oscillating_swap(d)
        schedule = Schedule.constant(0.999)
        traj = run(op, x1, schedule, max_iter=60, tol=0.0, rel=rel)
        got = self.assert_same(traj, op, rel, schedule)
        edge = got["edge_propagation"]
        assert edge["status"] == "fail" and edge["failures"] > 60 // B
        assert got["fejer"]["status"] == "fail"

    def test_swap_demo(self):
        rel = ConeRelation(np.array([[1.0, 0.0]]))
        op = NonmonotoneSwap(SPACE2, BOX2, 0.5, [0.3, 0.1])
        schedule = Schedule.constant(0.5)
        traj = run(op, [0.55, 0.55], schedule, max_iter=50, tol=0.0, rel=rel)
        assert self.assert_same(traj, op, rel, schedule)["edge_propagation"]["status"] == "fail"

    @pytest.mark.parametrize("m", [B - 1, B, B + 1])
    @pytest.mark.parametrize(
        "kind", ["iterate_up", "iterate_down", "residual", "step", "fejer_late_member"]
    )
    @pytest.mark.parametrize("family", [gentle_maps, piecewise_map2])
    def test_tampered_record(self, family, kind, m):
        op = family()
        schedule = Schedule.constant(0.5)
        traj = run(op, [0.1, 0.2], schedule, max_iter=40, tol=0.0, rel=COORD2)
        got = self.assert_same(tamper(traj, kind, m), op, COORD2, schedule)
        assert got["trajectory"]["status"] == "fail"
        if kind.startswith("iterate") or kind == "fejer_late_member":
            assert got["edge_propagation"]["status"] == "fail"
        if kind in ("iterate_down", "fejer_late_member"):
            # row m moves away from the fixed point
            assert got["fejer"]["status"] == "fail"

    @pytest.mark.parametrize("kind", [None, "iterate_up", "iterate_down"])
    def test_reverse_start(self, kind):
        schedule = Schedule.constant(0.4)
        traj = run(half_maps(), [0.9, 0.8], schedule, max_iter=40, tol=0.0, rel=COORD2)
        if kind is not None:
            traj = tamper(traj, kind, B)
        got = self.assert_same(traj, half_maps(), COORD2, schedule)
        assert got["edge_propagation"]["detail"]["case"] == "reverse"
        assert got["fejer"]["detail"]["direction"] == "reverse"

    @pytest.mark.parametrize("stride", [3, B, 40])
    def test_replayed_record(self, stride):
        schedule = Schedule.constant(0.5)
        full = run(gentle_maps(), [0.1, 0.2], schedule, max_iter=40, tol=0.0, rel=COORD2)
        self.assert_same(decimate(full, stride), gentle_maps(), COORD2, schedule)
        self.assert_same(decimate(full, stride), gentle_maps(), COORD2, schedule, full.iterates)

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 3 * B + 1])
    def test_run_lengths(self, n):
        schedule = Schedule.constant(0.5)
        traj = run(gentle_maps(), [0.1, 0.2], schedule, max_iter=n, tol=0.0, rel=COORD2)
        self.assert_same(traj, gentle_maps(), COORD2, schedule)


class TestBlockedAuditAtScale:
    """The same at d = 256 with the block rule itself: 1 024-row blocks."""

    @pytest.mark.parametrize("kind", ["iterate_up", "iterate_down", "step"])
    def test_tampered_record_at_block_boundaries(self, kind):
        op = permutation_map(256, 0.999)
        b = audit_block_rows(256)
        schedule = Schedule.constant(0.5)
        rel = ConeRelation(np.eye(256))
        traj = run(op, np.zeros(256), schedule, max_iter=2 * b + 60, tol=0.0, rel=rel)
        for m in (b - 1, b, b + 1):
            args = (tamper(traj, kind, m), op, rel, op.space, schedule)
            got = run_audits(ALL_AUDITS, *args, diam=16.0)
            assert got == reference_run_audits(ALL_AUDITS, *args, diam=16.0)
            assert got["trajectory"]["status"] == "fail"

    def test_memory_does_not_grow_with_the_run(self):
        d = 256
        op = permutation_map(d, 0.9999)
        rel = ConeRelation(np.eye(d))
        schedule = Schedule.constant(0.5)
        peaks = []
        for n in (2000, 8000):
            traj = run(op, np.zeros(d), schedule, max_iter=n, tol=0.0, rel=rel)
            tracemalloc.start()
            try:
                # the iterates were allocated before tracing started
                results = run_audits(ALL_AUDITS, traj, op, rel, op.space, schedule,
                                     diam=16.0, x_all=traj.iterates)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(e["status"] != "fail" for e in results.values())
        assert peaks[1] - peaks[0] < audit_block_rows(d) * d * 8


STRIDES = [1, 7, 50]


def streamed_audit(op, x1, schedule, rel, stride, diam=2.0, **run_args):
    """A run audited while it runs, at `stride`, as run_experiment audits it:
    its record and its reports."""
    audit = AuditPass(ALL_AUDITS, op, rel, op.space)
    traj = run(op, x1, schedule, rel=rel, record_stride=stride, audit=audit, **run_args)
    args = (traj, op, rel, op.space, schedule)
    return traj, run_audits(ALL_AUDITS, *args, diam=diam, seed=3, audit=audit)


def assert_streamed_like_full_history(op, x1, schedule, rel, stride, diam=2.0, **run_args):
    """The streamed audit of a run writes what the unblocked audit of its full
    history writes, and its record is the full history decimated."""
    full = run(op, x1, schedule, rel=rel, **run_args)
    traj, got = streamed_audit(op, x1, schedule, rel, stride, diam, **run_args)
    thin = decimate(full, stride)
    for field in ("iterates", "iterate_indices", "residuals", "schedule_used"):
        assert getattr(traj, field).tobytes() == getattr(thin, field).tobytes(), field
    assert traj.stop_reason == full.stop_reason
    args = (thin, op, rel, op.space, schedule)
    assert got == reference_run_audits(ALL_AUDITS, *args, diam=diam, seed=3, x_all=full.iterates)
    return traj, got


class Escape(Operator):
    """T(x) = x + s in every coordinate of the unit square: with step t the
    iterates x_n = (n - 1) t s first leave the box at x_target."""

    def __init__(self, target, t):
        self.space = SPACE2
        self.domain = BOX2
        self.shift = np.full(2, 1.0 / (t * (target - 1.5)))

    def _apply(self, x):
        return x + self.shift


class TestStreamedAudit:
    """run() audited while it runs, with blocks of B audit rows pushed from
    run blocks of 5 and of 256 rows, against the unblocked audit of the full
    history."""

    @pytest.fixture(autouse=True, params=[5, 256], ids=["run_rows5", "run_rows256"])
    def small_blocks(self, monkeypatch, request):
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", B)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)
        monkeypatch.setattr(graphmann.mann, "RUN_BLOCK_ROWS", request.param)

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("d", [2, 4])
    def test_swap_fails_in_every_block(self, d, stride):
        op, x1, rel = oscillating_swap(d)
        schedule = Schedule.constant(0.999)
        _, got = assert_streamed_like_full_history(op, x1, schedule, rel, stride,
                                                   max_iter=60, tol=0.0)
        assert got["edge_propagation"]["failures"] > 60 // B
        assert got["fejer"]["status"] == "fail"

    @pytest.mark.parametrize("stride", STRIDES)
    def test_swap_demo(self, stride):
        rel = ConeRelation(np.array([[1.0, 0.0]]))
        op = NonmonotoneSwap(SPACE2, BOX2, 0.5, [0.3, 0.1])
        _, got = assert_streamed_like_full_history(op, [0.55, 0.55], Schedule.constant(0.5),
                                                   rel, stride, max_iter=50, tol=0.0)
        assert got["edge_propagation"]["status"] == "fail"

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("schedule", ["constant", "explicit"])
    @pytest.mark.parametrize("x1, case", [([0.1, 0.2], "forward"), ([0.9, 0.8], "reverse")])
    def test_start_direction_and_schedule(self, x1, case, schedule, stride):
        schedule = (
            Schedule.constant(0.4)
            if schedule == "constant"
            # shorter than max_iter: the schedule caps the run at 31 iterates
            else Schedule.explicit(np.random.default_rng(2).uniform(0.2, 0.8, 30))
        )
        _, got = assert_streamed_like_full_history(half_maps(), x1, schedule, COORD2, stride,
                                                   max_iter=40, tol=0.0)
        assert got["edge_propagation"]["detail"]["case"] == case
        assert got["fejer"]["detail"]["direction"] == case
        assert all(entry["status"] != "fail" for entry in got.values())

    @pytest.mark.parametrize("stride", STRIDES)
    def test_one_iterate(self, stride):
        traj, _ = assert_streamed_like_full_history(gentle_maps(), [0.1, 0.2],
                                                    Schedule.constant(0.5), COORD2, stride,
                                                    max_iter=1, tol=0.0)
        assert traj.n_iterates == 1

    @pytest.mark.parametrize("stride", STRIDES)
    # 2B + 2 ends in a last block that wraps round the stream's ring
    @pytest.mark.parametrize(
        "n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 2, 3 * B + 1]
    )
    def test_tolerance_stop(self, n, stride):
        schedule = Schedule.constant(0.5)
        # the residuals decrease strictly, so the run meets r_n exactly at n
        tol = run(gentle_maps(), [0.1, 0.2], schedule, max_iter=n, tol=0.0).residuals[-1]
        traj, _ = assert_streamed_like_full_history(gentle_maps(), [0.1, 0.2], schedule, COORD2,
                                                    stride, max_iter=100, tol=tol)
        assert traj.n_iterates == n and traj.stop_reason == "tolerance_met"

    @pytest.mark.parametrize("stride", STRIDES)
    @pytest.mark.parametrize("target", [2, 5, B - 1, B, B + 1, 10, 2 * B - 1, 2 * B, 2 * B + 1, 3 * B + 2])
    def test_box_divergence(self, target, stride):
        traj, _ = assert_streamed_like_full_history(Escape(target, 0.5), [0.0, 0.0],
                                                    Schedule.constant(0.5), COORD2, stride,
                                                    max_iter=100, tol=0.0)
        assert traj.stop_reason == STOP_DIVERGED and traj.n_iterates == target

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("m", [B - 1, B, B + 1])
    @pytest.mark.parametrize(
        "kind", ["iterate_up", "iterate_down", "residual", "step", "fejer_late_member"]
    )
    def test_tampered_stored_record(self, kind, m, stride):
        # a stored record streamed through the audit, its gaps replayed
        schedule = Schedule.constant(0.5)
        full = run(gentle_maps(), [0.1, 0.2], schedule, max_iter=60, tol=0.0, rel=COORD2)
        args = (tamper(decimate(full, stride), kind, m), gentle_maps(), COORD2, SPACE2, schedule)
        got = run_audits(ALL_AUDITS, *args, diam=2.0, seed=3)
        assert got == reference_run_audits(ALL_AUDITS, *args, diam=2.0, seed=3)
        assert got["trajectory"]["status"] == "fail"


class TestStreamedAuditAtScale:
    """The same at d = 256 with the block rules themselves: 1 024-row audit
    blocks pushed from 256-row run blocks."""

    def test_tolerance_stops_at_block_edges(self):
        d = 256
        op = permutation_map(d, 0.999)
        rel = ConeRelation(np.eye(d))
        schedule = Schedule.constant(0.5)
        b = audit_block_rows(d)
        residuals = run(op, np.zeros(d), schedule, max_iter=2 * b + 1, tol=0.0).residuals
        for n in (b - 1, b, b + 1, 2 * b - 1, 2 * b, 2 * b + 1):
            for stride in STRIDES:
                traj, got = assert_streamed_like_full_history(
                    op, np.zeros(d), schedule, rel, stride, diam=16.0, max_iter=4 * b,
                    tol=residuals[n - 1],
                )
                assert traj.n_iterates == n
                # a tolerance this loose ends far from the fixed point, so
                # only `convergence` fails
                assert {name for name, e in got.items() if e["status"] == "fail"} == {
                    "convergence"
                }


def permutation_config(d, s, n, stride):
    """The config of `permutation_map(d, s)` from 0, run to n iterates."""
    op = permutation_map(d, s)
    return ExperimentConfig.from_dict({
        "schema_version": 1,
        "seed": 0,
        "space": {"dimension": d, "p": 2.0},
        "body": {"kind": "box", "lo": 0.0, "hi": 1.0},
        "relation": {"kind": "coordinatewise"},
        "operator": {"kind": "matrix_affine", "matrix": op.matrix.tolist(),
                     "offset": float(op.offset[0])},
        "start": {"kind": "explicit", "value": 0.0},
        "schedule": {"kind": "constant", "t": 0.5},
        "run": {"max_iter": n, "tol": 0.0, "record_stride": stride},
        "audits": list(ALL_AUDITS),
        "output": {"directory": "out", "formats": ["csv", "json"]},
    })


def traced_peak(fn, *args, **kwargs):
    """Peak bytes allocated while fn runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    def test_run_and_stored_audit_peaks_do_not_grow_with_the_run(self, tmp_path):
        # at stride 50 neither the run nor the audit of its run.json holds
        # an (N, d) history, so 6 000 more iterates of 2 KiB add less than
        # one audit block to either peak
        d = 256
        peaks = {"run": [], "audit": []}
        for n in (2000, 8000):
            config = permutation_config(d, 0.9999, n, 50)
            out = tmp_path / str(n)
            peak, result = traced_peak(run_experiment, config, out_dir=out)
            assert result.trajectory.n_iterates == n and result.exit_code != 2
            peaks["run"].append(peak)
            del result
            peak, (code, _) = traced_peak(audit_stored, out / "run.json", config)
            assert code != 2
            peaks["audit"].append(peak)
        block = audit_block_rows(d) * d * 8
        assert peaks["run"][1] - peaks["run"][0] < block
        assert peaks["audit"][1] - peaks["audit"][0] < block

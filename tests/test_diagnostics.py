import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphmann.diagnostics
from graphmann.diagnostics import (
    ALL_AUDITS,
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
)
from graphmann.errors import ConfigError, DomainError, InputError, UndefinedProductError
from graphmann.mann import (
    Schedule,
    Trajectory,
    decimate,
    full_iterates,
    read_trajectory_csv,
    run,
    write_trajectory_csv,
)
from graphmann.normed_space import Box, NormSpace, diameter
from graphmann.operators import Componentwise, Identity, MatrixAffine, NonmonotoneSwap
from graphmann.order_graph import ConeRelation

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

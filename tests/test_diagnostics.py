import json
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import graphmann.experiment
import graphmann.mann
from graphmann.config import ExperimentConfig, load_config, read_config
from graphmann.corpus import acceptance_instances
from graphmann.diagnostics import (
    ALL_AUDITS,
    AuditPass,
    GK_PAIRS,
    INCOMPARABLE_START,
    MONOTONE_TOL,
    REPLAYING_AUDITS,
    convergence_audit,
    exit_code_from_audits,
    gk_inequality_check,
    rate_audit,
    rate_bound,
    residual_monotone_check,
    run_audits,
    verify_fixed_point,
    _fejer_target,
    _gk_report,
    _rate_report,
)
from graphmann.errors import ConfigError, DomainError, InputError, UndefinedProductError
from graphmann.experiment import _build, audit_stored, run_experiment, run_sweep
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
    stream_record,
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
    matrix_opnorm_bound,
)
from graphmann.order_graph import AuditReport, ConeRelation
from testonly_records import audit_record, decimate

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
        "gk_inequality": lambda: _gk_report(traj, space, seed, x_all, tx_all),
        "fejer": lambda: reference_fejer(traj, operator, rel, space, x_all),
        "rate": lambda: _rate_report(traj, schedule, diam),
        "convergence": lambda: convergence_audit(traj, operator, rel),
    }
    return {name: audits[name]().to_dict() for name in names}


def reference_rate_audit(traj, schedule, diam, spans):
    """The per-sample loop that rate_audit evaluates as one numpy expression
    per span, at 20 start indices per span, assembled into the report's
    dict."""
    a, b = schedule.a, schedule.b
    records = []
    for span in spans:
        i_max = traj.n_iterates - span
        count = min(20, i_max)
        i_values = np.unique(np.linspace(1, i_max, count).round().astype(int))
        trials = failures = 0
        min_slack = np.inf
        scale = (1.0 - b) ** (-span)
        for i in i_values:
            r_i = float(traj.residuals[i - 1])
            r_in = float(traj.residuals[i + span - 1])
            gap = r_i - r_in
            rhs = diam + (0.0 if gap == 0.0 else scale * gap)
            lhs = (1.0 + span * a) * r_i
            slack = rhs - lhs
            trials += 1
            if slack < -1e-9:
                failures += 1
            min_slack = min(min_slack, slack)
        records.append({
            "n": span, "a": a, "diam": diam, "bound": rate_bound(span, a, diam),
            "observed_limit_estimate": traj.final_residual, "trials": trials,
            "failures": failures, "min_slack": float(min_slack),
        })
    return AuditReport(
        "rate_inequality",
        trials=sum(r["trials"] for r in records),
        failures=sum(r["failures"] for r in records),
        extra={"min_slack": min((r["min_slack"] for r in records), default=None),
               "spans": list(spans)},
        records=records,
    ).to_dict()


def float_bits(value):
    """`value` with every float replaced by its hex form, so == compares bits."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    return value


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


def gk_check(traj, op, pairs):
    """gk_inequality_check on a full-history record, with T of all its rows."""
    return gk_inequality_check(traj, op.space, pairs, traj.iterates, op.apply_batch(traj.iterates))


class TestGoebelKirk:
    def test_hand_computed_one_dimensional_case(self):
        # t = 0.5, x1 = 0: r1 = 0.5, x2 = 0.25, T(x2) = 0.625, r2 = 0.375,
        # so lhs = 1.5 * 0.5 and rhs = 0.625 + 2 * (0.5 - 0.375)
        traj = oracle_run(n=3)
        (record,) = gk_check(traj, midpoint_map(), [(1, 1)]).records
        assert record["lhs"] == pytest.approx(0.75, abs=1e-12)
        assert record["rhs"] == pytest.approx(0.875, abs=1e-12)
        assert record["slack"] == pytest.approx(0.125, abs=1e-12)

    def test_fixed_point_run_has_nonnegative_slack(self):
        traj = constant_trajectory([0.5, 0.5], 10)
        report = gk_check(traj, half_maps(), [(1, 1), (2, 5), (1, 9)])
        assert report.trials == 3 and report.status == "pass"
        for record in report.records:
            assert record["lhs"] == 0.0
            assert record["slack"] >= 0.0

    def test_random_library_run_all_slacks_nonnegative(self, rng):
        traj = run(gentle_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        pairs = []
        for _ in range(50):
            i = int(rng.integers(1, 199))
            pairs.append((i, int(rng.integers(1, 200 - i + 1))))
        report = gk_check(traj, gentle_maps(), pairs)
        assert report.failures == 0
        for record in report.records:
            assert record["slack"] >= -1e-9

    def test_span_beyond_trajectory_rejected(self):
        traj = oracle_run(n=5)
        with pytest.raises(InputError):
            gk_check(traj, midpoint_map(), [(3, 4)])

    def test_images_come_from_the_audit_blocks(self, monkeypatch):
        # alone, gk_inequality still has T applied once per audit block, and
        # reads the images of the first rows from those blocks: no batch of
        # a head alone
        d, n = 256, 3000
        op = permutation_map(d, 0.999)
        schedule = Schedule.constant(0.5)
        traj = run(op, np.zeros(d), schedule, max_iter=n, tol=0.0)
        rows = []
        apply_batch = MatrixAffine.apply_batch

        def counted(self, x):
            rows.append(len(x))
            return apply_batch(self, x)

        monkeypatch.setattr(MatrixAffine, "apply_batch", counted)
        rel = ConeRelation(np.eye(d))
        got = run_audits(["gk_inequality"], traj, op, rel, op.space, schedule, diam=16.0)
        b = audit_block_rows(d)
        # each block pushed is one batch, the short last one included
        assert rows == [b] * (n // b) + [n % b]
        assert got["gk_inequality"]["trials"] == GK_PAIRS

    @pytest.mark.parametrize("audits, blocks", [(["gk_inequality"], 3), (["rate"], 0)])
    def test_run_streams_only_what_an_auditor_reads(self, monkeypatch, audits, blocks):
        # the pass applies T to each block a run streams into it, so a run
        # whose auditors read none of its iterates is not streamed
        rows = []
        apply_batch = MatrixAffine.apply_batch

        def counted(self, x):
            rows.append(len(x))
            return apply_batch(self, x)

        monkeypatch.setattr(MatrixAffine, "apply_batch", counted)
        data = permutation_data(256, 0.999, 3 * audit_block_rows(256), 1)
        data["audits"] = audits
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
        assert len(rows) == blocks
        assert set(result.audits) == set(audits)

    def test_unit_step_makes_product_undefined(self):
        sched = Schedule.constant(1.0, enforce_bounds=False)
        traj = run(midpoint_map(), [0.0], sched, max_iter=5, tol=0.0)
        with pytest.raises(UndefinedProductError):
            gk_check(traj, midpoint_map(), [(1, 2)])


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
        (check,) = rate_audit(traj, Schedule.constant(0.5), 1.0, [2]).records
        assert check["trials"] == 1 and check["failures"] == 0
        assert check["min_slack"] == pytest.approx(0.875, abs=1e-12)
        assert check["bound"] == pytest.approx(0.5)

    def test_library_run_spans_pass(self):
        traj = run(gentle_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        diam = diameter(SPACE2, BOX2)
        report = rate_audit(traj, Schedule.constant(0.4), diam, [1, 5, 10, 50])
        assert report.trials == 80 and report.status == "pass"
        for check in report.records:
            assert check["failures"] == 0
            assert check["min_slack"] >= -1e-9

    def test_fixed_point_run_reduces_to_diameter_bound(self):
        traj = constant_trajectory([0.5, 0.5], 60, t=0.4)
        report = rate_audit(traj, Schedule.constant(0.4), 2.0, [1, 5, 50])
        assert [check["n"] for check in report.records] == [1, 5, 50]
        for check in report.records:
            assert check["failures"] == 0
            assert check["min_slack"] == pytest.approx(2.0)  # 0 <= diam exactly

    def test_span_beyond_trajectory_rejected(self):
        traj = oracle_run(n=10)
        with pytest.raises(InputError):
            rate_audit(traj, Schedule.constant(0.5), 1.0, [50])

    def test_span_with_an_overflowing_weight_is_unchecked(self):
        # (1 - b)^{-50} = 1e350 is beyond the largest double
        traj = constant_trajectory([0.5], 60, t=0.9999999, residual=0.1)
        report = rate_audit(traj, Schedule.constant(0.9999999), 1.0, [1, 50])
        assert [check["n"] for check in report.records] == [1]
        assert report.trials == 20 and report.status == "pass"
        assert report.extra["spans"] == [1, 50]
        assert report.extra["unchecked_spans"] == [50]

    @given(
        residuals=st.lists(
            st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 4.0)),
            min_size=2,
            max_size=80,
        ),
        steps=st.lists(st.floats(0.01, 0.99), min_size=1, max_size=4),
        diam=st.floats(0.0, 4.0),
        extra_span=st.integers(1, 79),
    )
    def test_matches_the_per_sample_loop_bit_for_bit(self, residuals, steps, diam, extra_span):
        # repeated values give zero gaps, and the others positive and
        # negative ones; runs of fewer than 51 iterates leave spans out
        n = len(residuals)
        schedule = Schedule.explicit(np.resize(steps, n - 1))
        traj = Trajectory(
            iterates=np.zeros((n, 1)),
            iterate_indices=np.arange(1, n + 1),
            residuals=np.array(residuals),
            schedule_used=np.resize(steps, n - 1),
            stop_reason="max_iterations",
        )
        spans = [m for m in (1, 5, 10, 50, extra_span) if m <= n - 1]
        got = rate_audit(traj, schedule, diam, spans).to_dict()
        assert float_bits(got) == float_bits(reference_rate_audit(traj, schedule, diam, spans))


class TestFejer:
    def test_oracle_distances_match_closed_form(self):
        traj = oracle_run(n=100)
        op = midpoint_map()
        report = audit_record("fejer", traj, op, REL1)
        assert report.status == "pass" and report.failures == 0
        dist = np.abs(full_iterates(traj, op)[:, 0] - 1.0)
        expect = 0.75 ** np.arange(100)
        assert np.max(np.abs(dist - expect)) <= 1e-10
        assert report.extra["initial_distance"] == pytest.approx(1.0)
        assert report.extra["limit_estimate"] == pytest.approx(0.75**99, rel=1e-9)

    def test_start_at_fixed_point_all_distances_zero(self):
        traj = run(half_maps(), [0.5, 0.5], Schedule.constant(0.3), rel=COORD2)
        report = audit_record("fejer", traj, half_maps(), COORD2)
        assert report.status == "pass"
        assert report.extra["limit_estimate"] == 0.0

    def test_matrix_run_nonincreasing_distances(self):
        traj = run(half_maps(), [0.05, 0.1], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        report = audit_record("fejer", traj, half_maps(), COORD2)
        assert report.failures == 0
        assert report.extra["limit_estimate"] <= report.extra["initial_distance"]

    @pytest.mark.parametrize(
        "x1, direction, reversals",
        [([0.1, 0.2], "forward", 0), ([0.5, 0.5], "forward", 0),
         ([0.9, 0.8], "reverse", 1), ([0.1, 0.9], None, 1)],
        ids=["below", "at", "above", "incomparable"],
    )
    def test_reverse_cone_is_built_only_when_the_forward_edge_fails(
        self, x1, direction, reversals
    ):
        # the target and direction that trying each candidate's forward,
        # then reverse edge decides (`reference_fejer`), with -K built only
        # for a start not below omega: at d = 256 it is a 512 KiB -I and its
        # frozen copy per audit pass
        calls = []
        reversed_ = ConeRelation.reversed

        def counted(rel):
            calls.append(rel)
            return reversed_(rel)

        with mock.patch.object(ConeRelation, "reversed", counted):
            target = _fejer_target(np.array(x1), half_maps(), COORD2)
        assert len(calls) == reversals
        if direction is None:
            assert target.status == "hypothesis_not_met"
            assert target.extra["note"] == "no known fixed point is comparable to x_1"
            return
        omega, edge_rel, got = target
        assert got == direction and np.array_equal(omega, [0.5, 0.5])
        sign = 1 if direction == "forward" else -1
        assert np.array_equal(edge_rel.generator_matrix, sign * np.eye(2))


class TestEdgePropagation:
    def test_monotone_library_run_passes(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=200, tol=0.0, rel=COORD2)
        report = audit_record("edge_propagation", traj, half_maps(), COORD2)
        assert report.status == "pass" and report.failures == 0
        assert report.trials == 2 * 199

    def test_identity_run_all_loops(self, rng):
        op = Identity(SPACE2, BOX2)
        traj = run(op, rng.uniform(0, 1, 2), Schedule.constant(0.5), rel=COORD2)
        assert audit_record("edge_propagation", traj, op, COORD2).status == "pass"

    def test_reverse_comparable_start_uses_mirrored_edges(self):
        traj = run(half_maps(), [0.9, 0.8], Schedule.constant(0.4), max_iter=100, tol=0.0, rel=COORD2)
        assert traj.start_edge_reverse and not traj.start_edge_forward
        report = audit_record("edge_propagation", traj, half_maps(), COORD2)
        assert report.status == "pass"
        assert report.extra["case"] == "reverse"

    def test_nonmonotone_swap_fails_at_step_two(self):
        # frozen counterexample: half-space order v1 >= 0, start (0.55, 0.55)
        rel = ConeRelation(np.array([[1.0, 0.0]]))
        op = NonmonotoneSwap(SPACE2, BOX2, 0.5, [0.3, 0.1])
        traj = run(op, [0.55, 0.55], Schedule.constant(0.5), max_iter=50, tol=0.0, rel=rel)
        assert traj.start_edge_forward
        report = audit_record("edge_propagation", traj, op, rel)
        assert report.status == "fail"
        assert report.failures > 0
        assert report.extra["first_failure"]["step"] == 2

    def test_incomparable_start_is_hypothesis_not_met(self):
        op = MatrixAffine(SPACE2, BOX2, np.array([[0.0, 0.5], [0.5, 0.0]]), [0.2, 0.2])
        traj = run(op, [0.9, 0.05], Schedule.constant(0.5), max_iter=20, tol=0.0, rel=COORD2)
        report = audit_record("edge_propagation", traj, op, COORD2)
        assert report.status == "hypothesis_not_met"

    def test_record_without_start_flags_rejected(self):
        traj = run(half_maps(), [0.1, 0.2], Schedule.constant(0.4), max_iter=20, tol=0.0)
        assert traj.start_edge_case() is None
        with pytest.raises(InputError):
            audit_record("edge_propagation", traj, half_maps(), COORD2)


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

    def test_readme_library_block(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(block, scope)
        reports = scope["reports"]
        assert reports and all(entry["status"] == "pass" for entry in reports.values())

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


@pytest.fixture(scope="module")
def corpus_records():
    """The first 12 corpus instances with d >= 2, each with its 400-iterate
    full-history record."""
    instances = [inst for inst in acceptance_instances(40) if inst.space.dimension >= 2][:12]
    assert len(instances) == 12
    records = []
    for inst in instances:
        traj = run(inst.operator, inst.x1, inst.schedule, max_iter=400, tol=0.0, rel=inst.relation)
        assert traj.n_iterates == 400
        records.append((inst, traj))
    return records


@pytest.mark.parametrize("block_rows", [None, B], ids=["shipped_rule", f"block_rows{B}"])
def test_trajectory_detection_floor(monkeypatch, corpus_records, block_rows):
    # `trajectory` catches an iterate coordinate or a residual raised by
    # 1e-9, and a step raised by 1e-6, wherever the row lies in its block:
    # under the shipped rule the run is one block, and with 7-row blocks
    # row 399 is a one-row last block (400 = 57 x 7 + 1)
    if block_rows is not None:
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)
    tampers = [("iterates", 1e-9, (20, 150, 399)), ("residuals", 1e-9, (20, 150, 399)),
               ("schedule_used", 1e-6, (20, 150))]
    cases, missed = 0, []
    for inst, traj in corpus_records:
        args = (inst.operator, inst.relation, inst.space, inst.schedule)
        assert run_audits(["trajectory"], traj, *args, diam=1.0)["trajectory"]["status"] == "pass"
        for field, h, rows in tampers:
            for m in rows:
                values = getattr(traj, field).copy()
                values[(m, 0) if values.ndim == 2 else m] += h  # one coordinate of a row
                got = run_audits(["trajectory"], replace(traj, **{field: values}), *args, diam=1.0)
                cases += 1
                if got["trajectory"]["status"] != "fail":
                    missed.append((inst.name, field, m))
    assert cases == 36 + 36 + 24 and missed == []


def valid_matrix_affine_configs():
    """One valid `matrix_affine` config per cell of d x p x t x s, drawn
    from default_rng(2026): the box [0, s]^d under the coordinatewise cone,
    M uniform in [0, 1) scaled to a certified norm bound drawn from
    [0.5, 1), an offset uniform in [0, 0.1 s), start 0, 2 000 iterates, and
    a stride of 1 or 7 and a tol of 0 or 1e-10 s drawn per config."""
    rng = np.random.default_rng(2026)
    configs = []
    for d in (1, 2, 3, 8, 16):
        for p in (1.5, 2.0, 3.0):
            for t in (0.1, 0.5):
                for s in (1e-3, 1.0):
                    m = rng.random((d, d))
                    m *= rng.uniform(0.5, 1.0) / matrix_opnorm_bound(m, p)
                    configs.append({
                        "schema_version": 1,
                        "seed": 1,
                        "space": {"dimension": d, "p": p},
                        "body": {"kind": "box", "lo": 0.0, "hi": s},
                        "relation": {"kind": "coordinatewise"},
                        "operator": {"kind": "matrix_affine", "matrix": m.tolist(),
                                     "offset": (rng.uniform(0.0, 0.1, d) * s).tolist()},
                        "start": {"kind": "explicit", "value": [0.0] * d},
                        "schedule": {"kind": "constant", "t": t},
                        "run": {"max_iter": 2000, "tol": float(rng.choice([0.0, 1e-10 * s])),
                                "record_stride": int(rng.choice([1, 7]))},
                        "audits": list(ALL_AUDITS),
                    })
    return configs


def test_valid_matrix_affine_configs_fail_no_auditor():
    # the library certifies every hypothesis of these configs, so a `fail`
    # on any of them would be a false one; the cells with s <= 1 and
    # t <= 0.5 of a wider scan, where no auditor fails today
    configs = valid_matrix_affine_configs()
    assert len(configs) == 60
    fails = []
    for data in configs:
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
        assert result.exit_code in (0, 3)
        fails += [(data["space"], data["schedule"]["t"], data["body"]["hi"], name)
                  for name, entry in result.audits.items() if entry["status"] == "fail"]
    assert fails == []


class TestBlockedAudit:
    """run_audits in blocks writes what the unblocked audit writes, whichever
    block holds a failure."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # blocks of B rows: the byte budget never exceeds the minimum
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", B)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)

    @staticmethod
    def assert_same(traj, op, rel, schedule):
        args = (traj, op, rel, op.space, schedule)
        got = run_audits(ALL_AUDITS, *args, diam=2.0, seed=3)
        assert got == reference_run_audits(ALL_AUDITS, *args, diam=2.0, seed=3)
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

    @pytest.mark.parametrize("m", [B - 1, B, B + 1])
    @pytest.mark.parametrize(
        "kind", ["iterate_up", "iterate_down", "residual", "step", "fejer_late_member"]
    )
    @pytest.mark.parametrize("stride", [1, 2])
    def test_standalone_auditors(self, stride, kind, m):
        # each alone in the pass over a record, the edge and Fejer auditors
        # read the same blocks; at stride 2 recorded rows B - 1..B + 1 are
        # iterates 2B - 1..2B + 3, round the second block boundary
        op = gentle_maps()
        full = run(op, [0.1, 0.2], Schedule.constant(0.5), max_iter=40, tol=0.0, rel=COORD2)
        traj = tamper(decimate(full, stride), kind, m)
        x_all = full_iterates(traj, op)
        edges = audit_record("edge_propagation", traj, op, COORD2)
        expect = reference_edges(traj, COORD2, x_all, op.apply_batch(x_all))
        assert edges.to_dict() == expect.to_dict()
        fejer = audit_record("fejer", traj, op, COORD2)
        expect = reference_fejer(traj, op, COORD2, SPACE2, x_all)
        assert expect.extra.pop("direction") == "forward"
        assert fejer.to_dict() == expect.to_dict()
        if stride == 1 and kind.startswith("iterate"):
            assert edges.status == "fail"
        if stride == 1 and kind in ("iterate_down", "fejer_late_member"):
            assert fejer.status == "fail"

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
        thin = decimate(full, stride)
        got = self.assert_same(thin, gentle_maps(), COORD2, schedule)
        # the replay reads the rows the run produced
        args = (thin, gentle_maps(), COORD2, SPACE2, schedule)
        assert got == reference_run_audits(ALL_AUDITS, *args, diam=2.0, seed=3, x_all=full.iterates)

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, 2 * B - 1, 2 * B, 3 * B + 1])
    def test_run_lengths(self, n):
        schedule = Schedule.constant(0.5)
        traj = run(gentle_maps(), [0.1, 0.2], schedule, max_iter=n, tol=0.0, rel=COORD2)
        self.assert_same(traj, gentle_maps(), COORD2, schedule)


@pytest.fixture(params=[None, 2 << 20], ids=["shipped_rule", "bytes_2MiB"])
def block_rule(request, monkeypatch):
    """The shipped block rule, 256-row audit blocks at d = 256, and a 2 MiB
    budget, 1 024-row audit blocks at d = 256, each spanning four box
    checks of the run."""
    if request.param is not None:
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", request.param)


@pytest.mark.usefixtures("block_rule")
class TestBlockedAuditAtScale:
    """The same at d = 256 with the block rule itself, and with 2 MiB
    blocks."""

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
                # the iterates were allocated before tracing started, and the
                # stream reads them as stored
                results = run_audits(ALL_AUDITS, traj, op, rel, op.space, schedule, diam=16.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(e["status"] != "fail" for e in results.values())
        assert peaks[1] - peaks[0] < audit_block_rows(d) * d * 8


@pytest.mark.parametrize("kind", [None, "iterate_down"])
@pytest.mark.parametrize("stride", [1, 7])
@pytest.mark.parametrize(
    "block_rows, d, n",
    [(None, 64, 1500), (B, 64, 1500), (None, 255, 400), (None, 257, 400)],
    ids=["shipped_rule", f"block_rows{B}", "shipped_rule_d255", "shipped_rule_d257"],
)
def test_each_replaying_auditor_alone_matches_the_full_pass(monkeypatch, block_rows, d, n,
                                                            stride, kind):
    # alone or with the others, each auditor reads the images of the same
    # audit blocks.  A 1 500-row run spans audit blocks under either rule
    # (1 024 rows at d = 64).  At d = 255 and 257 a 400-row run is a block
    # of 257 or 256 rows and a shorter last one, and a batch's bits depend
    # on its row count: T of the head rows alone can differ in the last bit
    # from the first block's images of them
    if block_rows is not None:
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)
    op = permutation_map(d, 0.999)
    rel = ConeRelation(np.eye(d))
    schedule = Schedule.constant(0.5)
    full = run(op, np.zeros(d), schedule, max_iter=n, tol=0.0, rel=rel)
    traj = decimate(full, stride)
    if kind is not None:
        traj = tamper(traj, kind, B)
    args = (traj, op, rel, op.space, schedule)
    every = run_audits(ALL_AUDITS, *args, diam=8.0, seed=3)
    for name in sorted(REPLAYING_AUDITS):
        assert run_audits([name], *args, diam=8.0, seed=3) == {name: every[name]}, name
    if kind is not None:
        assert every["trajectory"]["status"] == "fail"


STRIDES = [1, 7, 50]


def streamed_audit(op, x1, schedule, rel, stride, diam=2.0, **run_args):
    """A run audited while it runs, at `stride`, as run_experiment audits it:
    its record and its reports."""
    audit = AuditPass(ALL_AUDITS, op, rel)
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
    """run() audited while it runs, in blocks of 5 and of B rows, against the
    unblocked audit of the full history."""

    @pytest.fixture(autouse=True, params=[5, B], ids=["block_rows5", f"block_rows{B}"])
    def small_blocks(self, monkeypatch, request):
        # the byte budget never exceeds the minimum
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", request.param)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)

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
    # at B-row blocks 2B + 1 ends in a one-row last block, whose step in is
    # checked from the block before it, and 2B + 2 in a two-row one
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

    def test_read_only_record(self):
        # the stored rows of a full-history record are read, never written:
        # the row after each block is already the stored next row
        schedule = Schedule.constant(0.5)
        traj = run(gentle_maps(), [0.1, 0.2], schedule, max_iter=3 * B + 2, tol=0.0, rel=COORD2)
        traj.iterates.flags.writeable = False
        args = (traj, gentle_maps(), COORD2, SPACE2, schedule)
        got = run_audits(ALL_AUDITS, *args, diam=2.0, seed=3)
        assert got == reference_run_audits(ALL_AUDITS, *args, diam=2.0, seed=3)

    def test_full_history_is_read_in_place(self):
        # every block the auditors read is a view of the stored rows, a
        # block's rows but for the short last one, with the images of T of
        # its own rows as one batch
        op = gentle_maps()
        traj = run(op, [0.1, 0.2], Schedule.constant(0.5), max_iter=3 * B + 2, tol=0.0,
                   rel=COORD2)
        b = audit_block_rows(2)
        blocks = []
        stream = AuditPass((), op, None)
        stream.audit = lambda block: blocks.append(
            (block.start, block.stop, block.tx, np.shares_memory(block.x, traj.iterates))
        )
        stream_record(traj, op, stream)
        n = traj.n_iterates
        assert [stop - start for start, stop, _, _ in blocks] == [b] * (n // b) + [n % b]
        for start, stop, tx, shared in blocks:
            assert shared
            assert tx.tobytes() == op.apply_batch(traj.iterates[start:stop]).tobytes()


def test_streamed_audit_at_the_d4_block_edge():
    # under the shipped rule an audit block is 16 384 rows at d = 4, and the
    # run checks its box 64 times per block
    d = 4
    op = permutation_map(d, 0.999)
    rel = ConeRelation(np.eye(d))
    schedule = Schedule.constant(0.5)
    b = audit_block_rows(d)
    assert b == 16_384
    residuals = run(op, np.zeros(d), schedule, max_iter=b + 1, tol=0.0).residuals
    for n in (b - 1, b, b + 1):
        for stride in STRIDES:
            traj, _ = assert_streamed_like_full_history(
                op, np.zeros(d), schedule, rel, stride, max_iter=2 * b, tol=residuals[n - 1]
            )
            assert traj.n_iterates == n


@pytest.mark.usefixtures("block_rule")
class TestStreamedAuditAtScale:
    """The same at d = 256 with the block rule itself, and with 2 MiB
    blocks."""

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


@pytest.mark.parametrize(
    "d, block_rows, n, stride",
    # 2 049 = 8 x 256 + 1 and 29 = 4 x 7 + 1, and x_N is off the stride's
    # grid: 2 048 % 7 and 28 % 3 are not 0
    [(256, None, 2049, 7), (2, 7, 29, 3)],
    ids=["shipped_rule_d256", "block_rows7_d2"],
)
def test_final_step_of_a_one_row_last_block(tmp_path, monkeypatch, d, block_rows, n, stride):
    # the last block is x_N alone, so the step into x_N, which the stride
    # does not record, is checked from the block before it
    if block_rows is not None:
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_ROWS", block_rows)
        monkeypatch.setattr(graphmann.mann, "AUDIT_BLOCK_BYTES", 0)
    assert n % audit_block_rows(d) == 1 and (n - 1) % stride
    config = permutation_config(d, 0.995, n, stride)
    result = run_experiment(config, out_dir=tmp_path)
    k = result.trajectory.iterates.shape[0]
    assert result.trajectory.n_iterates == n and k == -(-n // stride) + 1
    assert result.audits["trajectory"]["trials"] == n + k - 1
    _, audits = audit_stored(tmp_path / "run.json", config)
    assert audits["trajectory"]["trials"] == n + k - 1
    assert audits["trajectory"]["status"] == "pass"
    report = json.loads((tmp_path / "run.json").read_text())
    record = report.get("trajectory", report)
    record["iterates"][-1] = [v + 1e-9 for v in record["iterates"][-1]]
    (tmp_path / "run.json").write_text(json.dumps(report))
    _, audits = audit_stored(tmp_path / "run.json", config)
    assert audits["trajectory"]["status"] == "fail"


def permutation_config(d, s, n, stride):
    """The config of `permutation_map(d, s)` from 0, run to n iterates."""
    return ExperimentConfig.from_dict(permutation_data(d, s, n, stride))


def permutation_data(d, s, n, stride):
    """The raw config dict of `permutation_config`."""
    op = permutation_map(d, s)
    return {
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
    }


def traced_peak(fn, *args, **kwargs):
    """Peak bytes allocated while fn runs, and its result."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


class TestStreamedMemory:
    # the stored audit's growth from 2 000 to 8 000 iterates at d = 256:
    # `read_json` of run.json holds its arrays and a few pieces of its text
    # while it reads, and the peak is then set by the audit's blocks and
    # that record; it rose by 0.54 MB (it fell by 0.25 MB when a short last
    # block folded into the one before it, whose 464-row cut set the
    # shorter run's peak; by 0.84 MB when the read also held the file's
    # bytes and the auditors read a folded cut whole, and it rose by
    # 1.12 MB when `json.loads` held a Python float per residual, step and
    # every 50th row), where an (N, d) history would add 6 000 x 2 KiB
    # = 12 MB
    STORED_AUDIT_GROWTH = 2 << 20

    def test_run_and_stored_audit_peaks_do_not_grow_with_the_run(self, tmp_path):
        # at stride 50 neither the run nor the audit of its run.json holds
        # an (N, d) history, so 6 000 more iterates of 2 KiB add less than
        # one audit block to the run's peak, and to the stored audit's only
        # the record's Python objects (STORED_AUDIT_GROWTH)
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
        assert peaks["run"][1] - peaks["run"][0] < audit_block_rows(d) * d * 8
        assert peaks["audit"][1] - peaks["audit"][0] < self.STORED_AUDIT_GROWTH

    @pytest.fixture(scope="class")
    def full_history_growth(self, tmp_path_factory):
        """Peak bytes per iterate that run_experiment and the audit of its
        run.json add from 2 x 16 384 + 1 000 to 4 x 16 384 + 1 000 iterates
        at d = 4, full history: the last audit block (1 000 rows) is the
        same in both runs.  The run is traced
        without writing its files, which triples the time tracing takes and
        holds a chunk of text at a time; they are written untraced."""
        lengths = (2 * 16_384 + 1000, 4 * 16_384 + 1000)
        peaks = {"run": [], "audit": []}
        for n in lengths:
            config = permutation_config(4, 0.9999, n, 1)
            peak, result = traced_peak(run_experiment, config, write=False)
            assert result.trajectory.n_iterates == n and result.exit_code != 2
            peaks["run"].append(peak)
            del result
            out = tmp_path_factory.mktemp("full_history")
            run_experiment(config, out_dir=out)
            peak, (code, _) = traced_peak(audit_stored, out / "run.json", config)
            assert code != 2
            peaks["audit"].append(peak)
        return {op: (high - low) / (lengths[1] - lengths[0]) for op, (low, high) in peaks.items()}

    def test_full_history_run_grows_by_its_rows_and_residuals(self, full_history_growth):
        # the run holds its iterates (32 B) and residuals (8 B) per iterate,
        # and its last blocks and the auditors' whatever its length; it
        # grew by 105 B per iterate when it kept r_n and the indices in lists
        assert full_history_growth["run"] < 48

    def test_full_history_stored_audit_grows_by_its_record(self, full_history_growth):
        # the audit of run.json holds the record's arrays (56 B per iterate)
        # and, while `read_json` reads an array, the pieces of that array;
        # it grew by 239 B per iterate when the read held the file's bytes
        # (176 B per iterate) and a fold copied the last cut
        assert full_history_growth["audit"] < 96

    @pytest.mark.parametrize("stride", [1, 50])
    def test_audit_working_set(self, stride):
        # the audit of a 2 000-iterate d = 256 record: its blocks, their
        # images and the auditors' block-sized temporaries, with a stored
        # record's gaps replayed at stride 50.  512 KiB blocks peak at 6.4
        # and 5.0 MiB, 2 MiB blocks at 24.1 and 16.7 MiB, so a larger block
        # fails here
        d = 256
        op = permutation_map(d, 0.9999)
        rel = ConeRelation(np.eye(d))
        schedule = Schedule.constant(0.5)
        traj = run(op, np.zeros(d), schedule, max_iter=2000, tol=0.0, rel=rel,
                   record_stride=stride)
        peak, results = traced_peak(run_audits, ALL_AUDITS, traj, op, rel, op.space,
                                    schedule, diam=16.0)
        assert all(e["status"] != "fail" for e in results.values())
        assert peak < 8 << 20


class TestSweepMemory:
    def test_sweep_holds_one_config(self, tmp_path):
        # the sub-runs share the input's 256 x 256 matrix, so three more
        # values of the axis add less than a megabyte to the peak, where one
        # more copy of the matrix's floats alone is 1.5 MiB
        data = permutation_data(256, 0.999, 300, 50)
        peaks = []
        for values in ([0.5], [0.3, 0.5, 0.7, 0.9]):
            peak, (code, rows) = traced_peak(
                run_sweep, data, "schedule.t", values, out_dir=tmp_path / str(len(values))
            )
            assert code != 2 and len(rows) == len(values)
            peaks.append(peak)
        assert peaks[1] - peaks[0] < 2**20

    def test_sweep_configs_share_the_files_matrix_array(self, tmp_path):
        # a config file's 256 x 256 matrix is read as one 512 KiB array, and
        # every value of a schedule.t sweep runs with that very array, in its
        # config and as its operator's matrix (a Python float per entry took
        # 2 MiB, and the operator kept a copy)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(permutation_data(256, 0.999, 300, 50)))
        seen = []
        run_one = graphmann.experiment.run_experiment

        def recorded(config, **kwargs):
            seen.append((config, kwargs["built"].operator))
            return run_one(config, **kwargs)

        with mock.patch.object(graphmann.experiment, "run_experiment", recorded):
            code, rows = run_sweep(read_config(path), "schedule.t", [0.3, 0.5, 0.7, 0.9],
                                   out_dir=tmp_path / "sweep")
        assert code != 2 and len(seen) == 4
        matrix = seen[0][0].operator.matrix
        assert isinstance(matrix, np.ndarray) and matrix.nbytes == 256 * 256 * 8
        assert all(config.operator.matrix is matrix and operator.matrix is matrix
                   for config, operator in seen)

    def test_load_and_build_peak(self, tmp_path):
        # load_config and _build of the d = 256 config peak while the
        # matrix's pieces of text are read and joined (1.5 MiB), and the
        # operator keeps the joined array; with json.load the file's Python
        # floats and two arrays made of them peaked at 3.6 MiB
        path = tmp_path / "config.json"
        path.write_text(json.dumps(permutation_data(256, 0.999, 300, 50)))

        def load_and_build():
            config = load_config(path)
            return config, _build(config, 0)

        peak, (config, built) = traced_peak(load_and_build)
        assert built.operator.matrix is config.operator.matrix
        assert peak < 2.5 * 2**20

"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The corpus fixture runs all 100 seeded instances once (a fixed-length
200-step run for the trajectory-level checks and a run to tolerance for the
convergence checks); the criterion tests then assert over the shared
results.  Run with `pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines.
"""

import json
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from graphmann.cli import main
from graphmann.corpus import (
    acceptance_instances,
    negative_swap_config,
    oracle_1d_config,
    t_one_config,
)
from graphmann.diagnostics import (
    convergence_audit,
    gk_inequality_check,
    rate_audit,
    rate_bound,
    residual_monotone_check,
    verify_fixed_point,
)
from graphmann.mann import STOP_TOLERANCE, Schedule, Trajectory, run
from graphmann.normed_space import NormSpace, diameter, modulus_uc_estimate
from test_normed_space import P2_MODULUS, grid_modulus_p2_d2
from testonly_records import audit_record
from testonly_relations import (
    MetricBallRelation,
    audit_cg,
    audit_reflexive,
    audit_transitive,
    chained_triple_source,
    edge_pair_source,
    gaussian_point_source,
)

AUDIT_STEPS = 200
GK_PAIRS = 50
RATE_SPANS = (1, 5, 10, 50)


def criterion(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {label}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass
class InstanceRun:
    instance: object
    audit_traj: Trajectory
    conv_traj: Trajectory


@dataclass
class Corpus:
    runs: list = field(default_factory=list)
    audit_run_seconds: float = 0.0


@pytest.fixture(scope="session")
def corpus() -> Corpus:
    result = Corpus()
    for inst in acceptance_instances(100):
        started = time.perf_counter()
        audit_traj = run(
            inst.operator, inst.x1, inst.schedule,
            max_iter=AUDIT_STEPS + 1, tol=0.0, rel=inst.relation,
        )
        result.audit_run_seconds += time.perf_counter() - started
        conv_traj = run(
            inst.operator, inst.x1, inst.schedule,
            max_iter=100_000, tol=1e-10, rel=inst.relation,
        )
        result.runs.append(InstanceRun(inst, audit_traj, conv_traj))
    return result


def test_criterion_1_edge_propagation(corpus):
    started = time.perf_counter()
    bad = []
    for item in corpus.runs:
        if item.audit_traj.n_iterates != AUDIT_STEPS + 1:
            bad.append((item.instance.name, "short run"))
            continue
        report = audit_record(
            "edge_propagation", item.audit_traj, item.instance.operator, item.instance.relation
        )
        if report.status != "pass" or report.trials != 2 * AUDIT_STEPS:
            bad.append((item.instance.name, report.status, report.failures))
    elapsed = corpus.audit_run_seconds + (time.perf_counter() - started)
    criterion(
        1,
        "edge propagation holds on 100 instances for 200 steps",
        not bad and elapsed < 30.0,
        f"{elapsed:.1f}s runs+audits, offenders={bad[:3]}",
    )


def test_criterion_2_residual_monotonicity(corpus):
    bad = []
    for item in corpus.runs:
        r = item.audit_traj.residuals
        if np.any(r[1:] > r[:-1] + 1e-12):
            bad.append(item.instance.name)
        if residual_monotone_check(item.audit_traj).status != "pass":
            bad.append(item.instance.name)
    criterion(2, "residuals nonincreasing within 1e-12", not bad, f"offenders={bad[:3]}")


def test_criterion_3_goebel_kirk(corpus):
    worst = np.inf
    bad = []
    for k, item in enumerate(corpus.runs):
        rng = np.random.default_rng([991, k])
        pairs = []
        for _ in range(GK_PAIRS):
            i = int(rng.integers(1, AUDIT_STEPS))
            pairs.append((i, int(rng.integers(1, AUDIT_STEPS - i + 1))))
        traj = item.audit_traj
        op = item.instance.operator
        records = gk_inequality_check(
            traj, op.space, pairs, traj.iterates, op.apply_batch(traj.iterates)
        ).records
        low = min(r["slack"] for r in records)
        worst = min(worst, low)
        if low < -1e-9:
            bad.append((item.instance.name, low))

    # hand-computed 1-d case: T(x) = (x+1)/2, t = 0.5, x1 = 0, (i, n) = (1, 1)
    from test_diagnostics import midpoint_map

    traj = run(midpoint_map(), [0.0], Schedule.constant(0.5), max_iter=3, tol=0.0)
    op = midpoint_map()
    (record,) = gk_inequality_check(
        traj, op.space, [(1, 1)], traj.iterates, op.apply_batch(traj.iterates)
    ).records
    hand_ok = (
        abs(record["lhs"] - 0.75) <= 1e-12
        and abs(record["rhs"] - 0.875) <= 1e-12
    )
    criterion(
        3,
        "telescoped inequality slack >= -1e-9 on 50 pairs per instance",
        not bad and hand_ok,
        f"min slack {worst:.2e}",
    )


def test_criterion_4_fejer(corpus):
    bad = []
    for item in corpus.runs:
        inst = item.instance
        report = audit_record("fejer", item.audit_traj, inst.operator, inst.relation)
        if report.status != "pass":
            bad.append((inst.name, report.status))
        elif abs(report.extra["initial_distance"] - inst.space.norm(inst.x1 - inst.omega)) > 1e-12:
            bad.append((inst.name, "another fixed point"))
        elif report.extra["limit_estimate"] > report.extra["initial_distance"] + 1e-12:
            bad.append((inst.name, "distance grew"))
    criterion(
        4,
        "distances to the comparable fixed point are nonincreasing",
        not bad,
        f"offenders={bad[:3]}",
    )


def test_criterion_5_rate_inequality(corpus):
    bad = []
    for item in corpus.runs:
        inst = item.instance
        checks = rate_audit(
            item.audit_traj, inst.schedule, diameter(inst.space, inst.body), RATE_SPANS
        ).records
        for check in checks:
            # 20 start indices per span, as the spans leave at least 150
            if check["trials"] != 20 or check["failures"] or check["min_slack"] < -1e-9:
                bad.append((inst.name, check["n"], check["min_slack"]))
    hand_ok = (
        abs(rate_bound(2, 0.5, 2.0) - 1.0) <= 1e-12
        and abs(rate_bound(10, 0.25, np.sqrt(2.0)) - 0.40406) <= 1e-5
    )
    criterion(
        5,
        "pre-limit rate inequality holds for spans {1,5,10,50}",
        not bad and hand_ok,
        f"offenders={bad[:3]}",
    )


def test_criterion_6_convergence(corpus):
    bad = []
    for item in corpus.runs:
        inst = item.instance
        traj = item.conv_traj
        if traj.stop_reason != STOP_TOLERANCE or traj.n_iterates > 100_000:
            bad.append((inst.name, traj.stop_reason))
            continue
        if not verify_fixed_point(inst.operator, traj.final_iterate, 1e-8):
            bad.append((inst.name, "final iterate not fixed at 1e-8"))
            continue
        report = convergence_audit(traj, inst.operator, inst.relation)
        if report.status != "pass":
            bad.append((inst.name, report.status))

    from test_diagnostics import midpoint_map

    oracle = run(midpoint_map(), [0.0], Schedule.constant(0.5), rel=None)
    oracle_ok = (
        oracle.stop_reason == STOP_TOLERANCE
        and abs(oracle.final_iterate[0] - 1.0) <= 1e-8
    )
    criterion(
        6,
        "every instance converges to a fixed point within 1e5 iterations",
        not bad and oracle_ok,
        f"offenders={bad[:3]}",
    )


def test_criterion_7_modulus_of_convexity():
    oracle_ok = all(
        abs(grid_modulus_p2_d2(eps) - ref) <= 2e-3 for eps, ref in P2_MODULUS.items()
    )
    space = NormSpace(2, 2.0)
    errs = {
        eps: abs(modulus_uc_estimate(space, eps, budget=40, seed=0) - ref)
        for eps, ref in P2_MODULUS.items()
    }
    flat = modulus_uc_estimate(NormSpace(2, 1.0), 1.0, budget=24, seed=0)
    criterion(
        7,
        "convexity modulus estimator matches p=2 references and the p=1 flat case",
        oracle_ok and all(e <= 1e-2 for e in errs.values()) and flat <= 1e-6,
        f"max p2 err {max(errs.values()):.1e}, p1 {flat:.1e}",
    )


def test_criterion_8_hypothesis_necessity(tmp_path):
    swap_dir = tmp_path / "swap"
    swap_path = tmp_path / "swap.json"
    swap_path.write_text(json.dumps(negative_swap_config(str(swap_dir))))
    swap_code = main(["run", "--config", str(swap_path), "--quiet"])
    swap_report = json.loads((swap_dir / "audits.json").read_text())
    swap_statuses = [e["status"] for e in swap_report["audits"].values()]

    t1_dir = tmp_path / "t1"
    t1_path = tmp_path / "t1.json"
    t1_path.write_text(json.dumps(t_one_config(str(t1_dir))))
    t1_code = main(["run", "--config", str(t1_path), "--quiet"])
    t1_report = json.loads((t1_dir / "audits.json").read_text())
    t1_statuses = [e["status"] for e in t1_report["audits"].values()]

    bad_data = oracle_1d_config(str(tmp_path / "bad"))
    bad_data["schedule"] = {"kind": "constant", "t": 1.0, "enforce_bounds": True}
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad_data))
    bad_code = main(["run", "--config", str(bad_path), "--quiet"])

    ok = (
        swap_code == 2
        and "fail" in swap_statuses
        and t1_code == 3
        and "hypothesis_not_met" in t1_statuses
        and "fail" not in t1_statuses
        and bad_code == 1
    )
    criterion(
        8,
        "negative corpus is flagged (no silent pass) and CLI exit codes hold",
        ok,
        f"swap={swap_code}, t1={t1_code}, enforced-t1={bad_code}",
    )


def test_criterion_9_axiom_audits(corpus):
    seen: dict[bytes, object] = {}
    for item in corpus.runs:
        rel = item.instance.relation
        seen.setdefault(rel.generator_matrix.tobytes(), rel)
    bad = []
    for idx, rel in enumerate(seen.values()):
        rng = np.random.default_rng([555, idx])
        d = rel.dimension
        reports = [
            audit_reflexive(rel, 1000, gaussian_point_source(d, rng)),
            audit_transitive(rel, 1000, chained_triple_source(rel, rng)),
            audit_cg(rel, 334, [0.0, 0.5, 1.0], edge_pair_source(rel, rng)),
        ]
        for report in reports:
            if report.failures:
                bad.append((d, report.property_name, report.failures))

    ball = MetricBallRelation(dimension=2, radius=1.0)
    rng = np.random.default_rng(7)

    def ball_sampler():
        x = rng.standard_normal(2)
        u = rng.standard_normal(2)
        v = rng.standard_normal(2)
        u *= rng.uniform(0.6, 1.0) / np.linalg.norm(u)
        v *= rng.uniform(0.6, 1.0) / np.linalg.norm(v)
        return x, x + u, x + u + v

    detected = audit_transitive(ball, 300, ball_sampler).failures > 0
    criterion(
        9,
        "axiom audits pass on every corpus cone; broken relation is detected",
        not bad and detected,
        f"{len(seen)} distinct cones, offenders={bad[:3]}",
    )

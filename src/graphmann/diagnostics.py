"""Trajectory auditors for the convergence theory of the averaged iteration.

Each auditor mechanically re-checks one proved property along a recorded
run: edge propagation of the iterates, monotone decrease of distances to a
comparable fixed point, monotone decrease of residuals, the Goebel-Kirk
telescoping inequality, the pre-limit rate inequality with its bound
diam / (1 + n a), and fixed-point convergence of the final iterate.

Outcomes are tri-state: pass, fail, or hypothesis-not-met.  A property whose
hypotheses do not apply to the run (no comparable start, no known fixed
point, steps outside (0, 1)) is never conflated with a failed conclusion.

`run_audits` reads the iterates in one pass over row blocks, fed to an
`AuditPass` while a run or a replay produces them: T is applied once per
block, the trajectory, edge-propagation and Fejer auditors each extend their
report with the block, and the Goebel-Kirk auditor reads the head of the
first block.  The audit holds a few blocks of rows, however long the run,
and every report equals that of one check over the whole run.
"""

from __future__ import annotations

import csv
from dataclasses import asdict, dataclass, replace
from functools import partial

import numpy as np

from ._util import as_vector, fmt17
from .errors import ConfigError, InputError, UndefinedProductError
from .mann import (
    STOP_TOLERANCE,
    AuditBlock,
    AuditStream,
    Schedule,
    Trajectory,
    audit_block_rows,
    audit_blocks,
    full_iterates,
    iterate_rows,
    start_edges,
    verify_trajectory,
)
from .normed_space import NormSpace
from .operators import Operator, known_fixed_points
from .order_graph import (
    AuditReport,
    ConeRelation,
    STATUS_FAIL,
    STATUS_HYPOTHESIS_NOT_MET,
)

INEQUALITY_SLACK_TOL = 1e-9
MONOTONE_TOL = 1e-12
FEJER_FIXED_POINT_TOL = 1e-10
ACCEPT_FIXED_POINT_TOL = 1e-8

# run_audits checks the telescoping inequality at GK_PAIRS seeded random
# (i, n) pairs inside the first GK_WINDOW iterates, and the rate inequality
# at each of RATE_SPANS that fits the run
GK_PAIRS = 50
GK_WINDOW = 200
RATE_SPANS = (1, 5, 10, 50)
INCOMPARABLE_START = "start is not comparable with its image"
ALL_AUDITS = (
    "trajectory",
    "edge_propagation",
    "residual_monotone",
    "gk_inequality",
    "fejer",
    "rate",
    "convergence",
)
# auditors that read the iterates; run_audits streams a record's rows (a
# decimated one replayed) once for all of them when no run streamed them
REPLAYING_AUDITS = frozenset({"trajectory", "edge_propagation", "gk_inequality", "fejer"})
# auditors that read T of every iterate; run_audits applies T once per block
# for both, and the Goebel-Kirk auditor reads T of the first block
IMAGE_AUDITS = frozenset({"trajectory", "edge_propagation"})


@dataclass(frozen=True)
class GKRecord:
    """One instance of the telescoping inequality at indices (i, i+n)."""

    i: int
    n: int
    lhs: float
    rhs: float
    slack: float


@dataclass(frozen=True)
class RateCheck:
    """Pre-limit rate verification for one span n.

    `bound` is diam / (1 + n a); `observed_limit_estimate` is the residual at
    the final recorded iterate.  `trials`/`failures`/`min_slack` summarize
    the sampled-i inequality checks for this span.
    """

    n: int
    a: float
    diam: float
    bound: float
    observed_limit_estimate: float
    trials: int
    failures: int
    min_slack: float


def audit_edge_propagation(
    traj: Trajectory | None,
    operator: Operator,
    rel: ConeRelation,
    x_all: np.ndarray | None = None,
    block: AuditBlock | None = None,
    report: AuditReport | None = None,
) -> AuditReport:
    """Check the propagated edges along the whole run.

    With a forward-comparable start this is (x_n, x_{n+1}) and
    (x_{n+1}, T(x_n)) for every step; with a reverse-comparable start both
    families run mirrored.  A start comparable in neither direction yields
    hypothesis-not-met.  The direction is read from the trajectory's start
    flags (`Trajectory.start_edge_case`); a record without them raises
    InputError.  `x_all` holds all iterates x_1..x_N; without it the
    record's own are read, replayed gap by gap when decimated.  The witness
    is the first failing step edge, or the first failing image edge when
    every step edge holds.

    The steps are checked one `audit_blocks` block at a time, with T applied
    once per block; a block's last step reads the first row of the next.
    `block` and `report` work as in `verify_trajectory`.
    """
    if report is None:
        report = _edge_report(traj.start_edge_case())
        if not report.hypothesis_met:
            return report
    reverse = report.extra["case"] == "reverse"
    for b in audit_blocks(x_all, operator, traj) if block is None else (block,):
        x, tx, start = b.x, b.tx, b.start  # the steps leaving rows start..stop-1
        steps = x.shape[0] - 1
        if steps == 0:
            continue
        # each family's edges as (tail, head) rows; one family's
        # differences are alive at a time
        if reverse:
            edges = ((x[1:], x[:-1]), (tx[:steps], x[1:]))
        else:
            edges = ((x[:-1], x[1:]), (x[1:], tx[:steps]))
        for family, ((tail, head), label) in enumerate(zip(edges, ("step_edge", "image_edge"))):
            ok = rel.diffs_in_cone(head - tail)
            report.trials += steps
            bad = np.flatnonzero(~ok)
            if bad.size:
                k = int(bad[0])
                report.fail(
                    int(bad.size),
                    (family, start + k),
                    (x[k], x[k + 1]),
                    first_failure={"family": label, "step": start + k + 1},
                )
    return report


def _edge_report(case: str | None) -> AuditReport:
    """The edge-propagation report before its first block, for a start
    comparable with its image as `case` (`mann.edge_case`) says."""
    if case is None:
        raise InputError("the trajectory carries no start comparability flags")
    if case == "none":
        return AuditReport.not_met("edge_propagation", INCOMPARABLE_START)
    direction = "reverse" if case == "reverse" else "forward"
    return AuditReport("edge_propagation", extra={"case": direction})


def audit_fejer(
    traj: Trajectory | None,
    omega,
    operator: Operator,
    rel: ConeRelation,
    space: NormSpace,
    x_all: np.ndarray | None = None,
    block: AuditBlock | None = None,
    report: AuditReport | None = None,
) -> AuditReport:
    """Check edge(x_n, omega) for all n and nonincreasing distances to omega.

    Requires omega to be a fixed point (within 1e-10) with edge(x_1, omega);
    otherwise the result is hypothesis-not-met.  `x_all` holds all iterates
    x_1..x_N; without it the record's own are read, replayed gap by gap when
    decimated.  The witness is the first iterate outside the edge to omega,
    or the first distance increase when every edge holds.

    The rows are checked one `audit_blocks` block at a time; a block's first
    distance is compared with the last row of the block before.  `block` and
    `report` work as in `verify_trajectory`.
    """
    w = as_vector(omega, space.dimension, "omega")
    if report is None:
        x1 = (traj.iterates if x_all is None else x_all)[0]
        report = _fejer_report(w, operator, rel, space, x1)
        if not report.hypothesis_met:
            return report
    blocks = audit_blocks(x_all, operator, traj, images=False) if block is None else (block,)
    for b in blocks:
        start, stop = b.start, b.stop
        x = b.x[: stop - start]
        member = rel.diffs_in_cone(w - x)
        report.trials += stop - start
        bad = np.flatnonzero(~member)
        if bad.size:
            k = int(bad[0])
            report.fail(int(bad.size), (0, start + k), (x[k], w))
        # distances from the last row of the block before on, whose distance
        # is the limit estimate so far (norms of rows do not depend on the
        # other rows of the batch)
        dist = space.norms(x - w)
        if b.prev is not None:
            dist = np.concatenate(([report.extra["limit_estimate"]], dist))
        lo = stop - dist.shape[0]
        increases = np.flatnonzero(dist[1:] > dist[:-1] + MONOTONE_TOL)
        report.trials += dist.shape[0] - 1
        if increases.size:
            k = lo + int(increases[0])
            pair = (b.prev if k < start else x[k - start], x[k + 1 - start])
            report.fail(int(increases.size), (1, k), pair)
        report.extra.setdefault("initial_distance", float(dist[0]))
        report.extra["limit_estimate"] = float(dist[-1])
    return report


def _fejer_report(w, operator: Operator, rel: ConeRelation, space: NormSpace, x1) -> AuditReport:
    """The Fejer report before its first block: not met unless omega is a
    fixed point with edge(x_1, omega)."""
    if space.norm(operator._apply(w) - w) > FEJER_FIXED_POINT_TOL:
        return AuditReport.not_met("fejer_monotone", "omega is not a fixed point")
    if not rel.contains(x1, w):
        return AuditReport.not_met("fejer_monotone", "edge(x_1, omega) does not hold")
    return AuditReport("fejer_monotone")


def gk_inequality_check(
    traj: Trajectory,
    operator: Operator,
    pairs: list[tuple[int, int]],
    x_all: np.ndarray | None = None,
    tx_head: np.ndarray | None = None,
) -> list[GKRecord]:
    """Evaluate the telescoping inequality at the requested (i, n) pairs.

    lhs = (1 + sum of t_s over the span) * r_i and
    rhs = ||T(x_{i+n}) - x_i|| + prod of (1 - t_s)^{-1} * (r_i - r_{i+n});
    the slack rhs - lhs is nonnegative (within 1e-9) whenever the run's
    hypotheses hold.  Spans touching a step with t_s = 1 are undefined.
    `x_all` holds the run's first iterates, through at least row i + n of
    every pair (all of them, `full_iterates`, when not given), and
    `tx_head` is `operator.apply_batch` of its first rows, through at least
    row i + n of every pair (`run_audits` passes the head of its first audit
    block).  When it is not given or too short, T is applied here to the
    head rows only: one batch of at least an audit block (`run_audits` then
    passes that many rows), whose bits are those of a batch over the whole
    array.
    """
    n_total = traj.n_iterates
    if x_all is None:
        x_all = full_iterates(traj, operator)
    head = max((i + n for i, n in pairs), default=0)
    if head > (0 if tx_head is None else tx_head.shape[0]):
        rows = max(head, audit_block_rows(traj.dimension))
        tx_head = operator.apply_batch(x_all[:rows])
    space = operator.space
    records = []
    for i, n in pairs:
        if i < 1 or n < 1:
            raise InputError(f"pair indices must satisfy i, n >= 1, got ({i}, {n})")
        if i + n > n_total:
            raise InputError(
                f"pair ({i}, {n}) exceeds the trajectory length {n_total}"
            )
        t_span = traj.schedule_used[i - 1 : i + n - 1]
        one_minus = 1.0 - t_span
        if np.any(one_minus <= 0.0):
            raise UndefinedProductError(
                f"span ({i}, {n}) contains a step with t = 1"
            )
        r_i = float(traj.residuals[i - 1])
        r_in = float(traj.residuals[i + n - 1])
        lhs = (1.0 + float(t_span.sum())) * r_i
        prod = float(np.prod(1.0 / one_minus))
        gap = r_i - r_in
        telescoped = 0.0 if gap == 0.0 else prod * gap
        rhs = space.norm(tx_head[i + n - 1] - x_all[i - 1]) + telescoped
        records.append(GKRecord(i=i, n=n, lhs=lhs, rhs=rhs, slack=rhs - lhs))
    return records


def write_gk_records_csv(records, path) -> None:
    """CSV export of telescoping-inequality records: i, n, lhs, rhs, slack.

    `records` are the dicts of the gk_inequality audit's "records".
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "n", "lhs", "rhs", "slack"])
        for row in records:
            writer.writerow(
                [str(row["i"]), str(row["n"])]
                + [fmt17(row[key]) for key in ("lhs", "rhs", "slack")]
            )


def residual_monotone_check(traj: Trajectory) -> AuditReport:
    """Check r_{n+1} <= r_n + 1e-12 for the whole run."""
    if traj.start_edge_case() == "none":
        return AuditReport.not_met("residual_monotone", INCOMPARABLE_START)
    report = AuditReport("residual_monotone")
    r = traj.residuals
    increases = np.flatnonzero(r[1:] > r[:-1] + MONOTONE_TOL)
    report.trials = int(r.shape[0] - 1)
    report.failures = int(increases.size)
    if increases.size:
        k = int(increases[0])
        report.witness = (np.array([r[k]]), np.array([r[k + 1]]))
        report.extra["first_failure_step"] = k + 1
    return report


def rate_bound(n: int, a: float, diam: float) -> float:
    """Residual-limit bound diam / (1 + n a)."""
    if n < 1:
        raise InputError(f"n must be >= 1, got {n}")
    if not a > 0:
        raise InputError(f"a must be positive, got {a}")
    if diam < 0:
        raise InputError(f"diam must be >= 0, got {diam}")
    return diam / (1.0 + n * a)


def rate_audit(
    traj: Trajectory,
    schedule: Schedule,
    diam: float,
    spans,
    samples_per_span: int = 20,
) -> list[RateCheck]:
    """Verify (1 + n a) r_i <= diam + (1-b)^{-n} (r_i - r_{i+n}) per span.

    For each requested span n the inequality is checked at evenly spaced
    start indices i (at most `samples_per_span` of them), with the
    schedule's declared bounds a, b substituted.  Each returned record also
    carries the bound diam / (1 + n a) next to the final observed residual.
    """
    n_total = traj.n_iterates
    a, b = schedule.a, schedule.b
    checks = []
    for span in spans:
        span = int(span)
        if span < 1:
            raise InputError(f"spans must be >= 1, got {span}")
        if span > n_total - 1:
            raise InputError(
                f"span {span} exceeds the trajectory ({n_total} iterates)"
            )
        i_max = n_total - span
        count = min(samples_per_span, i_max)
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
            if slack < -INEQUALITY_SLACK_TOL:
                failures += 1
            min_slack = min(min_slack, slack)
        checks.append(
            RateCheck(
                n=span,
                a=a,
                diam=diam,
                bound=rate_bound(span, a, diam),
                observed_limit_estimate=traj.final_residual,
                trials=trials,
                failures=failures,
                min_slack=float(min_slack),
            )
        )
    return checks


def verify_fixed_point(operator: Operator, x, tol: float) -> bool:
    """True iff ||T(x) - x|| <= tol (x must belong to the domain)."""
    xv = as_vector(x, operator.space.dimension, "x")
    return operator.space.norm(operator.evaluate(xv) - xv) <= tol


def convergence_audit(
    traj: Trajectory,
    operator: Operator,
    rel: ConeRelation,
    tol: float = ACCEPT_FIXED_POINT_TOL,
) -> AuditReport:
    """Check that a tolerance-met run ended at a fixed point comparable to x_1.

    The final iterate must satisfy ||T(x) - x|| <= tol, and the limit edge
    edge(x_1, x_final) (mirrored for reverse-comparable starts) must hold.
    Runs that did not stop on tolerance are hypothesis-not-met.  The
    direction is read from the trajectory's start flags; a record without
    them raises InputError.
    """
    case = traj.start_edge_case()
    if case is None:
        raise InputError("the trajectory carries no start comparability flags")
    if traj.stop_reason != STOP_TOLERANCE:
        return AuditReport.not_met(
            "convergence_to_fixed_point", f"run stopped with {traj.stop_reason!r}"
        )
    report = AuditReport("convergence_to_fixed_point")
    final = traj.final_iterate
    report.record(verify_fixed_point(operator, final, tol), final)
    x1 = traj.iterates[0]
    if case in ("forward", "both"):
        report.record(rel.contains(x1, final), x1, final)
    elif case == "reverse":
        report.record(rel.contains(final, x1), final, x1)
    else:
        report.hypothesis_met = False
        report.extra["note"] = INCOMPARABLE_START
    report.extra["final_residual"] = traj.final_residual
    return report


# --- orchestration ----------------------------------------------------------

class AuditPass(AuditStream):
    """The one pass of `run_audits` over a run's rows, audited as they stream
    in.

    A producer opens it with the run's record and pushes the run's rows in
    order (`mann.AuditStream`): `mann.run` while it runs, or `run_audits`
    for a stored record.  On each block T is applied once, each of
    `trajectory`, `edge_propagation` and `fejer` among `names` extends its
    report with the block, and the head of the run is kept for
    `gk_inequality`.  `run_audits` reads the reports after `close`.
    """

    def __init__(self, names, operator: Operator, rel: ConeRelation, space: NormSpace) -> None:
        super().__init__(operator if IMAGE_AUDITS.intersection(names) else None)
        self.names = names
        self.audited = operator, rel, space
        self.reports: dict[str, AuditReport] = {}
        self.checks = {}  # the block auditors asked for, each a call on a block and its report
        self.fejer_direction = None
        # the first rows, and the images of the first block, for gk_inequality
        self.head_rows: list[np.ndarray] = []
        self.head_images = None
        self.head_needed = 0

    def audit(self, block: AuditBlock) -> None:
        if block.start == 0:
            self._begin(block)
        for name, check in self.checks.items():
            report = self.reports[name]
            if report.hypothesis_met:
                check(block=block, report=report)
        if self.head_needed:
            rows = block.x[: min(self.head_needed, block.stop - block.start)]
            self.head_rows.append(rows.copy())
            self.head_needed -= rows.shape[0]

    def _begin(self, block: AuditBlock) -> None:
        # each report before its first block, from the start flags and x_1
        operator, rel, space = self.audited
        x1 = block.x[0]
        if "trajectory" in self.names:
            self.reports["trajectory"] = AuditReport("trajectory_consistency")
            self.checks["trajectory"] = partial(verify_trajectory, None, operator)
        if "edge_propagation" in self.names:
            self.reports["edge_propagation"] = _edge_report(self.case)
            self.checks["edge_propagation"] = partial(audit_edge_propagation, None, operator, rel)
        if "fejer" in self.names:
            target = _fejer_target(x1, operator, rel)
            if isinstance(target, AuditReport):
                self.reports["fejer"] = target
            else:
                omega, edge_rel, self.fejer_direction = target
                self.reports["fejer"] = _fejer_report(omega, operator, edge_rel, space, x1)
                self.checks["fejer"] = partial(
                    audit_fejer, None, omega, operator, edge_rel, space
                )
        if "gk_inequality" in self.names:
            # the pairs lie in the first GK_WINDOW rows; where the first
            # block's images do not cover them, gk_inequality_check applies
            # T to an audit block of rows itself
            self.head_needed = GK_WINDOW
            if block.tx is None or block.tx.shape[0] < GK_WINDOW:
                self.head_needed = max(GK_WINDOW, audit_block_rows(x1.shape[0]))
            if block.tx is not None:
                self.head_images = block.tx[:GK_WINDOW].copy()


def run_audits(
    names,
    traj: Trajectory,
    operator: Operator,
    rel: ConeRelation,
    space: NormSpace,
    schedule: Schedule,
    diam: float,
    seed: int = 0,
    x_all: np.ndarray | None = None,
    audit: AuditPass | None = None,
) -> dict[str, dict]:
    """Run the named auditors and collect a JSON-ready report per auditor.

    Each entry is an `AuditReport.to_dict()`: {"property", "status",
    "trials", "failures", "witness"[, "detail"][, "records"]}, with records
    for the inequality audits.  Hypothesis gating (comparable start, step
    bounds, known fixed point) is applied here so the low-level checks keep
    their strict contracts.  A record without start flags (a CSV export) is
    given them here, by `start_edges` at x_1.

    The auditors that read the iterates share one pass over the run's rows
    in audit blocks (`AuditPass`): T is applied once per block, each of
    `trajectory`, `edge_propagation` and `fejer` extends its report with the
    block, and `gk_inequality` reads the head of the first block.  `audit`
    is the pass a run was streamed into while it ran (`run(...,
    audit=...)`, as `run_experiment` does), over the same `names`.
    Without it the pass is fed here, after validating the record: with the
    rows of `x_all`, all iterates x_1..x_N, when given, else with the
    record's own, a decimated record replayed gap by gap (`iterate_rows`).
    Either way the audit holds a few blocks of rows, however long the run,
    and T is applied to each row at most once.
    """
    unknown = [name for name in names if name not in ALL_AUDITS]
    if unknown:
        raise ConfigError(f"unknown auditor {unknown[0]!r}")
    if traj.start_edge_case() is None:
        x1 = traj.iterates[0]
        forward, reverse = start_edges(rel, x1, operator._apply(x1))
        traj = replace(traj, start_edge_forward=forward, start_edge_reverse=reverse)
    if audit is None:
        audit = AuditPass(names, operator, rel, space)
        if REPLAYING_AUDITS.intersection(names):
            traj.validate()
            audit.open(
                traj.residuals,
                traj.schedule_used,
                traj.iterate_indices,
                traj.start_edge_forward,
                traj.start_edge_reverse,
            )
            for rows in (x_all,) if x_all is not None else iterate_rows(traj, operator):
                audit.push(rows)
            audit.close()
    reports = dict(audit.reports)
    if audit.fejer_direction is not None:
        reports["fejer"].extra["direction"] = audit.fejer_direction
    if "gk_inequality" in names:
        x_head = np.concatenate(audit.head_rows)
        reports["gk_inequality"] = _gk_report(traj, operator, seed, x_head, audit.head_images)
    results: dict[str, dict] = {}
    for name in names:
        if name == "residual_monotone":
            reports[name] = residual_monotone_check(traj)
        elif name == "rate":
            reports[name] = _rate_report(traj, schedule, diam)
        elif name == "convergence":
            reports[name] = convergence_audit(traj, operator, rel)
        results[name] = reports[name].to_dict()
    return results


def _gk_report(
    traj: Trajectory,
    operator: Operator,
    seed: int,
    x_head: np.ndarray,
    tx_head: np.ndarray | None,
) -> AuditReport:
    if traj.start_edge_case() == "none":
        return AuditReport.not_met("gk_inequality", INCOMPARABLE_START)
    if traj.schedule_used.shape[0] and float(traj.schedule_used.max()) >= 1.0:
        return AuditReport.not_met(
            "gk_inequality", "schedule contains a step with t = 1"
        )
    window = min(traj.n_iterates, GK_WINDOW)
    pairs: list[tuple[int, int]] = []
    if window >= 2:
        rng = np.random.default_rng([seed, 17])
        for _ in range(GK_PAIRS):
            i = int(rng.integers(1, window))
            n = int(rng.integers(1, window - i + 1))
            pairs.append((i, n))
    records = gk_inequality_check(traj, operator, pairs, x_head, tx_head)
    # a one-iterate run checks no pair; its min_slack is null, since JSON
    # has no infinity
    return AuditReport(
        "gk_inequality",
        trials=len(records),
        failures=sum(1 for r in records if r.slack < -INEQUALITY_SLACK_TOL),
        extra={"min_slack": min((r.slack for r in records), default=None)},
        records=[asdict(r) for r in records],
    )


def _fejer_target(x1, operator: Operator, rel: ConeRelation):
    """(omega, relation, direction) for the first known fixed point
    comparable with x_1, or a not-met report when there is none."""
    candidates = known_fixed_points(operator).known_points
    for w in candidates:
        # a start above omega: the same monotone argument applies under the
        # reversed graph, so audit with the cone -K
        for direction, edge_rel in (("forward", rel), ("reverse", rel.reversed())):
            if edge_rel.contains(x1, w):
                return w, edge_rel, direction
    note = (
        "no known fixed point is comparable to x_1"
        if candidates
        else "operator has no analytically known fixed point"
    )
    return AuditReport.not_met("fejer_monotone", note)


def _rate_report(traj: Trajectory, schedule: Schedule, diam: float) -> AuditReport:
    if traj.start_edge_case() == "none":
        return AuditReport.not_met("rate_inequality", INCOMPARABLE_START)
    if not schedule.enforce_bounds:
        return AuditReport.not_met(
            "rate_inequality", "schedule does not enforce bounds [a, b] in (0, 1)"
        )
    spans = [n for n in RATE_SPANS if n <= traj.n_iterates - 1]
    checks = rate_audit(traj, schedule, diam, spans)
    # as for the Goebel-Kirk audit, min_slack is null when no span fits
    worst = min((c.min_slack for c in checks), default=None)
    return AuditReport(
        "rate_inequality",
        trials=sum(c.trials for c in checks),
        failures=sum(c.failures for c in checks),
        extra={"min_slack": worst, "spans": spans},
        records=[asdict(c) for c in checks],
    )


def exit_code_from_audits(results: dict[str, dict]) -> int:
    """0 all pass, 2 on any failure, 3 on hypothesis-not-met without failures."""
    statuses = [entry["status"] for entry in results.values()]
    if any(s == STATUS_FAIL for s in statuses):
        return 2
    if any(s == STATUS_HYPOTHESIS_NOT_MET for s in statuses):
        return 3
    return 0

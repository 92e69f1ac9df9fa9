"""Trajectory auditors for the convergence theory of the averaged iteration.

Each auditor mechanically re-checks one proved property along a recorded
run: edge propagation of the iterates, monotone decrease of distances to a
comparable fixed point, monotone decrease of residuals, the Goebel-Kirk
telescoping inequality, the pre-limit rate inequality with its bound
diam / (1 + n a), and fixed-point convergence of the final iterate.

Outcomes are tri-state: pass, fail, or hypothesis-not-met.  A property whose
hypotheses do not apply to the run (no comparable start, no known fixed
point, steps outside (0, 1)) is never conflated with a failed conclusion.

`run_audits` reads the iterates in one pass over row blocks, an
`AuditPass`, to which a run or a replay pushes each block as it produces
it, with the block's own residuals r_n and steps t_n: the pass cuts the
blocks, T is applied once per block, the trajectory, edge-propagation and
Fejer auditors each extend their report with the block, and the
Goebel-Kirk auditor reads the first rows and their images from the blocks.
The audit holds a few blocks of rows, however long the run, and every
report equals that of one check over the whole run.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from functools import partial

import numpy as np

from ._util import as_vector, fmt17
from .errors import ConfigError, InputError, UndefinedProductError
from .mann import (
    STOP_TOLERANCE,
    AuditBlock,
    Schedule,
    Trajectory,
    edge_case,
    start_edges,
    stream_record,
    verify_trajectory,
)
from .normed_space import NormSpace, contains
from .operators import Operator, known_fixed_points
from .order_graph import (
    AuditReport,
    ConeRelation,
    STATUS_FAIL,
    STATUS_HYPOTHESIS_NOT_MET,
)

INEQUALITY_SLACK_TOL = 1e-9
MONOTONE_TOL = 1e-12
ACCEPT_FIXED_POINT_TOL = 1e-8

# run_audits checks the telescoping inequality at GK_PAIRS seeded random
# (i, n) pairs inside the first GK_WINDOW iterates, and the rate inequality
# at each of RATE_SPANS that fits the run, from at most RATE_SAMPLES start
# indices per span
GK_PAIRS = 50
GK_WINDOW = 200
RATE_SPANS = (1, 5, 10, 50)
RATE_SAMPLES = 20
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
# auditors that read the iterates, and T of them; run_audits streams a
# record's rows (a decimated one replayed) once for all when no run did
REPLAYING_AUDITS = frozenset({"trajectory", "edge_propagation", "gk_inequality", "fejer"})


def audit_edge_propagation(
    rel: ConeRelation, block: AuditBlock, report: AuditReport
) -> AuditReport:
    """Check the propagated edges of the steps leaving one audit block, and
    extend `report` (made by `_edge_report`) with them.

    With a forward-comparable start this is (x_n, x_{n+1}) and
    (x_{n+1}, T(x_n)) for every step; with a reverse-comparable start both
    families run mirrored.  The witness is the first failing step edge, or
    the first failing image edge when every step edge holds.  A block's last
    step reads the first row of the next.
    """
    x, tx, start = block.x, block.tx, block.start  # the steps leaving rows start..stop-1
    steps = x.shape[0] - 1
    if steps == 0:
        return report
    # each family's edges as (tail, head) rows; one family's differences
    # are alive at a time
    if report.extra["case"] == "reverse":
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
    omega, rel: ConeRelation, space: NormSpace, block: AuditBlock, report: AuditReport
) -> AuditReport:
    """Check edge(x_n, omega) and nonincreasing distances to omega over one
    audit block, and extend `report` with them.

    omega is the known fixed point that `_fejer_target` found comparable
    with x_1.  The witness is the first iterate outside the edge to omega,
    or the first distance increase when every edge holds.  A block's first
    distance is compared with the last row of the block before.
    """
    start, stop = block.start, block.stop
    x = block.x[: stop - start]
    gap = omega - x  # also for the distances: a norm does not see the sign
    member = rel.diffs_in_cone(gap)
    report.trials += stop - start
    bad = np.flatnonzero(~member)
    if bad.size:
        k = int(bad[0])
        report.fail(int(bad.size), (0, start + k), (x[k], omega))
    # distances from the last row of the block before on, whose distance is
    # the limit estimate so far (norms of rows do not depend on the other
    # rows of the batch)
    dist = space.norms(gap)
    if block.prev is not None:
        dist = np.concatenate(([report.extra["limit_estimate"]], dist))
    lo = stop - dist.shape[0]
    increases = np.flatnonzero(dist[1:] > dist[:-1] + MONOTONE_TOL)
    report.trials += dist.shape[0] - 1
    if increases.size:
        k = lo + int(increases[0])
        pair = (block.prev if k < start else x[k - start], x[k + 1 - start])
        report.fail(int(increases.size), (1, k), pair)
    report.extra.setdefault("initial_distance", float(dist[0]))
    report.extra["limit_estimate"] = float(dist[-1])
    return report


def gk_inequality_check(
    traj: Trajectory,
    space: NormSpace,
    pairs: list[tuple[int, int]],
    x_head: np.ndarray,
    tx_head: np.ndarray,
) -> AuditReport:
    """Evaluate the telescoping inequality at the requested (i, n) pairs.

    lhs = (1 + sum of t_s over the span) * r_i and
    rhs = ||T(x_{i+n}) - x_i|| + prod of (1 - t_s)^{-1} * (r_i - r_{i+n});
    the slack rhs - lhs is nonnegative (within 1e-9) whenever the run's
    hypotheses hold.  Spans touching a step with t_s = 1 are undefined.
    The report holds one record {i, n, lhs, rhs, slack} per pair, counts a
    failure per slack below -1e-9 and notes the least slack as `min_slack`.
    `x_head` holds the run's first iterates and `tx_head` their images
    under T, each through at least row i + n of every pair (`run_audits`
    passes the first GK_WINDOW rows of its audit blocks and their images).
    """
    n_total = traj.n_iterates
    report = AuditReport("gk_inequality", trials=len(pairs), records=[])
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
        rhs = space.norm(tx_head[i + n - 1] - x_head[i - 1]) + telescoped
        slack = rhs - lhs
        report.records.append({"i": i, "n": n, "lhs": lhs, "rhs": rhs, "slack": slack})
        if slack < -INEQUALITY_SLACK_TOL:
            report.fail(1, (len(report.records),))
    # with no pair (a one-iterate run) min_slack is null, since JSON has no
    # infinity
    report.extra["min_slack"] = min((r["slack"] for r in report.records), default=None)
    return report


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
    if increases.size:
        k = int(increases[0])
        report.fail(int(increases.size), (k,), ([r[k]], [r[k + 1]]), first_failure_step=k + 1)
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


def rate_audit(traj: Trajectory, schedule: Schedule, diam: float, spans) -> AuditReport:
    """Verify (1 + n a) r_i <= diam + (1-b)^{-n} (r_i - r_{i+n}) per span.

    For each requested span n the inequality is checked at evenly spaced
    start indices i (at most RATE_SAMPLES of them), with the schedule's
    declared bounds a, b substituted.  The report holds one record per
    checked span, with the bound diam / (1 + n a) next to the final observed
    residual and the span's trials, failures and least slack.  A span whose
    weight (1-b)^{-n} exceeds the largest double is not checked; the spans
    left out so are listed as `unchecked_spans`.
    """
    n_total = traj.n_iterates
    a, b = schedule.a, schedule.b
    report = AuditReport("rate_inequality", records=[])
    unchecked = []
    for span in spans:
        span = int(span)
        if span < 1:
            raise InputError(f"spans must be >= 1, got {span}")
        if span > n_total - 1:
            raise InputError(
                f"span {span} exceeds the trajectory ({n_total} iterates)"
            )
        try:
            weight = (1.0 - b) ** (-span)
        except OverflowError:
            unchecked.append(span)
            continue
        i_max = n_total - span
        i = np.unique(np.linspace(1, i_max, min(RATE_SAMPLES, i_max)).round().astype(int))
        r_i = traj.residuals[i - 1]
        gap = r_i - traj.residuals[i + span - 1]
        slack = diam + np.where(gap == 0.0, 0.0, weight * gap) - (1.0 + span * a) * r_i
        failures = int(np.count_nonzero(slack < -INEQUALITY_SLACK_TOL))
        report.trials += i.size
        if failures:
            report.fail(failures, (span,))
        # a NaN slack is passed over, as by a running min from infinity
        min_slack = float(np.fmin.reduce(slack, initial=np.inf))
        report.records.append({
            "n": span, "a": a, "diam": diam, "bound": rate_bound(span, a, diam),
            "observed_limit_estimate": traj.final_residual, "trials": i.size,
            "failures": failures, "min_slack": min_slack,
        })
    # as for the Goebel-Kirk audit, min_slack is null when no span is checked
    report.extra["min_slack"] = min((r["min_slack"] for r in report.records), default=None)
    report.extra["spans"] = list(spans)
    if unchecked:
        report.extra["unchecked_spans"] = unchecked
    return report


def verify_fixed_point(operator: Operator, x, tol: float) -> bool:
    """True iff ||T(x) - x|| <= tol (x must belong to the domain)."""
    xv = as_vector(x, operator.space.dimension, "x")
    return operator.space.norm(operator.evaluate(xv) - xv) <= tol


def convergence_audit(traj: Trajectory, operator: Operator, rel: ConeRelation) -> AuditReport:
    """Check that a tolerance-met run ended at a fixed point comparable to x_1.

    The final iterate must lie in the domain and satisfy ||T(x) - x|| <=
    1e-8 (T is not applied outside it), and the limit edge edge(x_1,
    x_final) (mirrored for reverse-comparable starts) must hold.  Runs that
    did not stop on tolerance are hypothesis-not-met.  The
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
    fixed = contains(operator.space, operator.domain, final) and verify_fixed_point(
        operator, final, ACCEPT_FIXED_POINT_TOL
    )
    report.record(fixed, final)
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

class AuditPass:
    """The one pass of `run_audits` over a run's rows, audited where they lie
    as they stream in.

    A producer (`mann.run` while it runs, `mann.stream_record` for a stored
    record) calls `open` once, `push` with the run's blocks in order, each
    with its own residuals and steps, and `close` after the last.  Every
    block but the last has `audit_block_rows(d)` rows (512 KiB of iterates,
    and at least 256 rows) and a spare row, which the producer fills with
    the first row of the next block before pushing that one.  The pass
    holds the last block pushed and cuts it when the next one arrives, or
    at `close`: each block pushed is one cut, read in place, never copied
    or written.  On each cut T is applied once, as one batch
    (`operator.apply_batch`), and `audit` takes it as one `AuditBlock`:
    each of `trajectory`, `edge_propagation` and `fejer` among `names`
    extends its report with the block, and the first GK_WINDOW rows and
    their images are kept for `gk_inequality`.  `run_audits` reads the
    reports after `close`.
    """

    def __init__(self, names, operator: Operator, rel: ConeRelation) -> None:
        self.operator = operator
        self.names = names
        # T is applied to each block pushed, so rows are pushed only if read
        self.reads_iterates = bool(REPLAYING_AUDITS.intersection(names))
        self.rel = rel
        self.reports: dict[str, AuditReport] = {}
        self.checks = []  # the block auditors whose hypotheses hold, each a call on a block
        self.fejer_direction = None
        # the first rows and their images, block by block, for gk_inequality
        self.head: list[tuple[np.ndarray, np.ndarray]] = []
        self.head_needed = 0

    def open(self, indices, forward=None, reverse=None) -> None:
        """Start a run.

        `indices` are the increasing 1-based indices of the recorded
        iterates, or an int s when those are x_1, x_{1+s}, x_{1+2s}, ... and
        the last row pushed (s = 1 for a full history).  `forward` and
        `reverse` are the start flags (`start_edges`), kept as `case`
        (`edge_case`).
        """
        self.indices = indices
        self.case = edge_case(forward, reverse)
        self.held = None  # the block pushed last, with its count, residuals and steps
        self.start = 0  # run row of the held block's first row
        self.prev = None
        self.cursor = 1  # the first recorded index a step may lead to

    def push(self, block: np.ndarray, count: int, residuals, steps) -> None:
        """Hand over the run's next `count` rows, block[:count], with their
        r_n (`residuals`, one per row) and the t_n of the steps leaving them
        (`steps`, one per row that has a successor), all read in place until
        the next push or `close`; cut the block held (a last block of one
        row is x_N, so the step into x_N leaves the held one)."""
        if self.held is not None:
            self._cut(*self.held, final=count == 1, more=True)
        self.held = block, count, residuals, steps

    def close(self) -> None:
        """End the run: the block held is its last, and is released."""
        if self.held is not None:
            self._cut(*self.held, final=True, more=False)
        self.held = self.indices = None

    def _cut(self, block, k: int, residuals, steps, final: bool, more: bool) -> None:
        # block[:k] is the block; x adds the row after it when the run goes
        # on (`more`), and its last row is x_N when `final`
        x = block[: k + more]
        start, s = self.start, self.indices
        # the recorded x_h with h - 2 in [start, start + k): at most k
        if np.ndim(s):
            ends = np.array(s[self.cursor : self.cursor + k], dtype=int)
            ends = ends[: np.searchsorted(ends, start + k + 2)]
            self.cursor += ends.shape[0]
            checked = ends - (start + 2)
        else:  # every s-th row from x_1, and x_N when x ends in it
            m = x.shape[0]
            checked = np.arange(-(start + 1) % s, m - 1, s)
            if final and m > 1 and (start + m - 1) % s:
                checked = np.append(checked, m - 2)
        tx = self.operator.apply_batch(x[:k])
        self.audit(
            AuditBlock(start, start + k, x, self.prev, tx, residuals, checked, steps[checked])
        )
        self.prev = x[k - 1].copy()
        self.start = start + k

    def audit(self, block: AuditBlock) -> None:
        """Take one block, whose rows stay valid only for this call."""
        if block.start == 0:
            self._begin(block)
        for check in self.checks:
            check(block)
        if self.head_needed:
            k = min(self.head_needed, block.stop - block.start)
            self.head.append((block.x[:k].copy(), block.tx[:k].copy()))
            self.head_needed -= k

    def _add(self, name: str, report: AuditReport, check, *args) -> None:
        # a report before its first block, and the check extending it per block
        self.reports[name] = report
        if report.hypothesis_met:
            self.checks.append(partial(check, *args, report=report))

    def _begin(self, block: AuditBlock) -> None:
        # each report before its first block, from the start flags and x_1
        operator, rel, space = self.operator, self.rel, self.operator.space
        if "trajectory" in self.names:
            report = AuditReport("trajectory_consistency")
            self._add("trajectory", report, verify_trajectory, space)
        if "edge_propagation" in self.names:
            self._add("edge_propagation", _edge_report(self.case), audit_edge_propagation, rel)
        if "fejer" in self.names:
            target = _fejer_target(block.x[0], operator, rel)
            if isinstance(target, AuditReport):
                self.reports["fejer"] = target
            else:
                omega, edge_rel, self.fejer_direction = target
                report = AuditReport("fejer_monotone")
                self._add("fejer", report, audit_fejer, omega, edge_rel, space)
        if "gk_inequality" in self.names:
            self.head_needed = GK_WINDOW


def run_audits(
    names,
    traj: Trajectory,
    operator: Operator,
    rel: ConeRelation,
    space: NormSpace,
    schedule: Schedule,
    diam: float,
    seed: int = 0,
    audit: AuditPass | None = None,
) -> dict[str, dict]:
    """Run the named auditors and collect a JSON-ready report per auditor.

    Each entry is an `AuditReport.to_dict()`: {"property", "status",
    "trials", "failures", "witness"[, "detail"][, "records"]}, with records
    for the inequality audits.  Hypothesis gating (comparable start, step
    bounds, known fixed point) is applied here so the low-level checks keep
    their strict contracts.  A record without start flags (a CSV export) is
    given them here, by `start_edges` at x_1.  `space` is the operator's.

    The auditors that read the iterates share one pass over the run's rows
    in audit blocks (`AuditPass`): T is applied once per block, each of
    `trajectory`, `edge_propagation` and `fejer` extends its report with the
    block, and `gk_inequality` reads the first rows and their images from
    the blocks.  `audit` is the pass a run was streamed into while it ran
    (`run(..., audit=...)`, as `run_experiment` does), over the same
    `names`.  Without it the record is streamed into the pass here
    (`stream_record`): its stored rows, a decimated record replayed gap by
    gap.  Either way the audit holds a few blocks of rows beyond the record,
    however long the run, and T is applied to each row at most once.
    """
    unknown = [name for name in names if name not in ALL_AUDITS]
    if unknown:
        raise ConfigError(f"unknown auditor {unknown[0]!r}")
    if traj.start_edge_case() is None:
        x1 = traj.iterates[0]
        forward, reverse = start_edges(rel, x1, operator._apply(x1))
        traj = replace(traj, start_edge_forward=forward, start_edge_reverse=reverse)
    if audit is None:
        audit = AuditPass(names, operator, rel)
        if audit.reads_iterates:
            stream_record(traj, operator, audit)
    reports = dict(audit.reports)
    if audit.fejer_direction is not None:
        reports["fejer"].extra["direction"] = audit.fejer_direction
    if "gk_inequality" in names:
        x_head, tx_head = (np.concatenate(part) for part in zip(*audit.head))
        reports["gk_inequality"] = _gk_report(traj, space, seed, x_head, tx_head)
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
    space: NormSpace,
    seed: int,
    x_head: np.ndarray,
    tx_head: np.ndarray,
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
    return gk_inequality_check(traj, space, pairs, x_head, tx_head)


def _fejer_target(x1, operator: Operator, rel: ConeRelation):
    """(omega, relation, direction) for the first known fixed point
    comparable with x_1, or a not-met report when there is none."""
    candidates = known_fixed_points(operator).known_points
    reverse = None
    for w in candidates:
        if rel.contains(x1, w):
            return w, rel, "forward"
        # a start above omega: the same monotone argument applies under the
        # reversed graph, so audit with the cone -K, built only when needed
        reverse = reverse or rel.reversed()
        if reverse.contains(x1, w):
            return w, reverse, "reverse"
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
    return rate_audit(traj, schedule, diam, spans)


def exit_code_from_audits(results: dict[str, dict]) -> int:
    """0 all pass, 2 on any failure, 3 on hypothesis-not-met without failures."""
    statuses = [entry["status"] for entry in results.values()]
    if any(s == STATUS_FAIL for s in statuses):
        return 2
    if any(s == STATUS_HYPOTHESIS_NOT_MET for s in statuses):
        return 3
    return 0

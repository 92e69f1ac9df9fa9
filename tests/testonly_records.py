"""Reference helpers on recorded runs, for tests only."""

from dataclasses import replace

import numpy as np

from graphmann.diagnostics import AuditPass
from graphmann.errors import InputError
from graphmann.mann import stream_record


def decimate(traj, stride):
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


def audit_record(name, traj, operator, rel=None):
    """The report of auditor `name` on a stored record, as `run_audits`'
    pass makes it: the record streamed into an `AuditPass` of that auditor
    alone, and its report read after the pass, before `run_audits` turns it
    into a dict."""
    audit = AuditPass([name], operator, rel)
    stream_record(traj, operator, audit)
    return audit.reports[name]

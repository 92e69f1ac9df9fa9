"""Spans recorded around graphmann's public functions, from outside the package.

`Tracer.install()` replaces each traced function with a wrapper at every
place it is looked up: module attributes of every loaded `graphmann` module
that hold the same function object, or the class attribute for methods.
`Tracer.uninstall()` puts the originals back.  Spans stay in memory; the
caller writes them out when the run ends.

A span is (id, name, layer, thread, parent, start, end, counts).  Its parent
is the innermost open span of the same thread; a span opened on a worker
thread with nothing open there (a sweep sub-run) takes the innermost open
span of the main thread.  A span's self time is its duration minus the union
of its children's intervals, so overlapping sub-runs are not subtracted twice.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from types import SimpleNamespace

LAYERS = (
    "mann",
    "operators",
    "normed_space",
    "order_graph",
    "diagnostics",
    "experiment",
    "config",
    "corpus",
    "cli",
)

# auditor name -> traced function that implements it
AUDITOR_SPANS = {
    "trajectory": "mann.verify_trajectory",
    "edge_propagation": "diagnostics.audit_edge_propagation",
    "residual_monotone": "diagnostics.residual_monotone_check",
    "gk_inequality": "diagnostics.gk_inequality_check",
    "fejer": "diagnostics.audit_fejer",
    "rate": "diagnostics.rate_audit",
    "convergence": "diagnostics.convergence_audit",
}


@dataclass
class Span:
    id: int
    name: str
    layer: str
    thread: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


# --- per-target count extractors: (args, kwargs, result) -> counts ----------

def _iterates(args, kwargs, result):
    return {"iterates": int(result.n_iterates)}


def _replayed(args, kwargs, result):
    traj = args[0]
    return {"replayed_steps": int(traj.n_iterates - traj.iterates.shape[0])}


def _rows(args, kwargs, result):
    return {"rows": int(len(args[1]))}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result)}


def _trials(args, kwargs, result):
    return {f"trials.{name}": int(entry["trials"]) for name, entry in result.items()}


def _modulus_p(args, kwargs, result):
    return {"p": float(args[0].p)}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.main_thread().ident
        self._next_id = 0
        self._id_lock = threading.Lock()
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ------------------------------------------------------------

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, layer: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, name, layer, threading.get_ident(), parent, time.perf_counter())
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, func, name: str, layer: str, counter=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name, layer)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(span)
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    # --- installation ---------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_function(self, func, name: str, layer: str, counter=None) -> None:
        """Replace `func` wherever a graphmann module binds it."""
        traced = self.wrap(func, name, layer, counter)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "graphmann" and not mod_name.startswith("graphmann."):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patch(module, attr, traced)

    def _patch_method(self, cls, attr: str, name: str, layer: str, counter=None) -> None:
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            new = classmethod(self.wrap(original.__func__, name, layer, counter))
        else:
            new = self.wrap(original, name, layer, counter)
        self._patch(cls, attr, new)

    def install(self) -> None:
        import graphmann.cli as cli
        import graphmann.config as config
        import graphmann.corpus as corpus
        import graphmann.diagnostics as diagnostics
        import graphmann.experiment as experiment
        import graphmann.mann as mann
        import graphmann.normed_space as normed_space
        import graphmann.operators as operators
        import graphmann.order_graph as order_graph

        functions = [
            (cli.main, "cli.main", "cli", None),
            (config.load_config, "config.load_config", "config", None),
            (config.build_space, "config.build_space", "config", None),
            (config.build_body, "config.build_body", "config", None),
            (config.build_relation, "config.build_relation", "config", None),
            (config.build_operator, "config.build_operator", "config", None),
            (config.build_schedule, "config.build_schedule", "config", None),
            (config.build_start, "config.build_start", "config", None),
            (experiment.run_experiment, "experiment.run_experiment", "experiment", None),
            (experiment.run_sweep, "experiment.run_sweep", "experiment", None),
            (experiment.audit_stored, "experiment.audit_stored", "experiment", None),
            (experiment.load_stored_trajectory, "experiment.load_stored_trajectory",
             "experiment", None),
            (experiment.set_config_value, "experiment.set_config_value", "experiment", None),
            (mann.run, "mann.run", "mann", _iterates),
            (mann.verify_trajectory, "mann.verify_trajectory", "mann", None),
            (mann.full_iterates, "mann.full_iterates", "mann", _replayed),
            (mann.write_trajectory_csv, "mann.write_trajectory_csv", "mann", _file_bytes),
            (mann.read_trajectory_csv, "mann.read_trajectory_csv", "mann", None),
            (mann.trajectory_to_dict, "mann.trajectory_to_dict", "mann", None),
            (mann.trajectory_from_dict, "mann.trajectory_from_dict", "mann", None),
            (diagnostics.run_audits, "diagnostics.run_audits", "diagnostics", _trials),
            (diagnostics.audit_edge_propagation, "diagnostics.audit_edge_propagation",
             "diagnostics", None),
            (diagnostics.residual_monotone_check, "diagnostics.residual_monotone_check",
             "diagnostics", None),
            (diagnostics.gk_inequality_check, "diagnostics.gk_inequality_check",
             "diagnostics", None),
            (diagnostics.write_gk_records_csv, "diagnostics.write_gk_records_csv",
             "diagnostics", None),
            (diagnostics.audit_fejer, "diagnostics.audit_fejer", "diagnostics", None),
            (diagnostics.rate_audit, "diagnostics.rate_audit", "diagnostics", None),
            (diagnostics.convergence_audit, "diagnostics.convergence_audit",
             "diagnostics", None),
            (operators.known_fixed_points, "operators.known_fixed_points", "operators", None),
            (normed_space.diameter, "normed_space.diameter", "normed_space", None),
            (normed_space.modulus_uc_estimate, "normed_space.modulus_uc_estimate",
             "normed_space", _modulus_p),
            (corpus.acceptance_instances, "corpus.acceptance_instances", "corpus", None),
            (corpus.negative_swap_config, "corpus.negative_swap_config", "corpus", None),
            (corpus.t_one_config, "corpus.t_one_config", "corpus", None),
        ]
        for func, name, layer, counter in functions:
            self._patch_function(func, name, layer, counter)
        self._patch_method(config.ExperimentConfig, "from_dict", "config.from_dict", "config")
        self._patch_method(normed_space.NormSpace, "norms", "normed_space.norms", "normed_space")
        self._patch_method(order_graph.ConeRelation, "diffs_in_cone",
                           "order_graph.diffs_in_cone", "order_graph", _rows)
        for cls in vars(operators).values():
            if (isinstance(cls, type) and issubclass(cls, operators.Operator)
                    and "apply_batch" in cls.__dict__):
                self._patch_method(cls, "apply_batch", "operators.apply_batch",
                                   "operators", _rows)
        # run.json / audits.json encoding and decoding happen inside experiment
        shim = SimpleNamespace(
            dumps=self.wrap(json.dumps, "experiment.json_dumps", "experiment", _text_bytes),
            loads=self.wrap(json.loads, "experiment.json_loads", "experiment"),
            JSONDecodeError=json.JSONDecodeError,
        )
        self._patch(experiment, "json", shim)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded so far and start a new list."""
        spans, self.spans = self.spans, []
        return spans


# --- analysis ---------------------------------------------------------------

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        kids = [
            (max(lo, s.start), min(hi, s.end))
            for lo, hi in children.get(s.id, [])
            if hi > s.start and lo < s.end
        ]
        out[s.id] = s.duration - _union_length(kids)
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics derived from one set of spans (see METRICS.md)."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    m: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s in spans:
        m[f"{s.layer}.self_s"] = m.get(f"{s.layer}.self_s", 0.0) + own[s.id]

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in named(name))

    def parent_name(s):
        return by_id[s.parent].name if s.parent in by_id else None

    runs = named("mann.run")
    iterates = sum(s.counts["iterates"] for s in runs)
    m["mann.iterates"] = iterates
    m["mann.run_us_per_iterate"] = 1e6 * total("mann.run") / iterates
    m["mann.verify_trajectory_s"] = total("mann.verify_trajectory")
    m["mann.full_iterates_s"] = total("mann.full_iterates")
    m["mann.full_iterates_calls"] = len(named("mann.full_iterates"))
    m["mann.full_iterates_replayed_steps"] = sum(
        s.counts["replayed_steps"] for s in named("mann.full_iterates")
    )
    m["mann.write_csv_s"] = total("mann.write_trajectory_csv")
    m["mann.read_csv_s"] = total("mann.read_trajectory_csv")
    m["mann.csv_bytes"] = sum(s.counts["bytes"] for s in named("mann.write_trajectory_csv"))
    dumps = [s for s in named("experiment.json_dumps")
             if parent_name(s) == "experiment.run_experiment"]
    loads = [s for s in named("experiment.json_loads")
             if parent_name(s) == "experiment.load_stored_trajectory"]
    m["mann.write_json_s"] = total("mann.trajectory_to_dict") + sum(s.duration for s in dumps)
    m["mann.read_json_s"] = total("mann.trajectory_from_dict") + sum(s.duration for s in loads)
    m["mann.json_bytes"] = sum(s.counts["bytes"] for s in dumps)

    batches = named("operators.apply_batch")
    m["operators.apply_batch_s"] = sum(s.duration for s in batches)
    m["operators.apply_batch_rows"] = sum(s.counts["rows"] for s in batches)
    cones = named("order_graph.diffs_in_cone")
    m["order_graph.diffs_in_cone_s"] = sum(s.duration for s in cones)
    m["order_graph.diffs_in_cone_rows"] = sum(s.counts["rows"] for s in cones)
    for p in (1.5, 2.0, 3.0):
        m[f"normed_space.modulus_s.p{p:g}"] = sum(
            s.duration for s in named("normed_space.modulus_uc_estimate")
            if s.counts["p"] == p
        )

    audit_runs = named("diagnostics.run_audits")
    for auditor, span_name in AUDITOR_SPANS.items():
        m[f"diagnostics.{auditor}_s"] = sum(own[s.id] for s in named(span_name))
        m[f"diagnostics.{auditor}_trials"] = sum(
            s.counts.get(f"trials.{auditor}", 0) for s in audit_runs
        )

    subruns = [s.duration for s in named("experiment.run_experiment")
               if parent_name(s) == "experiment.run_sweep"]
    m["experiment.sweep_subrun_s.median"] = statistics.median(subruns)
    m["experiment.sweep_subrun_s.max"] = max(subruns)
    m["config.from_dict_s"] = sum(
        s.duration for s in named("config.from_dict")
        if parent_name(s) != "config.from_dict"
    )
    m["corpus.build_s"] = total("corpus.acceptance_instances")
    m["trace.spans"] = len(spans)
    return m


def _span_record(s: Span) -> dict:
    return {
        "id": s.id,
        "name": s.name,
        "layer": s.layer,
        "thread": s.thread,
        "parent": s.parent,
        "start": s.start,
        "end": s.end,
        **({"counts": s.counts} if s.counts else {}),
    }


def write_spans(groups: dict, path) -> None:
    """Write spans grouped by phase; a group is a span list or a list of them."""

    def encode(value):
        if value and isinstance(value[0], list):
            return [encode(v) for v in value]
        return [_span_record(s) for s in value]

    with open(path, "w") as fh:
        json.dump({name: encode(value) for name, value in groups.items()}, fh)

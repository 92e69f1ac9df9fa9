"""Declarative experiment configuration: JSON schema, validation, builders.

A config is a JSON object with a `schema_version` field; scalar values for
vector-valued fields (box corners, offsets, the per-coordinate function of a
componentwise operator) broadcast to the space dimension, which keeps one
config usable across a dimension sweep.  See README for the full schema.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ._util import dumps_indent2
from .diagnostics import ALL_AUDITS
from .errors import ConfigError, GraphmannError
from .mann import Schedule
from .normed_space import Ball, Box, ConvexBody, NormSpace, contains, sample_point
from .operators import (
    Componentwise,
    Identity,
    MatrixAffine,
    NonmonotoneSwap,
    Operator,
    known_fixed_points,
)
from .order_graph import ConeRelation, sample_cone_element, undirected_contains

SCHEMA_VERSION = 1

_RANDOM_START_TRIES = 2000


def _check_keys(section: str, data: dict, allowed: set[str]) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")


def _parse_p(value: Any) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"space.p must be a number >= 1 or 'inf', got {value!r}")
    p = float(value)
    if not p >= 1.0:
        raise ConfigError(f"space.p must be >= 1, got {p}")
    return p


def _vec(value: Any, dim: int, name: str) -> np.ndarray:
    """Broadcast a scalar, or validate a length-d list."""
    if isinstance(value, (int, float)):
        return np.full(dim, float(value))
    arr = np.asarray(value, dtype=float)
    if arr.shape != (dim,):
        raise ConfigError(f"{name} must be a scalar or a list of {dim} numbers")
    return arr


@dataclass(frozen=True)
class SpaceConfig:
    dimension: int
    p: float = 2.0

    @classmethod
    def from_dict(cls, data: dict) -> "SpaceConfig":
        _check_keys("space", data, {"dimension", "p"})
        if "dimension" not in data:
            raise ConfigError("space.dimension is required")
        dim = int(data["dimension"])
        if dim < 1:
            raise ConfigError(f"space.dimension must be >= 1, got {dim}")
        return cls(dimension=dim, p=_parse_p(data.get("p", 2.0)))

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "p": "inf" if math.isinf(self.p) else self.p}


@dataclass(frozen=True)
class BodyConfig:
    kind: str
    lo: Any = None
    hi: Any = None
    center: Any = None
    radius: float | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "BodyConfig":
        kind = data.get("kind")
        if kind == "box":
            _check_keys("body", data, {"kind", "lo", "hi"})
            if "lo" not in data or "hi" not in data:
                raise ConfigError("box body requires lo and hi")
            return cls(kind="box", lo=data["lo"], hi=data["hi"])
        if kind == "ball":
            _check_keys("body", data, {"kind", "center", "radius"})
            if "center" not in data or "radius" not in data:
                raise ConfigError("ball body requires center and radius")
            return cls(kind="ball", center=data["center"], radius=float(data["radius"]))
        raise ConfigError(f"body.kind must be 'box' or 'ball', got {kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "box":
            return {"kind": "box", "lo": self.lo, "hi": self.hi}
        return {"kind": "ball", "center": self.center, "radius": self.radius}


@dataclass(frozen=True)
class RelationConfig:
    kind: str = "coordinatewise"
    row: Any = None
    generator_matrix: Any = None
    slack_tol: float = 1e-12

    @classmethod
    def from_dict(cls, data: dict) -> "RelationConfig":
        kind = data.get("kind", "coordinatewise")
        tol = float(data.get("slack_tol", 1e-12))
        if kind == "coordinatewise":
            _check_keys("relation", data, {"kind", "slack_tol"})
            return cls(kind=kind, slack_tol=tol)
        if kind == "half_space":
            _check_keys("relation", data, {"kind", "row", "slack_tol"})
            if "row" not in data:
                raise ConfigError("half_space relation requires a row vector")
            return cls(kind=kind, row=data["row"], slack_tol=tol)
        if kind == "custom":
            _check_keys("relation", data, {"kind", "generator_matrix", "slack_tol"})
            if "generator_matrix" not in data:
                raise ConfigError("custom relation requires generator_matrix")
            return cls(kind=kind, generator_matrix=data["generator_matrix"], slack_tol=tol)
        raise ConfigError(
            f"relation.kind must be coordinatewise, half_space, or custom, got {kind!r}"
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "slack_tol": self.slack_tol}
        if self.row is not None:
            out["row"] = self.row
        if self.generator_matrix is not None:
            out["generator_matrix"] = self.generator_matrix
        return out


@dataclass(frozen=True)
class OperatorConfig:
    kind: str
    matrix: Any = None
    scale: float | None = None
    offset: Any = None
    functions: Any = None
    factor: float | None = None

    @classmethod
    def from_dict(cls, data: dict) -> "OperatorConfig":
        kind = data.get("kind")
        if kind == "identity":
            _check_keys("operator", data, {"kind"})
            return cls(kind=kind)
        if kind == "matrix_affine":
            _check_keys("operator", data, {"kind", "matrix", "scale", "offset"})
            if ("matrix" in data) == ("scale" in data):
                raise ConfigError(
                    "matrix_affine requires exactly one of matrix / scale"
                )
            return cls(
                kind=kind,
                matrix=data.get("matrix"),
                scale=float(data["scale"]) if "scale" in data else None,
                offset=data.get("offset", 0.0),
            )
        if kind == "componentwise":
            _check_keys("operator", data, {"kind", "functions"})
            if "functions" not in data:
                raise ConfigError("componentwise operator requires functions")
            return cls(kind=kind, functions=data["functions"])
        if kind == "test_only_nonmonotone":
            _check_keys("operator", data, {"kind", "factor", "offset"})
            if "factor" not in data:
                raise ConfigError("test_only_nonmonotone requires a factor")
            return cls(
                kind=kind, factor=float(data["factor"]), offset=data.get("offset", 0.0)
            )
        raise ConfigError(f"unknown operator kind {kind!r}")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind}
        for key in ("matrix", "scale", "offset", "functions", "factor"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out


@dataclass(frozen=True)
class StartConfig:
    kind: str
    value: Any = None

    @classmethod
    def from_dict(cls, data: dict) -> "StartConfig":
        kind = data.get("kind")
        if kind == "explicit":
            _check_keys("start", data, {"kind", "value"})
            if "value" not in data:
                raise ConfigError("explicit start requires a value")
            return cls(kind=kind, value=data["value"])
        if kind == "random_comparable":
            _check_keys("start", data, {"kind"})
            return cls(kind=kind)
        raise ConfigError(
            f"start.kind must be 'explicit' or 'random_comparable', got {kind!r}"
        )

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind}
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass(frozen=True)
class ScheduleConfig:
    kind: str = "constant"
    t: float | None = None
    values: Any = None
    a: float | None = None
    b: float | None = None
    enforce_bounds: bool = True

    @classmethod
    def from_dict(cls, data: dict) -> "ScheduleConfig":
        kind = data.get("kind", "constant")
        enforce = bool(data.get("enforce_bounds", True))
        a = float(data["a"]) if "a" in data else None
        b = float(data["b"]) if "b" in data else None
        if kind == "constant":
            _check_keys("schedule", data, {"kind", "t", "a", "b", "enforce_bounds"})
            if "t" not in data:
                raise ConfigError("constant schedule requires t")
            return cls(kind=kind, t=float(data["t"]), a=a, b=b, enforce_bounds=enforce)
        if kind == "explicit":
            _check_keys("schedule", data, {"kind", "values", "a", "b", "enforce_bounds"})
            if "values" not in data:
                raise ConfigError("explicit schedule requires values")
            return cls(kind=kind, values=data["values"], a=a, b=b, enforce_bounds=enforce)
        raise ConfigError(f"schedule.kind must be 'constant' or 'explicit', got {kind!r}")

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "enforce_bounds": self.enforce_bounds}
        if self.t is not None:
            out["t"] = self.t
        if self.values is not None:
            out["values"] = self.values
        if self.a is not None:
            out["a"] = self.a
        if self.b is not None:
            out["b"] = self.b
        return out


@dataclass(frozen=True)
class RunOptions:
    max_iter: int = 100_000
    tol: float = 1e-10
    record_stride: int = 1

    @classmethod
    def from_dict(cls, data: dict) -> "RunOptions":
        _check_keys("run", data, {"max_iter", "tol", "record_stride"})
        opts = cls(
            max_iter=int(data.get("max_iter", 100_000)),
            tol=float(data.get("tol", 1e-10)),
            record_stride=int(data.get("record_stride", 1)),
        )
        if opts.max_iter < 1 or opts.record_stride < 1 or opts.tol < 0:
            raise ConfigError("run options out of range")
        return opts

    def to_dict(self) -> dict:
        return {
            "max_iter": self.max_iter,
            "tol": self.tol,
            "record_stride": self.record_stride,
        }


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    @classmethod
    def from_dict(cls, data: dict) -> "OutputConfig":
        _check_keys("output", data, {"directory", "formats"})
        formats = tuple(data.get("formats", ["csv", "json"]))
        bad = [f for f in formats if f not in ("csv", "json")]
        if bad:
            raise ConfigError(f"output.formats entries must be csv/json, got {bad}")
        return cls(directory=str(data.get("directory", "out")), formats=formats)

    def to_dict(self) -> dict:
        return {"directory": self.directory, "formats": list(self.formats)}


@dataclass(frozen=True)
class ExperimentConfig:
    space: SpaceConfig
    body: BodyConfig
    relation: RelationConfig
    operator: OperatorConfig
    start: StartConfig
    schedule: ScheduleConfig
    run: RunOptions = field(default_factory=RunOptions)
    audits: tuple[str, ...] = ALL_AUDITS
    output: OutputConfig = field(default_factory=OutputConfig)
    seed: int = 0
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be a JSON object")
        _check_keys(
            "config",
            data,
            {
                "schema_version",
                "seed",
                "space",
                "body",
                "relation",
                "operator",
                "start",
                "schedule",
                "run",
                "audits",
                "output",
            },
        )
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        for section in ("space", "body", "relation", "operator", "start", "schedule"):
            if section not in data:
                raise ConfigError(f"config section {section!r} is required")
        audits = tuple(data.get("audits", ALL_AUDITS))
        bad = [a for a in audits if a not in ALL_AUDITS]
        if bad:
            raise ConfigError(f"unknown auditors {bad}; valid: {list(ALL_AUDITS)}")
        try:
            return cls(
                space=SpaceConfig.from_dict(data["space"]),
                body=BodyConfig.from_dict(data["body"]),
                relation=RelationConfig.from_dict(data["relation"]),
                operator=OperatorConfig.from_dict(data["operator"]),
                start=StartConfig.from_dict(data["start"]),
                schedule=ScheduleConfig.from_dict(data["schedule"]),
                run=RunOptions.from_dict(data.get("run", {})),
                audits=audits,
                output=OutputConfig.from_dict(data.get("output", {})),
                seed=int(data.get("seed", 0)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config value: {exc}") from exc

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "space": self.space.to_dict(),
            "body": self.body.to_dict(),
            "relation": self.relation.to_dict(),
            "operator": self.operator.to_dict(),
            "start": self.start.to_dict(),
            "schedule": self.schedule.to_dict(),
            "run": self.run.to_dict(),
            "audits": list(self.audits),
            "output": self.output.to_dict(),
        }


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig.from_dict(data)


def save_config(config: ExperimentConfig, path) -> None:
    Path(path).write_text(dumps_indent2(config.to_dict()) + "\n")


# --- builders ---------------------------------------------------------------

def build_space(config: ExperimentConfig) -> NormSpace:
    return NormSpace(config.space.dimension, config.space.p)


def build_body(config: ExperimentConfig, space: NormSpace) -> ConvexBody:
    d = space.dimension
    cfg = config.body
    try:
        if cfg.kind == "box":
            return Box(_vec(cfg.lo, d, "body.lo"), _vec(cfg.hi, d, "body.hi"))
        return Ball(_vec(cfg.center, d, "body.center"), float(cfg.radius))
    except GraphmannError as exc:
        raise ConfigError(f"body: {exc}") from exc


def build_relation(config: ExperimentConfig, space: NormSpace) -> ConeRelation:
    d = space.dimension
    cfg = config.relation
    try:
        if cfg.kind == "coordinatewise":
            return ConeRelation(np.eye(d), cfg.slack_tol)
        if cfg.kind == "half_space":
            row = _vec(cfg.row, d, "relation.row")
            if not np.any(row != 0.0):
                raise ConfigError("relation.row must be nonzero")
            return ConeRelation(row[None, :], cfg.slack_tol)
        matrix = np.asarray(cfg.generator_matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[1] != d:
            raise ConfigError(
                f"relation.generator_matrix must have {d} columns"
            )
        return ConeRelation(matrix, cfg.slack_tol)
    except GraphmannError as exc:
        raise ConfigError(f"relation: {exc}") from exc


def build_operator(
    config: ExperimentConfig, space: NormSpace, body: ConvexBody
) -> Operator:
    d = space.dimension
    cfg = config.operator
    try:
        if cfg.kind == "identity":
            return Identity(space, body)
        if cfg.kind == "matrix_affine":
            matrix = (
                float(cfg.scale) * np.eye(d)
                if cfg.scale is not None
                else np.asarray(cfg.matrix, dtype=float)
            )
            return MatrixAffine(space, body, matrix, _vec(cfg.offset, d, "operator.offset"))
        if cfg.kind == "componentwise":
            functions = cfg.functions
            if isinstance(functions, dict):
                functions = [functions] * d
            if len(functions) != d:
                raise ConfigError(
                    f"operator.functions must have {d} entries or be a single object"
                )
            knots_x, knots_y = [], []
            for i, fn in enumerate(functions):
                _check_keys(f"operator.functions[{i}]", fn, {"knots_x", "knots_y"})
                knots_x.append(np.asarray(fn["knots_x"], dtype=float))
                knots_y.append(np.asarray(fn["knots_y"], dtype=float))
            return Componentwise(space, body, tuple(knots_x), tuple(knots_y))
        return NonmonotoneSwap(
            space, body, float(cfg.factor), _vec(cfg.offset, d, "operator.offset")
        )
    except GraphmannError as exc:
        raise ConfigError(f"operator: {exc}") from exc


def build_schedule(config: ExperimentConfig) -> Schedule:
    cfg = config.schedule
    if cfg.kind == "constant":
        return Schedule.constant(cfg.t, cfg.a, cfg.b, cfg.enforce_bounds)
    values = np.asarray(cfg.values, dtype=float)
    return Schedule.explicit(values, cfg.a, cfg.b, cfg.enforce_bounds)


def _comparable_toward(
    anchor: np.ndarray,
    body: Box,
    rel: ConeRelation,
    operator: Operator,
    rng: np.random.Generator,
) -> np.ndarray | None:
    """Try to build a comparable start by stepping from `anchor` along a cone
    element while staying inside the box."""
    for _ in range(64):
        v = sample_cone_element(rel, rng)
        fraction = rng.uniform(0.2, 0.9)
        for sign in (-1.0, 1.0):
            w = sign * v
            with np.errstate(divide="ignore"):
                caps = np.where(
                    w < -1e-12,
                    (body.lo - anchor) / w,
                    np.where(w > 1e-12, (body.hi - anchor) / w, np.inf),
                )
            gamma = fraction * float(caps.min())
            if not np.isfinite(gamma) or gamma <= 0:
                continue
            x = anchor + gamma * w
            if contains(operator.space, body, x) and undirected_contains(
                rel, x, operator._apply(x)
            ):
                return x
    return None


def build_start(
    config: ExperimentConfig,
    operator: Operator,
    rel: ConeRelation,
    rng: np.random.Generator,
) -> np.ndarray:
    """Resolve the starting point; 'random_comparable' draws a seeded point
    with (x1, T(x1)) in the undirected edge set, and falls back to the box
    corners lo, then hi, when no draw is comparable."""
    space, body = operator.space, operator.domain
    cfg = config.start
    if cfg.kind == "explicit":
        x = _vec(cfg.value, space.dimension, "start.value")
        if not contains(space, body, x):
            raise ConfigError("start.value lies outside the domain")
        return x
    anchors = known_fixed_points(operator).known_points
    if anchors and isinstance(body, Box):
        x = _comparable_toward(np.array(anchors[0]), body, rel, operator, rng)
        if x is not None:
            return x
    for _ in range(_RANDOM_START_TRIES):
        x = sample_point(space, body, rng)
        if undirected_contains(rel, x, operator._apply(x)):
            return x
    # a dense map can leave every draw incomparable with its image, while T
    # maps into the box, so under the coordinatewise cone both corners are
    # comparable with their images
    if isinstance(body, Box):
        for corner in (body.lo, body.hi):
            x = np.array(corner)
            if undirected_contains(rel, x, operator._apply(x)):
                return x
    raise ConfigError(
        "could not draw a start comparable with its image; "
        "provide an explicit start"
    )

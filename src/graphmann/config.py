"""Declarative experiment configuration: JSON schema, validation, builders.

A config is a JSON object with a `schema_version` field; scalar values for
vector-valued fields (box corners, offsets, the per-coordinate function of a
componentwise operator) broadcast to the space dimension, which keeps one
config usable across a dimension sweep.  See README for the full schema.

Each section's dataclass is the one declaration of its fields and kinds:
the field order is the order of the echo in run.json, and one parser
(`_Section.from_dict`) reads every section by its kind table, its field
defaults and its field annotations.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import MISSING, dataclass, field, fields
from itertools import chain
from typing import Any

import numpy as np

from .diagnostics import ALL_AUDITS
from .errors import ConfigError, GraphmannError
from .mann import DEFAULT_MAX_ITER, DEFAULT_TOL, Schedule, start_edges
from .normed_space import Ball, Box, ConvexBody, NormSpace, contains, sample_point
from .operators import (
    Componentwise,
    Identity,
    MatrixAffine,
    NonmonotoneSwap,
    Operator,
    known_fixed_points,
)
from .order_graph import EDGE_SLACK_TOL, ConeRelation, sample_cone_element

SCHEMA_VERSION = 1

_RANDOM_START_TRIES = 2000


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = data.keys() - allowed
    if unknown:
        raise ConfigError(f"{section}: unknown keys {sorted(unknown)}")


def _int(value: Any, name: str) -> int:
    """An integer field: an integer, or a float with an integral value such
    as 2.0 or 1e5; a bool or a fractional number is a ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _float(value: Any, name: str, finite: bool = True) -> float:
    """A float field: a finite real number, or also an infinite one when not
    `finite`; a bool, a string, NaN or a number beyond the range of a float is
    a ConfigError, and so is ±Infinity (which Python's JSON reader accepts)
    in a `finite` field."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the range of a float
            number = math.nan
        if math.isinf(number) and finite:
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if not math.isnan(number):
            return number
    raise ConfigError(f"{name} must be a number, got {value!r}")


def check_seed(value: Any) -> int:
    """A seed: a non-negative integer, as numpy's generators take."""
    seed = _int(value, "seed")
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed


def _parse_p(value: Any) -> float:
    if isinstance(value, str):
        if value.lower() in ("inf", "infinity"):
            return math.inf
        raise ConfigError(f"space.p must be a number >= 1 or 'inf', got {value!r}")
    p = _float(value, "space.p", finite=False)
    if not p >= 1.0:
        raise ConfigError(f"space.p must be >= 1, got {p}")
    return p


def _floats(value: Any, name: str) -> np.ndarray:
    """A list of float fields, entry i checked as `name[i]`."""
    if not isinstance(value, (list, tuple, np.ndarray)):
        raise ConfigError(f"{name} must be a list of numbers, got {value!r}")
    return np.array([_float(v, f"{name}[{i}]") for i, v in enumerate(value)], dtype=float)


def _matrix(value: Any, name: str) -> np.ndarray:
    """A list of rows of float fields, checked as a whole rather than entry
    by entry (a matrix may have 65 536 entries): the entry types first, then
    NaN in the converted array."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ConfigError(f"{name} must be a list of rows of numbers")
    types = set(map(type, chain.from_iterable(value)))
    bad = sorted(t.__name__ for t in types if t is bool or not issubclass(t, numbers.Real))
    if bad:
        raise ConfigError(f"{name} entries must be numbers, got {', '.join(bad)}")
    matrix = np.array(value, dtype=float)
    if np.isnan(matrix).any():
        raise ConfigError(f"{name} entries must be numbers, got NaN")
    if np.isinf(matrix).any():
        raise ConfigError(f"{name} entries must be finite")
    return matrix


def _vec(value: Any, dim: int, name: str) -> np.ndarray:
    """Broadcast a scalar, or validate a length-d list of float fields."""
    if isinstance(value, numbers.Number):
        return np.full(dim, _float(value, name))
    arr = _floats(value, name)
    if arr.shape != (dim,):
        raise ConfigError(f"{name} must be a scalar or a list of {dim} numbers")
    return arr


def _bool(value: Any, name: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")
    return value


# the checks of the given values of a section's fields, by annotation; a
# field of any other type is kept as given, for the builders to check
_CHECKS = {"int": _int, "float": _float, "bool": _bool}


@functools.cache
def _layout(cls) -> tuple[dict[str, Any], dict[str, Any]]:
    """The fields that every kind of section `cls` allows (those no kind
    lists), with their defaults (MISSING when required), and the check of
    each checked field."""
    listed = {key for required, optional in cls.kinds.values() for key in (*required, *optional)}
    common = {f.name: f.default for f in fields(cls) if f.name not in listed}
    checks = {f.name: check for f in fields(cls)
              if (check := _CHECKS.get(f.type.removesuffix(" | None")))}
    return common, checks


class _Section:
    """A config section, parsed by its declaration and echoed as its set
    (not None) fields in declaration order.

    `kinds` maps each kind to its required keys and to its optional keys
    with their defaults; the default kind is the default of the `kind`
    field.  A field that no kind lists is allowed by every kind, with its
    dataclass default, and is required when it has none; a section without
    kinds allows exactly its fields.
    """

    section = ""
    kinds: dict[str, tuple[tuple[str, ...], dict[str, Any]]] = {}

    @classmethod
    def from_dict(cls, data: dict):
        common, checks = _layout(cls)
        keys = dict(common)
        if cls.kinds:
            kind = data.get("kind", keys["kind"])
            if not isinstance(kind, str) or kind not in cls.kinds:
                raise ConfigError(
                    f"{cls.section}.kind must be one of {', '.join(cls.kinds)}, "
                    f"got {data.get('kind')!r}"
                )
            required, optional = cls.kinds[kind]
            keys.update(dict.fromkeys(required, MISSING), **optional)
        _check_keys(cls.section, data, keys.keys())
        values = {}
        for key, default in keys.items():
            if key in data:
                value = data[key]
                check = checks.get(key)
                values[key] = value if check is None else check(value, f"{cls.section}.{key}")
            elif default is MISSING:
                raise ConfigError(f"{cls.section}.{key} is required")
            else:
                values[key] = default
        return cls(**values)

    def to_dict(self) -> dict:
        pairs = ((f.name, getattr(self, f.name)) for f in fields(self))
        return {name: value for name, value in pairs if value is not None}


@dataclass(frozen=True)
class SpaceConfig(_Section):
    section = "space"
    dimension: int
    p: Any = 2.0  # a number >= 1, or "inf"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ConfigError(f"space.dimension must be >= 1, got {self.dimension}")
        object.__setattr__(self, "p", _parse_p(self.p))

    def to_dict(self) -> dict:
        return {"dimension": self.dimension, "p": "inf" if math.isinf(self.p) else self.p}


@dataclass(frozen=True)
class BodyConfig(_Section):
    section = "body"
    kinds = {"box": (("lo", "hi"), {}), "ball": (("center", "radius"), {})}
    kind: str
    lo: Any = None
    hi: Any = None
    center: Any = None
    radius: Any = None

    def __post_init__(self) -> None:
        # an infinite radius is left to Ball, so that it is an error naming
        # the body, as an infinite corner or center is
        if self.radius is not None:
            object.__setattr__(self, "radius", _float(self.radius, "body.radius", finite=False))


@dataclass(frozen=True)
class RelationConfig(_Section):
    section = "relation"
    kinds = {
        "coordinatewise": ((), {}),
        "half_space": (("row",), {}),
        "custom": (("generator_matrix",), {}),
    }
    kind: str = "coordinatewise"
    slack_tol: float = EDGE_SLACK_TOL
    row: Any = None
    generator_matrix: Any = None


@dataclass(frozen=True)
class OperatorConfig(_Section):
    section = "operator"
    kinds = {
        "identity": ((), {}),
        "matrix_affine": ((), {"matrix": None, "scale": None, "offset": 0.0}),
        "componentwise": (("functions",), {}),
        "test_only_nonmonotone": (("factor",), {"offset": 0.0}),
    }
    kind: str
    matrix: Any = None
    scale: float | None = None
    offset: Any = None
    functions: Any = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind == "matrix_affine" and (self.matrix is None) == (self.scale is None):
            raise ConfigError("operator: matrix_affine requires exactly one of matrix / scale")


@dataclass(frozen=True)
class StartConfig(_Section):
    section = "start"
    kinds = {"explicit": (("value",), {}), "random_comparable": ((), {})}
    kind: str
    value: Any = None


@dataclass(frozen=True)
class ScheduleConfig(_Section):
    section = "schedule"
    kinds = {"constant": (("t",), {}), "explicit": (("values",), {})}
    kind: str = "constant"
    enforce_bounds: bool = True
    t: float | None = None
    values: Any = None
    a: float | None = None
    b: float | None = None


@dataclass(frozen=True)
class RunOptions(_Section):
    section = "run"
    max_iter: int = DEFAULT_MAX_ITER
    tol: float = DEFAULT_TOL
    record_stride: int = 1

    def __post_init__(self) -> None:
        for key, low in (("max_iter", 1), ("record_stride", 1), ("tol", 0.0)):
            if getattr(self, key) < low:
                raise ConfigError(f"run.{key} must be >= {low}, got {getattr(self, key)}")


@dataclass(frozen=True)
class OutputConfig(_Section):
    section = "output"
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")

    def __post_init__(self) -> None:
        if not isinstance(self.formats, (list, tuple)):
            raise ConfigError(f"output.formats must be a list, got {self.formats!r}")
        bad = [f for f in self.formats if f not in ("csv", "json")]
        if bad:
            raise ConfigError(f"output.formats entries must be csv/json, got {bad}")
        object.__setattr__(self, "directory", str(self.directory))
        object.__setattr__(self, "formats", tuple(self.formats))

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
        _check_keys("config", data, {f.name for f in fields(cls)})
        version = data.get("schema_version")
        if isinstance(version, bool) or version != SCHEMA_VERSION:
            raise ConfigError(
                f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
            )
        sections = ("space", "body", "relation", "operator", "start", "schedule")
        for section in sections:
            if section not in data:
                raise ConfigError(f"config section {section!r} is required")
        for section in sections + ("run", "output"):
            if not isinstance(data.get(section, {}), dict):
                raise ConfigError(f"config section {section!r} must be a JSON object")
        audits = data.get("audits", list(cls.audits))
        if not isinstance(audits, list):
            raise ConfigError("audits must be a list of auditor names")
        audits = tuple(audits)
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
                seed=check_seed(data.get("seed", cls.seed)),
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


def read_config(path) -> Any:
    """The JSON value of the config file at `path`, unparsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return ExperimentConfig.from_dict(read_config(path))


# --- builders ---------------------------------------------------------------

def _builds(section: str):
    """Make a builder raise what a malformed value of config section
    `section` causes (a library error, or a failed conversion's TypeError or
    ValueError) as a ConfigError naming the section."""

    def decorate(build):
        @functools.wraps(build)
        def checked(*args):
            try:
                return build(*args)
            except (GraphmannError, TypeError, ValueError) as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        return checked
    return decorate


def build_space(config: ExperimentConfig) -> NormSpace:
    return NormSpace(config.space.dimension, config.space.p)


@_builds("body")
def build_body(config: ExperimentConfig, space: NormSpace) -> ConvexBody:
    d = space.dimension
    cfg = config.body
    if cfg.kind == "box":
        return Box(_vec(cfg.lo, d, "body.lo"), _vec(cfg.hi, d, "body.hi"))
    return Ball(_vec(cfg.center, d, "body.center"), cfg.radius)


@_builds("relation")
def build_relation(config: ExperimentConfig, space: NormSpace) -> ConeRelation:
    d = space.dimension
    cfg = config.relation
    if cfg.kind == "coordinatewise":
        return ConeRelation(np.eye(d), cfg.slack_tol)
    if cfg.kind == "half_space":
        row = _vec(cfg.row, d, "relation.row")
        if not np.any(row != 0.0):
            raise ConfigError("relation.row must be nonzero")
        return ConeRelation(row[None, :], cfg.slack_tol)
    matrix = _matrix(cfg.generator_matrix, "relation.generator_matrix")
    if matrix.ndim != 2 or matrix.shape[1] != d:
        raise ConfigError(f"relation.generator_matrix must have {d} columns")
    return ConeRelation(matrix, cfg.slack_tol)


@_builds("operator")
def build_operator(
    config: ExperimentConfig, space: NormSpace, body: ConvexBody
) -> Operator:
    d = space.dimension
    cfg = config.operator
    if cfg.kind == "identity":
        return Identity(space, body)
    if cfg.kind == "matrix_affine":
        matrix = (
            float(cfg.scale) * np.eye(d)
            if cfg.scale is not None
            else _matrix(cfg.matrix, "operator.matrix")
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
            if not isinstance(fn, dict) or set(fn) != {"knots_x", "knots_y"}:
                raise ConfigError(
                    f"operator.functions[{i}] must be an object with exactly "
                    "knots_x and knots_y"
                )
            knots_x.append(_floats(fn["knots_x"], f"operator.functions[{i}].knots_x"))
            knots_y.append(_floats(fn["knots_y"], f"operator.functions[{i}].knots_y"))
        return Componentwise(space, body, tuple(knots_x), tuple(knots_y))
    return NonmonotoneSwap(
        space, body, float(cfg.factor), _vec(cfg.offset, d, "operator.offset")
    )


@_builds("schedule")
def build_schedule(config: ExperimentConfig) -> Schedule:
    cfg = config.schedule
    if cfg.kind == "constant":
        return Schedule.constant(cfg.t, cfg.a, cfg.b, cfg.enforce_bounds)
    values = _floats(cfg.values, "schedule.values")
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
            if contains(operator.space, body, x) and any(
                start_edges(rel, x, operator._apply(x))
            ):
                return x
    return None


@_builds("start")
def build_start(
    config: ExperimentConfig,
    operator: Operator,
    rel: ConeRelation,
    rng: np.random.Generator,
) -> np.ndarray:
    """Resolve the starting point; 'random_comparable' draws a seeded point
    x1 comparable with T(x1) in either direction (`start_edges`), and falls
    back to the box corners lo, then hi, when no draw is comparable."""
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
        if any(start_edges(rel, x, operator._apply(x))):
            return x
    # a dense map can leave every draw incomparable with its image, while T
    # maps into the box, so under the coordinatewise cone both corners are
    # comparable with their images
    if isinstance(body, Box):
        for corner in (body.lo, body.hi):
            x = np.array(corner)
            if any(start_edges(rel, x, operator._apply(x))):
                return x
    raise ConfigError(
        "could not draw a start comparable with its image; "
        "provide an explicit start"
    )

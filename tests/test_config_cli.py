import copy
import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from graphmann._util import write_json
from graphmann.cli import main
from graphmann.config import (
    BodyConfig,
    ExperimentConfig,
    OperatorConfig,
    OutputConfig,
    RelationConfig,
    RunOptions,
    ScheduleConfig,
    SpaceConfig,
    StartConfig,
    build_body,
    build_operator,
    build_relation,
    build_schedule,
    build_space,
    build_start,
    load_config,
)
from graphmann.corpus import negative_swap_config, oracle_1d_config, t_one_config
from graphmann.diagnostics import ALL_AUDITS, run_audits, write_gk_records_csv
from graphmann.errors import ConfigError
import graphmann.experiment as experiment
from graphmann.experiment import run_experiment, run_sweep, set_config_value
from graphmann.mann import start_edges, trajectory_from_dict
from graphmann.normed_space import diameter


def write_config(tmp_path, data, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def oracle_cfg(tmp_path):
    data = oracle_1d_config(str(tmp_path / "out"))
    return data, write_config(tmp_path, data)


def set_field(data, dotted, value):
    """Set the dotted config field `dotted` of `data` in place."""
    *path, leaf = dotted.split(".")
    node = data
    for part in path:
        node = node[part]
    node[leaf] = value
    return data


# one config section each, as written (keys in any order), and its echo
ECHOES = [
    ("body", {"hi": 1.0, "lo": 0.0, "kind": "box"},
     '{"kind": "box", "lo": 0.0, "hi": 1.0}'),
    ("body", {"radius": 1, "center": 0.5, "kind": "ball"},
     '{"kind": "ball", "center": 0.5, "radius": 1.0}'),
    ("relation", {}, '{"kind": "coordinatewise", "slack_tol": 1e-12}'),
    ("relation", {"row": [1.0], "kind": "half_space"},
     '{"kind": "half_space", "slack_tol": 1e-12, "row": [1.0]}'),
    ("relation", {"generator_matrix": [[1.0]], "slack_tol": 1e-09, "kind": "custom"},
     '{"kind": "custom", "slack_tol": 1e-09, "generator_matrix": [[1.0]]}'),
    ("operator", {"kind": "identity"}, '{"kind": "identity"}'),
    ("operator", {"offset": 0.25, "matrix": [[0.5]], "kind": "matrix_affine"},
     '{"kind": "matrix_affine", "matrix": [[0.5]], "offset": 0.25}'),
    ("operator", {"scale": 0.5, "kind": "matrix_affine"},
     '{"kind": "matrix_affine", "scale": 0.5, "offset": 0.0}'),
    ("operator", {"functions": [{"knots_y": [0.5, 1.0], "knots_x": [0.0, 1.0]}],
                  "kind": "componentwise"},
     '{"kind": "componentwise", "functions": [{"knots_y": [0.5, 1.0], "knots_x": [0.0, 1.0]}]}'),
    ("operator", {"offset": [0.3], "factor": 0.5, "kind": "test_only_nonmonotone"},
     '{"kind": "test_only_nonmonotone", "offset": [0.3], "factor": 0.5}'),
    ("start", {"value": [0.0], "kind": "explicit"}, '{"kind": "explicit", "value": [0.0]}'),
    ("start", {"kind": "random_comparable"}, '{"kind": "random_comparable"}'),
    ("schedule", {"t": 0.5}, '{"kind": "constant", "enforce_bounds": true, "t": 0.5}'),
    ("schedule", {"b": 0.9, "enforce_bounds": False, "a": 0.1, "t": 0.5, "kind": "constant"},
     '{"kind": "constant", "enforce_bounds": false, "t": 0.5, "a": 0.1, "b": 0.9}'),
    ("schedule", {"values": [0.5, 0.25], "kind": "explicit"},
     '{"kind": "explicit", "enforce_bounds": true, "values": [0.5, 0.25]}'),
    ("schedule", {"enforce_bounds": True, "a": 0.2, "values": [0.5], "b": 0.6,
                  "kind": "explicit"},
     '{"kind": "explicit", "enforce_bounds": true, "values": [0.5], "a": 0.2, "b": 0.6}'),
]

ORACLE_ECHO = (
    '{"schema_version": 1, "seed": 1, "space": {"dimension": 1, "p": 2.0}, '
    '"body": {"kind": "box", "lo": 0.0, "hi": 1.0}, '
    '"relation": {"kind": "coordinatewise", "slack_tol": 1e-12}, '
    '"operator": {"kind": "componentwise", '
    '"functions": {"knots_x": [0.0, 1.0], "knots_y": [0.5, 1.0]}}, '
    '"start": {"kind": "explicit", "value": [0.0]}, '
    '"schedule": {"kind": "constant", "enforce_bounds": true, "t": 0.5}, '
    '"run": {"max_iter": 100000, "tol": 1e-10, "record_stride": 1}, '
    '"audits": ["trajectory", "edge_propagation", "residual_monotone", '
    '"gk_inequality", "fejer", "rate", "convergence"], '
    '"output": {"directory": "out_oracle", "formats": ["csv", "json"]}}'
)


class TestConfigParsing:
    def test_round_trip(self):
        config = ExperimentConfig.from_dict(oracle_1d_config())
        assert json.dumps(config.to_dict()) == ORACLE_ECHO
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "section, value, echo",
        ECHOES,
        ids=["box", "ball", "coordinatewise", "half_space", "custom", "identity",
             "matrix", "scale", "componentwise", "test_only_nonmonotone", "explicit_start",
             "random_comparable", "constant", "constant_a_b_unenforced", "explicit",
             "explicit_a_b_enforced"],
    )
    def test_round_trip_of_every_kind(self, section, value, echo):
        data = oracle_1d_config()
        data[section] = value
        config = ExperimentConfig.from_dict(data)
        assert json.dumps(config.to_dict()[section]) == echo
        expected = json.loads(ORACLE_ECHO)
        expected[section] = json.loads(echo)
        assert json.dumps(config.to_dict()) == json.dumps(expected)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "dotted, value",
        [
            ("space.dimension", 2.5),
            ("space.dimension", True),
            ("space.dimension", "1"),
            ("run.record_stride", 1.5),
            ("run.record_stride", True),
            ("run.max_iter", 10.9),
            ("run.max_iter", True),
            ("run.max_iter", float("inf")),
            ("seed", 1.7),
            ("seed", False),
            ("schema_version", True),
            ("schedule.enforce_bounds", "false"),
            ("schedule.enforce_bounds", 0),
        ],
    )
    def test_integer_and_boolean_fields_are_checked(self, dotted, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(set_field(oracle_1d_config(), dotted, value))

    @pytest.mark.parametrize(
        "dotted, value, echo",
        [("space.dimension", 1.0, 1), ("run.max_iter", 1e5, 100000), ("seed", 3.0, 3)],
    )
    def test_integral_floats_are_integers(self, dotted, value, echo):
        config = ExperimentConfig.from_dict(set_field(oracle_1d_config(), dotted, value))
        echoed = config.to_dict()
        for part in dotted.split("."):
            echoed = echoed[part]
        assert type(echoed) is int and echoed == echo

    def test_requires_schema_version(self):
        data = oracle_1d_config()
        del data["schema_version"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_rejects_unknown_keys(self):
        data = oracle_1d_config()
        data["surprise"] = 1
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_rejects_unknown_auditor(self):
        data = oracle_1d_config()
        data["audits"] = ["fejer", "nope"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_missing_section(self):
        data = oracle_1d_config()
        del data["operator"]
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("body", "x"),
            ("relation", 3),
            ("space", []),
            ("operator", []),
            ("start", []),
            ("schedule", []),
            ("run", []),
            ("output", []),
            ("audits", 5),
            ("audits", None),
            ("audits", "fejer"),
        ],
    )
    def test_section_of_the_wrong_type(self, tmp_path, capsys, key, value):
        data = oracle_1d_config(str(tmp_path / "o"))
        data[key] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_non_numeric_field_is_config_error(self):
        data = oracle_1d_config()
        data["space"]["dimension"] = "two"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    # space.p is the one float field where an infinite number means something
    @pytest.mark.parametrize("p", ["inf", math.inf], ids=["string", "number"])
    def test_infinity_norm_spelled_inf(self, tmp_path, p):
        data = oracle_1d_config(str(tmp_path / "o"))
        data["space"]["p"] = p
        config = ExperimentConfig.from_dict(data)
        assert config.to_dict()["space"]["p"] == "inf"
        result = run_experiment(config, write=False)
        assert result.exit_code == 0

    def test_scalar_broadcasting_box(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        data["space"]["dimension"] = 3
        data["start"] = {"kind": "random_comparable"}
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
        assert result.exit_code == 0
        assert result.trajectory.dimension == 3

    def test_matrix_affine_scale_shorthand(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        data["space"]["dimension"] = 2
        data["operator"] = {"kind": "matrix_affine", "scale": 0.5, "offset": 0.25}
        data["start"] = {"kind": "explicit", "value": [0.0, 0.0]}
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
        assert result.exit_code == 0
        assert result.trajectory.final_iterate == pytest.approx([0.5, 0.5], abs=1e-8)

    def test_explicit_start_outside_domain(self):
        data = oracle_1d_config()
        data["start"] = {"kind": "explicit", "value": [2.0]}
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_dict(data), write=False)

    def test_ball_body_with_identity(self, tmp_path):
        data = {
            "schema_version": 1,
            "seed": 3,
            "space": {"dimension": 2, "p": 2.0},
            "body": {"kind": "ball", "center": 0.5, "radius": 1.0},
            "relation": {"kind": "coordinatewise"},
            "operator": {"kind": "identity"},
            "start": {"kind": "explicit", "value": [0.5, 0.5]},
            "schedule": {"kind": "constant", "t": 0.5},
            "output": {"directory": str(tmp_path / "o")},
        }
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
        assert result.exit_code == 0
        assert result.trajectory.n_iterates == 1

    def test_set_config_value_nested(self):
        data = oracle_1d_config()
        out = set_config_value(data, "schedule.t", 0.25)
        assert out["schedule"]["t"] == 0.25
        assert data["schedule"]["t"] == 0.5  # original untouched
        assert set_config_value(data, "space.dimension", 4)["space"]["dimension"] == 4
        with pytest.raises(ConfigError):
            set_config_value(data, "nope.t", 0.1)
        with pytest.raises(ConfigError):
            set_config_value(data, "operator.kind", 0.1)

    @pytest.mark.parametrize("axis", ["seed", "operator.offset"])
    def test_set_config_value_shares_what_is_off_the_path(self, axis):
        data = {"schema_version": 1, "seed": 3,
                "operator": {"kind": "matrix_affine", "matrix": [[0.5, 0.0], [0.0, 0.5]],
                             "offset": 0.25},
                "body": {"kind": "box", "lo": [0.0, 0.0], "hi": 1.0}}
        before = copy.deepcopy(data)
        out = set_config_value(data, axis, 0.125)
        assert data == before
        *path, leaf = axis.split(".")
        node, original = out, data
        for part in path:
            assert node is not original
            node, original = node[part], original[part]
        assert node is not original and node[leaf] == 0.125
        # every subtree off the path is the input's own object
        assert out["body"] is data["body"]
        assert out["operator"]["matrix"] is data["operator"]["matrix"]

    def test_sweep_leaves_its_input_unchanged(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        before = copy.deepcopy(data)
        code, rows = run_sweep(data, "schedule.t", [0.25, 0.75], out_dir=tmp_path / "sw")
        assert code == 0 and len(rows) == 2
        assert data == before


SECTIONS = [SpaceConfig, BodyConfig, RelationConfig, OperatorConfig, StartConfig,
            ScheduleConfig, RunOptions, OutputConfig]
KINDS = {(cls.section, kind) for cls in SECTIONS for kind in cls.kinds}


def kind_of(section, value):
    """The kind of a section as written: its `kind`, or the default kind."""
    cls = next(cls for cls in SECTIONS if cls.section == section)
    return value.get("kind", next(f.default for f in dataclasses.fields(cls) if f.name == "kind"))


def section_example(cls, kind):
    """A valid `cls` section of kind `kind` (None for a section without
    kinds), on the oracle config: the first of ECHOES with that kind."""
    if kind is None:
        return oracle_1d_config()[cls.section]
    return next(value for section, value, _ in ECHOES
                if section == cls.section and kind_of(section, value) == kind)


def section_keys(cls, kind):
    """The keys a `cls` section of kind `kind` allows, and those it
    requires, by its kind table."""
    listed = {key for required, optional in cls.kinds.values() for key in (*required, *optional)}
    common = [f for f in dataclasses.fields(cls) if f.name not in listed]
    required, optional = cls.kinds[kind] if kind is not None else ((), {})
    allowed = {f.name for f in common} | set(required) | set(optional)
    return allowed, {f.name for f in common if f.default is dataclasses.MISSING} | set(required)


def table_cases(make):
    """One case per section and kind of the kind tables, and per key that
    `make(cls, kind)` lists for it."""
    return [
        pytest.param(cls, kind, key, id=f"{cls.section}-{kind}-{key}")
        for cls in SECTIONS
        for kind in (list(cls.kinds) or [None])
        for key in sorted(make(cls, kind))
    ]


def checked_fields(cls, kind):
    allowed, _ = section_keys(cls, kind)
    return {f.name for f in dataclasses.fields(cls)
            if f.name in allowed and f.type.removesuffix(" | None") in ("int", "float", "bool")}


class TestSectionTables:
    """Cases derived from each section's kind table, so a kind added to a
    table is covered."""

    def test_echoes_cover_every_kind(self):
        # test_round_trip_of_every_kind round-trips each of ECHOES
        assert {(section, kind_of(section, value)) for section, value, _ in ECHOES} == KINDS

    @pytest.mark.parametrize("cls, kind, key",
                             table_cases(lambda cls, kind: section_keys(cls, kind)[1]))
    def test_missing_required_key_is_exit_one(self, tmp_path, capsys, cls, kind, key):
        data = oracle_1d_config(str(tmp_path / "o"))
        data[cls.section] = {k: v for k, v in section_example(cls, kind).items() if k != key}
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cls.section}") and key in err

    @pytest.mark.parametrize("cls, kind, key", table_cases(lambda cls, kind: {"surprise"}))
    def test_unknown_key_is_exit_one(self, tmp_path, capsys, cls, kind, key):
        data = oracle_1d_config(str(tmp_path / "o"))
        data[cls.section] = {**section_example(cls, kind), key: 1.0}
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cls.section}") and key in err

    @pytest.mark.parametrize("cls, kind, key", table_cases(checked_fields))
    def test_non_numeric_checked_field_is_exit_one(self, tmp_path, capsys, cls, kind, key):
        data = oracle_1d_config(str(tmp_path / "o"))
        data[cls.section] = {**section_example(cls, kind), key: "x"}
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {cls.section}.{key} must be")

    def test_readme_schema_parses_and_names_every_kind(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        schema = readme.split("## Config schema", 1)[1]
        block = schema.split("```jsonc\n", 1)[1].split("```", 1)[0]
        ExperimentConfig.from_dict(json.loads(re.sub(r"//.*", "", block)))
        kinds = set(re.findall(r'"kind": "(\w+)"', block))
        assert kinds == {kind for _, kind in KINDS}


class TestCliRun:
    def test_oracle_run_exit_zero_and_trajectory(self, tmp_path, oracle_cfg, capsys):
        data, path = oracle_cfg
        assert main(["run", "--config", path]) == 0
        out = capsys.readouterr().out
        assert "tolerance_met" in out
        rows = read_csv_rows(tmp_path / "out" / "trajectory.csv")
        assert rows[0]["n"] == "1" and float(rows[0]["x_1"]) == 0.0
        assert rows[1]["n"] == "2" and float(rows[1]["x_1"]) == 0.25
        report = json.loads((tmp_path / "out" / "audits.json").read_text())
        assert report["exit_code"] == 0
        assert set(report["audits"]) == set(data["audits"])
        gk_rows = read_csv_rows(tmp_path / "out" / "gk_records.csv")
        assert len(gk_rows) == 50
        assert all(float(row["slack"]) >= -1e-9 for row in gk_rows)

    def test_unreadable_config_is_exit_one(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "missing.json")]) == 1
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["run", "--config", str(bad)]) == 1

    @pytest.mark.parametrize(
        "section, value",
        [
            ("operator", {"kind": "componentwise", "functions": [{"knots_y": [0.5, 1.0]}]}),
            ("operator", {"kind": "componentwise", "functions": [3]}),
            ("operator", {"kind": "matrix_affine", "matrix": [["a"]]}),
            ("body", {"kind": "box", "lo": "a", "hi": 1.0}),
            ("relation", {"kind": "half_space", "row": ["a"]}),
            ("relation", {"kind": "custom", "generator_matrix": [["a"]]}),
            ("start", {"kind": "explicit", "value": ["a"]}),
            ("schedule", {"kind": "explicit", "values": ["a"]}),
            ("schedule", {"kind": "explicit", "values": []}),
        ],
        ids=["entry-without-knots_x", "entry-not-an-object", "matrix", "lo", "row",
             "generator_matrix", "start-value", "values", "no-values"],
    )
    def test_malformed_value_is_exit_one(self, tmp_path, capsys, section, value):
        data = oracle_1d_config(str(tmp_path / "o"))
        data[section] = value
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "base, field, value",
        [
            ("oracle", "run.tol", math.nan),
            ("oracle", "run.tol", 10**400),
            ("oracle", "space.p", True),
            ("oracle", "relation.slack_tol", True),
            ("unbounded", "schedule.t", True),
            ("unbounded", "schedule.a", True),
            ("unbounded", "schedule.b", False),
            ("ball", "body.radius", True),
            ("scale", "operator.scale", True),
            ("swap", "operator.factor", False),
            ("oracle", "body.hi", True),
        ],
        ids=lambda v: v if isinstance(v, str) else repr(v)[:8],
    )
    def test_float_field_rejects_nan_and_booleans(self, tmp_path, capsys, base, field, value):
        # each of these ran (as NaN, 1.0 or 0.0), or raised OverflowError,
        # before floats were checked
        out = str(tmp_path / "o")
        data = negative_swap_config(out) if base == "swap" else oracle_1d_config(out)
        data["run"]["max_iter"] = 2000
        if base == "unbounded":
            data["schedule"]["enforce_bounds"] = False
        elif base == "ball":
            data.update(body={"kind": "ball", "center": 0.5, "radius": 0.5},
                        operator={"kind": "identity"})
        elif base == "scale":
            data["operator"] = {"kind": "matrix_affine", "scale": 0.5, "offset": 0.25}
        set_field(data, field, value)
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{field} must be a number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value, entry",
        [
            ("body.hi", [True], "body.hi[0]"),
            ("start.value", [True], "start.value[0]"),
            ("schedule.values", [0.5, math.nan], "schedule.values[1]"),
            ("body.hi", [None], "body.hi[0]"),
        ],
        ids=["hi-true", "start-true", "values-nan", "hi-null"],
    )
    def test_list_entries_are_float_fields(self, tmp_path, capsys, field, value, entry):
        # each of these ran as 1.0, ran a NaN step to exit 2, or was blamed
        # on start.value, before the entries of a list were checked
        out = str(tmp_path / "o")
        data = oracle_1d_config(out)
        if field == "schedule.values":
            data["schedule"] = {"kind": "explicit", "values": value, "enforce_bounds": False}
        set_field(data, field, value)
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{entry} must be a number" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value, entry",
        [
            ("operator.matrix", [[True]], "operator.matrix entries must be numbers, got bool"),
            ("operator.matrix", [[math.nan]], "operator.matrix entries must be numbers, got NaN"),
            ("operator.matrix", [[math.inf]],
             "operator.matrix entries must be finite"),
            ("operator.matrix", [[None]], "operator.matrix entries must be numbers, got NoneType"),
            ("operator.matrix", [0.5], "operator.matrix must be a list of rows of numbers"),
            ("relation.generator_matrix", [[True]],
             "relation.generator_matrix entries must be numbers, got bool"),
            ("relation.generator_matrix", [[math.nan]],
             "relation.generator_matrix entries must be numbers, got NaN"),
            ("relation.generator_matrix", [[-math.inf]],
             "relation.generator_matrix entries must be finite"),
            ("operator.functions.knots_x", [False, 1.0],
             "operator.functions[0].knots_x[0] must be a number"),
            ("operator.functions.knots_y", [math.nan, 1.0],
             "operator.functions[0].knots_y[0] must be a number"),
            ("operator.functions.knots_y", [None, 1.0],
             "operator.functions[0].knots_y[0] must be a number"),
        ],
        ids=["matrix-true", "matrix-nan", "matrix-inf", "matrix-null", "matrix-no-rows",
             "generator-true", "generator-nan", "generator-inf",
             "knots_x-false", "knots_y-nan", "knots_y-null"],
    )
    def test_matrix_and_knots_entries_are_float_fields(self, tmp_path, capsys, field, value,
                                                       entry):
        # each of these exited 3, 0 or 2, or 1 without naming the field,
        # before matrices and knots were checked
        out = str(tmp_path / "o")
        data = oracle_1d_config(out)
        if field == "operator.matrix":
            data["operator"] = {"kind": "matrix_affine", "matrix": value, "offset": 0.25}
        elif field == "relation.generator_matrix":
            data["relation"] = {"kind": "custom", "generator_matrix": value}
        else:
            set_field(data, field, value)
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and entry in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["", "csv"], ids=["empty", "csv"])
    def test_formats_must_be_a_list(self, tmp_path, capsys, value):
        # "" ran and wrote only audits.json; "csv" was read as ['c', 's', 'v']
        data = oracle_1d_config(str(tmp_path / "o"))
        data["output"]["formats"] = value
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: output.formats must be a list")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_negative_seed_is_exit_one(self, tmp_path, capsys, command, where):
        data = oracle_1d_config(str(tmp_path / "o"))
        args = [command, "--config", write_config(tmp_path, data), "--quiet"]
        if command == "sweep":
            args += ["--axis", "schedule.t", "--values", "0.5"]
        if where == "flag":
            args += ["--seed", "-1"]
        else:
            data["seed"] = -1
            write_config(tmp_path, data)
        assert main(args) == 1
        assert capsys.readouterr().err.startswith("error: seed must be >= 0")
        assert not (tmp_path / "o").exists()

    def test_negative_seed_override_is_config_error(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig.from_dict(data), seed=-1, write=False)
        with pytest.raises(ConfigError):
            run_sweep(data, "schedule.t", [0.5], out_dir=tmp_path / "sw", seed=-1)
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize(
        "body",
        [
            {"kind": "box", "lo": -math.inf, "hi": 1.0},
            {"kind": "box", "lo": 0.0, "hi": math.inf},
            {"kind": "ball", "center": 0.5, "radius": math.inf},
            {"kind": "ball", "center": math.inf, "radius": 1.0},
        ],
        ids=["box-lo", "box-hi", "ball-radius", "ball-center"],
    )
    def test_unbounded_body_is_exit_one(self, tmp_path, capsys, body):
        # the box and the infinite radius ran to exit 0, writing bare
        # Infinity tokens; the infinite center was blamed on start.value
        data = oracle_1d_config(str(tmp_path / "o"))
        data["body"] = body
        if body["kind"] == "ball":
            data["operator"] = {"kind": "identity"}
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: body: ")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "field, value, entry, section",
        [
            ("run.tol", math.inf, "run.tol", None),
            ("relation.row", [math.inf], "relation.row[0]",
             {"relation": {"kind": "half_space", "row": [1.0]}}),
            ("operator.offset", math.inf, "operator.offset",
             {"operator": {"kind": "matrix_affine", "scale": 0.5, "offset": 0.0}}),
            ("operator.offset", [-math.inf], "operator.offset[0]",
             {"operator": {"kind": "matrix_affine", "scale": 0.5, "offset": 0.0}}),
        ],
        ids=["tol", "row", "offset", "offset-list"],
    )
    def test_infinite_float_field_is_exit_one(self, tmp_path, capsys, field, value, entry,
                                              section):
        # Python's JSON reader takes Infinity: run.tol ran to exit 2, the
        # half-space row to exit 0 and the offset to exit 3
        data = oracle_1d_config(str(tmp_path / "o"))
        data.update(section or {})
        set_field(data, field, value)
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"{entry} must be finite" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("max_iter", [2**60, 2e18, 1e19])
    def test_huge_max_iter_runs_to_tolerance(self, tmp_path, max_iter):
        # each raised ValueError out of main: a constant schedule's steps
        # were a view of max_iter entries
        data = oracle_1d_config(str(tmp_path / "o"))
        data["run"]["max_iter"] = max_iter
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 0
        report = json.loads((tmp_path / "o" / "audits.json").read_text())
        assert report["stop_reason"] == "tolerance_met"

    def test_enforced_unit_step_is_config_error(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        data["schedule"] = {"kind": "constant", "t": 1.0, "enforce_bounds": True}
        assert main(["run", "--config", write_config(tmp_path, data)]) == 1

    def test_byte_identical_outputs_for_same_seed(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        assert main(["run", "--config", path, "--out", str(tmp_path / "a"), "--quiet"]) == 0
        assert main(["run", "--config", path, "--out", str(tmp_path / "b"), "--quiet"]) == 0
        for name in ("trajectory.csv", "run.json", "audits.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_random_start_for_a_dense_map_falls_back_to_a_corner(self, tmp_path):
        # no draw near the fixed point or uniform in the box is comparable
        # with its image; the corner lo is (T(lo) >= lo)
        matrix = np.random.default_rng(9).uniform(0.0, 1.0, (16, 16))
        matrix *= 0.9 / max(matrix.sum(axis=0).max(), matrix.sum(axis=1).max())
        data = {
            "schema_version": 1,
            "seed": 1,
            "space": {"dimension": 16, "p": 1.5},
            "body": {"kind": "box", "lo": 0.0, "hi": 1.0},
            "relation": {"kind": "coordinatewise"},
            "operator": {"kind": "matrix_affine", "matrix": matrix.tolist(), "offset": 0.02},
            "start": {"kind": "random_comparable"},
            "schedule": {"kind": "constant", "t": 0.5},
            "run": {"max_iter": 2000, "tol": 1e-10, "record_stride": 1},
            "output": {"directory": str(tmp_path / "dense")},
        }
        config = ExperimentConfig.from_dict(data)
        space = build_space(config)
        rel = build_relation(config, space)
        operator = build_operator(config, space, build_body(config, space))
        x1 = build_start(config, operator, rel, np.random.default_rng([1, 1]))
        assert np.array_equal(x1, np.zeros(16))
        assert any(start_edges(rel, x1, operator._apply(x1)))
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 0

    def test_seed_override_changes_random_start(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        data["start"] = {"kind": "random_comparable"}
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path, "--out", str(tmp_path / "s1"), "--seed", "1", "--quiet"]) == 0
        assert main(["run", "--config", path, "--out", str(tmp_path / "s2"), "--seed", "2", "--quiet"]) == 0
        a = read_csv_rows(tmp_path / "s1" / "trajectory.csv")[0]["x_1"]
        b = read_csv_rows(tmp_path / "s2" / "trajectory.csv")[0]["x_1"]
        assert a != b

    def test_start_at_fixed_point_writes_standard_json(self, tmp_path):
        # a one-iterate run checks no Goebel-Kirk pair and no rate span
        data = oracle_1d_config(str(tmp_path / "fixed"))
        data["start"]["value"] = [1.0]
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path, "--quiet"]) == 0
        assert main(["audit", str(tmp_path / "fixed" / "run.json"), "--config", path,
                     "--out", str(tmp_path / "audit"), "--quiet"]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        for report_path in (tmp_path / "fixed" / "audits.json", tmp_path / "audit" / "audits.json"):
            report = json.loads(report_path.read_text(), parse_constant=reject)
            for name in ("gk_inequality", "rate"):
                entry = report["audits"][name]
                assert entry["trials"] == 0 and entry["records"] == []
                assert entry["detail"]["min_slack"] is None

    def test_rate_span_with_an_overflowing_weight_is_left_unchecked(self, tmp_path):
        # (1 - b)^{-50} = 1e350 exceeds the largest double: span 50 is listed,
        # not checked, and the run exits 0 instead of raising OverflowError
        data = oracle_1d_config(str(tmp_path / "o"))
        data["schedule"]["t"] = 0.9999999
        data["run"].update(tol=0, max_iter=300)
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 0
        rate = json.loads((tmp_path / "o" / "audits.json").read_text())["audits"]["rate"]
        assert rate["status"] == "pass" and rate["trials"] == 60
        assert [check["n"] for check in rate["records"]] == [1, 5, 10]
        assert rate["detail"]["spans"] == [1, 5, 10, 50]
        assert rate["detail"]["unchecked_spans"] == [50]


class TestCliAudit:
    def test_round_trip_on_own_output(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--quiet"]) == 0
        assert main(["audit", str(out / "run.json"), "--config", path, "--quiet"]) == 0
        assert main(["audit", str(out / "trajectory.csv"), "--config", path, "--quiet"]) == 0

    def test_report_does_not_depend_on_the_read_directory(self, tmp_path, oracle_cfg, monkeypatch):
        _, path = oracle_cfg
        assert main(["run", "--config", path, "--quiet"]) == 0
        absolute = tmp_path / "out" / "run.json"
        assert main(["audit", str(absolute), "--config", path, "--out", str(tmp_path / "abs"),
                     "--quiet"]) == 0
        monkeypatch.chdir(tmp_path / "out")
        assert main(["audit", "run.json", "--config", path, "--out", str(tmp_path / "rel"),
                     "--quiet"]) == 0
        written = (tmp_path / "abs" / "audits.json").read_bytes()
        assert written == (tmp_path / "rel" / "audits.json").read_bytes()
        assert json.loads(written)["source"] == "run.json"

    def test_tampered_iterate_detected(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        out = tmp_path / "out"
        main(["run", "--config", path, "--quiet"])
        rows = (out / "trajectory.csv").read_text().splitlines()
        cells = rows[20].split(",")
        cells[1] = repr(float(cells[1]) + 1e-6)
        rows[20] = ",".join(cells)
        tampered = tmp_path / "tampered.csv"
        tampered.write_text("\n".join(rows) + "\n")
        assert main(["audit", str(tampered), "--config", path, "--quiet"]) == 2

    def test_missing_residual_column_is_schema_error(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        broken = tmp_path / "broken.csv"
        broken.write_text("n,x_1,t_n\n1,0.0,0.5\n2,0.25,\n")
        assert main(["audit", str(broken), "--config", path, "--quiet"]) == 1

    def test_non_numeric_csv_cell_is_schema_error(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        broken = tmp_path / "broken.csv"
        broken.write_text("n,x_1,residual,t_n\n1,zero,0.5,0.5\n2,0.25,0.375,\n")
        assert main(["audit", str(broken), "--config", path, "--quiet"]) == 1

    def test_decimated_run_audits_from_json_only(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "dec"))
        data["run"]["record_stride"] = 7
        path = write_config(tmp_path, data)
        assert main(["run", "--config", path, "--quiet"]) == 0
        assert main(["audit", str(tmp_path / "dec" / "run.json"), "--config", path, "--quiet"]) == 0
        # the per-iterate CSV is decimated and cannot be replayed on its own
        assert main(["audit", str(tmp_path / "dec" / "trajectory.csv"), "--config", path, "--quiet"]) == 1

    def test_inconsistent_records_are_schema_errors(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--quiet"]) == 0
        record = json.loads((out / "run.json").read_text())
        traj = record["trajectory"]
        n = len(traj["residuals"])

        def audit(name, **changes):
            bad = json.loads(json.dumps(record))
            bad["trajectory"].update(changes)
            target = tmp_path / f"{name}.json"
            target.write_text(json.dumps(bad))
            return main(["audit", str(target), "--config", path, "--quiet"])

        # a copy of x_N appended as an extra row
        assert audit("extra_row", iterates=traj["iterates"] + traj["iterates"][-1:]) == 1
        # full history, but indices claiming a record of x_1 and x_N only
        assert audit("two_indices", iterate_indices=[1, n]) == 1
        # an index list that stops short of the rows
        assert audit("truncated", iterate_indices=traj["iterate_indices"][:-2] + [n]) == 1
        assert audit("unordered", iterate_indices=[1, 3, 2] + traj["iterate_indices"][3:]) == 1
        assert audit("short_schedule", schedule_used=traj["schedule_used"][:-1]) == 1

    @pytest.mark.parametrize("case", ["fractional_index", "boolean_index", "string_flag"])
    def test_malformed_record_values_exit_one(self, tmp_path, oracle_cfg, capsys, case):
        # int() would read 2.5 as 2 and true as 1, and any nonempty string is
        # truthy; each is rejected as the config reader rejects them
        _, path = oracle_cfg
        assert main(["run", "--config", path, "--quiet"]) == 0
        record = json.loads((tmp_path / "out" / "run.json").read_text())
        traj = record["trajectory"]
        indices = traj["iterate_indices"]
        if case == "fractional_index":
            traj["iterate_indices"] = [1] + [k + 0.5 for k in indices[1:-1]] + indices[-1:]
        elif case == "boolean_index":
            traj["iterate_indices"] = [True] + indices[1:]
        else:
            traj["start_edge_forward"] = "yes"
        target = tmp_path / "bad.json"
        target.write_text(json.dumps(record))
        capsys.readouterr()
        assert main(["audit", str(target), "--config", path, "--quiet"]) == 1
        assert capsys.readouterr().err.startswith("error: malformed trajectory record")


class TestCliSweep:
    def test_step_size_sweep_all_pass(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        values = "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
        code = main(
            ["sweep", "--config", path, "--axis", "schedule.t",
             "--values", values, "--out", str(tmp_path / "sw"), "--quiet"]
        )
        assert code == 0
        rows = read_csv_rows(tmp_path / "sw" / "sweep_summary.csv")
        assert len(rows) == 9
        assert all(row["all_audits_pass"] == "true" for row in rows)
        assert [float(r["value"]) for r in rows] == pytest.approx(np.arange(0.1, 1.0, 0.1))

    def test_dimension_sweep_row_count(self, tmp_path):
        data = {
            "schema_version": 1,
            "seed": 11,
            "space": {"dimension": 2, "p": 2.0},
            "body": {"kind": "box", "lo": 0.0, "hi": 1.0},
            "relation": {"kind": "coordinatewise"},
            "operator": {
                "kind": "componentwise",
                "functions": {"knots_x": [0.0, 1.0], "knots_y": [0.5, 1.0]},
            },
            "start": {"kind": "random_comparable"},
            "schedule": {"kind": "constant", "t": 0.5},
            "output": {"directory": str(tmp_path / "o")},
        }
        path = write_config(tmp_path, data)
        code = main(
            ["sweep", "--config", path, "--axis", "space.dimension",
             "--values", "2,4,8", "--out", str(tmp_path / "sw"), "--quiet"]
        )
        assert code == 0
        assert len(read_csv_rows(tmp_path / "sw" / "sweep_summary.csv")) == 3

    def test_fractional_integer_value_exit_one(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        out = tmp_path / "sw"
        args = ["sweep", "--config", path, "--axis", "run.record_stride", "--values", "1.5"]
        assert main(args + ["--out", str(out), "--quiet"]) == 1
        assert not out.exists()

    def test_empty_values_exit_one(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        assert main(["sweep", "--config", path, "--axis", "schedule.t", "--values", "", "--quiet"]) == 1

    def test_unknown_axis_exit_one(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        assert main(["sweep", "--config", path, "--axis", "does.not.exist", "--values", "0.5", "--quiet"]) == 1

    def test_missing_config_is_read_as_run_reads_it(self, tmp_path, capsys):
        # printed "i/o error: [Errno 2] ..." where run printed this
        args = ["--config", str(tmp_path / "missing.json"), "--quiet"]
        assert main(["sweep", *args, "--axis", "schedule.t", "--values", "0.5"]) == 1
        assert capsys.readouterr().err.startswith("error: cannot read config ")

    def test_malformed_json_exit_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["sweep", "--config", str(bad), "--axis", "schedule.t", "--values", "0.5", "--quiet"]) == 1

    def test_non_numeric_values_exit_one(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        assert main(["sweep", "--config", path, "--axis", "schedule.t", "--values", "a,b", "--quiet"]) == 1

    def test_concurrent_sweep_outputs_are_deterministic(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        args = ["sweep", "--config", path, "--axis", "schedule.t", "--values", "0.2,0.4,0.6", "--quiet"]
        assert main(args + ["--out", str(tmp_path / "A")]) == 0
        assert main(args + ["--out", str(tmp_path / "B")]) == 0
        a_files = sorted(p for p in (tmp_path / "A").rglob("*") if p.is_file())
        b_files = sorted(p for p in (tmp_path / "B").rglob("*") if p.is_file())
        assert [p.name for p in a_files] == [p.name for p in b_files]
        for pa, pb in zip(a_files, b_files):
            assert pa.read_bytes() == pb.read_bytes()


    @pytest.mark.parametrize(
        "axis, values, first, error",
        [
            ("schedule.t", "0.5,1.5", "schedule_t=0.5", "error: schedule: "),
            ("body.hi", "1,-1", "body_hi=1", "error: body: "),
            ("start.value", "0.5,2", "start_value=0.5", "error: start: "),
        ],
        ids=["schedule", "body", "start"],
    )
    def test_value_a_builder_rejects_exits_one_before_any_run(self, tmp_path, capsys, axis,
                                                              values, first, error):
        # the first value's run wrote its directory before the second value
        # failed in its builder, and no summary was written
        data = oracle_1d_config(str(tmp_path / "o"))
        data["start"]["value"] = 0.0
        out = tmp_path / "sw"
        args = ["sweep", "--config", write_config(tmp_path, data), "--axis", axis,
                "--values", values, "--out", str(out), "--quiet"]
        assert main(args) == 1
        assert capsys.readouterr().err.startswith(error)
        assert not (out / first).exists() and not (out / "sweep_summary.csv").exists()
        assert not out.exists()

    @pytest.mark.parametrize(
        "axis, values, builds",
        [
            ("schedule.t", [0.3, 0.5, 0.7, 0.9], 1),
            ("run.tol", [1e-10, 1e-12], 1),
            ("relation.slack_tol", [1e-12, 1e-9], 1),
            ("seed", [1, 2], 1),
            ("operator.offset", [0.0, 0.1, 0.2, 0.25], 4),
            ("body.hi", [1.0, 2.0], 2),
            ("space.dimension", [1, 3], 2),
        ],
    )
    def test_sweep_builds_what_its_axis_reaches(self, tmp_path, monkeypatch, axis, values,
                                                builds):
        # each run reads the objects built once as if it had built its own:
        # every file equals that of a run of the value's config alone
        data = oracle_1d_config(str(tmp_path / "o"))
        data["relation"]["slack_tol"] = 1e-12
        data["operator"] = {"kind": "matrix_affine", "scale": 0.5, "offset": 0.25}
        data["start"] = {"kind": "random_comparable"}
        calls = []
        build = experiment.build_operator

        def counted(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(experiment, "build_operator", counted)
        code, rows = run_sweep(data, axis, values, out_dir=tmp_path / "sw")
        assert code == 0 and len(rows) == len(values)
        assert len(calls) == builds
        for value in values:
            name = f"{axis.replace('.', '_')}={value:g}"
            config = ExperimentConfig.from_dict(set_config_value(data, axis, value))
            run_experiment(config, out_dir=tmp_path / "alone" / name)
            for path in sorted((tmp_path / "alone" / name).iterdir()):
                assert path.read_bytes() == (tmp_path / "sw" / name / path.name).read_bytes()

    @pytest.mark.parametrize("values", ["0.3000001,0.3000002", "0.5,0.5", "0.2,0.4,0.2"])
    def test_values_sharing_a_directory_exit_one(self, tmp_path, oracle_cfg, values):
        _, path = oracle_cfg
        out = tmp_path / "sw"
        args = ["sweep", "--config", path, "--axis", "schedule.t", "--values", values]
        assert main(args + ["--out", str(out), "--quiet"]) == 1
        assert not out.exists()


class TestRunAudits:
    @pytest.mark.parametrize("stride", [1, 3, 40])
    @pytest.mark.parametrize("make", [oracle_1d_config, negative_swap_config, t_one_config])
    def test_audits_equal_a_replay_of_the_written_record(self, tmp_path, make, stride):
        data = make(str(tmp_path / "out"))
        data.setdefault("run", {})["record_stride"] = stride
        config = ExperimentConfig.from_dict(data)
        result = run_experiment(config)
        record = json.loads((tmp_path / "out" / "run.json").read_text())["trajectory"]
        traj = trajectory_from_dict(record)
        space = build_space(config)
        body = build_body(config, space)
        replayed = run_audits(
            config.audits,
            traj,
            build_operator(config, space, body),
            build_relation(config, space),
            space,
            build_schedule(config),
            diam=diameter(space, body),
            seed=config.seed,
        )
        assert replayed == result.audits
        assert np.array_equal(traj.iterate_indices, result.trajectory.iterate_indices)

    @pytest.mark.parametrize("make", [oracle_1d_config, negative_swap_config, t_one_config])
    def test_entries_share_one_key_order(self, tmp_path, make):
        data = make(str(tmp_path / "out"))
        assert data["audits"] == list(ALL_AUDITS)
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
        head = ["property", "status", "trials", "failures", "witness"]
        for entry in result.audits.values():
            keys = list(entry)
            assert keys[:5] == head
            assert keys[5:] in ([], ["detail"], ["records"], ["detail", "records"])


class TestCliReport:
    def test_renders_audit_table(self, tmp_path, oracle_cfg, capsys):
        _, path = oracle_cfg
        main(["run", "--config", path, "--quiet"])
        assert main(["report", str(tmp_path / "out" / "audits.json")]) == 0
        out = capsys.readouterr().out
        for name in ("trajectory", "edge_propagation", "fejer", "convergence"):
            assert name in out
        assert "pass" in out

    def test_renders_run_record(self, tmp_path, oracle_cfg, capsys):
        _, path = oracle_cfg
        main(["run", "--config", path, "--quiet"])
        assert main(["report", str(tmp_path / "out" / "run.json")]) == 0
        assert "tolerance_met" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2, 3]",
            '{"audits": []}',
            '{"audits": {"x": {}}}',
            '{"audits": {"x": 3}}',
            '{"trajectory": []}',
            '{"trajectory": {"residuals": "abc"}}',
        ],
    )
    def test_garbage_input_exit_one(self, tmp_path, capsys, text):
        path = tmp_path / "junk.json"
        path.write_text(text)
        assert main(["report", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


class TestNegativeCorpusConfigs:
    def test_swap_config_reports_failure_with_witness(self, tmp_path):
        data = negative_swap_config(str(tmp_path / "out_swap"))
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 2
        report = json.loads((tmp_path / "out_swap" / "audits.json").read_text())
        entry = report["audits"]["edge_propagation"]
        assert entry["status"] == "fail"
        assert entry["witness"] is not None

    def test_unit_step_schedule_flags_hypotheses(self, tmp_path):
        data = t_one_config(str(tmp_path / "out_t1"))
        assert main(["run", "--config", write_config(tmp_path, data), "--quiet"]) == 3
        report = json.loads((tmp_path / "out_t1" / "audits.json").read_text())
        statuses = [e["status"] for e in report["audits"].values()]
        assert "hypothesis_not_met" in statuses
        assert "fail" not in statuses


class TestCliUsage:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "demo.json", "--seed", "2.5"], "invalid int value: '2.5'"),
            (["run"], "the following arguments are required: --config"),
            ([], "the following arguments are required: command"),
            (["bogus"], "invalid choice: 'bogus'"),
            (["run", "--config", "demo.json", "--bogus"], "unrecognized arguments: --bogus"),
        ],
        ids=["fractional_seed", "missing_config", "no_subcommand", "unknown_subcommand",
             "unknown_flag"],
    )
    def test_usage_error_is_exit_one(self, capsys, argv, message):
        # 2 is reserved for an audit failure
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: graphmann")
        assert message in err

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]])
    def test_help_is_exit_zero(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: graphmann")


def test_load_config_from_file(tmp_path):
    data = oracle_1d_config(str(tmp_path / "o"))
    path = write_config(tmp_path, data)
    config = load_config(path)
    assert config.space.dimension == 1
    assert config.schedule.t == 0.5


def test_save_config_round_trips(tmp_path):
    config = ExperimentConfig.from_dict(oracle_1d_config(str(tmp_path / "o")))
    path = tmp_path / "saved.json"
    write_json(config.to_dict(), path)
    assert load_config(path) == config


def test_gk_records_csv_writer(tmp_path):
    records = [
        {"i": 1, "n": 1, "lhs": 0.75, "rhs": 0.875, "slack": 0.125},
        {"i": 2, "n": 3, "lhs": 0.5, "rhs": 1.0, "slack": 0.5},
    ]
    path = tmp_path / "gk.csv"
    write_gk_records_csv(records, path)
    rows = read_csv_rows(path)
    assert len(rows) == 2
    assert float(rows[0]["slack"]) == 0.125
    assert rows[1]["n"] == "3"

import csv
import json

import numpy as np
import pytest

from graphmann.cli import main
from graphmann.config import (
    ExperimentConfig,
    build_body,
    build_operator,
    build_relation,
    build_schedule,
    build_space,
    build_start,
    load_config,
    save_config,
)
from graphmann.corpus import negative_swap_config, oracle_1d_config, t_one_config
from graphmann.diagnostics import ALL_AUDITS, run_audits, write_gk_records_csv
from graphmann.errors import ConfigError
from graphmann.experiment import run_experiment, set_config_value
from graphmann.mann import trajectory_from_dict
from graphmann.normed_space import diameter
from graphmann.order_graph import undirected_contains


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


class TestConfigParsing:
    def test_round_trip(self):
        data = oracle_1d_config()
        config = ExperimentConfig.from_dict(data)
        assert ExperimentConfig.from_dict(config.to_dict()) == config

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

    def test_non_numeric_field_is_config_error(self):
        data = oracle_1d_config()
        data["space"]["dimension"] = "two"
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(data)

    def test_infinity_norm_spelled_inf(self, tmp_path):
        data = oracle_1d_config(str(tmp_path / "o"))
        data["space"]["p"] = "inf"
        result = run_experiment(ExperimentConfig.from_dict(data), write=False)
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
        assert undirected_contains(rel, x1, operator._apply(x1))
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

    def test_empty_values_exit_one(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        assert main(["sweep", "--config", path, "--axis", "schedule.t", "--values", "", "--quiet"]) == 1

    def test_unknown_axis_exit_one(self, tmp_path, oracle_cfg):
        _, path = oracle_cfg
        assert main(["sweep", "--config", path, "--axis", "does.not.exist", "--values", "0.5", "--quiet"]) == 1

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

    def test_garbage_input_exit_one(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("[1, 2, 3]")
        assert main(["report", str(path)]) == 1


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


def test_load_config_from_file(tmp_path):
    data = oracle_1d_config(str(tmp_path / "o"))
    path = write_config(tmp_path, data)
    config = load_config(path)
    assert config.space.dimension == 1
    assert config.schedule.t == 0.5


def test_save_config_round_trips(tmp_path):
    config = ExperimentConfig.from_dict(oracle_1d_config(str(tmp_path / "o")))
    path = tmp_path / "saved.json"
    save_config(config, path)
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

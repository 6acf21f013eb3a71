"""End-to-end command-line behavior: exit codes, file layout, determinism.

All runs here use deliberately tiny resolutions so the whole module stays
fast; physical accuracy at these settings is checked elsewhere.
"""
import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import signal
import warnings

import numpy as np
import pytest

from lagflow import analysis as ana
from lagflow import cli, flow, runio
from lagflow.cli import ConfigError, build_parser, main, resolve_config
from lagflow.flow import (
    DIAGNOSTIC_COLUMNS,
    FlowConfig,
    RecordingConfig,
    SingularityReport,
    StopConditions,
)
from lagflow.geometry import PlaneCurve
from lagflow.runio import load_trajectory, read_snapshot, write_json, write_snapshot
from lagflow.scenarios import MAX_RESOLUTION, SCENARIOS, circle_curve, ellipse_curve


def write_config(path, **overrides):
    doc = {
        "scenario": {"name": "circle", "params": {"rho": 1.0}},
        "resolution": 64,
    }
    doc.update(overrides)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.fixture(scope="module")
def circle_run(tmp_path_factory, capsysbinary=None):
    """One tiny full collapse (rho = 1, lifespan 1/4), reused read-only."""
    root = tmp_path_factory.mktemp("runs")
    cfg = write_config(root / "config.json")
    code = main(["run", "--config", cfg, "--out", str(root)])
    assert code == 2
    (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
    return run_dir


def load_manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


def drop_records(run_dir):
    """Make ``run_dir`` a run from before records.npy: the file, its hash
    and the manifest's ``closed`` are gone."""
    manifest = load_manifest(run_dir)
    del manifest["files"][runio.RECORDS_FILE], manifest["closed"]
    write_json(os.path.join(run_dir, "manifest.json"), manifest)
    os.remove(os.path.join(run_dir, runio.RECORDS_FILE))


@contextlib.contextmanager
def hang_guard(seconds=5):
    """Fail the test, instead of hanging the suite, when the block is still
    running after ``seconds``: a read that waits on a FIFO for a writer,
    or hashes a device that never ends, is interrupted."""

    def hung(signum, frame):
        pytest.fail(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestScenariosList:
    def test_table_contents(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("circle", "ellipse", "cassini", "slag_cone", "x_cone", "custom"):
            assert name in out
        assert "semi-minor fixed at 2" in out
        assert "pinches before c/2" in out
        assert "rho^2/4" in out
        assert "analysis fixture, stationary" in out


class TestConfigValidation:
    def test_missing_file(self, capsys):
        assert main(["run", "--config", "/nonexistent/nowhere.json"]) == 1
        assert "not found" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        p = tmp_path / "broken.json"
        p.write_text('{"scenario": ')
        assert main(["run", "--config", str(p)]) == 1
        assert "line" in capsys.readouterr().err

    def test_unknown_flow_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", flow={"bogus": 1})
        assert main(["run", "--config", cfg]) == 1
        assert "flow.bogus" in capsys.readouterr().err

    def test_wrong_type(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", flow={"scheme": 1})
        assert main(["run", "--config", cfg]) == 1
        assert "flow.scheme" in capsys.readouterr().err

    def test_unknown_scenario_param(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json")
        with open(cfg) as fh:
            doc = json.load(fh)
        doc["scenario"]["params"]["a"] = 3.0
        with open(cfg, "w") as fh:
            json.dump(doc, fh)
        assert main(["run", "--config", cfg]) == 1
        assert "scenario.params.a" in capsys.readouterr().err

    def test_unknown_top_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", verbosity=3)
        assert main(["run", "--config", cfg]) == 1
        assert "verbosity" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,field",
        [
            (section, f)
            for section, cls in (
                ("flow", FlowConfig),
                ("stop", StopConditions),
                ("recording", RecordingConfig),
            )
            for f in dataclasses.fields(cls)
        ],
        ids=lambda v: v if isinstance(v, str) else v.name,
    )
    def test_section_schema(self, section, field):
        # every config field accepts its default and names itself when
        # given a value of the wrong type
        base = {"scenario": {"name": "circle", "params": {}}}
        resolved = resolve_config({**base, section: {field.name: field.default}})
        assert resolved[section][field.name] == field.default
        wrong = 1 if isinstance(field.default, str) else "x"
        with pytest.raises(ConfigError, match=f"'{section}.{field.name}'"):
            resolve_config({**base, section: {field.name: wrong}})

    # 0 is a value, not "unset": it must not fall back to the automatic
    # grid; inf would record every step and nan no grid point at all
    @pytest.mark.parametrize("snapshot_dt", [0.0, math.inf, math.nan])
    def test_zero_snapshot_dt_rejected(self, tmp_path, capsys, snapshot_dt):
        cfg = write_config(tmp_path / "c.json", recording={"snapshot_dt": snapshot_dt})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert "snapshot_dt must be positive" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_t_end_at_start_named_with_automatic_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", stop={"t_end": 0.0})
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert "stop.t_end" in err
        assert "snapshot_dt" not in err

    def test_t_end_before_start_rejected_with_explicit_interval(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", stop={"t_end": -0.5}, recording={"snapshot_dt": 0.1})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert "stop.t_end -0.5 is not after the start time 0" in err
        assert not (tmp_path / "runs").exists()

    def test_infinite_t_end_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", stop={"t_end": math.inf})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert "stop.t_end inf is not a finite time" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # a record interval below the floor DT_MIN would cut every step below it
    def test_record_interval_below_step_floor_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", recording={"snapshot_dt": 1e-16})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert "snapshot_dt 1e-16 is below the step floor 1e-14" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # a grid of 2.5e9 records up to c/2 would record every step until the
    # step budget ran out
    def test_record_grid_over_step_budget_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", recording={"snapshot_dt": 1e-10})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert "snapshot_dt 1e-10 puts more than the step budget 2000000" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    # the retired step rules' out-of-range values are still refused before
    # any run directory is written, now as unknown keys
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("max_steps", 0, "unknown key 'flow.max_steps'"),
            ("scheme", "rk4", "bad config: scheme must be"),
            ("dt_min", math.nan, "unknown key 'flow.dt_min'"),
            ("dt_min", math.inf, "unknown key 'flow.dt_min'"),
        ],
        ids=["max_steps-0", "scheme-rk4", "dt_min-nan", "dt_min-inf"],
    )
    def test_flow_range_rejected(self, tmp_path, capsys, field, value, message):
        cfg = write_config(tmp_path / "c.json", flow={field: value})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize(
        "section, entry, message",
        [
            ("flow", {"redistribute_every": 10}, "unknown key 'flow.redistribute_every'"),
            ("flow", {"redistribute": False}, "unknown key 'flow.redistribute'"),
            # retired knobs whose defaults are now module constants
            ("flow", {"origin_contact_factor": 0.005}, "unknown key 'flow.origin_contact_factor'"),
            ("flow", {"curvature_blowup_product": 1.0}, "unknown key 'flow.curvature_blowup_product'"),
            ("flow", {"enforce_antipodal": True}, "unknown key 'flow.enforce_antipodal'"),
            # the former defaults of the retired step rules
            ("flow", {"safety": 0.2}, "unknown key 'flow.safety'"),
            ("flow", {"dt_min": 1e-14}, "unknown key 'flow.dt_min'"),
            ("flow", {"max_steps": 2_000_000}, "unknown key 'flow.max_steps'"),
            ("recording", {"area_switch": 0.25}, "unknown key 'recording.area_switch'"),
            ("recording", {"tail_factor": 0.95}, "unknown key 'recording.tail_factor'"),
        ],
        ids=[
            "old_cadence_key",
            "redistribute",
            "origin_contact_factor",
            "curvature_blowup_product",
            "enforce_antipodal",
            "safety",
            "dt_min",
            "max_steps",
            "area_switch",
            "tail_factor",
        ],
    )
    def test_section_key_checked(self, tmp_path, capsys, section, entry, message):
        cfg = write_config(tmp_path / "c.json", **{section: entry})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "runs")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_readme_table_lists_resolved_keys(self):
        # the README config table names exactly the keys resolve_config
        # fills in, so a knob cannot be added or dropped without its row
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        table = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for line in table.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        resolved = resolve_config({"scenario": {"name": "circle", "params": {}}})
        materialized = set()
        for key, value in resolved.items():
            if isinstance(value, dict):
                materialized.update(f"{key}.{sub}" for sub in value)
            else:
                materialized.add(key)
        assert documented == materialized

    def test_readme_table_lists_scenarios_and_their_params(self):
        # the scenario.name row names exactly SCENARIOS, and the
        # scenario.params row each scenario's parameters, so a scenario
        # cannot land undocumented
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        table = text.split("## Config schema", 1)[1].split("\n## ", 1)[0]
        rows = {}
        for line in table.splitlines():
            if line.startswith("| `scenario."):
                cells = line.split("|")
                rows[cells[1].strip(" `")] = re.findall(r"`([^`]+)`", cells[3])
        assert set(rows["scenario.name"]) == set(SCENARIOS)
        documented = {}
        for entry in rows["scenario.params"]:
            name, params = entry.split(":")
            documented[name] = {p.strip() for p in params.split(",") if p.strip()}
        assert documented == {name: set(sc.params) for name, sc in SCENARIOS.items()}

    def test_readme_table_lists_analyze_options(self):
        # the README analyze table names exactly the options of the
        # analyze parser, so a flag cannot be added or dropped without its row
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            text = fh.read()
        table = text.split("## Analyze options", 1)[1].split("\n## ", 1)[0]
        documented = set()
        for line in table.splitlines():
            if line.startswith("| `"):
                documented.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        (subparsers,) = [a for a in build_parser()._actions if a.dest == "command"]
        analyze = subparsers.choices["analyze"]
        options = {o for a in analyze._actions for o in a.option_strings} - {"-h", "--help"}
        assert documented == options

    def test_normalize_open_curve_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "x_cone", "params": {}},
            normalize=True,
        )
        assert main(["run", "--config", cfg]) == 1
        assert "bad config" in capsys.readouterr().err


class TestRunOutputs:
    def test_exit_code_and_layout(self, circle_run):
        manifest = load_manifest(circle_run)
        assert manifest["exit_status"] == 2
        sing = manifest["singularity"]
        assert sing["detected"] is True
        assert sing["trigger"] == "origin_contact"
        # exact lifespan rho^2/4 = 0.25 up to the coarse-grid overshoot
        assert 0.24 < sing["t_low"] <= sing["t_high"] < 0.26
        assert os.path.exists(os.path.join(circle_run, "diagnostics.csv"))
        assert os.path.exists(os.path.join(circle_run, "curve.svg"))
        snaps = sorted(os.listdir(os.path.join(circle_run, "snapshots")))
        assert len(snaps) >= 3
        assert snaps[0] == "snapshot_000000.json"

    def test_singularity_block_has_every_report_field(self, circle_run):
        sing = load_manifest(circle_run)["singularity"]
        assert set(sing) == {f.name for f in dataclasses.fields(SingularityReport)}
        assert len(sing["singular_point"]) == 2
        assert sing["max_curvature_at_stop"] > 0.0

    def test_json_writer_layout(self, tmp_path):
        # sorted keys, indent 2, numpy values as plain JSON, nan/inf as null
        path = tmp_path / "doc.json"
        write_json(str(path), {"b": [np.float64("nan"), np.array([1.5, np.inf])], "a": np.int64(3)})
        assert path.read_text() == (
            '{\n  "a": 3,\n  "b": [\n    null,\n    [\n      1.5,\n      null\n    ]\n  ]\n}\n'
        )

    def test_manifest_echoes_scenario_and_config(self, circle_run):
        manifest = load_manifest(circle_run)
        assert manifest["scenario"]["name"] == "circle"
        assert manifest["config"]["resolution"] == 64
        assert manifest["config"]["flow"]["scheme"] == "euler"
        assert manifest["normalize_factor"] == 1.0
        assert manifest["initial_constant"] == pytest.approx(0.5, rel=1e-4)

    def test_acceptance_summary(self, circle_run):
        acc = load_manifest(circle_run)["acceptance"]
        assert acc["area_law"]["passed"] is True
        assert acc["monotone_defect"]["passed"] is True

    def test_diagnostics_columns(self, circle_run):
        with open(os.path.join(circle_run, "diagnostics.csv")) as fh:
            header = fh.readline().strip().split(",")
        assert tuple(header) == DIAGNOSTIC_COLUMNS
        assert len(header) == 11

    def test_snapshot_roundtrip_precision(self, circle_run, tmp_path):
        path = os.path.join(circle_run, "snapshots", "snapshot_000000.json")
        curve, t = read_snapshot(path)
        assert t == 0.0
        assert curve.closed
        # repr-level serialization: write-read must be bit-exact
        again = tmp_path / "snap.json"
        write_snapshot(str(again), curve, t)
        curve2, _ = read_snapshot(str(again))
        assert np.array_equal(curve.points, curve2.points)

    def test_run_is_deterministic(self, circle_run, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "other")]) == 2
        (other,) = [p for p in (tmp_path / "other").iterdir() if p.is_dir()]
        assert other.name == circle_run.name  # config-hash run id
        a = load_manifest(circle_run)["files"]
        b = load_manifest(other)["files"]
        assert a == b

    def test_env_var_sets_output_root(self, tmp_path, monkeypatch):
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "x_cone", "params": {}},
            stop={"t_end": 0.01},
        )
        monkeypatch.setenv("LAGFLOW_RUNS", str(tmp_path / "env_runs"))
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "env_runs").is_dir()
        assert any((tmp_path / "env_runs").iterdir())


class TestCassiniRun:
    def test_pinches_before_critical_time(self, tmp_path):
        # the normalized cassini oval (c = 1) closes its neck on the origin
        # near t = 0.416, well before the critical time c/2 = 0.5
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "cassini", "params": {"b": 1.05}},
            resolution=256,
            normalize=True,
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        sing = load_manifest(run_dir)["singularity"]
        assert sing["trigger"] == "origin_contact"
        assert sing["singular_point"] == [0.0, 0.0]
        assert sing["t_high"] < 0.45


class TestStationaryRun:
    def test_cone_is_stationary(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "slag_cone", "params": {"phi": 0.3}},
            stop={"t_end": 0.01},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        manifest = load_manifest(run_dir)
        assert manifest["singularity"]["detected"] is False
        acc = manifest["acceptance"]
        assert acc["stationary_displacement"]["passed"] is True
        assert acc["stationary_displacement"]["value"] < 1e-10


class TestCustomScenario:
    def test_roundtrip(self, tmp_path):
        u = 2 * np.pi * np.arange(48) / 48
        pts = np.column_stack([2.5 * np.cos(u), 1.5 * np.sin(u)])
        snap = tmp_path / "seed.json"
        write_snapshot(str(snap), PlaneCurve(pts), 0.0)
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "custom", "params": {"path": str(snap)}},
            stop={"t_end": 0.005},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        manifest = load_manifest(run_dir)
        # the seed is resampled onto the requested resolution
        first, t0 = read_snapshot(os.path.join(run_dir, "snapshots", "snapshot_000000.json"))
        assert first.node_count == 64
        assert t0 == 0.0

    def test_degenerate_snapshot_is_bad_config(self, tmp_path, capsys):
        # two nodes 1e-14 apart: the initial curve cannot be differentiated
        u = 2 * np.pi * np.arange(64) / 64
        pts = np.column_stack([np.cos(u), np.sin(u)])
        pts[1] = pts[0] + np.array([0.0, 1e-14])
        snap = tmp_path / "seed.json"
        write_snapshot(str(snap), PlaneCurve(pts), 0.0)
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "custom", "params": {"path": str(snap)}},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad config:")
        assert "node spacing" in err

    def test_curve_check_failing_in_the_loop_exits_3(self, tmp_path):
        # a node on the origin passes make_state (c is just undefined) but
        # fails the velocity's origin guard on the first step
        u = 2 * np.pi * np.arange(64) / 64
        pts = np.column_stack([1.0 + np.cos(u), np.sin(u)])
        snap = tmp_path / "seed.json"
        write_snapshot(str(snap), PlaneCurve(pts), 0.0)
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "custom", "params": {"path": str(snap)}},
            stop={"t_end": 0.01},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        manifest = load_manifest(run_dir)
        assert manifest["exit_status"] == 3
        assert manifest["error"].startswith("OriginContactError at t=0:")

    def test_step_underflow_without_bracket_exits_3(self, tmp_path, monkeypatch):
        # the very first stable step is below the floor: there are no
        # records to bracket a singular time from; the record interval must
        # stay above the floor
        monkeypatch.setattr(flow, "DT_MIN", 1.0)
        cfg = write_config(tmp_path / "c.json", recording={"snapshot_dt": 10.0})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 3
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        manifest = load_manifest(run_dir)
        assert manifest["exit_status"] == 3
        assert "below floor" in manifest["error"]
        assert "no singular-time bracket" in manifest["error"]

    def test_rerun_replaces_the_previous_records(self, tmp_path):
        # the run id hashes the config, not the snapshot file it names: a
        # rerun after the file changed writes into the same directory and
        # must leave only its own records there
        snap = tmp_path / "seed.json"
        write_snapshot(str(snap), circle_curve(64, rho=1.0), 0.0)
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "custom", "params": {"path": str(snap)}},
        )
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        first = len(os.listdir(run_dir / "snapshots"))
        assert main(["analyze", str(run_dir), "density"]) == 0
        write_snapshot(str(snap), ellipse_curve(64, a=3.0), 0.0)
        assert main(argv) == 2
        assert [p.name for p in (tmp_path / "r").iterdir()] == [run_dir.name]
        on_disk = {
            os.path.relpath(os.path.join(root, f), run_dir)
            for root, _, names in os.walk(run_dir)
            for f in names
        }
        assert on_disk - {"manifest.json"} == set(load_manifest(run_dir)["files"])
        assert len(os.listdir(run_dir / "snapshots")) != first
        traj = load_trajectory(str(run_dir))
        assert np.array_equal([s.t for s in traj.states], traj.diagnostics["t"])

    def test_lost_rerun_leaves_no_earlier_output(self, tmp_path):
        # a rerun that loses the curve lists no files, and none are left
        snap = tmp_path / "seed.json"
        write_snapshot(str(snap), circle_curve(64, rho=1.0), 0.0)
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "custom", "params": {"path": str(snap)}},
            stop={"t_end": 0.01},
        )
        argv = ["run", "--config", cfg, "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        u = 2 * np.pi * np.arange(64) / 64
        write_snapshot(str(snap), PlaneCurve(np.column_stack([1.0 + np.cos(u), np.sin(u)])), 0.0)
        assert main(argv) == 3
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        assert sorted(os.listdir(run_dir)) == ["manifest.json", "snapshots"]
        assert os.listdir(run_dir / "snapshots") == []

    @pytest.mark.parametrize("rho", [1e80, 1e103])
    def test_curve_beyond_coordinate_scale_is_bad_config(self, tmp_path, capsys, rho):
        # at 1e80 the bracket fit overflowed, at 1e103 speed**3 did, and
        # each run exited 2 with a wrong bracket
        cfg = write_config(tmp_path / "c.json", scenario={"name": "circle", "params": {"rho": rho}})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad config:")
        assert f"beyond the coordinate scale {flow.COORDINATE_SCALE:g}" in err
        assert not (tmp_path / "r").exists()

    def test_curve_beyond_coordinate_scale_is_checked_before_normalizing(self, tmp_path, capsys):
        # normalizing a circle of radius 1e160 overflowed its frame with
        # four RuntimeWarnings and then blamed the angle field
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "circle", "params": {"rho": 1e160}},
            normalize=True,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bad config:")
        assert f"beyond the coordinate scale {flow.COORDINATE_SCALE:g}" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "scenario, normalize, reach",
        [
            ({"name": "cassini", "params": {"b": 1e300}}, False, 1e300),
            ({"name": "cassini", "params": {"b": 1e77}}, False, 1e77),
            ({"name": "ellipse", "params": {"a": 1e160}}, False, 1e160),
            ({"name": "ellipse", "params": {"a": 1e300}}, True, 1e300),
            ({"name": "x_cone", "params": {"truncation": 1e300}}, False, 1e300),
        ],
        ids=["cassini", "cassini_b4_overflow", "ellipse", "normalized_ellipse", "x_cone"],
    )
    def test_scenario_size_beyond_coordinate_scale_is_refused_before_building(
        self, tmp_path, capsys, scenario, normalize, reach
    ):
        # cassini's b**4 overflowed with a traceback from b ~ 1e77, and the
        # ellipse's resample overflowed with four RuntimeWarnings, then
        # blamed non-finite points
        cfg = write_config(tmp_path / "c.json", scenario=scenario, normalize=normalize)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            f"bad config: curve coordinates reach {reach:.3e}, beyond the coordinate scale "
            f"{flow.COORDINATE_SCALE:g}\n"
        )
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("resolution", [MAX_RESOLUTION + 1, 10**12])
    @pytest.mark.parametrize("name", ["circle", "custom"])
    def test_resolution_above_the_bound_is_bad_config(self, tmp_path, capsys, name, resolution):
        # a circle at 1e8 nodes got the process killed while its scenario
        # was built, with no message
        params = {}
        if name == "custom":
            write_snapshot(str(tmp_path / "seed.json"), circle_curve(64, rho=1.0), 0.0)
            params = {"path": str(tmp_path / "seed.json")}
        cfg = write_config(
            tmp_path / "c.json", scenario={"name": name, "params": params}, resolution=resolution
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == (
            f"bad config: 'resolution' must be an integer from 16 to {MAX_RESOLUTION}\n"
        )
        assert not (tmp_path / "r").exists()

    def test_large_curve_inside_the_scale_scales_the_bracket(self, tmp_path, capsys):
        # the flow is scale invariant: times go as rho^2
        brackets = {}
        for rho in (1.0, 1e20):
            cfg = write_config(
                tmp_path / f"c{rho:g}.json", scenario={"name": "circle", "params": {"rho": rho}}
            )
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 2
            run_dir = capsys.readouterr().out.splitlines()[0]
            sing = load_manifest(run_dir)["singularity"]
            brackets[rho] = np.array([sing["t_low"], sing["t_high"]])
        assert brackets[1e20] / 1e40 == pytest.approx(brackets[1.0], rel=1e-6)

    def test_missing_path_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json", scenario={"name": "custom", "params": {}}
        )
        assert main(["run", "--config", cfg]) == 1
        assert "path" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["json_array", "null_t", "directory"])
    def test_unreadable_snapshot_is_bad_config(self, tmp_path, capsys, kind):
        # each of these ended in a TypeError or IsADirectoryError traceback
        snap = tmp_path / "seed.json"
        if kind == "directory":
            snap.mkdir()
        elif kind == "json_array":
            snap.write_text("[1, 2, 3]")
        else:
            write_snapshot(str(snap), circle_curve(64, rho=1.0), 0.0)
            doc = json.loads(snap.read_text())
            doc["t"] = None
            snap.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path / "c.json", scenario={"name": "custom", "params": {"path": str(snap)}}
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith(f"bad config: bad snapshot file {snap}: ")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "field, value, message",
        [("closed", "false", "'closed' is not true or false"), ("t", "0.5", "'t' is not a number")],
    )
    def test_snapshot_field_of_wrong_type_is_bad_config(
        self, tmp_path, capsys, field, value, message
    ):
        # read as closed=True and t=0.5 before the fields were checked
        snap = tmp_path / "seed.json"
        write_snapshot(str(snap), circle_curve(64, rho=1.0), 0.0)
        doc = json.loads(snap.read_text())
        doc[field] = value
        snap.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path / "c.json", scenario={"name": "custom", "params": {"path": str(snap)}}
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"bad config: bad snapshot file {snap}: {message}\n"
        assert not (tmp_path / "r").exists()

    def test_missing_snapshot_file_is_not_found(self, tmp_path, capsys):
        snap = tmp_path / "absent.json"
        cfg = write_config(
            tmp_path / "c.json", scenario={"name": "custom", "params": {"path": str(snap)}}
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err == f"bad config: snapshot file not found: {snap}\n"


class TestVerify:
    def test_clean_run_verifies(self, circle_run, capsys):
        assert main(["verify", str(circle_run)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_tampering_detected(self, circle_run, tmp_path, capsys):
        copy = tmp_path / "tampered"
        shutil.copytree(circle_run, copy)
        with open(copy / "diagnostics.csv", "a") as fh:
            fh.write("tamper\n")
        assert main(["verify", str(copy)]) == 1
        out = capsys.readouterr()
        assert "hash mismatch: diagnostics.csv" in out.out

    def test_missing_file_detected(self, circle_run, tmp_path, capsys):
        copy = tmp_path / "gutted"
        shutil.copytree(circle_run, copy)
        os.remove(copy / "curve.svg")
        assert main(["verify", str(copy)]) == 1
        assert "missing: curve.svg" in capsys.readouterr().out

    @pytest.mark.parametrize("damage", ["directory", "no_read_permission"])
    def test_unreadable_file_reported(self, circle_run, tmp_path, capsys, monkeypatch, damage):
        # a listed file that exists but cannot be read fails verification
        # with a line naming it, and the files after it are still checked
        copy = tmp_path / "unreadable"
        shutil.copytree(circle_run, copy)
        rel = "snapshots/snapshot_000003.json"
        path = copy / rel
        if damage == "directory":
            path.unlink()
            path.mkdir()
            reason = "Is a directory"
        else:
            path.chmod(0)
            reason = "Permission denied"
            if os.access(path, os.R_OK):
                # a privileged user reads past the mode bits: deny the open
                open_run_file = runio._open_run_file

                def denying_open(file):
                    if os.fspath(file) == str(path):
                        raise PermissionError(13, reason, str(path))
                    return open_run_file(file)

                monkeypatch.setattr(runio, "_open_run_file", denying_open)
        with open(copy / "diagnostics.csv", "a") as fh:
            fh.write("tamper\n")
        try:
            assert main(["verify", str(copy)]) == 1
        finally:
            path.chmod(0o755)
        out = capsys.readouterr()
        assert f"unreadable: {rel} ({reason})" in out.out
        assert "hash mismatch: diagnostics.csv" in out.out
        assert "2 file(s) failed verification" in out.err
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("size", [0, 1, 65535, 65536, 65537, 3 * 65536, 3 * 65536 + 7])
    def test_file_hash_reads_to_the_end(self, tmp_path, size):
        # sizes on and either side of the read size, which a hash that
        # stopped early or read one chunk too few would get wrong
        data = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
        path = tmp_path / "blob"
        path.write_bytes(data)
        assert runio.file_sha256(str(path)) == hashlib.sha256(data).hexdigest()

    @pytest.mark.parametrize("kind", ["fifo", "link_to_dev_zero"])
    def test_file_hash_refuses_non_regular_file(self, tmp_path, kind):
        # a FIFO would wait for a writer and /dev/zero never ends: both are
        # refused at the open
        path = tmp_path / "blob"
        if kind == "fifo":
            os.mkfifo(path)
        else:
            path.symlink_to("/dev/zero")
        with hang_guard(), pytest.raises(OSError, match="not a regular file"):
            runio.file_sha256(str(path))

    def test_no_manifest(self, tmp_path):
        assert main(["verify", str(tmp_path)]) == 1

    @pytest.mark.parametrize("text, cause", [("{", "Expecting"), ("[]", "not a JSON object")])
    def test_bad_manifest(self, circle_run, tmp_path, capsys, text, cause):
        copy = tmp_path / "bad"
        shutil.copytree(circle_run, copy)
        (copy / "manifest.json").write_text(text)
        assert main(["verify", str(copy)]) == 1
        assert f"manifest.json: {cause}" in capsys.readouterr().err


class TestDamagedRun:
    """A run directory that cannot be read back is refused with exit 4 and
    a message naming the file, never a traceback or a silent mismatch."""

    @pytest.fixture
    def run_copy(self, circle_run, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        return run_dir

    @staticmethod
    def snapshot(run_dir, k):
        names = sorted(os.listdir(run_dir / "snapshots"))
        return run_dir / "snapshots" / names[k]

    def assert_refused(self, run_dir, subcommand, capsys, message):
        assert main(["analyze", str(run_dir), subcommand]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"cannot load run: {message}")
        assert "out of range" not in err

    @pytest.mark.parametrize("subcommand", ["density", "spectrum", "lemmas"])
    def test_truncated_snapshot(self, run_copy, capsys, subcommand):
        last = self.snapshot(run_copy, -1)
        last.write_text(last.read_text()[:100])
        self.assert_refused(run_copy, subcommand, capsys, f"snapshots/{last.name}: Expecting")

    def test_pass_that_skips_the_damaged_record_succeeds(self, run_copy, capsys):
        # records are read on demand: the spectrum of the last record does
        # not see a damaged first one, which verify reports
        first = self.snapshot(run_copy, 0)
        first.write_text("{")
        assert main(["analyze", str(run_copy), "spectrum"]) == 0
        assert main(["verify", str(run_copy)]) == 1
        assert f"hash mismatch: snapshots/{first.name}" in capsys.readouterr().out

    @pytest.mark.parametrize("k", [0, 7, -1])
    def test_missing_snapshot(self, run_copy, capsys, k):
        gone = self.snapshot(run_copy, k)
        count = len(os.listdir(run_copy / "snapshots"))
        gone.unlink()
        self.assert_refused(
            run_copy,
            "density",
            capsys,
            f"snapshots/{gone.name}: missing; {count - 1} snapshot file(s) "
            f"against {count} diagnostics row(s)",
        )

    def test_extra_snapshot(self, run_copy, capsys):
        count = len(os.listdir(run_copy / "snapshots"))
        extra = run_copy / "snapshots" / runio.snapshot_name(count)
        shutil.copy(self.snapshot(run_copy, -1), extra)
        self.assert_refused(run_copy, "spectrum", capsys, f"snapshots/{extra.name}: unexpected")

    @pytest.mark.parametrize("subcommand", ["density", "spectrum"])
    def test_snapshot_time_differs_from_its_row(self, run_copy, capsys, subcommand):
        last = self.snapshot(run_copy, -1)
        doc = json.loads(last.read_text())
        doc["t"] = float(np.nextafter(doc["t"], 1.0))
        last.write_text(json.dumps(doc))
        self.assert_refused(
            run_copy,
            subcommand,
            capsys,
            f"snapshots/{last.name}: t={doc['t']!r} differs from diagnostics row",
        )

    @pytest.mark.parametrize(
        "field, value, message",
        [("closed", "false", "'closed' is not true or false"), ("t", "0.5", "'t' is not a number")],
    )
    def test_snapshot_field_of_wrong_type(self, run_copy, capsys, field, value, message):
        first = self.snapshot(run_copy, 0)
        doc = json.loads(first.read_text())
        doc[field] = value
        first.write_text(json.dumps(doc))
        self.assert_refused(run_copy, "density", capsys, f"snapshots/{first.name}: {message}")

    @pytest.mark.parametrize("text, cause", [("{", "Expecting"), ("[]", "not a JSON object")])
    def test_bad_manifest(self, run_copy, capsys, text, cause):
        (run_copy / "manifest.json").write_text(text)
        self.assert_refused(run_copy, "density", capsys, f"manifest.json: {cause}")

    @pytest.mark.parametrize(
        "edit, cause",
        [
            (lambda m: m.update(files=sorted(m["files"])), "'files' is not an object"),
            (lambda m: m.update(singularity=[1]), "'singularity' is not an object"),
            (lambda m: m["singularity"].pop("t_low"), "'singularity.t_low' is not a number"),
            (
                lambda m: m["singularity"].update(singular_point=[0.0]),
                "'singularity.singular_point' is not a pair of numbers",
            ),
            (lambda m: m.update(initial_constant="0.5"), "'initial_constant' is not a number"),
        ],
        ids=["files_list", "singularity_list", "no_t_low", "short_point", "constant_string"],
    )
    def test_wrong_typed_manifest_field(self, run_copy, capsys, edit, cause):
        # read_manifest refuses the field before verify or analyze reads it
        path = run_copy / "manifest.json"
        manifest = json.loads(path.read_text())
        edit(manifest)
        path.write_text(json.dumps(manifest))
        self.assert_refused(run_copy, "density", capsys, f"manifest.json: {cause}")
        assert main(["verify", str(run_copy)]) == 1
        assert f"cannot verify {run_copy}: manifest.json: {cause}" in capsys.readouterr().err

    def test_damaged_diagnostics(self, run_copy, capsys):
        with open(run_copy / "diagnostics.csv", "a") as fh:
            fh.write("0.5,1.0\n")
        self.assert_refused(run_copy, "density", capsys, "diagnostics.csv: ")

    @pytest.mark.parametrize("subcommand", ["density", "rescale", "cones", "spectrum", "lemmas"])
    def test_diagnostics_without_records(self, run_copy, capsys, subcommand):
        # a header and no rows, and no snapshots: no pass has a record
        path = run_copy / "diagnostics.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        shutil.rmtree(run_copy / "snapshots")
        (run_copy / "snapshots").mkdir()
        self.assert_refused(run_copy, subcommand, capsys, "diagnostics.csv: no records")

    def test_failing_record_before_unreadable_one(self, run_copy, capsys):
        # record 2 has coincident nodes and record 3 does not parse, in
        # one block of the density pass: record 2 fails first, as in a
        # loop over single records; the lemma table reads every record
        # before it computes
        degenerate, truncated = self.snapshot(run_copy, 2), self.snapshot(run_copy, 3)
        doc = json.loads(degenerate.read_text())
        doc["points"][1] = doc["points"][0]
        degenerate.write_text(json.dumps(doc))
        truncated.write_text(truncated.read_text()[:100])
        assert len(os.listdir(run_copy / "snapshots")) <= ana._block_records(64)
        assert main(["analyze", str(run_copy), "density"]) == 4
        assert capsys.readouterr().err == (
            "analysis out of range: minimum node spacing 0.000e+00 is below 1e-12 x diameter\n"
        )
        self.assert_refused(run_copy, "lemmas", capsys, f"snapshots/{truncated.name}: Expecting")


def count_reads(monkeypatch):
    """The snapshot names of the records that passes are served, from here
    on: each record the first time a loaded run hands it out as a row of
    a slab, and each time ``_SnapshotStates._read`` builds its FlowState;
    and the names of the snapshots they parse."""
    records, parsed = [], []
    materialize, slab = runio._SnapshotStates._read, runio._SnapshotStates.slab
    read_snapshot = runio.read_snapshot
    slabbed = {}

    def counting_record(states, k):
        records.append(runio.snapshot_name(k))
        return materialize(states, k)

    def counting_slab(states, start):
        served = slab(states, start)
        if served is not None:
            # keyed by the loaded run, which the entry keeps alive
            seen = slabbed.setdefault(id(states), (states, set()))[1]
            for k in range(start, start + len(served[1])):
                if k not in seen:
                    seen.add(k)
                    records.append(runio.snapshot_name(k))
        return served

    def counting_parse(path):
        parsed.append(os.path.basename(path))
        return read_snapshot(path)

    monkeypatch.setattr(runio._SnapshotStates, "_read", counting_record)
    monkeypatch.setattr(runio._SnapshotStates, "slab", counting_slab)
    monkeypatch.setattr(runio, "read_snapshot", counting_parse)
    return records, parsed


def analysis_files(run_dir):
    out = run_dir / "analysis"
    return {name: (out / name).read_bytes() for name in sorted(os.listdir(out))}


class TestNonRegularFile:
    """A run file that is not a regular file is refused at once: here a
    FIFO, which an open for reading would wait on for a writer."""

    SNAPSHOT = "snapshots/" + runio.snapshot_name(3)

    @pytest.fixture
    def fifo_run(self, circle_run, tmp_path):
        def make(rel):
            run_dir = tmp_path / "run"
            shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
            (run_dir / rel).unlink()
            os.mkfifo(run_dir / rel)
            return run_dir

        return make

    @pytest.mark.parametrize("rel", [SNAPSHOT, "diagnostics.csv", "records.npy"])
    def test_verify_reports_it_unreadable(self, fifo_run, capsys, rel):
        run_dir = fifo_run(rel)
        with hang_guard():
            assert main(["verify", str(run_dir)]) == 1
        out = capsys.readouterr()
        assert f"unreadable: {rel} (not a regular file)" in out.out
        assert "1 file(s) failed verification" in out.err

    def test_verify_refuses_a_fifo_manifest(self, fifo_run, capsys):
        run_dir = fifo_run("manifest.json")
        with hang_guard():
            assert main(["verify", str(run_dir)]) == 1
        assert capsys.readouterr().err == (
            f"cannot verify {run_dir}: manifest.json: not a regular file\n"
        )

    @pytest.mark.parametrize(
        "rel, subcommand",
        [
            (SNAPSHOT, "density"),
            (SNAPSHOT, "lemmas"),
            ("diagnostics.csv", "density"),
            ("diagnostics.csv", "spectrum"),
            ("manifest.json", "density"),
            ("manifest.json", "spectrum"),
        ],
    )
    def test_analyze_refuses_it(self, fifo_run, capsys, rel, subcommand):
        run_dir = fifo_run(rel)
        with hang_guard():
            assert main(["analyze", str(run_dir), subcommand]) == 4
        assert capsys.readouterr().err == f"cannot load run: {rel}: not a regular file\n"

    def test_pass_that_skips_it_succeeds(self, fifo_run):
        # spectrum reads only the records around the last time
        run_dir = fifo_run(self.SNAPSHOT)
        with hang_guard():
            assert main(["analyze", str(run_dir), "spectrum"]) == 0

    def test_fifo_records_fall_back_to_json(self, circle_run, fifo_run, tmp_path, monkeypatch):
        intact = tmp_path / "intact"
        shutil.copytree(circle_run, intact, ignore=shutil.ignore_patterns("analysis"))
        assert main(["analyze", str(intact), "density"]) == 0
        run_dir = fifo_run("records.npy")
        _, parsed = count_reads(monkeypatch)
        with hang_guard():
            assert main(["analyze", str(run_dir), "density"]) == 0
        assert sorted(parsed) == sorted(os.listdir(run_dir / "snapshots"))
        assert analysis_files(run_dir) == analysis_files(intact)


class TestRecordArray:
    """records.npy serves the records that hash to the manifest, and every
    other case takes the JSON path with the same outputs."""

    PASSES = [
        ("density", []),
        ("rescale", ["--sigma", "2", "4", "--s", "-1"]),
        ("cones", ["--sigma", "2", "--s", "-1", "--R", "2.5"]),
        ("spectrum", []),
        ("lemmas", []),
    ]

    @pytest.fixture
    def copies(self, circle_run, tmp_path):
        def copy(name):
            run_dir = tmp_path / name
            shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
            return run_dir

        return copy

    def run_passes(self, run_dir):
        for subcommand, extra in self.PASSES:
            assert main(["analyze", str(run_dir), subcommand, *extra]) == 0
        return analysis_files(run_dir)

    def test_run_lists_records_and_closed(self, circle_run, tmp_path):
        manifest = load_manifest(circle_run)
        assert manifest["closed"] is True
        assert manifest["files"]["records.npy"] == runio.file_sha256(circle_run / "records.npy")
        nodes = np.load(circle_run / "records.npy")
        np.save(tmp_path / "saved.npy", nodes)
        assert (tmp_path / "saved.npy").read_bytes() == (circle_run / "records.npy").read_bytes()
        names = sorted(os.listdir(circle_run / "snapshots"))
        assert nodes.dtype == np.float64
        assert nodes.shape == (len(names), 64, 2)
        for k, name in enumerate(names):
            curve, _ = read_snapshot(os.path.join(circle_run, "snapshots", name))
            assert nodes[k].tobytes() == curve.points.tobytes()

    def test_two_runs_write_identical_records(self, circle_run, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "other")]) == 2
        other = tmp_path / "other" / circle_run.name
        assert (other / "records.npy").read_bytes() == (circle_run / "records.npy").read_bytes()

    def test_passes_write_identical_files_without_records(self, copies, monkeypatch):
        intact, older = copies("intact"), copies("older")
        drop_records(older)
        _, parsed = count_reads(monkeypatch)
        outputs = self.run_passes(intact)
        assert parsed == []
        assert self.run_passes(older) == outputs
        assert parsed
        assert len(outputs) == 6

    @pytest.mark.parametrize("damage", ["truncated", "flipped_float", "wrong_shape", "float32"])
    def test_damaged_records_fall_back_to_json(self, copies, monkeypatch, capsys, damage):
        intact, damaged = copies("intact"), copies("damaged")
        path = damaged / "records.npy"
        data = bytearray(path.read_bytes())
        if damage == "truncated":
            path.write_bytes(data[: len(data) // 2])
        elif damage == "flipped_float":
            data[-3] ^= 0x10
            path.write_bytes(data)
        else:
            # saved with its hash, so only the array check refuses it
            nodes = np.load(path)
            np.save(path, nodes[:-1] if damage == "wrong_shape" else nodes.astype(np.float32))
            manifest = load_manifest(damaged)
            manifest["files"]["records.npy"] = runio.file_sha256(path)
            write_json(str(damaged / "manifest.json"), manifest)
        outputs = self.run_passes(intact)
        _, parsed = count_reads(monkeypatch)
        assert self.run_passes(damaged) == outputs
        assert sorted(set(parsed)) == sorted(os.listdir(damaged / "snapshots"))
        verified = main(["verify", str(damaged)])
        assert verified == (0 if damage in ("wrong_shape", "float32") else 1)
        if verified:
            assert "hash mismatch: records.npy" in capsys.readouterr().out

    def test_edited_diagnostics_falls_back_to_json(self, copies, monkeypatch):
        # a blank line parses to the same rows but changes the hash
        intact, edited = copies("intact"), copies("edited")
        with open(edited / "diagnostics.csv", "a") as fh:
            fh.write("\n")
        outputs = self.run_passes(intact)
        _, parsed = count_reads(monkeypatch)
        assert self.run_passes(edited) == outputs
        assert sorted(set(parsed)) == sorted(os.listdir(edited / "snapshots"))

    def test_edited_snapshot_alone_is_parsed(self, copies, monkeypatch):
        # the same values, laid out differently
        intact, edited = copies("intact"), copies("edited")
        name = runio.snapshot_name(3)
        snap = edited / "snapshots" / name
        snap.write_text(json.dumps(json.loads(snap.read_text()), indent=1))
        outputs = self.run_passes(intact)
        _, parsed = count_reads(monkeypatch)
        assert self.run_passes(edited) == outputs
        assert set(parsed) == {name}

    def test_closed_must_be_a_boolean(self, copies, capsys):
        run_dir = copies("run")
        manifest = load_manifest(run_dir)
        manifest["closed"] = "true"
        write_json(str(run_dir / "manifest.json"), manifest)
        cause = "manifest.json: 'closed' is not true or false"
        assert main(["analyze", str(run_dir), "density"]) == 4
        assert capsys.readouterr().err == f"cannot load run: {cause}\n"
        assert main(["verify", str(run_dir)]) == 1
        assert f"cannot verify {run_dir}: {cause}" in capsys.readouterr().err


def eager_columns(path):
    """The columns of a diagnostics CSV as the whole table parses at once:
    one np.asarray over every row's fields."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    table = np.asarray(rows, dtype=np.float64)
    return {name: table[:, j] for j, name in enumerate(header)}


def count_parsed_columns(monkeypatch):
    """The names of the diagnostics columns parsed from here on, in order."""
    parsed = []
    parse = runio._parse_columns

    def counting_parse(rows, index, width):
        parsed.extend(DIAGNOSTIC_COLUMNS[j] for j in index)
        return parse(rows, index, width)

    monkeypatch.setattr(runio, "_parse_columns", counting_parse)
    return parsed


class TestDiagnosticsColumns:
    """A load reads diagnostics.csv once; when its bytes hash to the
    manifest's value, ``t`` is parsed at load and every other column when
    a pass first reads it, to the floats of a whole-table parse."""

    @pytest.fixture
    def copy(self, circle_run, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        return run_dir

    @pytest.fixture
    def open_run(self, tmp_path):
        # a stationary open curve: its area and integral columns hold nan
        cfg = write_config(
            tmp_path / "c.json", scenario={"name": "x_cone", "params": {}}, stop={"t_end": 0.01}
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        return run_dir

    @pytest.mark.parametrize("run", ["circle_run", "open_run"])
    def test_columns_equal_whole_table_parse(self, request, run):
        run_dir = request.getfixturevalue(run)
        path = run_dir / "diagnostics.csv"
        expected = eager_columns(path)
        if run == "open_run":
            assert np.isnan(expected["area"]).all() and np.isnan(expected["monotone_defect"]).all()
        verified = load_trajectory(str(run_dir)).diagnostics
        eager = runio.read_diagnostics_csv(str(path))
        assert verified.sha256 == eager.sha256 == load_manifest(run_dir)["files"]["diagnostics.csv"]
        for columns in (verified, eager):
            assert list(columns) == list(DIAGNOSTIC_COLUMNS)
            for name in DIAGNOSTIC_COLUMNS:
                assert columns[name].dtype == np.float64
                assert columns[name].tobytes() == expected[name].tobytes()
                assert not columns[name].flags.writeable
            with pytest.raises(TypeError):
                columns["t"] = expected["t"]

    def test_verified_load_parses_only_what_passes_read(self, copy, monkeypatch):
        parsed = count_parsed_columns(monkeypatch)
        diagnostics = load_trajectory(str(copy)).diagnostics
        assert parsed == ["t"]
        assert diagnostics["t"] is diagnostics["t"]
        assert parsed == ["t"]
        for subcommand in ("density", "spectrum"):
            parsed.clear()
            assert main(["analyze", str(copy), subcommand]) == 0
            assert parsed == ["t"]
        parsed.clear()
        assert main(["analyze", str(copy), "lemmas"]) == 0
        assert parsed == ["t", "monotone_defect"]

    def test_edited_file_is_parsed_at_load(self, copy, monkeypatch):
        # a blank line parses to the same rows but changes the hash
        with open(copy / "diagnostics.csv", "a") as fh:
            fh.write("\n")
        parsed = count_parsed_columns(monkeypatch)
        load_trajectory(str(copy))
        assert parsed == list(DIAGNOSTIC_COLUMNS)

    def test_each_load_opens_the_file_once(self, copy, monkeypatch):
        opened = []
        open_run_file = runio._open_run_file

        def counting_open(path):
            opened.append(os.path.basename(path))
            return open_run_file(path)

        monkeypatch.setattr(runio, "_open_run_file", counting_open)
        for subcommand in ("density", "lemmas"):
            opened.clear()
            assert main(["analyze", str(copy), subcommand]) == 0
            assert opened.count("diagnostics.csv") == 1

    def edit_value(self, run_dir, column, value):
        path = run_dir / "diagnostics.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        fields[DIAGNOSTIC_COLUMNS.index(column)] = value
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")

    def test_bad_value_under_edited_manifest(self, copy, capsys):
        # the manifest lists the edited file's hash: only a pass that
        # reads the column finds the value
        self.edit_value(copy, "monotone_defect", "0.5x")
        manifest = load_manifest(copy)
        manifest["files"]["diagnostics.csv"] = runio.file_sha256(copy / "diagnostics.csv")
        write_json(str(copy / "manifest.json"), manifest)
        assert main(["analyze", str(copy), "density"]) == 0
        capsys.readouterr()
        assert main(["analyze", str(copy), "lemmas"]) == 4
        assert capsys.readouterr().err == (
            "cannot load run: diagnostics.csv: could not convert string to float: '0.5x'\n"
        )

    def test_bad_value_refused_at_load(self, copy, capsys):
        self.edit_value(copy, "monotone_defect", "0.5x")
        assert main(["analyze", str(copy), "density"]) == 4
        assert capsys.readouterr().err == (
            "cannot load run: diagnostics.csv: could not convert string to float: '0.5x'\n"
        )

    @pytest.mark.parametrize(
        "row, fault",
        [("0.5,1.0", "row 1 has 2 field(s), the header 11"), ("1.0," * 11 + "1.0", "'1.0,1.0'")],
        ids=["short", "long"],
    )
    def test_ragged_row_refused_at_load(self, copy, capsys, row, fault):
        path = copy / "diagnostics.csv"
        lines = path.read_text().splitlines()
        lines[2] = row
        path.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(copy), "spectrum"]) == 4
        assert fault in capsys.readouterr().err


class TestSlabs:
    """density and lemmas read the served records as slabs of records.npy
    rows, and write the bytes of the per-record path."""

    @pytest.fixture
    def copies(self, circle_run, tmp_path):
        def copy(name):
            run_dir = tmp_path / name
            shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
            return run_dir

        return copy

    @staticmethod
    def block_passes(run_dir):
        for subcommand in ("density", "lemmas"):
            assert main(["analyze", str(run_dir), subcommand]) == 0
        return analysis_files(run_dir)

    @staticmethod
    def blocks(run_dir):
        return list(ana._record_blocks(load_trajectory(str(run_dir)).states, math.inf))

    def test_snapshot_edited_mid_block_alone_is_parsed(self, copies, monkeypatch):
        # the run's records make one block; record k, in its middle, is
        # laid out differently, so it is parsed and joins the rows around it
        intact, edited = copies("intact"), copies("edited")
        k = len(os.listdir(intact / "snapshots")) // 2
        name = runio.snapshot_name(k)
        snap = edited / "snapshots" / name
        snap.write_text(json.dumps(json.loads(snap.read_text()), indent=1))
        outputs = self.block_passes(intact)
        (want,) = self.blocks(intact)
        records, parsed = count_reads(monkeypatch)
        assert self.block_passes(edited) == outputs
        # each pass loads the run, and is served each record once
        assert parsed == [name, name]
        assert sorted(records) == sorted(2 * os.listdir(edited / "snapshots"))
        (got,) = self.blocks(edited)
        assert got[1].tobytes() == want[1].tobytes() and got[0].tobytes() == want[0].tobytes()
        assert not np.shares_memory(got[1], want[1])

    @pytest.mark.parametrize("subcommand", ["density", "lemmas"])
    def test_non_finite_row_is_refused_after_the_records_before_it(
        self, copies, monkeypatch, capsys, subcommand
    ):
        # records.npy saved with a nan in row k and its hash: the records
        # before k are computed, then record k raises PlaneCurve's error
        run_dir = copies("run")
        path = run_dir / "records.npy"
        nodes = np.load(path)
        k = len(nodes) // 2
        nodes[k, 5, 1] = np.nan
        np.save(path, nodes)
        manifest = load_manifest(run_dir)
        manifest["files"]["records.npy"] = runio.file_sha256(path)
        write_json(str(run_dir / "manifest.json"), manifest)
        # the records that reach a block kernel: the polar profiles' for
        # lemmas, the densities' for density
        computed = []
        for name in ("_polar_radii", "_densities"):
            kernel = getattr(ana, name)

            def counting(pts, *args, kernel=kernel):
                computed.append(len(pts))
                return kernel(pts, *args)

            monkeypatch.setattr(ana, name, counting)
        assert main(["analyze", str(run_dir), subcommand]) == 4
        err = capsys.readouterr().err
        assert err == "analysis out of range: points contain non-finite values\n"
        assert computed == [k]

    def test_density_builds_no_state(self, circle_run, monkeypatch):
        records, parsed = count_reads(monkeypatch)
        built = []
        materialize = runio._SnapshotStates._read

        def building(states, k):
            built.append(k)
            return materialize(states, k)

        monkeypatch.setattr(runio._SnapshotStates, "_read", building)
        assert main(["analyze", str(circle_run), "density"]) == 0
        assert built == [] and parsed == []
        assert sorted(records) == sorted(os.listdir(circle_run / "snapshots"))


class TestAnalyze:
    def test_density(self, circle_run, capsys):
        assert main(["analyze", str(circle_run), "density"]) == 0
        out = capsys.readouterr().out
        assert "monotone within" in out
        path = os.path.join(circle_run, "analysis", "density.csv")
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "t,theta"
        assert len(lines) >= 3

    def test_spectrum(self, circle_run):
        assert main(["analyze", str(circle_run), "spectrum"]) == 0
        path = os.path.join(circle_run, "analysis", "spectrum.csv")
        with open(path) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "angle_lo,angle_hi,mass"
        assert len(lines) == 37

    # the verdicts' tolerances and resolutions are fixed rules of the
    # analysis module: each former tuning flag, even at its former
    # default, is an unknown argument (--delta had no number: a quarter of
    # each probe's distance)
    @pytest.mark.parametrize(
        "subcommand, flag, value",
        [
            ("density", "--drift-tol", "0.001"),
            ("cones", "--merge-tol", "0.15"),
            ("spectrum", "--bins", "36"),
            ("rescale", "--window", "10"),
            ("lemmas", "--delta", "0.5"),
        ],
    )
    def test_removed_tuning_flags_refused(self, circle_run, capsys, subcommand, flag, value):
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(circle_run), subcommand, flag, value])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, extra, message",
        [
            ("rescale", ["--sigma", "0"], "positive and finite with a nonzero square, got 0"),
            ("cones", ["--sigma", "1e-300"], "with a nonzero square, got 1e-300"),
            ("cones", ["--sigma", "-2"], "with a nonzero square, got -2"),
            ("density", ["--T", "nan"], "reference time T must be finite, got nan"),
            ("rescale", ["--x0", "nan", "0"], "reference point x0 must be finite, got nan 0"),
            ("cones", ["--sigma", "2", "--R", "-1"], "R must be positive and finite, got -1"),
            (
                "density",
                ["--x0", "1e308", "1e308"],
                "reference point x0 1e+308 1e+308 is beyond the coordinate scale 1e+50",
            ),
        ],
    )
    def test_bad_coordinates_exit_4(self, circle_run, capsys, subcommand, extra, message):
        out_dir = os.path.join(circle_run, "analysis")
        os.makedirs(out_dir, exist_ok=True)
        before = set(os.listdir(out_dir))
        assert main(["analyze", str(circle_run), subcommand, "--s", "-1", *extra]) == 4
        assert message in capsys.readouterr().err
        assert set(os.listdir(out_dir)) <= before

    def test_negative_values_in_exponent_form(self, circle_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        assert main(["analyze", str(run_dir), "density", "--x0", "-1e-3", "0"]) == 0
        capsys.readouterr()
        outputs = []
        for s in ("-0.001", "-1e-3"):
            shutil.rmtree(run_dir / "analysis")
            assert main(["analyze", str(run_dir), "rescale", "--sigma", "2", "--s", s]) == 0
            outputs.append((capsys.readouterr().out, analysis_files(run_dir)))
        assert outputs[0] == outputs[1]
        assert list(outputs[0][1]) == ["rescaled_s-0.001_sigma2.json"]

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--x0", "-foo", "0"], "argument --x0: expected 2 arguments"),
            (["--s", "-1e-3x"], "argument --s: expected one argument"),
            (["--T", "1e-3x"], "argument --T: invalid float value: '1e-3x'"),
        ],
    )
    def test_non_numbers_still_refused(self, circle_run, capsys, extra, message):
        with pytest.raises(SystemExit) as info:
            main(["analyze", str(circle_run), "density", *extra])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_refused_request_makes_no_analysis_dir(self, circle_run, tmp_path, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        assert main(["analyze", str(run_dir), "density", "--T", "nan"]) == 4
        assert "reference time T must be finite" in capsys.readouterr().err
        assert not os.path.exists(run_dir / "analysis")

    @pytest.mark.parametrize("subcommand, stem", [("rescale", "rescaled"), ("cones", "cones")])
    def test_sigmas_sharing_a_file_name_refused(self, circle_run, tmp_path, capsys, subcommand, stem):
        # {sigma:g} keeps 6 significant digits: 2 and 2.0000001 would
        # write one file twice
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        extra = ["--R", "2.5"] if subcommand == "cones" else []
        argv = ["analyze", str(run_dir), subcommand, "--s", "-1", *extra]
        assert main([*argv, "--sigma", "3", "2", "2.0000001"]) == 4
        err = capsys.readouterr().err
        assert f"sigma=2.0 and sigma=2.0000001 would both write {stem}_s-1_sigma2.json" in err
        assert not os.path.exists(run_dir / "analysis")
        # distinct magnifications keep their names
        assert main([*argv, "--sigma", "3", "2"]) == 0
        assert sorted(os.listdir(run_dir / "analysis")) == [
            f"{stem}_s-1_sigma2.json",
            f"{stem}_s-1_sigma3.json",
        ]

    def test_density_without_two_records_has_no_verdict(self, circle_run, capsys):
        # no record precedes T = 0, so nothing can rise
        assert main(["analyze", str(circle_run), "density", "--T", "0"]) == 0
        out = capsys.readouterr().out
        assert "monotone within +0.001: n/a (max increase nan)" in out
        with open(os.path.join(circle_run, "analysis", "density.csv")) as fh:
            assert fh.read().strip() == "t,theta"

    def test_csv_fields_are_plain_floats(self, circle_run):
        # NumPy 2 reprs a scalar as np.float64(x); every field must parse
        for sub, name in (("density", "density.csv"), ("spectrum", "spectrum.csv")):
            assert main(["analyze", str(circle_run), sub]) == 0
            with open(os.path.join(circle_run, "analysis", name)) as fh:
                rows = fh.read().strip().splitlines()[1:]
            assert rows
            for row in rows:
                for field in row.split(","):
                    float(field)

    def test_lemmas(self, circle_run, capsys):
        assert main(["analyze", str(circle_run), "lemmas"]) == 0
        out = capsys.readouterr().out
        path = os.path.join(circle_run, "analysis", "lemmas.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert set(doc) == {
            "monotone_defect",
            "radius_nonincreasing",
            "quadrant_monotonicity",
            "density_ratio_bound",
        }
        assert doc["monotone_defect"]["passed"] is True
        assert doc["radius_nonincreasing"]["passed"] is True
        assert "monotone_defect" in out

    def test_lemma_table_is_what_the_cli_writes(self, circle_run):
        assert main(["analyze", str(circle_run), "lemmas"]) == 0
        with open(os.path.join(circle_run, "analysis", "lemmas.json")) as fh:
            doc = json.load(fh)
        rows = ana.lemma_table(load_trajectory(str(circle_run)))
        assert {
            k: {"passed": v["passed"], "value": v["value"] if math.isfinite(v["value"]) else None}
            for k, v in rows.items()
        } == doc

    def test_lemmas_on_open_cone(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            scenario={"name": "x_cone", "params": {}},
            stop={"t_end": 0.01},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        assert main(["analyze", str(run_dir), "lemmas"]) == 0
        with open(os.path.join(run_dir, "analysis", "lemmas.json")) as fh:
            doc = json.load(fh)
        assert set(doc) == {
            "monotone_defect",
            "radius_nonincreasing",
            "quadrant_monotonicity",
            "density_ratio_bound",
        }
        # an open curve has no drainage law and no polar profile to check
        for name in ("monotone_defect", "radius_nonincreasing", "quadrant_monotonicity"):
            assert doc[name] == {"passed": None, "value": None}

    def test_rescale_produces_views(self, circle_run):
        assert (
            main(
                [
                    "analyze",
                    str(circle_run),
                    "rescale",
                    "--sigma",
                    "2",
                    "--s",
                    "-1",
                ]
            )
            == 0
        )
        path = os.path.join(circle_run, "analysis", "rescaled_s-1_sigma2.json")
        curve, _ = read_snapshot(path)
        # self-similar circle: magnified view has radius 2*c0^(1/2)... the
        # rho=1 circle rescaled at sigma with s=-1 sits at radius 2
        radii = np.linalg.norm(curve.points, axis=1)
        assert np.max(np.abs(radii - 2.0)) < 0.05

    def test_rescale_out_of_range(self, circle_run, capsys):
        code = main(
            ["analyze", str(circle_run), "rescale", "--sigma", "100000", "--s", "-1"]
        )
        assert code == 4
        assert "outside" in capsys.readouterr().err

    def test_cones_out_of_range_writes_nothing(self, circle_run, tmp_path, capsys):
        # every sigma is checked before the first file is written
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        code = main(["analyze", str(run_dir), "cones", "--sigma", "4", "100000"])
        assert code == 4
        assert "outside the recorded span" in capsys.readouterr().err
        assert not os.path.exists(run_dir / "analysis")

    def test_cones_on_circle_run(self, circle_run, capsys):
        # rescaled shrinking circle stays a closed loop: one component,
        # no line direction
        code = main(
            ["analyze", str(circle_run), "cones", "--sigma", "2", "--s", "-1", "--R", "2.5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "1 component(s)" in out
        assert "closed" in out
        path = os.path.join(circle_run, "analysis", "cones_s-1_sigma2.json")
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["s"] == -1.0
        assert doc["sigma"] == 2.0
        assert len(doc["components"]) == 1
        comp = doc["components"][0]
        assert comp["direction"] is None
        assert comp["mass"] > 0

    def test_missing_run_dir(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "ghost"), "density"]) == 4
        assert "cannot load" in capsys.readouterr().err

    PASSES = [
        ("rescale", ["--sigma", "4", "8", "16"], 6),
        ("cones", ["--sigma", "4", "8", "16"], 6),
        ("spectrum", [], 2),
        ("density", [], None),
        ("lemmas", [], None),
    ]

    @pytest.mark.parametrize("subcommand, extra, max_reads", PASSES)
    def test_each_pass_reads_only_what_it_uses(
        self, circle_run, monkeypatch, subcommand, extra, max_reads
    ):
        # a view interpolates between two records, so each sigma and the
        # spectrum read at most two; density and lemmas walk every record
        # and read each one once; the manifest is parsed once
        reads, _ = count_reads(monkeypatch)
        manifests = []
        read_manifest = runio.read_manifest

        def counting_manifest(path):
            manifests.append(path)
            return read_manifest(path)

        for module in (runio, cli):
            monkeypatch.setattr(module, "read_manifest", counting_manifest)
        assert main(["analyze", str(circle_run), subcommand, *extra]) == 0
        assert len(manifests) == 1
        assert len(reads) == len(set(reads))
        if max_reads is None:
            assert sorted(reads) == sorted(os.listdir(circle_run / "snapshots"))
        else:
            assert 0 < len(reads) <= max_reads

    def test_intact_run_parses_no_snapshot(self, circle_run, monkeypatch):
        # every record comes from records.npy
        records, parsed = count_reads(monkeypatch)
        for subcommand, extra, _ in self.PASSES:
            assert main(["analyze", str(circle_run), subcommand, *extra]) == 0
        assert records
        assert parsed == []

    @pytest.mark.parametrize("subcommand, extra, max_reads", PASSES)
    def test_run_without_records_parses_each_snapshot_once(
        self, circle_run, tmp_path, monkeypatch, subcommand, extra, max_reads
    ):
        run_dir = tmp_path / "run"
        shutil.copytree(circle_run, run_dir, ignore=shutil.ignore_patterns("analysis"))
        drop_records(run_dir)
        records, parsed = count_reads(monkeypatch)
        assert main(["analyze", str(run_dir), subcommand, *extra]) == 0
        assert parsed == records
        assert len(parsed) == len(set(parsed))
        if max_reads is None:
            assert sorted(parsed) == sorted(os.listdir(run_dir / "snapshots"))
        else:
            assert 0 < len(parsed) <= max_reads

    def test_missing_T_without_detection(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.json",
            stop={"t_end": 0.05},
        )
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "r")]) == 0
        (run_dir,) = [p for p in (tmp_path / "r").iterdir() if p.is_dir()]
        assert main(["analyze", str(run_dir), "density"]) == 4
        assert "--T" in capsys.readouterr().err

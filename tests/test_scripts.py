"""Smoke tests for the experiment scripts: each runs at a small size,
exits 0 and prints its table header (or its digest line)."""
import csv
import importlib.util
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lagflow.geometry import PlaneCurve
from lagflow.runio import write_snapshot

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
LADDER = ["N", "exit", "trigger", "t_low", "t_high", "fit T*", "area left", "wall s",
          "max rel error", "order"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def study_dir(tmp_path, monkeypatch):
    """A working directory holding the two example study configs, the
    circle's cut at t_end 0.2; runs land in its runs/."""
    circle = json.loads((SCRIPTS / "circle_ladder.json").read_text())
    circle["stop"]["t_end"] = 0.2
    (tmp_path / "circle.json").write_text(json.dumps(circle))
    shutil.copy(SCRIPTS / "ellipse_pinch.json", tmp_path / "ellipse.json")
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("LAGFLOW_RUNS", raising=False)
    return tmp_path


@pytest.mark.parametrize(
    "name, argv, header",
    [
        ("pinch_study", ["circle.json", "--resolutions", "32", "64"], LADDER),
        (
            "pinch_study",
            ["ellipse.json", "--resolutions", "64"],
            ["sigma", "tau", "nodes", "waist", "extent", "comps", "central ratio"],
        ),
    ],
)
def test_script_runs(name, argv, header, study_dir, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split() == " ".join(header).split() for line in lines)


def test_pinch_study_table(study_dir, capsys):
    # one csv row per rung and sigma; a rung without a zoom gets one row
    # with empty sigma columns, and each rung leaves its run directory
    module = load_script("pinch_study")
    argv = ["circle.json", "--resolutions", "32", "64", "--csv", "t.csv"]
    assert module.main(argv) == 0
    out = capsys.readouterr().out
    assert "5.115e-06" in out  # the N=32 radius error through t = 0.2
    with open("t.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["resolution"], r["exit"], r["sigma"]) for r in rows] == [("32", "0", ""), ("64", "0", "")]
    assert rows[0]["order"] == "nan" and 3.5 < float(rows[1]["order"]) < 4.5
    assert len(list(Path("runs").iterdir())) == 2
    assert module.main(["ellipse.json", "--resolutions", "64", "--sigmas", "2", "4", "--csv", "t.csv"]) == 0
    with open("t.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["resolution"], r["trigger"], r["sigma"]) for r in rows] == [
        ("64", "origin_contact", "2"),
        ("64", "origin_contact", "4"),
    ]
    assert rows[0]["max_rel_error"] == ""


def test_pinch_study_bad_config_exits_1(study_dir, capsys):
    (study_dir / "bad.json").write_text('{"scenario": {"name": "circle"}, "flow": {"safety": 0.5}}')
    assert load_script("pinch_study").main(["bad.json", "--resolutions", "32"]) == 1
    assert "unknown key 'flow.safety'" in capsys.readouterr().err


def test_output_digests_only_entry_is_stable(capsys):
    module = load_script("output_digests")
    digests = []
    for _ in range(2):
        assert module.main(["--only", "x_cone"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        name, digest = line.split()
        assert name == "x_cone"
        assert re.fullmatch("[0-9a-f]{64}", digest)
        digests.append(digest)
    assert digests[0] == digests[1]


def test_output_digests_check_compares_with_saved_listing(tmp_path, capsys):
    module = load_script("output_digests")
    assert module.main(["--only", "x_cone"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    name, digest = line.split()
    saved = tmp_path / "saved.txt"
    saved.write_text(f"circle_run {'0' * 64}\n{line}\n")
    # a listing line for a digest that is not computed is not compared
    assert module.main(["--only", "x_cone", "--check", str(saved)]) == 0
    assert "mismatch" not in capsys.readouterr().out
    tampered = ("1" if digest[0] == "0" else "0") + digest[1:]
    saved.write_text(f"{name} {tampered}\n")
    assert module.main(["--only", "x_cone", "--check", str(saved)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [line, f"mismatch: x_cone saved {tampered}, now {digest}"]


def test_pinch_study_prints_a_lost_rung(study_dir, capsys):
    # a node on the origin fails the velocity's origin guard: lagflow run
    # exits 3, and the study goes on with the manifest's error
    u = 2 * np.pi * np.arange(64) / 64
    write_snapshot("seed.json", PlaneCurve(np.column_stack([1.0 + np.cos(u), np.sin(u)])), 0.0)
    config = {"scenario": {"name": "custom", "params": {"path": "seed.json"}}, "stop": {"t_end": 0.01}}
    (study_dir / "lost.json").write_text(json.dumps(config))
    assert load_script("pinch_study").main(["lost.json", "--resolutions", "64"]) == 0
    (row,) = [line for line in capsys.readouterr().out.splitlines() if "lost" in line]
    assert row.split()[:3] == ["64", "3", "lost:"]
    assert "OriginContactError at t=0" in row


def test_committed_digest_listing_names_every_digest():
    module = load_script("output_digests")
    with open(SCRIPTS / "output_digests.txt") as fh:
        saved = dict(line.split() for line in fh if line.strip())
    assert list(saved) == list(module.DIGESTS)
    assert all(re.fullmatch("[0-9a-f]{64}", d) for d in saved.values())


def test_committed_digests_match():
    # every output a bit-identical change must leave alone, against the
    # committed listing, in a fresh process as from the command line
    root = SCRIPTS.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run(
        [sys.executable, "scripts/output_digests.py", "--check", "scripts/output_digests.txt"],
        cwd=root, env=env, capture_output=True, text=True, timeout=600,
    )
    assert "mismatch" not in done.stdout
    assert done.returncode == 0, done.stderr


def _end_to_end_lower() -> dict[str, bool]:
    """BENCHMARK.json's end-to-end metrics: whether lower is better."""
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}


def _check_perf_record(doc, lower):
    """A BENCH_*.json document's summary is what its pairs give."""
    for workload, entry in doc["workloads"].items():
        pairs = entry["pairs"]
        for pair in pairs:
            for side in ("parent", "change"):
                assert pair[side]["machine"]["commit"] == doc[f"{side}_commit"], (workload, side)
        for metric, summary in entry["summary"].items():
            values = {
                side: [pair[side]["metrics"][metric] for pair in pairs] for side in ("parent", "change")
            }
            for side, row in values.items():
                assert summary[side]["median"] == statistics.median(row), (workload, metric, side)
            wins = losses = 0
            for parent, change in zip(values["parent"], values["change"]):
                if change != parent:
                    won = change < parent if lower[metric] else change > parent
                    wins, losses = wins + won, losses + (not won)
            assert (summary["change_wins"], summary["change_losses"]) == (wins, losses), (workload, metric)
            assert summary["pairs"] == len(pairs), (workload, metric)


@pytest.mark.parametrize(
    "path", sorted(SCRIPTS.parent.glob("BENCH_*.json")), ids=lambda p: p.name
)
def test_committed_perf_records_are_consistent(path):
    # a BENCH_*.json holds perfbench's pairs of parent and change records;
    # its summary must be what those records give, and its command names
    # the seed that every record ran
    doc = json.loads(path.read_text())
    _check_perf_record(doc, _end_to_end_lower())
    seed = re.fullmatch(
        r"python3 perfbench/run\.py --workload <workload> --seed (\d+) --seconds 20 --trace 0",
        doc["command"],
    ).group(1)
    for workload, entry in doc["workloads"].items():
        for pair in entry["pairs"]:
            for side in ("parent", "change"):
                assert pair[side]["notes"][0].startswith(f"workload {workload} seed={seed} trace=0 ")


@pytest.mark.parametrize(
    "options, message",
    [
        (["--workload", "no-such-workload"], "unknown workload(s) no-such-workload; choices: "),
        (["--seed", "-1"], "--seed must be a non-negative integer"),
    ],
    ids=["workload", "seed"],
)
def test_pair_runner_refuses_bad_options_before_running(options, message, monkeypatch, capsys):
    # an unknown workload or a negative seed exits 2 before any git or
    # perfbench command
    module = load_script("perf_pairs")

    def refuse(*args, **kwargs):
        raise AssertionError(f"ran {args}")

    monkeypatch.setattr(module.subprocess, "run", refuse)
    argv = ["--parent", "HEAD", "--change", "HEAD", "--pairs", "2", "--tag", "refused", *options]
    with pytest.raises(SystemExit) as info:
        module.main(argv)
    assert info.value.code == 2
    assert message in capsys.readouterr().err
    assert not (SCRIPTS.parent / "BENCH_refused.json").exists()


def test_pair_runner_summary_follows_the_record_rules():
    # synthetic pairs through perf_pairs.summarize: the document it builds
    # passes the committed records' check, with ties counting for neither
    # side and pass_ratio, where higher is better, won by the larger value
    module = load_script("perf_pairs")
    lower = _end_to_end_lower()
    walls = [(1.0, 0.8), (1.2, 0.9), (0.9, 0.9), (1.1, 1.3), (1.05, 0.85)]
    ratios = [(1.0, 1.0), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0), (0.75, 1.0)]

    def record(commit, wall, ratio):
        metrics = {name: 1.0 for name in lower}
        metrics.update(wall_s=wall, pass_ratio=ratio)
        return {"metrics": metrics, "machine": {"commit": commit}}

    pairs = [
        {
            "index": i,
            "first": "parent" if i % 2 == 0 else "change",
            "parent": record("p" * 40, wp, rp),
            "change": record("c" * 40, wc, rc),
        }
        for i, ((wp, wc), (rp, rc)) in enumerate(zip(walls, ratios))
    ]
    summary = module.summarize(pairs, lower)
    assert list(summary) == list(lower)
    doc = {
        "parent_commit": "p" * 40,
        "change_commit": "c" * 40,
        "workloads": {"synthetic": {"summary": summary, "pairs": pairs}},
    }
    _check_perf_record(doc, lower)
    wall = summary["wall_s"]
    assert (wall["change_wins"], wall["change_losses"], wall["pairs"]) == (3, 1, 5)
    assert wall["parent"] == {"q1": 1.0, "median": 1.05, "q3": 1.1}
    assert wall["median_ratio"] == 0.9 / 1.05
    assert (summary["pass_ratio"]["change_wins"], summary["pass_ratio"]["change_losses"]) == (2, 1)
    assert (summary["setup_s"]["change_wins"], summary["setup_s"]["change_losses"]) == (0, 0)

"""Smoke tests for the experiment scripts: each runs at a small size,
exits 0 and prints its table header (or its digest line)."""
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv, header",
    [
        (
            "circle_benchmark",
            ["--resolutions", "32", "64", "--t-end", "0.2"],
            ["N", "max rel error", "order", "wall s"],
        ),
        (
            "pinch_study",
            ["--resolution", "64"],
            ["sigma", "tau", "nodes", "waist", "extent", "comps", "central ratio"],
        ),
    ],
)
def test_script_runs(name, argv, header, capsys):
    assert load_script(name).main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert any(line.split() == " ".join(header).split() for line in lines)


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

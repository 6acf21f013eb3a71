"""Smoke tests for the experiment scripts: each runs at a small size,
exits 0 and prints its table header."""
import importlib.util
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

"""Import layering of the package, read from the source with ``ast``.

``geometry`` is the leaf that owns every shared kernel (frame, stencils,
chord weights, the curve-piece splitter, the Gaussian density),
``lagrangian`` builds only on it, and neither the flow loop nor the run
reader in ``runio`` reaches up into the analysis or the CLI.  A kernel that one of these layers needs
therefore has exactly one home.  The package runs on NumPy alone: no
module imports scipy, which the tests use only as an oracle.
"""
import ast
import importlib
import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lagflow"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def lagflow_imports(module: str) -> set[str]:
    """The lagflow modules that ``module`` imports, at any depth."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                found.add(node.module.split(".")[0])
            elif node.level == 1:
                found.update(alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "lagflow":
                parts = node.module.split(".")
                found.update([parts[1]] if len(parts) > 1 else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "lagflow" and len(parts) > 1:
                    found.add(parts[1])
    return found


def top_level_imports(module: str) -> set[str]:
    """The top-level packages that ``module`` imports absolutely."""
    tree = ast.parse((SRC / f"{module}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
    return found


def test_reader_sees_both_import_forms():
    # cli uses "from . import analysis" and "from .flow import ..."
    assert {"analysis", "flow", "runio"} <= lagflow_imports("cli")
    for module in MODULES:
        assert lagflow_imports(module) <= set(MODULES), module


def test_top_level_reader_sees_numpy():
    assert "numpy" in top_level_imports("geometry")


@pytest.mark.parametrize("module", MODULES + ["__init__"])
def test_no_module_imports_scipy(module):
    assert "scipy" not in top_level_imports(module)


def test_cli_import_loads_no_scipy():
    # a fresh interpreter: the test process itself has scipy loaded
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import lagflow.cli; "
        "print(json.dumps(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.'))))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout) == []


def test_geometry_is_a_leaf():
    assert lagflow_imports("geometry") == set()


def test_lagrangian_builds_on_geometry_only():
    assert lagflow_imports("lagrangian") <= {"geometry"}


@pytest.mark.parametrize("upper", ["analysis", "cli"])
def test_flow_does_not_import_upward(upper):
    assert upper not in lagflow_imports("flow")


def test_runio_builds_on_flow_and_geometry_only():
    # the run reader serves the analysis and the CLI; it never calls them
    assert lagflow_imports("runio") <= {"flow", "geometry"}


@pytest.mark.parametrize("module", [m for m in MODULES if m != "geometry"])
def test_only_geometry_splits_curves(module):
    # GAP_FACTOR is the jump rule of geometry.curve_pieces; a module that
    # reads it is cutting curves into pieces on its own
    tree = ast.parse((SRC / f"{module}.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for a in node.names}
    assert "GAP_FACTOR" not in names


@pytest.mark.parametrize("module", MODULES)
def test_no_private_names_imported(module):
    # a leading underscore marks a name as its own module's business; a
    # kernel another module needs is public, so its one home is visible
    tree = ast.parse((SRC / f"{module}.py").read_text())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level == 1 or (node.module or "").split(".")[0] == "lagflow")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


@pytest.mark.parametrize("module", MODULES)
def test_public_names_are_defined(module):
    # a name left in __all__ after its definition was deleted breaks
    # "from lagflow.<module> import *" only when someone tries it
    mod = importlib.import_module(f"lagflow.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_tracer_patched_names_exist():
    # perfbench's tracer looks these functions up with getattr; a name that
    # is gone crashes every traced benchmark run instead of showing up as
    # a missing metric
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    (table,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "HOME_PATCHED" for t in node.targets)
    ]
    patched = ast.literal_eval(table)
    assert patched
    for module, names in patched.items():
        mod = importlib.import_module(f"lagflow.{module}")
        assert [name for name in names if not callable(getattr(mod, name, None))] == [], module

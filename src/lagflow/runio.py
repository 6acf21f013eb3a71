"""Run artifacts: snapshot JSON, diagnostics CSV, manifests, SVG.

All writers are deterministic byte-for-byte given the same inputs:
floats are serialized with Python's shortest round-trip repr (which
preserves the full binary value, i.e. more than 15 significant digits
whenever they matter), dict keys are sorted, and no timestamps enter
the diagnostics or snapshot files.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from typing import Iterable, Mapping, Sequence

import numpy as np

from .flow import DIAGNOSTIC_COLUMNS, FlowState, Trajectory
from .geometry import PlaneCurve

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_csv",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "write_json",
    "read_manifest",
    "write_decomposition",
    "write_svg",
    "file_sha256",
    "load_trajectory",
    "snapshot_name",
]


def write_snapshot(path: str, curve: PlaneCurve, t: float) -> None:
    doc = {
        "t": float(t),
        "closed": bool(curve.closed),
        "points": [[float(x), float(y)] for x, y in curve.points],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def read_snapshot(path: str) -> tuple[PlaneCurve, float]:
    with open(path) as fh:
        doc = json.load(fh)
    pts = np.asarray(doc["points"], dtype=np.float64)
    return PlaneCurve(pts, closed=bool(doc["closed"])), float(doc["t"])


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """A header line, then one row per index of the equal-length
    ``columns``, each value written as repr(float(x))."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    lines = [",".join(header)]
    for i in range(len(cols[0])):
        lines.append(",".join(repr(float(c[i])) for c in cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_diagnostics_csv(path: str, diagnostics: Mapping[str, np.ndarray]) -> None:
    write_csv(path, DIAGNOSTIC_COLUMNS, [diagnostics[name] for name in DIAGNOSTIC_COLUMNS])


def read_diagnostics_csv(path: str) -> dict[str, np.ndarray]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.asarray(rows, dtype=np.float64) if rows else np.zeros((0, len(header)))
    return {name: data[:, j] for j, name in enumerate(header)}


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def write_json(path: str, doc) -> None:
    """``doc`` as JSON with sorted keys and indent 2, nan and inf written
    as null (JSON has neither), and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(_json_safe(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def write_decomposition(path: str, s: float, sigma: float, decomposition) -> None:
    components = [
        {
            "direction": comp.direction,
            "doubled_angle": [comp.mean_doubled_angle.real, comp.mean_doubled_angle.imag],
            "spread": comp.angle_spread,
            "mass": comp.mass,
            "residual": comp.residual,
        }
        for comp in decomposition.components
    ]
    write_json(path, {"s": float(s), "sigma": float(sigma), "components": components})


def write_svg(path: str, curves: Iterable[PlaneCurve], half_extent: float | None = None) -> None:
    """Origin-centered fixed-viewport sketch of one or more curves.

    Convenience output only; earlier curves are drawn fainter.
    """
    curves = list(curves)
    if half_extent is None:
        half_extent = 1.2 * max(
            float(np.max(np.linalg.norm(c.points, axis=1))) for c in curves
        )
    size = 640
    scale = size / (2.0 * half_extent)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" stroke="#ddd"/>',
        f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" stroke="#ddd"/>',
    ]
    n = len(curves)
    for k, curve in enumerate(curves):
        shade = "#1b6ca8" if k == n - 1 else "#a8c6dd"
        xs = size / 2 + curve.points[:, 0] * scale
        ys = size / 2 - curve.points[:, 1] * scale
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        tag = "polygon" if curve.closed else "polyline"
        parts.append(f'<{tag} points="{coords}" fill="none" stroke="{shade}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def file_sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def snapshot_name(index: int) -> str:
    return f"snapshot_{index:06d}.json"


def load_trajectory(run_dir: str) -> Trajectory:
    """Rebuild a Trajectory from a run directory (manifest + snapshots + CSV)."""
    manifest = read_manifest(os.path.join(run_dir, "manifest.json"))
    c = manifest.get("initial_constant")
    c = float("nan") if c is None else float(c)
    snap_dir = os.path.join(run_dir, "snapshots")
    names = sorted(f for f in os.listdir(snap_dir) if f.endswith(".json"))
    states = []
    for k, name in enumerate(names):
        curve, t = read_snapshot(os.path.join(snap_dir, name))
        states.append(FlowState(curve=curve, t=t, initial_constant=c, step_index=k))
    diagnostics = read_diagnostics_csv(os.path.join(run_dir, "diagnostics.csv"))
    return Trajectory(states=states, diagnostics=diagnostics, initial_constant=c)

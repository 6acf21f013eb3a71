"""Initial-curve builders for the standard runs and analysis fixtures.

A builder takes node counts from MIN_NODES (32 for the open fixtures)
up to MAX_RESOLUTION, and refuses a size parameter that puts the curve
beyond flow.COORDINATE_SCALE, with :func:`flow.check_scale`'s message;
both before it builds a node array.  Closed curves are symmetric under
x -> -x only as far as the sampling and the resampling keep it; nothing
projects them onto that symmetry.  Open fixtures are unions of straight
lines through the origin sampled on half-offset grids, so no node ever
sits exactly at the origin where the angle field is undefined.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .flow import check_scale
from .geometry import MIN_NODES, CurveConfigError, PlaneCurve, resample

__all__ = [
    "SEMI_MINOR",
    "MAX_RESOLUTION",
    "Scenario",
    "SCENARIOS",
    "build_scenario",
    "scenario_table",
    "circle_curve",
    "ellipse_curve",
    "cassini_curve",
    "line_pair_curve",
    "x_cone_curve",
]

SEMI_MINOR = 2.0
CASSINI_SAMPLES = 8192
# The largest node count a builder accepts, far above the 2,048 of the
# deepest studies: a count of 1e8 exhausted memory before any message.
MAX_RESOLUTION = 2**16


def circle_curve(resolution: int, rho: float = 2.0) -> PlaneCurve:
    """Origin-centered circle of radius rho; shrinks self-similarly."""
    if rho <= 0.0:
        raise CurveConfigError("circle radius must be positive")
    check_scale(rho)
    _check_resolution(resolution)
    u = 2.0 * np.pi * np.arange(resolution) / resolution
    pts = rho * np.column_stack([np.cos(u), np.sin(u)])
    return PlaneCurve(pts)


def ellipse_curve(resolution: int, a: float = 3.0) -> PlaneCurve:
    """Axis-aligned ellipse with semi-major a and semi-minor fixed at 2,
    resampled to uniform arclength with node 0 at (a, 0)."""
    if a < SEMI_MINOR:
        raise CurveConfigError(f"semi-major axis must be >= {SEMI_MINOR}")
    check_scale(a)
    _check_resolution(resolution)
    u = 2.0 * np.pi * np.arange(resolution) / resolution
    pts = np.column_stack([a * np.cos(u), SEMI_MINOR * np.sin(u)])
    return resample(PlaneCurve(pts), resolution)


def cassini_curve(resolution: int, b: float = 1.05) -> PlaneCurve:
    """Cassini oval with foci at (+-1, 0), r^2 = cos 2θ + sqrt(b^4 - sin^2 2θ).

    Its neck at the origin has half-width sqrt(b^2 - 1), so it narrows
    as b falls to 1.  Sampled on CASSINI_SAMPLES uniform angles, then
    resampled to uniform arclength with node 0 at (r(0), 0).
    """
    if not b > 1.0:
        raise CurveConfigError("cassini parameter b must be greater than 1")
    # the largest radius, at theta = 0, is sqrt(1 + b^2); b**4 below
    # overflows from b ~ 1e77
    check_scale(math.hypot(1.0, b))
    _check_resolution(resolution)
    u = 2.0 * np.pi * np.arange(CASSINI_SAMPLES) / CASSINI_SAMPLES
    r = np.sqrt(np.cos(2.0 * u) + np.sqrt(b**4 - np.sin(2.0 * u) ** 2))
    pts = r[:, None] * np.column_stack([np.cos(u), np.sin(u)])
    return resample(PlaneCurve(pts), resolution)


def line_pair_curve(resolution: int, phi: float = 0.3, truncation: float = 10.0) -> PlaneCurve:
    """Two full lines through the origin at angles phi and phi + pi/2.

    This is the special Lagrangian cone fixture: the velocity field
    vanishes identically on straight lines through the origin, so the
    curve is an exact equilibrium of the discrete flow as well.
    """
    if truncation <= 0.0:
        raise CurveConfigError("truncation half-width must be positive")
    check_scale(truncation)
    _check_resolution(resolution, minimum=32)
    half = resolution // 2
    first = _line_nodes(phi, truncation, half)
    second = _line_nodes(phi + 0.5 * np.pi, truncation, resolution - half)
    return PlaneCurve(np.vstack([first, second]), closed=False)


def x_cone_curve(resolution: int, truncation: float = 10.0) -> PlaneCurve:
    """The transverse pair of lines at pi/4 and 3*pi/4 (both branches
    carry the same doubled angle exp(2*i*theta) = -1)."""
    return line_pair_curve(resolution, phi=0.25 * np.pi, truncation=truncation)


def _line_nodes(angle: float, half_width: float, count: int) -> np.ndarray:
    step = 2.0 * half_width / count
    u = -half_width + (np.arange(count) + 0.5) * step
    e = np.array([np.cos(angle), np.sin(angle)])
    return u[:, None] * e[None, :]


def _check_resolution(resolution: int, minimum: int = MIN_NODES) -> None:
    if resolution < minimum:
        raise CurveConfigError(f"resolution must be at least {minimum}")
    if resolution > MAX_RESOLUTION:
        raise CurveConfigError(f"resolution {resolution} is above the largest, {MAX_RESOLUTION}")


@dataclass(frozen=True)
class Scenario:
    name: str
    params: dict
    builder: Callable[..., PlaneCurve]
    notes: str


SCENARIOS: dict[str, Scenario] = {
    "circle": Scenario(
        name="circle",
        params={"rho": 2.0},
        builder=circle_curve,
        notes="shrinks self-similarly to the origin; lifespan rho^2/4",
    ),
    "ellipse": Scenario(
        name="ellipse",
        params={"a": 3.0},
        builder=ellipse_curve,
        notes="semi-minor fixed at 2; shrinks to a point at the origin at t ~ c/2",
    ),
    "cassini": Scenario(
        name="cassini",
        params={"b": 1.05},
        builder=cassini_curve,
        notes="neck at the origin; pinches before c/2 for b near 1",
    ),
    "slag_cone": Scenario(
        name="slag_cone",
        params={"phi": 0.3, "truncation": 10.0},
        builder=line_pair_curve,
        notes="perpendicular lines through the origin; analysis fixture, stationary",
    ),
    "x_cone": Scenario(
        name="x_cone",
        params={"truncation": 10.0},
        builder=x_cone_curve,
        notes="line pair at pi/4 and 3pi/4; analysis fixture, stationary",
    ),
    "custom": Scenario(
        name="custom",
        params={"path": ""},
        builder=None,  # resolved by the CLI, which owns file I/O
        notes="initial curve loaded from a snapshot file",
    ),
}


def build_scenario(name: str, resolution: int, params: dict | None = None) -> PlaneCurve:
    """Instantiate a named scenario, rejecting unknown parameter keys."""
    if name not in SCENARIOS:
        raise CurveConfigError(
            f"unknown scenario {name!r}; choices: {', '.join(sorted(SCENARIOS))}"
        )
    if name == "custom":
        raise CurveConfigError("custom scenarios are built from a snapshot path")
    scenario = SCENARIOS[name]
    given = dict(params or {})
    unknown = sorted(set(given) - set(scenario.params))
    if unknown:
        raise CurveConfigError(
            f"unknown parameter(s) for scenario {name!r}: {', '.join(unknown)}"
        )
    merged = {**scenario.params, **given}
    return scenario.builder(resolution, **merged)


def scenario_table() -> str:
    """Plain-text table of the available scenarios."""
    rows = [("name", "parameters", "notes")]
    for sc in SCENARIOS.values():
        if sc.name == "custom":
            pstr = "path=<snapshot.json>"
        else:
            pstr = ", ".join(f"{k}={v:g}" for k, v in sc.params.items())
        rows.append((sc.name, pstr, sc.notes))
    widths = [max(len(r[i]) for r in rows) for i in range(3)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(r[j].ljust(widths[j]) for j in range(3)).rstrip())
        if i == 0:
            lines.append("  ".join("-" * widths[j] for j in range(3)))
    return "\n".join(lines)

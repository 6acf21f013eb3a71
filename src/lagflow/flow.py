"""Explicit time stepping for the equivariant curve flow.

The evolution law is

    d gamma / dt  =  kappa * n  -  x_perp / |x|^2

where kappa*n is the curvature vector and x_perp is the normal part of the
position vector.  It is curve shortening plus a radial forcing that makes
the swept surface in C^2 move by mean curvature.  Both terms together are
what the invariants in :mod:`lagflow.lagrangian` are exact for: enclosed
area drains at the constant rate 4*pi per unit time on winding-one curves,
so the flow has a built-in clock against which every run is checked.

Integration is explicit (Euler by default, Heun optionally) with a
stability-limited step

    dt = SAFETY * min( h^2,  h * min|x|^2 / (2 max|<x,n>|),  h / (2 max|v|) )

where h is the smallest arclength spacing.  The Euler stability limit of
the 4th-order second-difference stencil is 0.375 h^2, so SAFETY = 0.2
keeps the diffusive step comfortably inside it.  Nodes
of a closed curve are pushed back to equal arclength spacing whenever a
step has spread their arclength weights by more than REDISTRIBUTE_RATIO,
so the curve's own spacing decides when.  Every closed curve is stepped
and redistributed the same way, whatever its node count or symmetry.

A run ends either at a requested time or at one of three singularity
triggers, checked in priority order before every step:

* ``origin_contact``    -- a node of a closed curve enters the disk of
                           radius ORIGIN_CONTACT_FACTOR times the initial
                           diameter around the origin (the flow law is
                           singular there, and reaching it is the
                           interesting event);
* ``curvature_blowup``  -- max |kappa| * h exceeds CURVATURE_BLOWUP_PRODUCT,
                           i.e. the curve bends faster than the node
                           spacing can represent;
* ``step_underflow``    -- the stable step fell below DT_MIN; when the
                           records give no singular-time bracket this is a
                           lost integration (StepUnderflowError) instead.

Diagnostics are sampled on a uniform time grid (plus a geometric cascade
of extra records as the minimum radius collapses, see TAIL_AREA_FRACTION)
and carried as plain column arrays, one row per recorded state.

The trigger alone names the singular point: the node of largest |kappa|
for ``curvature_blowup``, else the origin (on the swept surface a node at
distance d from the origin sweeps a circle of radius d, a regular point).

Both integrators take curves within the coordinate scale: no coordinate
of the initial curve may exceed COORDINATE_SCALE in magnitude.  The
initial curve is checked before the first step (by make_state, and again
by the integrator), never per step; a larger curve is refused with
CurveConfigError.

The radial twin (:func:`radial_evolve`) runs the same flow over the polar
angle under the same rules, each defined once: the record interval, the
stepping clock, the origin-contact radius and the report with its
singular point and singular-time bracket.

Both integrators step in place, in arrays made once per run.  evolve
keeps its nodes in a StepWorkspace, the one holder of a step's geometry:
a record's diagnostics row and the stop report read it right after its
update, and no copy of its terms is made.  evolve writes each step
into a buffer of its own and copies it back once it is finite; a Heun
step writes its predictor straight into the nodes of a second
workspace, which computes only the predictor's guards and velocity, not
its step scalars.  evolve also carries a lower bound on the smallest
chord from step to step, the spacing guard's rule of geometry's module
docstring: an Euler step lowers the floor of its update by 2 dt vmax and
a rounding slack (StepWorkspace.chord_floor_after), and hands the result
to the next update, which skips its chord pass while the floor clears
the guard's threshold.  The Heun predictor gets the same floor; the
chord pass runs on the first update, after each redistribution, after
each Heun corrector (whose predictor's peak speed is not computed) and
whenever the floor falls below the threshold.  The radial twin keeps r
in a buffer padded by two periodic samples per end (_RadialWorkspace),
whose stencil views and work arrays it makes once for
:func:`radial_velocity`; one reduction over the rows
[r, r r + r' r', -|dr/dt|] gives min r and the step cap.  Both
workspaces' updates take no argument and leave the step scalars as
attributes (``cap`` is the step before SAFETY), read only as such.
Every step equals, bit for bit, the allocating form that the tests keep
as their oracle.
"""
from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .geometry import (
    MIN_NODES,
    CurveConfigError,
    CurveError,
    OriginContactError,
    PlaneCurve,
    StepWorkspace,
    compute_frame,
    curve_terms,
    enclosed_area,
    pad_periodic,
    periodic_derivatives,
    resample,
    stencil_constants,
    stencil_out,
    stencil_views,
    swept_gaussian_density,
)
from .lagrangian import NonMonotoneError, drainage_defect, lagrangian_angle, monotone_data

__all__ = [
    "IntegrationError",
    "StepUnderflowError",
    "TrajectoryRangeError",
    "FlowConfig",
    "StopConditions",
    "RecordingConfig",
    "FlowState",
    "make_state",
    "velocity",
    "stability_dt",
    "step",
    "evolve",
    "Trajectory",
    "SingularityReport",
    "TimeEstimate",
    "estimate_singular_time",
    "DIAGNOSTIC_COLUMNS",
    "COORDINATE_SCALE",
    "check_scale",
    "RadialProfile",
    "RadialTrajectory",
    "radial_rhs",
    "radial_evolve",
]

DIAGNOSTIC_COLUMNS = (
    "t",
    "dt",
    "area",
    "liouville_integral",
    "maslov_integral",
    "monotone_defect",
    "max_curvature",
    "min_radius",
    "gaussian_density_origin",
    "angle_min",
    "angle_max",
)

# Origin contact: the minimum radius fell below this times the initial
# diameter (in both integrators).
ORIGIN_CONTACT_FACTOR = 0.005
# Curvature blow-up: max |kappa| times the smallest node spacing exceeds
# this.
CURVATURE_BLOWUP_PRODUCT = 1.0
# Once the enclosed area of a closed curve has dropped below
# TAIL_AREA_FRACTION times its initial value, an extra record is taken
# whenever the minimum radius falls below TAIL_RADIUS_RATIO times its
# value at the previous record, so the approach to a pinch is resolved
# geometrically.
TAIL_AREA_FRACTION = 0.25
TAIL_RADIUS_RATIO = 0.95
# A closed curve is redistributed after a step whose weight spread, its
# largest arclength weight over its smallest, exceeds this times the
# spread the last redistribution left (1 before the first).  On the
# normalized a=3 ellipse at N=224 one step widens the spread by about
# 6e-4, and a redistribution costs about as much as 4 steps.  A lower
# ratio keeps the smallest spacing, and so the step, larger at the price
# of more redistributions; a higher one does the reverse (1.01: 669
# redistributions in 12,201 steps; 1.05: 146 in 12,478; 1.2: 39 in
# 13,496).
REDISTRIBUTE_RATIO = 1.05
# The step is SAFETY times the stability-limited cap; at 0.9 the circle of
# radius 1 at N=64 stops on a false curvature_blowup at t=0.177 of 0.25.
SAFETY = 0.2
# The step floor: a smaller stable step is a step underflow, and a
# smaller record interval is rejected.
DT_MIN = 1e-14
# The step budget of a run; exhausting it raises IntegrationError.
MAX_STEPS = 2_000_000
# The largest coordinate magnitude of a run's initial curve.  Run
# quantities are powers of the length scale L up to L^4 (speed^3 in the
# curvature, squared record times ~ L^2 in the bracket fit), so float64
# overflows them from L ~ 1e77; at 1e50 each stays far inside its range.
COORDINATE_SCALE = 1e50
_ORIGIN = np.zeros(2)
# whether every element of a bool array is true: the reduction that
# ndarray.all runs, without its Python-level wrapper
_all_true = np.logical_and.reduce


class IntegrationError(RuntimeError):
    """The integrator lost the curve (non-finite values, step budget).

    ``last_state`` holds the most recent usable state: a FlowState, or a
    RadialProfile for errors of :func:`radial_evolve`.
    """

    def __init__(self, message: str, last_state: "FlowState | RadialProfile | None" = None):
        super().__init__(message)
        self.last_state = last_state


class StepUnderflowError(IntegrationError):
    """The stability-limited step fell below the floor DT_MIN."""


class TrajectoryRangeError(ValueError):
    """A time or scale outside the span actually covered by a run."""


@dataclass(frozen=True)
class FlowConfig:
    """Integrator knob: the explicit ``scheme``, 'euler' or 'heun'.

    The step rules are the module constants SAFETY, DT_MIN and MAX_STEPS,
    the stop triggers ORIGIN_CONTACT_FACTOR and CURVATURE_BLOWUP_PRODUCT,
    and a closed curve is redistributed whenever its spacing trigger fires
    (REDISTRIBUTE_RATIO).
    """

    scheme: str = "euler"

    def __post_init__(self):
        if self.scheme not in ("euler", "heun"):
            raise CurveConfigError(f"scheme must be 'euler' or 'heun', got {self.scheme!r}")


@dataclass(frozen=True)
class StopConditions:
    """When to stop short of a singularity.  ``t_end=None`` runs until a
    trigger fires (or the step budget runs out)."""

    t_end: float | None = None


@dataclass(frozen=True)
class RecordingConfig:
    """Diagnostic sampling.

    ``snapshot_dt=None`` picks the smaller of (c/2)/50 on closed curves
    with a positive c-constant (50 records across the nominal drain time)
    and t_end/40 when a stop time is set.  The extra records near a pinch
    follow TAIL_AREA_FRACTION and TAIL_RADIUS_RATIO.
    """

    snapshot_dt: float | None = None


@dataclass(frozen=True)
class FlowState:
    """A curve at a moment of flow time.

    ``initial_constant`` is the c-constant of the run's initial curve
    (nan when undefined); it rides along so drift from the drainage law
    can be measured at any later state.  ``step_index`` counts the steps
    since :func:`make_state` in a state from :func:`evolve` or
    :func:`step`; in one read back by ``runio.load_trajectory`` it is the
    record index k, as snapshots store no step count.
    """

    curve: PlaneCurve
    t: float
    initial_constant: float
    step_index: int = 0


@dataclass(frozen=True)
class SingularityReport:
    """What stopped the run and where the singular time must lie.

    For a detected singularity, [t_low, t_high] brackets the blow-up time:
    t_low is the last time reached, t_high extrapolates the collapse of
    the minimum radius.  ``singular_point`` follows from the trigger: the
    node of largest |kappa| at a curvature blow-up, the origin at an
    origin contact or a step underflow, None without a trigger.
    """

    detected: bool
    trigger: str | None
    t_low: float
    t_high: float
    singular_point: np.ndarray | None
    max_curvature_at_stop: float
    min_radius_at_stop: float


@dataclass(frozen=True)
class TimeEstimate:
    value: float
    width: float
    conclusive: bool


@dataclass
class Trajectory:
    """Recorded states plus diagnostic columns (one entry per record).

    Row k of every diagnostics column belongs to record k, and
    ``diagnostics["t"][k]`` is the same float as ``states[k].t``, so the
    record times are read without touching the states.  ``states`` is a
    list from ``evolve``; ``runio.load_trajectory`` gives a sequence that
    reads each record from disk on first access, and ``diagnostics`` may
    then be a read-only Mapping whose columns are parsed when first read
    (see ``runio.read_diagnostics_csv``).

    That sequence also serves records without a FlowState each:
    ``states.slab(k)`` is records k onwards, up to the first that the
    run's verified records.npy does not serve, as a slab (t, nodes,
    closed): their times (B,), their nodes as a read-only (B, N, 2) view
    of the rows the sequence holds, and their closedness; it is None when
    record k is not served.  The passes that walk every record
    (``analysis.monotonicity_check`` and ``analysis.lemma_table``) read
    served records through it, and every other record (one not served, a
    row that is not a valid curve, any record of a list) by indexing.
    """

    states: Sequence[FlowState]
    diagnostics: Mapping[str, np.ndarray]
    initial_constant: float

    @property
    def times(self) -> np.ndarray:
        return self.diagnostics["t"]

    def curve_at(self, t: float) -> PlaneCurve:
        """Curve at time t, linearly interpolated between records."""
        times = self.times
        if not times[0] <= t <= times[-1]:
            raise TrajectoryRangeError(
                f"t={t:.6g} outside recorded span [{times[0]:.6g}, {times[-1]:.6g}]"
            )
        i = int(np.searchsorted(times, t, side="right") - 1)
        if i >= len(times) - 1:
            return self.states[-1].curve
        t0, t1 = times[i], times[i + 1]
        if t1 == t0:
            return self.states[i].curve
        lam = (t - t0) / (t1 - t0)
        a, b = self.states[i].curve, self.states[i + 1].curve
        if a.node_count != b.node_count:
            raise TrajectoryRangeError("records have mismatched node counts")
        return PlaneCurve((1.0 - lam) * a.points + lam * b.points, closed=a.closed)


def check_scale(coords: np.ndarray) -> None:
    """Refuse an initial curve, given by its node coordinates, its radii
    or its reach, with a coordinate beyond COORDINATE_SCALE in magnitude,
    with CurveConfigError.  A caller that transforms a curve before making
    its state (such as normalizing it) checks the curve first, since the
    transform's own arithmetic may overflow beyond the scale; a scenario
    builder checks its reach before it builds the curve."""
    reach = float(np.abs(coords).max())
    if not reach <= COORDINATE_SCALE:
        raise CurveConfigError(
            f"curve coordinates reach {reach:.3e}, beyond the coordinate "
            f"scale {COORDINATE_SCALE:g}"
        )


def make_state(curve: PlaneCurve, t: float = 0.0) -> FlowState:
    """Initial flow state; the c-constant is computed here and frozen.

    A curve beyond COORDINATE_SCALE raises CurveConfigError, a degenerate
    one (coincident nodes, vanishing speed) DegenerateCurveError; a curve
    without a c-constant gets nan.
    """
    check_scale(curve.points)
    try:
        c = monotone_data(curve, compute_frame(curve)).constant_c
    except (NonMonotoneError, OriginContactError, CurveConfigError):
        c = float("nan")
    return FlowState(curve=curve, t=float(t), initial_constant=c, step_index=0)


def velocity(curve: PlaneCurve) -> np.ndarray:
    """kappa*n - x_perp/|x|^2 per node, shape (N, 2), as the step uses it."""
    return curve_terms(curve.points, curve.closed).velocity.T.copy()


def stability_dt(curve: PlaneCurve, safety: float) -> float:
    """Largest explicit step the current geometry supports."""
    return safety * curve_terms(curve.points, curve.closed).cap


def _advance(
    pts: np.ndarray,
    vel: np.ndarray,
    dt: float,
    last,
    out: np.ndarray,
    finite: np.ndarray,
    predictor: StepWorkspace | None = None,
) -> np.ndarray:
    """Nodes after one step from ``pts`` with velocity ``vel``, both (2, N)
    rows as a StepWorkspace holds them, written into the (2, N) array
    ``out`` and returned; ``pts`` is left as it was.  Without
    ``predictor`` the step is Euler's.  With it, a StepWorkspace at the
    same node count, the step is Heun's: the predictor nodes go straight
    into ``predictor.nodes``, and its update_velocity gives their guards
    and velocity, all the corrector reads.  ``finite``, a (2, N) bool
    array, takes the finiteness checks; ``last()`` gives the pre-step
    state for the IntegrationError raised on non-finite values."""
    if predictor is None:
        # pts + dt vel
        np.multiply(vel, dt, out)
        out += pts
    else:
        pred = predictor.nodes
        np.multiply(vel, dt, pred)
        pred += pts
        if not _all_true(np.isfinite(pred, finite), None):
            st = last()
            raise IntegrationError(f"non-finite predictor at t={st.t:.6g}", last_state=st)
        predictor.update_velocity()
        # pts + 0.5 dt (vel + predictor velocity)
        np.add(vel, predictor.velocity, out)
        out *= 0.5 * dt
        out += pts
    if not _all_true(np.isfinite(out, finite), None):
        st = last()
        raise IntegrationError(f"non-finite node positions at t={st.t:.6g}", last_state=st)
    return out


def _step_buffers(curve: PlaneCurve, scheme: str) -> tuple[np.ndarray, np.ndarray, StepWorkspace | None]:
    """The arrays a stepping loop over ``curve``'s node count keeps for
    :func:`_advance`: the new nodes, the finiteness mask and, for Heun,
    the predictor's workspace."""
    n = curve.node_count
    predictor = StepWorkspace(curve.points, curve.closed) if scheme == "heun" else None
    return np.empty((2, n)), np.empty((2, n), dtype=bool), predictor


def step(state: FlowState, config: FlowConfig) -> FlowState:
    """One explicit step of ``config.scheme`` at the stability-limited size;
    a step below DT_MIN raises StepUnderflowError."""
    curve = state.curve
    ws = StepWorkspace(curve.points, curve.closed)
    ws.update()
    dt = SAFETY * ws.cap
    if dt < DT_MIN:
        raise StepUnderflowError(
            f"stable step {dt:.3e} below floor {DT_MIN:.3e}", last_state=state
        )
    buffers = _step_buffers(curve, config.scheme)
    new_pts = _advance(ws.nodes, ws.velocity, dt, lambda: state, *buffers)
    return FlowState(
        curve=PlaneCurve(new_pts.T, closed=curve.closed),
        t=state.t + dt,
        initial_constant=state.initial_constant,
        step_index=state.step_index + 1,
    )


def _diagnostics_row(state: FlowState, ws: StepWorkspace, dt_auto: float) -> dict[str, float]:
    """The diagnostics of ``state``, whose nodes ``ws`` has just updated."""
    curve = state.curve
    frame = ws.frame()
    nan = float("nan")
    row = {
        "t": state.t,
        "dt": dt_auto,
        "area": nan,
        "liouville_integral": nan,
        "maslov_integral": nan,
        "monotone_defect": nan,
        "max_curvature": ws.kmax,
        "min_radius": math.sqrt(ws.r2_min),
        "gaussian_density_origin": nan,
        "angle_min": nan,
        "angle_max": nan,
    }
    # the update has rejected every node where the angle field is singular
    angle = lagrangian_angle(curve, frame)
    row["angle_min"] = float(angle.theta.min())
    row["angle_max"] = float(angle.theta.max())
    if curve.closed:
        row["area"] = ws.area()
        try:
            md = monotone_data(curve, frame, angle)
        except NonMonotoneError:
            md = None
        if md is not None:
            row["liouville_integral"] = md.liouville_integral
            row["maslov_integral"] = md.maslov_integral
            c0 = state.initial_constant
            if math.isfinite(c0):
                row["monotone_defect"] = drainage_defect(md, c0, state.t)
    # reference time for the density column: the critical time c/2 when
    # one exists, a fixed lookahead otherwise
    critical = _critical_time(curve.closed, state.initial_constant)
    tau = 0.25 if critical is None else critical - state.t
    if tau > 0.0:
        row["gaussian_density_origin"] = swept_gaussian_density(
            curve.points, frame.weight, _ORIGIN, tau
        )
    return row


def _at_end(t: float, t_end: float | None) -> bool:
    """Whether a run at time t has reached the end time t_end (None:
    never), up to 1e-12 relative to max(1, |t_end|)."""
    return t_end is not None and t >= t_end - 1e-12 * max(1.0, abs(t_end))


class _StepClock:
    """The stepping clock shared by evolve and radial_evolve: a uniform
    snapshot grid that steps land on exactly, and an optional end time."""

    def __init__(self, t0: float, snapshot_dt: float, t_end: float | None):
        self.snapshot_dt = snapshot_dt
        self.t_end = t_end
        self.next_grid = t0 + snapshot_dt
        self.grid_tol = 1e-9 * snapshot_dt

    def on_grid(self, t: float) -> bool:
        """Whether t is the next grid point; if so the grid moves on."""
        if abs(t - self.next_grid) <= self.grid_tol:
            self.next_grid += self.snapshot_dt
            return True
        return False

    def shorten(self, t: float, dt: float) -> float:
        """dt cut to land exactly on the next grid point or on t_end."""
        gap = self.next_grid - t
        if gap <= self.grid_tol:
            # missed the grid point by a rounding hair without detection
            self.next_grid += self.snapshot_dt
            gap = self.next_grid - t
        if gap <= dt * (1.0 + 1e-9):
            dt = gap
        if self.t_end is not None and self.t_end - t < dt:
            dt = self.t_end - t
        return dt


def _critical_time(closed: bool, c0: float) -> float | None:
    """c/2 for a closed curve with finite c-constant c > 0, None otherwise.

    The enclosed area of a once-winding monotone curve drains linearly,
    2*area = (c - 2t) * 4*pi, so such a flow cannot outlive t = c/2.
    """
    if closed and math.isfinite(c0) and c0 > 0.0:
        return 0.5 * c0
    return None


def _check_t_end(t_end: float | None, t0: float, name: str) -> None:
    """The end time ``name`` of a run that starts at t0 must be finite and
    not yet reached at t0 (by :func:`_at_end`, the loops' own rule)."""
    if t_end == math.inf:
        raise CurveConfigError(
            f"{name} {t_end:g} is not a finite time after the start time {t0:g}"
        )
    if t_end is not None and (not t_end > t0 or _at_end(t0, t_end)):
        raise CurveConfigError(
            f"{name} {t_end:g} is not after the start time {t0:g} beyond the end tolerance"
        )


def _record_interval(
    snapshot_dt: float | None, t0: float, t_end: float | None, critical: float | None
) -> float:
    """The record interval of a run from t0: ``snapshot_dt`` when given,
    else the smaller of critical/50 and (t_end - t0)/40 that exist.
    ``critical`` is the critical time c/2, None when there is none.  An
    interval below DT_MIN is rejected: the steps cut to it would be
    below the step floor.  So is one whose grid up to the run's horizon
    (t_end, else c/2, whichever comes first) has more points than
    MAX_STEPS: every grid point ends a step, so the run would exhaust its
    step budget before the horizon, holding a record per grid point."""
    if snapshot_dt is None:
        candidates = [] if critical is None else [critical / 50.0]
        if t_end is not None:
            candidates.append((t_end - t0) / 40.0)
        if not candidates:
            raise CurveConfigError(
                "cannot choose a recording interval: no c-constant and no t_end; "
                "set snapshot_dt explicitly"
            )
        snapshot_dt = min(candidates)
    if not 0.0 < snapshot_dt < math.inf:
        raise CurveConfigError(f"snapshot_dt must be positive and finite, got {snapshot_dt:g}")
    if snapshot_dt < DT_MIN:
        raise CurveConfigError(f"snapshot_dt {snapshot_dt:g} is below the step floor {DT_MIN:g}")
    horizons = [h for h in (t_end, critical) if h is not None]
    if horizons and (min(horizons) - t0) / snapshot_dt > MAX_STEPS:
        raise CurveConfigError(
            f"snapshot_dt {snapshot_dt:g} puts more than the step budget {MAX_STEPS} "
            f"of records before the horizon t={min(horizons):g}"
        )
    return snapshot_dt


def estimate_singular_time(t, min_radius) -> TimeEstimate:
    """Extrapolated vanishing time of the minimum radius, from the record
    times ``t`` and the minimum radius at each record.

    Fits min_radius^2 against t over the trailing run of records where it
    decreases strictly (at most 12, at least 3) and returns the root of
    the linear fit, padded by the fit residual.  Inconclusive when the
    tail is too short or the fit does not point at a vanishing radius.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(min_radius, dtype=float)
    k = len(r) - 1
    while k > 0 and r[k - 1] > r[k] and len(r) - k < 12:
        k -= 1
    tt, yy = t[k:], r[k:] ** 2
    t_last = float(t[-1])
    if len(tt) < 3:
        return TimeEstimate(value=t_last, width=float("inf"), conclusive=False)
    slope, intercept = np.polyfit(tt, yy, 1)
    if slope >= 0.0:
        return TimeEstimate(value=t_last, width=float("inf"), conclusive=False)
    root = -intercept / slope
    resid = float(np.sqrt(np.mean((yy - (slope * tt + intercept)) ** 2)))
    margin = 2.0 * resid / abs(slope)
    value = max(root, t_last)
    return TimeEstimate(value=value, width=value - t_last + margin, conclusive=True)


def _stop_report(
    trigger: str | None,
    times: np.ndarray,
    min_radius: np.ndarray,
    last_dt: float,
    last_state,
    blowup_node: np.ndarray | None,
    max_curvature: float,
    cap: float | None = None,
) -> SingularityReport:
    """The report of a run whose last record (``times``, ``min_radius``)
    is its stop; evolve and radial_evolve both end here.

    Without a trigger the bracket is [t, t] at the last record time t.
    With one, its top is the extrapolated vanishing time of the minimum
    radius over the records, or t + 50 last_dt (the stable step at the
    stop) when that fit is inconclusive, tightened to ``cap`` when the
    caller knows a hard bound on the singular time that the run has not
    passed.  An inconclusive step underflow brackets nothing: it raises
    StepUnderflowError with ``last_state``.  The singular point is
    ``blowup_node``, the node of largest |kappa| at the stop, for a
    curvature blow-up, and the origin for the other triggers.
    """
    t = float(times[-1])
    t_high = t
    point = None
    if trigger is not None:
        est = estimate_singular_time(times, min_radius)
        if est.conclusive:
            t_high = est.value + est.width
        elif trigger == "step_underflow":
            raise StepUnderflowError(
                f"stable step {last_dt:.3e} below floor {DT_MIN:.3e} at t={t:.6g}, "
                "with no singular-time bracket",
                last_state=last_state,
            )
        else:
            t_high = t + 50.0 * last_dt
        if cap is not None and cap >= t:
            t_high = min(t_high, cap)
        t_high = float(t_high)
        point = blowup_node if trigger == "curvature_blowup" else np.zeros(2)
    return SingularityReport(
        detected=trigger is not None,
        trigger=trigger,
        t_low=t,
        t_high=t_high,
        singular_point=point,
        max_curvature_at_stop=max_curvature,
        min_radius_at_stop=float(min_radius[-1]),
    )


def evolve(
    state: FlowState,
    config: FlowConfig | None = None,
    stop: StopConditions | None = None,
    recording: RecordingConfig | None = None,
) -> tuple[Trajectory, SingularityReport]:
    """Run the flow from ``state`` until t_end or a singularity trigger.

    Returns the recorded trajectory and a report.  Records land exactly on
    the uniform snapshot grid (the step is shortened to hit it); the final
    state is always recorded.  Numerical failure (non-finite values, the
    step budget, a curve check failing mid-run, a step underflow without a
    singular-time bracket) raises IntegrationError instead of returning.
    Its ``last_state`` is the state the failure was found at, or for
    non-finite values the state before the failed step.  A curve beyond
    COORDINATE_SCALE raises CurveConfigError before the first step.

    The loop keeps the nodes in one StepWorkspace, which computes each
    step's terms in place, and steps them through arrays it keeps from
    step to step: the new nodes, and for Heun a second workspace that
    computes only the predictor's guards and velocity.  PlaneCurve and
    FlowState objects are built only for records, at the stop and for
    errors; a record and the stop report read the workspace right after
    its update.  The loop binds what it calls once, as the run starts,
    and reads the step scalars as the workspace's attributes.  After an
    Euler step it hands the workspace a lower bound on the smallest chord
    (see the module docstring), so that most updates skip the chord pass;
    the spacing guard raises on exactly the steps it raised on without.
    """
    config = config or FlowConfig()
    stop = stop or StopConditions()
    recording = recording or RecordingConfig()
    check_scale(state.curve.points)
    _check_t_end(stop.t_end, state.t, "stop.t_end")

    curve = state.curve
    closed = curve.closed
    n = curve.node_count
    c0 = state.initial_constant
    critical = _critical_time(closed, c0)
    snapshot_dt = _record_interval(recording.snapshot_dt, state.t, stop.t_end, critical)
    area0 = abs(enclosed_area(curve)) if closed else float("nan")
    contact_radius = ORIGIN_CONTACT_FACTOR * curve.diameter
    # the weight spread max/min that the last redistribution left (None
    # until the next step measures it): equal spline arclength is not
    # quite equal weight, by more on coarse, strongly bent curves, so the
    # trigger measures growth over it
    spread_floor = 1.0

    states: list[FlowState] = []
    columns: dict[str, list[float]] = {k: [] for k in DIAGNOSTIC_COLUMNS}
    last_recorded_min_r = float("inf")
    clock = _StepClock(state.t, snapshot_dt, stop.t_end)
    t, index = state.t, state.step_index
    budget_end = index + MAX_STEPS
    # the nodes live in the workspace from step to step; the step's
    # buffers and the Heun predictor's workspace are kept with it
    ws = StepWorkspace(curve.points, closed)
    nodes = ws.nodes
    stepped, finite, predictor = _step_buffers(curve, config.scheme)

    def state_at() -> FlowState:
        return FlowState(
            curve=PlaneCurve(nodes.T, closed=closed), t=t, initial_constant=c0, step_index=index
        )

    def record(dt_auto: float) -> None:
        nonlocal last_recorded_min_r
        st = state_at()
        row = _diagnostics_row(st, ws, dt_auto)
        for k in DIAGNOSTIC_COLUMNS:
            columns[k].append(row[k])
        states.append(st)
        last_recorded_min_r = row["min_radius"]

    def finish(dt_auto, trigger) -> tuple[Trajectory, SingularityReport]:
        if not states or states[-1].t != t:
            record(dt_auto)
        # c/2 tightens the extrapolated bracket only on a once-winding
        # curve (a nan Maslov integral drops it too)
        once_winding = abs(columns["maslov_integral"][-1] - 4.0 * math.pi) < 1e-3
        diagnostics = {k: np.asarray(v) for k, v in columns.items()}
        report = _stop_report(
            trigger,
            diagnostics["t"],
            diagnostics["min_radius"],
            dt_auto,
            states[-1],
            nodes[:, int(np.abs(ws.curvature).argmax())].copy(),
            ws.kmax,
            critical if once_winding else None,
        )
        return Trajectory(states=states, diagnostics=diagnostics, initial_constant=c0), report

    # what every step calls, bound once: the stages that tests and the
    # benchmark's tracer replace (StepWorkspace.update, _advance) are
    # looked up here, as the run starts
    update, advance, on_grid, shorten = ws.update, _advance, clock.on_grid, clock.shorten
    floor_after, vel = ws.chord_floor_after, ws.velocity
    try:
        while True:
            update()
            dt_auto = SAFETY * ws.cap
            min_r = math.sqrt(ws.r2_min)
            spacing = ws.spacing
            if spread_floor is None:
                spread_floor = ws.max_weight / spacing

            # --- recording at the current state -------------------------
            grid_hit = on_grid(t)
            tail_hit = (
                closed
                and min_r <= TAIL_RADIUS_RATIO * last_recorded_min_r
                and abs(ws.area()) < TAIL_AREA_FRACTION * area0
            )
            if not states or grid_hit or tail_hit:
                record(dt_auto)

            # --- stop checks (before stepping) ---------------------------
            if closed and min_r < contact_radius:
                return finish(dt_auto, "origin_contact")
            if ws.kmax * spacing > CURVATURE_BLOWUP_PRODUCT:
                return finish(dt_auto, "curvature_blowup")
            if dt_auto < DT_MIN:
                return finish(dt_auto, "step_underflow")
            if _at_end(t, stop.t_end):
                return finish(dt_auto, None)
            if index >= budget_end:
                raise IntegrationError(
                    f"step budget {MAX_STEPS} exhausted at t={t:.6g}",
                    last_state=state_at(),
                )

            # --- one step, shortened to land on the grid / t_end --------
            # _advance leaves the nodes as they were when it raises, so
            # state_at() is still the pre-step state there
            dt = shorten(t, dt_auto)
            # the smallest chord after nodes + dt vel is at least floor:
            # Euler's new nodes and Heun's predictor get it, while the
            # corrector's nodes and a redistribution's get the chord pass
            floor = floor_after(dt)
            if predictor is not None:
                predictor.carried_floor, floor = floor, None
            new_nodes = advance(nodes, vel, dt, state_at, stepped, finite, predictor)
            nodes[...] = new_nodes
            t = t + dt
            index += 1
            if closed and ws.max_weight > REDISTRIBUTE_RATIO * spread_floor * spacing:
                # through the public resample, which validates its output
                nodes[...] = resample(PlaneCurve(new_nodes.T, closed=True), n).points.T
                spread_floor = floor = None
            ws.carried_floor = floor
    except CurveError as exc:
        raise IntegrationError(
            f"{type(exc).__name__} at t={t:.6g}: {exc}", last_state=state_at()
        ) from exc


# ---------------------------------------------------------------------------
# radial twin: the same flow for star-shaped curves written as a
# graph r(s) over the polar angle.  Used as an independent cross-check of
# the node-based integrator (one PDE, two discretizations).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialProfile:
    """Radius over the uniform polar-angle grid s_j = 2*pi*j/N, at time t.

    Valid only while the curve is a star-shaped graph over the angle; the
    parametric solver is the arbiter when that property is in doubt.
    """

    r: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=np.float64)
        if r.ndim != 1 or len(r) < MIN_NODES:
            raise CurveConfigError(f"radial profile needs at least {MIN_NODES} samples")
        if not np.all(np.isfinite(r)) or r.min() <= 0.0:
            raise CurveConfigError("radial profile must be positive and finite")
        r = r.copy()
        r.setflags(write=False)
        object.__setattr__(self, "r", r)


@dataclass
class RadialTrajectory:
    """Recorded radial profiles; ``radial_rhs(profile)`` is a record's dr/dt."""

    profiles: list[RadialProfile]

    @property
    def times(self) -> np.ndarray:
        return np.array([p.t for p in self.profiles])


def _radial_constants(n: int, shape: tuple[int, ...]) -> tuple:
    """The constants of :func:`radial_velocity` on n angles: the
    :func:`stencil_constants` of the spacing 2 pi / n, shaped ``shape``,
    then 2 and 3 as 0-d float64 arrays."""
    return stencil_constants(2.0 * np.pi / n, shape), np.array(2.0), np.array(3.0)


def radial_velocity(
    views: tuple[np.ndarray, ...], out: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """dr/dt (see :func:`radial_rhs`) and r' of positive profiles, padded
    by :func:`pad_periodic` along axis 0 (the uniform angle grid), from
    their :func:`stencil_views` ``views``.  ``out`` gives the arrays to
    work in, the :func:`stencil_out` of one unpadded profile set, and the
    :func:`_radial_constants` of its angle count; by default they are
    new, and the stencil's constants broadcast.
    Both results are views of the stencil's output: r' is its d1 half,
    and dr/dt is worked in place of r''."""
    r = views[4]
    if out is None:
        out = (stencil_out(r.shape), _radial_constants(len(r), (1,) * r.ndim))
    stencil_work, (constants, two, three) = out
    periodic_derivatives(views, constants, stencil_work)
    # the stencil's scratch halves are free once it returns
    _, _, d1, rhs, tmp, cube = stencil_work
    # (r r'' - 2 r r - 3 r' r') / (r r' r' + r^3), worked in place: each
    # element sees the same operations, in the same order
    rhs *= r
    np.multiply(r, two, tmp)
    tmp *= r
    rhs -= tmp
    np.multiply(d1, three, tmp)
    tmp *= d1
    rhs -= tmp
    np.multiply(r, d1, tmp)
    tmp *= d1
    np.power(r, three, cube)
    tmp += cube
    rhs /= tmp
    return rhs, d1


class _RadialWorkspace:
    """The radial twin's step in arrays kept from step to step, on the
    step contract of StepWorkspace: the profile ``r`` inside a buffer
    padded by two periodic samples per end, with its stencil views made
    once; dr/dt (``rhs``) and r' from :func:`radial_velocity`; and the
    step scalars ``r_min`` and ``cap`` (the step before its safety
    factor), attributes set by :meth:`update` from one reduction over
    the rows [r, r r + r' r', -|dr/dt|]."""

    def __init__(self, r: np.ndarray):
        n = len(r)
        self._h = 2.0 * np.pi / n
        # row 0 is the padded profile; rows 1 and 2 hold r r + r' r' and
        # -|dr/dt| at the profile's columns
        lines = np.empty((3, n + 4))
        padded, extrema = lines[0], lines[:, 2 : n + 2]
        self.r = extrema[0]
        self.r[...] = r
        # radial_velocity's work arrays and constants, whose r'' half
        # takes dr/dt
        stencil_work = stencil_out((n,))
        self.rhs = stencil_work[3]
        # every view a step touches, made once and unpacked by each stage
        self._update_views = (
            padded[:2], padded[n : n + 2], padded[n + 2 :], padded[2:4], stencil_views(padded),
            (stencil_work, _radial_constants(n, (n,))), self.r, extrema[1], extrema[2],
            stencil_work[4], extrema, np.empty(3), np.array(-1.0),
        )
        # r + dt dr/dt and its finiteness mask
        self._advance_views = (self.rhs, self.r, np.empty(n), np.empty(n, dtype=bool))

    def update(self) -> None:
        """dr/dt of the current profile, into ``rhs``, and the step scalars
        ``r_min`` and ``cap``, both from one first difference r'."""
        (
            lo_pad, lo_src, hi_pad, hi_src, views, out, r, caps, rates, tmp, extrema, minima,
            minus_one,
        ) = self._update_views
        lo_pad[...] = lo_src
        hi_pad[...] = hi_src
        rhs, d1 = radial_velocity(views, out)
        np.multiply(r, r, caps)
        np.multiply(d1, d1, tmp)
        caps += tmp
        # -|dr/dt| exactly, so that its minimum is -max|dr/dt|
        np.copysign(rhs, minus_one, rates)
        r_min, cap_min, neg_rate = np.minimum.reduce(extrema, 1, out=minima).tolist()
        if r_min <= 0.0:
            raise OriginContactError("radial profile touched zero")
        rate = -neg_rate
        h = self._h
        # arclength spacing is h*sqrt(r^2 + r'^2); the r'' term has diffusion
        # coefficient 1/(r^2 + r'^2), so this is the same h_min^2 cap as the
        # parametric solver
        cap = h * h * cap_min
        if rate > 0.0:
            cap = min(cap, 0.5 * r_min / rate)
        self.r_min, self.cap = r_min, cap

    def advance(self, t: float, dt: float) -> None:
        """r + dt dr/dt into ``r``.  A non-finite result raises
        IntegrationError with the profile at t, which it leaves as it
        was."""
        rhs, r, stepped, finite = self._advance_views
        np.multiply(rhs, dt, stepped)
        stepped += r
        if not _all_true(np.isfinite(stepped, finite), None):
            raise IntegrationError(
                f"non-finite radial profile at t={t:.6g}", last_state=RadialProfile(r, t)
            )
        r[...] = stepped


def radial_rhs(profile: RadialProfile) -> np.ndarray:
    """dr/dt for the flow written over the polar angle.

    For gamma(s) = r(s) e^{is} the normal motion kappa*n - x_perp/|x|^2
    pushed onto the radial graph reads

        dr/dt = (r r'' - 2 r^2 - 3 r'^2) / (r r'^2 + r^3),

    which reduces to dr/dt = -2/r on circles (r' = r'' = 0).  Equivalently
    dr/dt = -theta'/r with theta the angle field of the reconstructed
    curve — the cross-check used in the test suite.
    """
    return radial_velocity(stencil_views(pad_periodic(profile.r)))[0]


def radial_evolve(
    profile: RadialProfile,
    t_end: float | None = None,
    snapshot_dt: float | None = None,
) -> tuple[RadialTrajectory, SingularityReport]:
    """Integrate the radial law under evolve's run contract, on the nodes
    r_j (cos s_j, sin s_j): the same record interval (t_end/40 by
    default, as there is no c-constant), stops, origin-contact radius,
    singular point and bracket, and the same step rules SAFETY, DT_MIN
    and MAX_STEPS, and the same COORDINATE_SCALE.  As in evolve, the
    stops are tested before the step budget.  An IntegrationError
    carries the last usable RadialProfile.

    The loop keeps the profile in a _RadialWorkspace, which computes each
    step in place; RadialProfile objects are built only for records, at
    the stop and for errors.
    """
    t = float(profile.t)
    check_scale(profile.r)
    _check_t_end(t_end, t, "t_end")
    snapshot_dt = _record_interval(snapshot_dt, t, t_end, None)
    n = len(profile.r)
    s = 2.0 * np.pi * np.arange(n) / n
    unit = np.column_stack([np.cos(s), np.sin(s)])
    contact_radius = ORIGIN_CONTACT_FACTOR * PlaneCurve(profile.r[:, None] * unit).diameter

    profiles: list[RadialProfile] = []
    clock = _StepClock(t, snapshot_dt, t_end)
    trigger = None
    ws = _RadialWorkspace(profile.r)
    r = ws.r
    steps = 0
    while True:
        ws.update()
        dt_auto = SAFETY * ws.cap
        if not profiles or clock.on_grid(t):
            profiles.append(RadialProfile(r, t))
        if ws.r_min < contact_radius:
            trigger = "origin_contact"
            break
        if dt_auto < DT_MIN:
            trigger = "step_underflow"
            break
        if _at_end(t, t_end):
            break
        if steps >= MAX_STEPS:
            raise IntegrationError(
                f"radial step budget exhausted at t={t:.6g}", last_state=RadialProfile(r, t)
            )
        dt = clock.shorten(t, dt_auto)
        ws.advance(t, dt)
        t += dt
        steps += 1

    if profiles[-1].t != t:
        profiles.append(RadialProfile(r, t))
    traj = RadialTrajectory(profiles=profiles)
    minima = np.array([float(p.r.min()) for p in profiles])
    return traj, _stop_report(trigger, traj.times, minima, dt_auto, profiles[-1], None, math.nan)

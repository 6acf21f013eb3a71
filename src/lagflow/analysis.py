"""Singularity analysis: Gaussian density, rescalings, cones, spectra.

Everything here treats the curve as the profile of the swept surface
L = {(gamma cos a, gamma sin a)} in C^2 and asks the blow-up questions:
how much surface concentrates at a space-time point (Gaussian density and
local length ratios), and what the flow looks like through a parabolic
magnifying glass centered there (rescaled curves, their decomposition
into ray components with fitted directions and angle statistics).

Conventions that matter:

* Surface integrals carry the weight pi * |gamma| per unit curve length.
  The (s, alpha) parametrization covers the surface twice for antipodally
  symmetric curves, hence the factor 1/2 folded into pi = 2*pi/2.  The
  convention is pinned by the density-of-a-line oracle: a single straight
  line through the reference point has Gaussian density 1.
* A plane point x0 embeds into C^2 as (x0, 0).  For the density integral
  the azimuthal direction then enters only through a Bessel factor,
  evaluated in its exponentially-scaled form for stability.
* Angles are compared as exp(2i*theta): the two rays of one line carry
  theta values differing by pi, so only the doubled angle is a property
  of the line itself.

The passes that visit every record (Theta along the run in
:func:`monotonicity_check`, the polar profiles and the length-ratio
probes of :func:`lemma_table`) run as array passes over blocks of
records that share a node count.  One budget sizes every block: a block
of N-node records holds BLOCK_BUDGET // N of them, at least one, so each
block array stays within a small multiple of BLOCK_BUDGET floats (the
length-ratio pass's candidate mask holds one bool per node and probe).
A block is a slab (t, nodes, closed), nodes a (B, N, 2) array: the
records that a loaded run serves from its verified records.npy come as
views of those rows, with no curve object per record, and every other
record, an in-memory trajectory's included, one state at a time,
stacked into the slab (see :func:`_record_blocks`).  The one-record
functions (:func:`gaussian_density`, :func:`local_density_ratio`,
:func:`polar_profile`) call the same kernels with a block of one, so each
quantity has one definition.  A value does not depend on its block:
each element goes through the same operations in the same order as on
its own, the row-wise dot products of :func:`_row_dot` included, a
record's length ratio is accumulated left to right along its chords and
its Theta is the pairwise np.sum of its own row.  The length-ratio pass
clips only the chords whose bounding box reaches a probe's disk box,
padded by the margin rule of :func:`_disk_reach`; a skipped chord's clip
is exactly 0, and it adds that exact 0 to the probe's total.  A block
fails as a loop over single records would: the first record that fails
a frame guard is checked, and raises, on its own, and a record that
cannot be read is refused only after the records before it are computed.
"""
from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .flow import (
    RadialProfile,
    SingularityReport,
    Trajectory,
    TrajectoryRangeError,
    radial_velocity,
)
from .geometry import (
    MIN_NODES,
    CurveConfigError,
    PlaneCurve,
    chord_weights,
    closed_weights,
    compute_frame,
    curve_pieces,
    pad_periodic,
    stencil_views,
    swept_gaussian_densities,
)
from .lagrangian import lagrangian_angle

__all__ = [
    "TrajectoryRangeError",
    "DensitySample",
    "gaussian_density",
    "MonotonicityReport",
    "monotonicity_check",
    "DensityRatio",
    "local_density_ratio",
    "RescaledCurve",
    "rescale_flow",
    "ConeComponent",
    "ConeDecomposition",
    "cone_decomposition",
    "AngleSpectrum",
    "angle_spectrum",
    "QuadrantReport",
    "quadrant_monotonicity",
    "polar_profile",
    "acceptance_checks",
    "lemma_table",
]

# Theta may rise by at most DRIFT_TOL between records (quadrature noise).
DRIFT_TOL = 1e-3
# The clip radius of a rescaled view.
RESCALE_WINDOW = 10.0
# Rays whose unit doubled directions lie closer than MERGE_TOL are one line.
MERGE_TOL = 0.15
# Equal bins of the angle spectrum over [0, 2*pi).
SPECTRUM_BINS = 36
# Elements per array pass over a block of records: a block of N-node
# records holds BLOCK_BUDGET // N of them (see the module docstring); it
# bounds each pass's memory.
BLOCK_BUDGET = 8192
# The four-quadrant radius pattern holds within QUADRANT_TOL times max r.
QUADRANT_TOL = 1e-6


@dataclass(frozen=True)
class DensitySample:
    """Gaussian density of the swept surface at space-time point (x0, T),
    evaluated from the curve at time t < T."""

    x0: np.ndarray
    T: float
    t: float
    value: float


def _block_records(nodes: int) -> int:
    """Records per block of ``nodes``-node records: each counts its nodes
    against BLOCK_BUDGET."""
    return max(1, BLOCK_BUDGET // max(nodes, 1))


def _densities(pts: np.ndarray, closed: bool, p: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Gaussian densities at (p, t + tau) of the curves pts (B, N, 2), all
    closed or all open, one tau each: closed curves take their weights
    from one :func:`geometry.closed_weights` pass, open ones from their
    own frames, and all go through one
    :func:`geometry.swept_gaussian_densities` pass."""
    if closed:
        weight = closed_weights(pts)
    else:
        weight = np.stack([compute_frame(PlaneCurve(c, closed=False)).weight for c in pts])
    return swept_gaussian_densities(pts, weight, p, tau)


def gaussian_density(curve: PlaneCurve, x0, T: float, t: float) -> DensitySample:
    """Backward-heat-kernel mass of the swept surface at (x0, T), with
    tau = T - t; see :func:`geometry.swept_gaussian_density`.  The
    one-record case of the block pass of :func:`monotonicity_check`.

    Calibration: a static line through x0 gives 1, two transverse lines
    give 2, the circle of radius 2*sqrt(tau) about the origin gives
    2*pi/e - the full-surface 2-D quadrature agrees, see the test suite.
    """
    tau = T - t
    if tau <= 0.0:
        raise ValueError(f"evaluation time t={t:.6g} must precede T={T:.6g}")
    p = np.asarray(x0, dtype=np.float64).reshape(2)
    value = float(_densities(curve.points[None], curve.closed, p, np.array([tau]))[0])
    return DensitySample(x0=p, T=float(T), t=float(t), value=value)


def _curve_rows(nodes: np.ndarray) -> int:
    """How many leading rows of ``nodes`` (B, N, 2) PlaneCurve would take
    as curves: none for a wrong shape or fewer than MIN_NODES nodes, else
    the rows before the first that holds a non-finite value (checked a
    block at a time)."""
    if nodes.ndim != 3 or nodes.shape[2] != 2 or nodes.shape[1] < MIN_NODES:
        return 0
    step = _block_records(nodes.shape[1])
    for at in range(0, len(nodes), step):
        finite = np.isfinite(nodes[at : at + step]).all(axis=(1, 2))
        if not finite.all():
            return at + int(finite.argmin())
    return len(nodes)


def _record_blocks(states, cutoff: float):
    """The records before ``cutoff`` as slabs (t, nodes, closed): the
    times (B,) and nodes (B, N, 2) of consecutive records that share a
    node count and closedness, at most _block_records(N) of them.

    Records are read in order as the blocks fill.  Where ``states`` has a
    ``slab`` method (see :class:`flow.Trajectory`), each run of records it
    serves comes as rows it already holds: a block inside one run is a
    view of them, and only a block that joins pieces is a copy.  A run is
    validated as PlaneCurve would validate each row (:func:`_curve_rows`)
    and cut before the first row that fails; that record, and every one
    not served, is read by indexing, as a FlowState, so a row that fails
    raises PlaneCurve's error.  A record that cannot be read raises only
    after the block before it is yielded, so that block is computed
    first, as a loop over single records would.
    """
    slab = getattr(states, "slab", None)
    times: list[np.ndarray] = []
    pieces: list[np.ndarray] = []
    head, size, cap = None, 0, 0
    k = 0
    while k < len(states):
        served = slab(k) if slab is not None else None
        if served is not None:
            t, nodes, closed = served
            count = _curve_rows(nodes)
            t, nodes = t[:count], nodes[:count]
        if served is None or not count:
            try:
                state = states[k]
            except Exception:
                # whatever reading raises, after the records before it
                if pieces:
                    yield _joined(times, pieces, head[1])
                raise
            t, nodes, closed = np.array([state.t]), state.curve.points[None], state.curve.closed
        k += len(nodes)
        shape = (nodes.shape[1], closed)
        while len(t):
            # the rows that fit the block, less those past the cutoff
            take = _block_records(shape[0])
            if pieces and shape == head and size < cap:
                take = cap - size
            piece_t, piece = t[:take], nodes[:take]
            t, nodes = t[take:], nodes[take:]
            keep = ~(piece_t >= cutoff)
            if not keep.all():
                piece_t, piece = piece_t[keep], piece[keep]
            if not len(piece_t):
                continue
            if pieces and (size == cap or shape != head):
                yield _joined(times, pieces, head[1])
                times, pieces, size = [], [], 0
            head, cap = shape, _block_records(shape[0])
            times.append(piece_t)
            pieces.append(piece)
            size += len(piece_t)
    if pieces:
        yield _joined(times, pieces, head[1])


def _joined(times: list[np.ndarray], pieces: list[np.ndarray], closed: bool):
    # one slab of the block's pieces: the piece itself when there is one
    if len(pieces) == 1:
        return times[0], pieces[0], closed
    return np.concatenate(times), np.concatenate(pieces), closed


@dataclass(frozen=True)
class MonotonicityReport:
    """``passed`` is None, and ``max_increase`` nan, when fewer than two
    records precede the cutoff: a single value cannot rise."""

    passed: bool | None
    max_increase: float
    times: np.ndarray
    values: np.ndarray


def monotonicity_check(
    trajectory: Trajectory,
    x0,
    T: float,
    drift_tol: float = DRIFT_TOL,
    t_max: float | None = None,
) -> MonotonicityReport:
    """Evaluate Theta(x0, T; t_k) along the recorded states and check it
    never increases by more than ``drift_tol`` between records.

    Records at or past T (or past ``t_max``) are skipped; by the
    monotonicity of the smooth flow the sequence should be nonincreasing
    up to quadrature noise.  The values come from one array pass per
    block of consecutive records (see :func:`_record_blocks`), each the
    float of :func:`gaussian_density` on its record.
    """
    cutoff = T if t_max is None else min(T, t_max)
    p = np.asarray(x0, dtype=np.float64).reshape(2)
    times, values = [], []
    for t, nodes, closed in _record_blocks(trajectory.states, cutoff):
        values += _densities(nodes, closed, p, T - t).tolist()
        times += t.tolist()
    values_arr = np.asarray(values)
    if len(values_arr) >= 2:
        max_increase = max(float(np.max(np.diff(values_arr))), 0.0)
        passed = max_increase <= drift_tol
    else:
        max_increase, passed = float("nan"), None
    return MonotonicityReport(
        passed=passed,
        max_increase=max_increase,
        times=np.asarray(times),
        values=values_arr,
    )


@dataclass(frozen=True)
class DensityRatio:
    """H^1(curve ∩ B_delta(x0)) / (2 delta), with a resolution flag."""

    value: float
    under_resolved: bool


def _row_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # row-wise dot products through the same dot routine as ``x[i] @ y[i]``;
    # an elementwise x0*y0 + x1*y1 can differ in the last bit
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def _clip_lengths(f: np.ndarray, d: np.ndarray, A: np.ndarray, delta) -> np.ndarray:
    """Exact length of each segment [a_i, b_i] inside the disk
    B_delta(center), the segments given as rows f = a - center and
    d = b - a with A = _row_dot(d, d); ``delta`` is one radius, or one
    per segment.

    Solves |f + u d|^2 = delta^2 for u and clips the root interval to
    [0, 1]; zero-length, tangent and missing segments get 0.
    """
    B = 2.0 * _row_dot(f, d)
    C = _row_dot(f, f) - delta * delta
    disc = B * B - 4.0 * A * C
    cut = (A != 0.0) & (disc > 0.0)
    sq = np.sqrt(disc[cut])
    two_a = 2.0 * A[cut]
    lo = np.maximum((-B[cut] - sq) / two_a, 0.0)
    hi = np.minimum((-B[cut] + sq) / two_a, 1.0)
    lengths = np.zeros(len(A))
    lengths[cut] = np.where(hi > lo, (hi - lo) * np.sqrt(A[cut]), 0.0)
    return lengths


def _segments(pts: np.ndarray, closed: bool) -> tuple[np.ndarray, np.ndarray]:
    """Start and end nodes, (M, 2) each, of the chords a length ratio
    counts on the curve with nodes pts (N, 2): every chord of a closed
    curve, closing chord last; the chords inside each piece of an open
    one (never the jump chord between two pieces)."""
    if closed:
        return pts, np.roll(pts, -1, axis=0)
    idx = np.concatenate([piece[:-1] for piece in curve_pieces(pts, False)])
    return pts[idx], pts[idx + 1]


def _disk_reach(extent: float, centers: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Half-widths (K,) of the probes' disk boxes, padded for the box test
    of :func:`_probe_ratios`; ``extent`` is the block's largest |dx| plus
    its largest |dy| over its chords.

    The margin rule: the pad, 1e-6 (delta + extent + extent^2/delta +
    |center|_inf), skips a chord only where its clip is exactly 0.  Off
    the padded box every point of the chord lies more than the pad from
    the disk along one axis, while the clip's rounding moves a root of
    |f + u d| = delta along the chord by ~1e-7 (|f| + delta) at most, and
    the spurious root pair of a line that just misses the disk sits within
    ~1e-15 |f|^2/delta of it (|f| <= delta + extent near the box); the
    |center| term covers the rounding of the box's own bounds.  A generous
    pad costs only candidates, which the exact clip sends to 0."""
    return deltas + 1e-6 * (
        deltas + extent + extent * extent / deltas + np.abs(centers).max(axis=1, initial=0.0)
    )


def _probe_ratios(
    a: np.ndarray, b: np.ndarray, centers: np.ndarray, deltas: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Local length ratios, (B, K), of B polylines given by their M chords
    [a, b] ((B, M, 2) each) at the K probes (centers (K, 2), positive
    deltas (K,)), and their under-resolved flags; see
    :func:`local_density_ratio`.

    A box test picks the candidate (polyline, probe, chord) triples: the
    chord's bounding box must reach the probe's disk box padded by the
    margin of :func:`_disk_reach`.  The candidates alone go through one
    clip pass, ordered polyline, probe, chord; a skipped chord adds the
    exact 0 its clip would, so every float is that of clipping every
    chord at every probe."""
    nb, m = a.shape[:2]
    k = len(centers)
    # one comparison per coordinate and side: (B, 1, M) boxes against
    # (K, 1) padded disk boxes
    low = [np.minimum(a[..., i], b[..., i])[:, None] for i in (0, 1)]
    high = [np.maximum(a[..., i], b[..., i])[:, None] for i in (0, 1)]
    extent = sum(np.fmax.reduce(high[i] - low[i], axis=None, initial=0.0) for i in (0, 1))
    reach = _disk_reach(extent, centers, deltas)[:, None]
    near = high[0] >= centers[:, :1] - reach
    near &= low[0] <= centers[:, :1] + reach
    near &= high[1] >= centers[:, 1:] - reach
    near &= low[1] <= centers[:, 1:] + reach
    rec, probe, chord = np.nonzero(near)
    del low, high, near
    at = rec * m + chord
    start = np.take(a.reshape(-1, 2), at, axis=0)
    d = np.take(b.reshape(-1, 2), at, axis=0) - start
    del chord, at
    A = _row_dot(d, d)
    start -= np.take(centers, probe, axis=0)
    lengths = _clip_lengths(start, d, A, np.take(deltas, probe))
    del start, d
    # each (polyline, probe) group's candidates, in chord order, as one
    # zero-padded row of ``rows``
    group = rec * k + probe
    del rec, probe
    size = np.bincount(group, minlength=nb * k)
    width = max(size.max(initial=0), 1)
    cell = np.arange(len(group)) + (group * width - (np.cumsum(size) - size)[group])
    rows = np.zeros((nb * k, width))
    rows.reshape(-1)[cell] = lengths
    # left to right, as the chords run (np.sum adds pairwise, and
    # Python's sum() compensates from 3.12 on), in place; a chord outside
    # the disk and the padding add exact zeros
    np.add.accumulate(rows, axis=1, out=rows)
    totals = rows[:, -1].reshape(nb, k).copy()
    # np.median of the hit chords: the mean of the two middle ones (one
    # middle one, added to itself, for an odd count)
    hit = lengths > 0.0
    count = np.bincount(group[hit], minlength=nb * k)
    rows[:] = np.inf
    rows.reshape(-1)[cell[hit]] = np.sqrt(A[hit])
    rows.sort(axis=1)
    middle = (
        np.take_along_axis(rows, (np.maximum(count - 1, 0) // 2)[:, None], axis=1)
        + np.take_along_axis(rows, (count // 2)[:, None], axis=1)
    )[:, 0].reshape(nb, k) / 2.0
    under = (count.reshape(nb, k) > 0) & (deltas <= 5.0 * middle)
    return totals / (2.0 * deltas), under


def local_density_ratio(curve: PlaneCurve, x0, delta: float) -> DensityRatio:
    """Curve length inside the disk of radius delta about x0, over 2*delta.

    Partial segments are clipped exactly, in one array pass: every
    chord of a closed curve, closing chord last; the chords inside each
    piece of an open one (never the jump chord between two pieces).  A
    box test first skips the chords whose bounding box misses the disk's
    box padded by the margin rule of :func:`_disk_reach`; their clip is
    exactly 0, and each adds that exact 0.  The one-record, one-probe
    case of the lemma table's block pass.  The result is flagged
    under-resolved when delta is not at least 5 local node spacings (the
    median chord in the disk), the scale below which a polyline stops
    resembling its curve.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    p = np.asarray(x0, dtype=np.float64).reshape(1, 2)
    a, b = _segments(curve.points, curve.closed)
    value, under = _probe_ratios(a[None], b[None], p, np.array([delta], dtype=np.float64))
    return DensityRatio(value=float(value[0, 0]), under_resolved=bool(under[0, 0]))


@dataclass(frozen=True)
class RescaledCurve:
    """A parabolic rescaling sigma * (curve(T + s/sigma^2) - x0), clipped
    to a window about the origin (open arc if the clip cut anything)."""

    s: float
    sigma: float
    curve: PlaneCurve


def _clip_to_window(pts: np.ndarray, closed: bool, window: float) -> tuple[np.ndarray, bool]:
    keep = np.linalg.norm(pts, axis=1) <= window
    if keep.all():
        return pts, closed
    # the pieces inside the window, in curve order, as one open polyline;
    # where a splice chord is long, curve_pieces cuts the polyline there again
    pieces = curve_pieces(pts, closed, keep)
    return (pts[np.concatenate(pieces)] if pieces else pts[:0]), False


def rescale_flow(
    trajectory: Trajectory,
    x0,
    T: float,
    scales,
    s: float,
    window: float = RESCALE_WINDOW,
) -> list[RescaledCurve]:
    """Magnified views of the flow approaching (x0, T).

    For each sigma the curve at time T + s/sigma^2 (linear interpolation
    between records) is translated to put x0 at the origin, stretched by
    sigma, and clipped to B_window(0).  Along a convergent blow-up the
    outputs stabilize as sigma grows.  Each sigma must be positive and
    finite, with a square that does not underflow to 0: sigma = 0 has no
    time, and a negative one mirrors the view.
    """
    p = np.asarray(x0, dtype=np.float64).reshape(2)
    span = trajectory.times
    out = []
    failures = []
    for sigma in scales:
        if not (0.0 < sigma < math.inf and sigma * sigma > 0.0):
            raise CurveConfigError(
                f"sigma must be positive and finite with a nonzero square, got {sigma:g}"
            )
        t = T + s / (sigma * sigma)
        try:
            curve = trajectory.curve_at(t)
        except TrajectoryRangeError:
            overshoot = max(span[0] - t, t - span[-1])
            failures.append((overshoot, sigma, t))
            continue
        pts = sigma * (curve.points - p)
        clipped, closed = _clip_to_window(pts, curve.closed, window)
        if len(clipped) < MIN_NODES:
            raise CurveConfigError(
                f"window {window} leaves {len(clipped)} nodes at sigma={sigma:g}; "
                "increase the window or the run resolution"
            )
        out.append(
            RescaledCurve(s=float(s), sigma=float(sigma), curve=PlaneCurve(clipped, closed=closed))
        )
    if failures:
        failures.sort()
        _, sigma, t = failures[-1]
        raise TrajectoryRangeError(
            f"sigma={sigma:g} requests t={t:.6g}, outside the recorded span "
            f"[{span[0]:.6g}, {span[-1]:.6g}]"
        )
    return out


# ---------------------------------------------------------------------------
# cone decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConeComponent:
    """One ray-like piece of a blown-up curve.

    ``direction`` is the fitted line direction in [0, pi) (nan for a
    component that stays closed, e.g. a rescaled circle).  The angle
    statistics are circular moments of exp(2i*theta): ``angle_spread`` is
    half the circular standard deviation of the doubled angle, i.e. the
    dispersion of theta mod pi.  ``residual`` is the worst node distance
    to the fitted line divided by the clip radius 4R.
    """

    direction: float
    mean_doubled_angle: complex
    angle_spread: float
    mass: float
    residual: float


@dataclass(frozen=True)
class ConeDecomposition:
    components: tuple[ConeComponent, ...]
    radius: float


def _arc_theta(pts: np.ndarray) -> np.ndarray:
    # continuous angle lift along a raw open arc.  Not lagrangian_angle:
    # a rescaled arc may pass through the origin, where that raises
    # OriginContactError, and only the unnormalized tangent is needed here.
    g = np.gradient(pts, axis=0)
    z = pts[:, 0] + 1j * pts[:, 1]
    tz = g[:, 0] + 1j * g[:, 1]
    return np.unwrap(np.angle(z * tz))


def _moments(seg: np.ndarray, w: np.ndarray, theta: np.ndarray) -> tuple[float, complex, complex]:
    # mass, direction moment sum w z^2/|z| and doubled-angle moment of a piece
    z = seg[:, 0] + 1j * seg[:, 1]
    zr = np.abs(z)
    safe = zr > 0
    dir_moment = complex(np.sum(w[safe] * z[safe] ** 2 / zr[safe]))
    return float(w.sum()), dir_moment, complex(np.sum(w * np.exp(2j * theta)))


def _cone_component(
    mass: float, dir_moment: complex, ang_moment: complex, segs: list[np.ndarray], R: float
) -> ConeComponent:
    # one merged group; a zero direction moment (a closed curve, or rays
    # that cancel) has no line direction and no residual
    if abs(dir_moment) == 0:
        direction = residual = float("nan")
    else:
        direction = 0.5 * math.atan2(dir_moment.imag, dir_moment.real) % math.pi
        e = np.exp(-1j * direction)
        worst = 0.0
        for seg in segs:
            z = seg[:, 0] + 1j * seg[:, 1]
            worst = max(worst, float(np.abs((z * e).imag).max()))
        residual = worst / (4.0 * R)
    amag = abs(ang_moment)
    if amag > 0 and mass > 0:
        rho = min(amag / mass, 1.0)
        spread = 0.5 * math.sqrt(max(-2.0 * math.log(max(rho, 1e-300)), 0.0))
        mean_ang = ang_moment / amag
    else:
        spread = float("inf")
        mean_ang = complex(float("nan"), float("nan"))
    return ConeComponent(
        direction=direction,
        mean_doubled_angle=mean_ang,
        angle_spread=spread,
        mass=mass,
        residual=residual,
    )


def cone_decomposition(
    rescaled: RescaledCurve | PlaneCurve,
    R: float = 1.0,
) -> ConeDecomposition:
    """Resolve a blown-up curve into lines through the origin.

    The curve is clipped to B_{4R} and cut into pieces by
    :func:`geometry.curve_pieces`; pieces of fewer than 3 nodes, and
    pieces that miss B_R, are discarded; the rest are cut at strict
    interior minima of |x| inside B_R (where a strand passes the origin)
    so each piece is a single approximate ray; pieces are then merged
    greedily by line direction modulo pi (doubled-direction chord <
    MERGE_TOL).  Each component reports the arclength-weighted
    principal direction through the origin, circular statistics of
    exp(2i*theta), total length, and worst distance to the fitted line.

    A closed curve that survives clipping whole and uncut (a rescaled
    circle: one piece of all N nodes from node 0) is a single component
    with nan direction.  R must be positive and finite.
    """
    if not 0.0 < R < math.inf:
        raise CurveConfigError(f"R must be positive and finite, got {R:g}")
    curve = rescaled.curve if isinstance(rescaled, RescaledCurve) else rescaled
    pts = curve.points
    rad = np.linalg.norm(pts, axis=1)
    keep = rad <= 4.0 * R
    pieces = curve_pieces(pts, curve.closed, keep)
    arcs = [a for a in pieces if len(a) >= 3 and rad[a].min() <= R]
    if not arcs:
        return ConeDecomposition(components=(), radius=float(R))
    if curve.closed and len(pieces[0]) == len(pts) and pieces[0][0] == 0:
        frame = compute_frame(curve)
        theta = lagrangian_angle(curve, frame).theta
        mass, _, ang = _moments(pts, frame.weight, theta)
        comp = _cone_component(mass, 0j, ang, [], R)
        return ConeDecomposition(components=(comp,), radius=float(R))

    # cut each arc at strict interior minima of |x| inside B_R
    rays: list[np.ndarray] = []
    for a in arcs:
        rr = rad[a]
        interior = np.arange(1, len(a) - 1)
        is_min = (
            (rr[interior] < rr[interior - 1])
            & (rr[interior] < rr[interior + 1])
            & (rr[interior] < R)
        )
        prev = 0
        for c in interior[is_min]:
            rays.append(a[prev : c + 1])
            prev = c
        rays.append(a[prev:])

    items = []
    for ray in rays:
        if len(ray) >= 3:
            seg = pts[ray]
            items.append((*_moments(seg, chord_weights(seg), _arc_theta(seg)), seg))

    # greedy merge by line direction mod pi, heaviest first; a group is
    # [mass, direction moment, angle moment, node arrays]
    items.sort(key=lambda it: -it[0])
    groups: list[list] = []
    for mass, dm, am, seg in items:
        for g in groups:
            if (
                abs(dm) > 0
                and abs(g[1]) != 0
                and abs(dm / abs(dm) - g[1] / abs(g[1])) < MERGE_TOL
            ):
                g[0] += mass
                g[1] += dm
                g[2] += am
                g[3].append(seg)
                break
        else:
            groups.append([mass, dm, am, [seg]])
    groups.sort(key=lambda g: -g[0])
    comps = tuple(_cone_component(*g, R) for g in groups)
    return ConeDecomposition(components=comps, radius=float(R))


@dataclass(frozen=True)
class AngleSpectrum:
    """Mass-weighted histogram of the angle field over [0, 2*pi)."""

    edges: np.ndarray
    mass: np.ndarray
    total: float


def angle_spectrum(curve: PlaneCurve) -> AngleSpectrum:
    """Distribution of surface mass over SPECTRUM_BINS bins of the angle circle.

    Weight per node is pi * |x| * ds (the equivariant area element), so
    ``total`` equals pi times the first radial moment of the curve.  At a
    conical blow-up limit the spectrum concentrates on finitely many
    values.
    """
    frame = compute_frame(curve)
    theta = lagrangian_angle(curve, frame).theta
    r = np.linalg.norm(curve.points, axis=1)
    mu = np.pi * r * frame.weight
    idx = np.floor((theta % (2.0 * np.pi)) / (2.0 * np.pi) * SPECTRUM_BINS).astype(int)
    idx = np.clip(idx, 0, SPECTRUM_BINS - 1)
    mass = np.bincount(idx, weights=mu, minlength=SPECTRUM_BINS)
    edges = np.linspace(0.0, 2.0 * np.pi, SPECTRUM_BINS + 1)
    return AngleSpectrum(edges=edges, mass=mass, total=float(mu.sum()))


@dataclass(frozen=True)
class QuadrantReport:
    passed: bool
    worst_violation: float


def _quadrant_violation(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Worst breach of the four-quadrant radius pattern of each profile in
    the columns of r (axis 0 over the uniform angle grid), floored at 0
    (a zero may come back as -0.0), and whether it is within QUADRANT_TOL
    times the profile's max r."""
    n = len(r)
    j = np.arange(n)
    q = (4 * j) // n                       # quadrant whose left edge is <= s_j
    inside = 4 * (j + 1) <= (q + 1) * n    # s_{j+1} within the same closed quadrant
    d = np.roll(r, -1, axis=0) - r
    # quadrants 1 and 3: nonincreasing; quadrants 2 and 4: nondecreasing
    rise = np.where((q % 2 == 0)[:, None], d, -d)
    violation = np.max(rise[inside], axis=0, initial=0.0)
    return violation, violation <= QUADRANT_TOL * r.max(axis=0)


def quadrant_monotonicity(profile: RadialProfile) -> QuadrantReport:
    """Check the four-quadrant radius pattern of an axis-aligned profile.

    r must be nonincreasing for s in [0, pi/2] and [pi, 3pi/2], and
    nondecreasing on [pi/2, pi] and [3pi/2, 2pi] (major axis along x).
    Differences whose endpoints straddle a quadrant boundary are exempt.
    The tolerance is QUADRANT_TOL * max r.
    """
    violation, passed = _quadrant_violation(profile.r[:, None])
    return QuadrantReport(passed=bool(passed[0]), worst_violation=max(0.0, float(violation[0])))


def _cyclic_system(dx: np.ndarray, slope: np.ndarray):
    """Diagonal, superdiagonal, subdiagonal and the two right-hand sides
    (d, du, dl, b) of scipy's condensed cyclic system of the periodic
    splines with knot spacings dx and secant slopes ``slope``."""
    m = len(dx) - 1                        # unknowns of the condensed system
    d = np.empty((m,) + dx.shape[1:])
    d[0] = 2.0 * (dx[-1] + dx[0])
    d[1:] = 2.0 * (dx[: m - 1] + dx[1:m])
    du = np.concatenate([dx[-1:], dx[: m - 2]])
    dl = dx[1:m]
    b = np.zeros((m, 2) + dx.shape[1:])
    b[0, 0] = 3.0 * (dx[0] * slope[-1] + dx[-1] * slope[0])
    b[1:, 0] = 3.0 * (dx[1:m] * slope[: m - 1] + dx[: m - 1] * slope[1:m])
    b[0, 1] = -dx[0]
    b[-1, 1] = -dx[-3]
    return d, du, dl, b


def _pivoted_elimination(d, du, dl, fill, b) -> None:
    """?gtsv's forward elimination with its row interchanges, in place."""
    m = len(d)
    for i in range(m - 1):
        swap = np.abs(d[i]) < np.abs(dl[i])
        if not swap.any():
            fact = dl[i] / d[i]
            d[i + 1] -= fact * du[i]
            b[i + 1] -= fact * b[i]
            continue
        # ?gtsv interchanges rows i and i + 1 where the subdiagonal is larger
        fact = np.where(swap, d[i] / dl[i], dl[i] / d[i])
        nxt = d[i + 1].copy()
        d[i + 1] = np.where(swap, du[i] - fact * nxt, nxt - fact * du[i])
        d[i] = np.where(swap, dl[i], d[i])
        if i < m - 2:
            fill[i] = np.where(swap, du[i + 1], 0.0)
            du[i + 1] = np.where(swap, -fact * du[i + 1], du[i + 1])
        du[i] = np.where(swap, nxt, du[i])
        top = b[i].copy()
        b[i] = np.where(swap, b[i + 1], top)
        b[i + 1] = np.where(swap, top - fact * b[i + 1], b[i + 1] - fact * top)


def _periodic_slopes(dx: np.ndarray, slope: np.ndarray) -> np.ndarray:
    """Knot slopes of the periodic cubic splines with knot spacings dx and
    secant slopes ``slope`` (axis 0 along the knots, one column each):
    scipy's condensed cyclic system, the tridiagonal system of all but the
    last two knots for two right-hand sides, solved by the elimination of
    LAPACK's ?gtsv (which solve_banded calls for a (1, 1) band), then the
    second-to-last slope from the closing row.

    The elimination runs without row interchanges for every column
    first.  Its pivots are then tested against ?gtsv's rule, |d[i]| <
    |dl[i]|, in one comparison, and only the columns that would have
    interchanged rows at some step are eliminated again from the start,
    with the interchanges.  The columns are independent, so every column
    gets ?gtsv's operations and its bits."""
    d, du, dl, b = _cyclic_system(dx, slope)
    m = len(d)
    for i in range(m - 1):
        fact = dl[i] / d[i]
        d[i + 1] -= fact * du[i]
        b[i + 1] -= fact * b[i]
    fill = np.zeros_like(du)               # second superdiagonal of a row interchange
    redo = np.flatnonzero((np.abs(d[:-1]) < np.abs(dl)).any(axis=0))
    if len(redo):
        rd, rdu, rdl, rb = _cyclic_system(dx[:, redo], slope[:, redo])
        rfill = np.zeros_like(rdu)
        _pivoted_elimination(rd, rdu, rdl, rfill, rb)
        d[:, redo], du[:, redo], fill[:, redo], b[..., redo] = rd, rdu, rfill, rb
    b[-1] /= d[-1]
    b[-2] = (b[-2] - du[-1] * b[-1]) / d[-2]
    for i in range(m - 3, -1, -1):
        b[i] = (b[i] - du[i] * b[i + 1] - fill[i] * b[i + 2]) / d[i]
    s1, s2 = b[:, 0], b[:, 1]
    closing = 3.0 * (dx[-1] * slope[-2] + dx[-2] * slope[-1])
    s_last = (closing - dx[-2] * s1[0] - dx[-1] * s1[-1]) / (
        2.0 * (dx[-1] + dx[-2]) + dx[-2] * s2[0] + dx[-1] * s2[-1]
    )
    return np.concatenate([s1 + s_last * s2, [s_last, s1[0] + s_last * s2[0]]])


def _periodic_spline(x: np.ndarray, y: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Values at the rows of ``at`` of the periodic cubic splines through
    the rows of knots x (strictly increasing) and values y, with
    y[:, -1] == y[:, 0].

    Each row is ``scipy.interpolate.CubicSpline(x, y, bc_type="periodic")``
    evaluated at ``at``, operation for operation, so the two agree bit for
    bit: the slopes of :func:`_periodic_slopes`, the Hermite coefficients,
    PPoly's periodic remap x0 + (x - x0) % period and its power-sum
    evaluation.  The work runs down the knots, one array operation per
    knot for all rows at once.
    """
    x, y, at = x.T, y.T, at.T              # one column per spline
    dx = np.diff(x, axis=0)
    slope = np.diff(y, axis=0) / dx
    s = _periodic_slopes(dx, slope)
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]
    del dx, slope, t

    u = x[0] + (at - x[0]) % (x[-1] - x[0])
    # the knot interval [x_i, x_i+1) holding u, the last one closed
    cols = np.arange(x.shape[1])
    i = np.column_stack([np.searchsorted(x[:, j], u[:, j], side="right") for j in cols])
    i = np.minimum(i - 1, len(c3) - 1)
    h = u - x[i, cols]
    # c3 + c2 h + c1 (h h) + c0 ((h h) h), summed in that order, in place
    value = c3[i, cols]
    value += c2[i, cols] * h
    power = h * h
    value += c1[i, cols] * power
    power *= h
    value += c0[i, cols] * power
    # a remap rounded past the last knot is out of range: nan, as in PPoly
    value[u > x[-1]] = np.nan
    return value.T


def _polar_radii(pts: np.ndarray, samples: int) -> tuple[np.ndarray, list[str | None]]:
    """Radii on the uniform polar-angle grid s_j = 2*pi*j/samples of the
    closed curves pts (B, N, 2), by a periodic cubic spline in the angle;
    and per curve the reason it has none (its row is then nan), else
    None.  The nodes' polar angles must wind monotonically once around
    the origin."""
    phi = np.unwrap(np.arctan2(pts[..., 1], pts[..., 0]), axis=1)
    r = np.linalg.norm(pts, axis=2)
    dphi = np.diff(phi, axis=1)
    total = phi[:, -1] - phi[:, 0]
    back = total < 0.0
    phi[back], r[back] = phi[back, ::-1], r[back, ::-1]
    total = np.abs(total)
    wrap = 2.0 * np.pi - total
    errors: list[str | None] = [None] * len(pts)
    for k in np.flatnonzero(~((0.0 < wrap) & (wrap < 2.0 * np.pi))):
        errors[k] = (
            f"polar angle sweeps {total[k]:.4f} across the nodes, expected a single turn"
        )
    for k in np.flatnonzero((dphi.min(axis=1) <= 0.0) & (dphi.max(axis=1) >= 0.0)):
        errors[k] = "curve is not star-shaped about the origin"
    good = np.array([e is None for e in errors])
    knots = np.concatenate([phi, phi[:, :1] + 2.0 * np.pi], axis=1)[good]
    values = np.concatenate([r, r[:, :1]], axis=1)[good]
    del phi, r, dphi
    targets = 2.0 * np.pi * np.arange(samples) / samples
    shifted = knots[:, :1] + (targets - knots[:, :1]) % (2.0 * np.pi)
    radii = np.full((len(pts), samples), np.nan)
    if good.any():
        radii[good] = _periodic_spline(knots, values, shifted)
    return radii, errors


def polar_profile(curve: PlaneCurve, samples: int | None = None, t: float = 0.0) -> RadialProfile:
    """Radius of a star-shaped curve on the uniform polar-angle grid.

    The nodes' polar angles must wind monotonically once around the
    origin; radius is interpolated at s_j = 2*pi*j/samples by a periodic
    cubic spline in the angle, the one-curve case of the lemma table's
    block kernel.  This is the bridge from the parametric solver to the
    radial one.
    """
    if not curve.closed:
        raise CurveConfigError("polar profile requires a closed curve")
    n = samples if samples is not None else curve.node_count
    if n < MIN_NODES:
        raise CurveConfigError(f"need at least {MIN_NODES} samples")
    radii, errors = _polar_radii(curve.points[None], n)
    if errors[0] is not None:
        raise CurveConfigError(errors[0])
    return RadialProfile(radii[0], t)


# ---------------------------------------------------------------------------
# check tables: the acceptance block of a run manifest and the lemma table
# ---------------------------------------------------------------------------


def _drainage_check(diagnostics: Mapping[str, np.ndarray]) -> dict:
    # worst recorded drift from the drainage law c - 2t; fails when no
    # record has one (open curves, no c-constant)
    defect = diagnostics["monotone_defect"]
    finite = defect[np.isfinite(defect)]
    worst = float(finite.max()) if len(finite) else float("nan")
    return {"passed": bool(len(finite)) and worst < 1e-3, "value": worst}


def acceptance_checks(trajectory: Trajectory, report: SingularityReport) -> dict[str, dict]:
    """Self-checks of a finished run, one row {"passed", "value"} each.

    Closed curves: the area law area(t) = area(0) - 4 pi t up to 90% of
    the way to the bracketed singular time, and the drainage law.  Open
    curves (stationary fixtures): the largest node displacement.
    """
    checks: dict[str, dict] = {}
    states = trajectory.states
    first, last = states[0], states[-1]
    if first.curve.closed:
        d = trajectory.diagnostics
        t, area = d["t"], d["area"]
        if report.detected:
            horizon = t[0] + 0.9 * (0.5 * (report.t_low + report.t_high) - t[0])
        else:
            horizon = t[-1]
        sel = t <= horizon
        drift = np.abs(area[sel] - area[0] + 4.0 * np.pi * (t[sel] - t[0])) / abs(area[0])
        worst_area = float(drift.max()) if sel.any() else 0.0
        checks["area_law"] = {"passed": worst_area < 5e-3, "value": worst_area}
        checks["monotone_defect"] = _drainage_check(d)
    else:
        moved = float(
            np.max(np.linalg.norm(last.curve.points - first.curve.points, axis=1))
        )
        checks["stationary_displacement"] = {"passed": moved < 1e-10, "value": moved}
    return checks


def lemma_table(trajectory: Trajectory) -> dict[str, dict]:
    """The lemma checks of a run, one row {"passed", "value"} each; a
    check with no data has value nan, and ``passed`` None when it does
    not apply (the first three on an open curve).

    * ``monotone_defect``: the drainage law holds to 1e-3;
    * ``radius_nonincreasing``: dr/dt <= 1e-6 on every resolvable polar
      profile;
    * ``quadrant_monotonicity``: the four-quadrant radius pattern;
    * ``density_ratio_bound``: the local length ratio stays <= 1.55 at
      eight probes fixed on the initial curve, in windows of a quarter of
      the probe's distance to the origin.
    """
    results = {"monotone_defect": _drainage_check(trajectory.diagnostics)}

    # polar profiles of the closed records whose radial dip the uniform
    # angle grid still resolves (min r >= ~5 angular spacings x max r),
    # in array passes over blocks of records (see :func:`_record_blocks`);
    # the degenerate tail is skipped
    states = trajectory.states
    first = None
    resolved = 0
    worst_rate = worst_q = -math.inf
    ok_q = True
    for _, nodes, closed in _record_blocks(states, math.inf):
        if first is None:
            first = nodes[0].copy(), closed
        if not closed:
            continue
        n = nodes.shape[1]
        h = 2.0 * np.pi / n
        radii, _ = _polar_radii(nodes, n)
        radii = radii[np.isfinite(radii).all(axis=1)]
        rmin, rmax = radii.min(axis=1), radii.max(axis=1)
        keep = (rmin > 0.0) & ~(rmin < 5.0 * h * rmax)
        if not keep.any():
            continue
        cols = np.ascontiguousarray(radii[keep].T)
        resolved += cols.shape[1]
        rate = radial_velocity(stencil_views(pad_periodic(cols)))[0]
        worst_rate = max(worst_rate, float(rate.max()))
        violation, passed = _quadrant_violation(cols)
        ok_q = ok_q and bool(passed.all())
        worst_q = max(worst_q, 0.0, float(violation.max()))
    results["radius_nonincreasing"] = {
        "passed": bool(resolved) and worst_rate <= 1e-6,
        "value": worst_rate if resolved else float("nan"),
    }
    results["quadrant_monotonicity"] = {
        "passed": bool(resolved) and ok_q,
        "value": worst_q if resolved else float("nan"),
    }
    # record 0 heads the first block, unless its t of inf kept it out
    if first is None or trajectory.times[0] >= math.inf:
        first = states[0].curve.points, states[0].curve.closed
    pts0, closed0 = first
    if not closed0:
        # the drainage law and the polar profile exist on closed curves only
        for row in results.values():
            row["passed"] = None

    # Fixed off-origin base points: the bound rules out singularities away
    # from the origin, so the probes must stay put while the curve moves.
    probes = pts0[:: max(len(pts0) // 8, 1)][:8]
    windows = np.array([0.25 * float(np.linalg.norm(probe)) for probe in probes])
    probes, windows = probes[windows > 0.0], windows[windows > 0.0]
    worst_ratio = 0.0
    count = 0
    # the probe count K <= 8 enters only the (B, K, M) bool candidate mask
    # of _probe_ratios: K bools per node of a block, 64 KiB at most
    for _, nodes, closed in _record_blocks(states, math.inf):
        if closed:
            chords = [(nodes, np.roll(nodes, -1, axis=1))]
        else:
            # an open record's chords depend on its pieces: one at a time
            chords = [(a[None], b[None]) for a, b in (_segments(pts, False) for pts in nodes)]
        for a, b in chords:
            values, under = _probe_ratios(a, b, probes, windows)
            resolved_values = values[~under]
            count += len(resolved_values)
            worst_ratio = max(worst_ratio, float(resolved_values.max(initial=0.0)))
    results["density_ratio_bound"] = {
        "passed": (worst_ratio <= 1.55) if count else None,
        "value": worst_ratio if count else float("nan"),
    }
    return results

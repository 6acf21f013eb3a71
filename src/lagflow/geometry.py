"""Discrete plane curves and their differential geometry.

A curve is a sequence of nodes in the plane, closed (periodic) unless
flagged otherwise.  Derivatives along closed curves are taken with respect
to the uniform index parameter u_i = 2*pi*i/N using 4th-order central
differences, so tangents, curvature and arclength weights converge at
4th order for smooth curves.

Sign conventions, fixed here and relied on by every other module:

* a counterclockwise curve encloses positive area;
* the normal n is the unit tangent rotated by +pi/2, n = (-ty, tx), which
  points inward for counterclockwise curves;
* curvature is signed, kappa = (x'y'' - y'x'') / |gamma'|^3, so the
  curvature vector kappa * n is orientation independent (a circle
  always points at its own center).

Open polylines serve as analysis fixtures (truncated lines and cones) and
as window-clipped arcs of rescaled flows.  They may contain far-field
jumps separating disjoint pieces; such curves are split into components
at large spacing gaps (:func:`curve_pieces`, the one splitter every
module uses) and differentiated per component.

Everything a flow step needs from the geometry of its curve (degeneracy
and origin guards, frame, |x|^2, <x, n>, the velocity and the stable step)
is computed once per step by a :class:`StepWorkspace`, a persistent set
of preallocated arrays that the flow loop keeps its nodes in from step to
step.  The workspace is the one object that holds a curve's per-step
geometry, closed or open: the flow's records read it right after its
update, and :func:`curve_terms`, :func:`compute_frame` and
:func:`enclosed_area` build a new workspace per call, so each quantity
has one definition.  :func:`closed_weights`, the frame's arclength
weights of a whole block of closed curves in one array pass (for the
analysis passes over a run's records), reuses the workspace's stencil
and gives the floats of its frame.

The workspace holds the nodes as a (2, N) array, x and y as contiguous
rows, inside one buffer padded by two periodic samples per row end.  At
the node counts of the flow (about 256) a step costs about one NumPy call
per operation, whatever the arithmetic, so the layout decides the cost:
the stencils, the chord differences and |x|^2 run as single contiguous
calls over the flat buffer, every per-component product is a contiguous
row, no array is allocated per step, and the seven extrema a step needs
come from three batched reductions (the chord pass adds a fourth).  An (N, 2) array would make each
component a strided column view and each extremum its own reduction.

The Python around those calls is the rest of a step's cost, so it is
kept flat.  The workspace makes every view a step touches once, in its
constructor, and :meth:`StepWorkspace.update`, :meth:`update_velocity
<StepWorkspace.update_velocity>` and :meth:`_frame_closed
<StepWorkspace._frame_closed>` each unpack one prebuilt tuple of them; no
per-step helper builds a view, and the pads are filled by slice
assignment.  The stencils' one entry point, :func:`periodic_derivatives`,
writes d1 and d2 as the two halves of one contiguous output, so the
scaling by 8 and 16, the subtraction of the far pair and the division by
12 h and 12 h h each take one call for both; the operations of each
element and their order are those of two separate stencils.  It takes
the shifted views of :func:`stencil_views`, the work arrays of
:func:`stencil_out` and the constants of :func:`stencil_constants`, which
a stepping caller builds once.  Its stacked constants are contiguous
arrays as long as the output, as a broadcast operand costs about three
contiguous calls; a one-shot caller's broadcast, as building them at
the size of a block of records costs more.  30 is a 0-d float64 array, which NumPy takes without
the conversion that a Python float costs on every call; the floats are
the same.  The step scalars ``cap``, ``r2_min``, ``spacing``,
``max_weight``, ``kmax``, ``vmax`` and ``chord_floor`` are plain
attributes, read only as such.  The views stay valid because the
buffers are never replaced: a caller writes new nodes into ``nodes`` in
place.

Aliasing rule: the workspace's arrays are overwritten by its next update,
so they are valid only until then; a caller that keeps one copies it.
:meth:`StepWorkspace.frame` returns copies, in the (N, 2) layout of
:class:`PlaneCurve`.

Nothing holds a normal: a step reads n = (-ty, tx) only through <x, n>
and the velocity, and takes both from the tangent.  IEEE negation is
exact and a - b is a + (-b), so <x, n> = x nx + y ny is the float
y tx - x ty, and the x-component of the velocity,
kappa nx - <x, n> nx / |x|^2, is the float <x, n> ty / |x|^2 - kappa ty.
An update is two parts: :meth:`StepWorkspace.update_velocity` (the guards,
the frame, |x|^2, <x, n> and the velocity), which is all the Heun
predictor computes, and the step scalars (the peaks and the step cap),
which :meth:`StepWorkspace.update` adds.

Every result equals, bit for bit, the plain (N, 2) expressions that
``tests/test_geometry.py`` keeps as its oracle: each element goes through
the same operations in the same order, and min and max round nothing.

Both guards are fractions of the diameter (DEGENERACY_FACTOR,
ORIGIN_GUARD_FACTOR).  A guard is first tested against an upper bound on
the diameter, and the exact diameter is computed only when the bound
test fails; since the bound is never below the diameter, each guard
fires on exactly the inputs, and with the message, of the exact test.
A step takes 8 max|x| as the bound (the diameter is at most 4 max|x|,
and |x|^2 is computed anyway), so a step away from both guards never
computes the diameter.  :func:`compute_frame` and :func:`enclosed_area`
test the exact diameter, taken from coordinates centred on the node
centroid, and never square the raw coordinates, so a small curve far
from the origin does not overflow there.

The spacing guard of a closed curve applies the same rule to the
smallest chord, from below.  A caller may hand one update a lower bound
on it, ``carried_floor``, which that update consumes.  While the floor
clears the guard's threshold (DEGENERACY_FACTOR times the diameter bound
the update computes), the smallest chord clears it too, and the chord
pass and the spacing test are skipped; otherwise they run as without a
floor.  So the guard fires on exactly the inputs, and with the message,
of the chord pass.  After an update ``chord_floor`` is the smallest chord
or the floor handed in, and :meth:`StepWorkspace.chord_floor_after`
gives a floor for the nodes after Euler's step nodes + dt velocity: each
chord shrinks by at most 2 dt vmax, less a rounding slack (CHORD_SLACK).
The flow loop carries that floor from step to step.  A caller that
writes its own nodes and calls update() hands none, and gets the chord
pass.

The Gaussian density's Bessel factor, the exponentially scaled modified
Bessel function I0e, is a NumPy port of Cephes ``i0e`` (:func:`_i0e`):
the same Chebyshev tables and Clenshaw recurrence, so it equals
``scipy.special.i0e`` bit for bit and the package runs on NumPy alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CurveError",
    "DegenerateCurveError",
    "CurveConfigError",
    "OriginContactError",
    "PlaneCurve",
    "FrameData",
    "StepWorkspace",
    "chord_weights",
    "closed_weights",
    "compute_frame",
    "curve_pieces",
    "curve_terms",
    "swept_gaussian_density",
    "swept_gaussian_densities",
    "enclosed_area",
    "resample",
]

# Node pairs closer than this fraction of the diameter make differentiation
# meaningless and raise DegenerateCurveError.
DEGENERACY_FACTOR = 1e-12
# The rounding slack of StepWorkspace.chord_floor_after, relative to the
# lengths it rounds: about 9 float64 epsilons suffice, and this is 450.
CHORD_SLACK = 1e-13
# On open polylines, a chord longer than GAP_FACTOR times the median chord is
# treated as a jump between disjoint components, not as curve.
GAP_FACTOR = 8.0
MIN_NODES = 16
# Nodes closer to the origin than this fraction of the diameter make the
# position term of the flow velocity singular.
ORIGIN_GUARD_FACTOR = 1e-10


class CurveError(ValueError):
    """Base class for curve-level failures."""


class DegenerateCurveError(CurveError):
    """Nodes coincide (or nearly so); derivatives are unusable."""


class CurveConfigError(CurveError):
    """The requested operation is incompatible with the curve layout."""


class OriginContactError(CurveError):
    """A node sits at (or numerically on top of) the origin."""


@dataclass(frozen=True)
class PlaneCurve:
    """Nodes of a plane curve, ordered along the curve.

    ``points`` has shape (N, 2).  Closed curves wrap around; open curves
    are fixture polylines and may contain far-field jumps.
    """

    points: np.ndarray
    closed: bool = True

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise CurveConfigError(f"points must have shape (N, 2), got {pts.shape}")
        if pts.shape[0] < MIN_NODES:
            raise CurveConfigError(
                f"need at least {MIN_NODES} nodes, got {pts.shape[0]}"
            )
        if not np.all(np.isfinite(pts)):
            raise CurveConfigError("points contain non-finite values")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def node_count(self) -> int:
        return self.points.shape[0]

    @property
    def diameter(self) -> float:
        """Extent of the curve, 2 * max distance from the node centroid."""
        return _diameter(self.points)

    def as_complex(self) -> np.ndarray:
        return self.points[:, 0] + 1j * self.points[:, 1]


@dataclass(frozen=True)
class FrameData:
    """Per-node frame: unit tangent, signed curvature and arclength weight
    (weights sum to the curve length)."""

    tangent: np.ndarray
    curvature: np.ndarray
    weight: np.ndarray


def _squared_norms(v: np.ndarray) -> np.ndarray:
    # bit-identical to np.linalg.norm(v, axis=1) ** 2 before its sqrt: one
    # product and one column add, the same operations per element
    prod = v * v
    return prod[:, 0] + prod[:, 1]


def _diameter(pts: np.ndarray) -> float:
    # the same sum and divide as pts.mean(axis=0), without its overhead
    d = pts - np.add.reduce(pts, axis=0) / len(pts)
    return 2.0 * math.sqrt(float(_squared_norms(d).max()))


def _open_chords(pts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(np.diff(pts, axis=0), axis=1)


def curve_pieces(
    pts: np.ndarray, closed: bool, keep: np.ndarray | None = None
) -> list[np.ndarray]:
    """Node-index arrays of the contiguous pieces of a curve, in curve order.

    The pieces are the runs of the mask ``keep`` (every node when None),
    each cut at chords longer than GAP_FACTOR times the median chord
    inside the runs (far-field jumps in multi-line fixtures, or clipping
    gaps).  The closing chord of a closed curve is never a jump: the
    piece that wraps past node N-1 is one piece and comes last.  Pieces
    of every length are returned.  Raises DegenerateCurveError when that
    median chord is zero.
    """
    n = len(pts)
    whole = keep is None or keep.all()
    if whole:
        runs = [np.arange(n)]
    else:
        idx = np.flatnonzero(keep)
        if len(idx) == 0:
            return []
        runs = np.split(idx, np.flatnonzero(np.diff(idx) > 1) + 1)
        if closed and len(runs) > 1 and keep[0] and keep[-1]:
            head = runs.pop(0)
            runs[-1] = np.concatenate([runs[-1], head])
    chords = [np.linalg.norm(np.diff(pts[run], axis=0), axis=1) for run in runs]
    joined = np.concatenate(chords)
    if len(joined) == 0:
        return runs
    med = float(np.median(joined))
    if med == 0.0:
        raise DegenerateCurveError("polyline has zero median spacing")
    pieces = []
    for run, ch in zip(runs, chords):
        jump = ch > GAP_FACTOR * med
        if closed:
            jump[run[1:] == 0] = False  # the closing chord N-1 -> 0
        pieces.extend(np.split(run, np.flatnonzero(jump) + 1))
    if closed and whole and len(pieces) > 1:
        # the pieces before the first jump and after the last one meet
        # across the closing chord: one wrapped piece, placed last
        head = pieces.pop(0)
        pieces[-1] = np.concatenate([pieces[-1], head])
    return pieces


def _min_chord(chords: np.ndarray) -> float:
    return math.sqrt(float(_squared_norms(chords).min()))


def _check_spacing(min_chord: float, diameter: float) -> None:
    if min_chord < DEGENERACY_FACTOR * max(diameter, 1e-300):
        raise DegenerateCurveError(
            f"minimum node spacing {min_chord:.3e} is below "
            f"{DEGENERACY_FACTOR:g} x diameter"
        )


def _check_origin(r2_min: float, diameter: float) -> None:
    if r2_min <= (ORIGIN_GUARD_FACTOR * max(diameter, 1e-300)) ** 2:
        raise OriginContactError(
            f"node at distance {math.sqrt(r2_min):.3e} from the origin; "
            "velocity is singular there"
        )


# ---------------------------------------------------------------------------
# the periodic stencils
#
# The 4th-order periodic stencils read the samples through one array padded
# by two samples at each end, p[i + 2] = f_i, so a shifted copy is a
# slice.  Every expression keeps the operation order of the np.roll form
#   d1 = (8 (f[i+1] - f[i-1]) - (f[i+2] - f[i-2])) / (12 h)
#   d2 = (16 (f[i+1] + f[i-1]) - (f[i+2] + f[i-2]) - 30 f[i]) / (12 h h)
# so both forms agree bit for bit; the augmented operations below only
# swap the operands of a commutative + or x.
# ---------------------------------------------------------------------------


def pad_periodic(f: np.ndarray) -> np.ndarray:
    """The periodic samples f (along axis 0) padded as p[i + 2] = f_i."""
    return np.concatenate((f[-2:], f, f[:2]))


def stencil_views(p: np.ndarray) -> tuple[np.ndarray, ...]:
    """The shifted samples f[i+1], f[i-1], f[i+2], f[i-2] and f[i] of the
    periodic samples that :func:`pad_periodic` padded into ``p``, as views
    of ``p``; :func:`periodic_derivatives` reads them.  A caller that
    steps one buffer builds its views once."""
    n = len(p) - 4
    return p[3 : n + 3], p[1 : n + 1], p[4:], p[:n], p[2 : n + 2]


def stencil_constants(h: float, shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The constants of :func:`periodic_derivatives` at grid spacing h: the
    scales 8 and 16 and the divisors 12 h and 12 h h, each pair stacked as
    a contiguous (2, *shape) array, and 30 as a 0-d float64 array.

    A caller that steps one buffer builds them once, shaped as one
    unpadded sample set, so that they are as long as the stacked output:
    there a broadcast operand costs about three contiguous calls.  A
    one-shot caller passes ones of that rank instead, and the constants
    broadcast: on a block of records, building them at full size costs
    more than broadcasting does."""
    scales, divisors = np.empty((2, 2, *shape))
    scales[0], scales[1] = 8.0, 16.0
    divisors[0], divisors[1] = 12.0 * h, 12.0 * h * h
    return scales, np.array(30.0), divisors


def stencil_out(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The arrays :func:`periodic_derivatives` works in, for samples shaped
    ``shape``: the stacked output [d1, d2] and a stacked scratch pair, each
    a contiguous (2, *shape) array, then d1, d2 and the two scratch halves
    as views of them."""
    out, scratch = np.empty((2, 2, *shape))
    return (out, scratch, *out, *scratch)


def periodic_derivatives(
    views: tuple[np.ndarray, ...],
    constants: tuple[np.ndarray, ...],
    out: tuple[np.ndarray, ...] | None = None,
) -> np.ndarray:
    """4th-order first and second derivatives, at the grid spacing h of
    ``constants`` (``stencil_constants(h, shape)``), from the shifted
    samples ``views`` of :func:`stencil_views`, as the two halves of one
    contiguous (2, *shape) array [d1, d2].  ``out`` gives the arrays of
    :func:`stencil_out` to work in; by default they are new.  Each step
    that scales, subtracts or divides both derivatives is one call over
    the stacked halves."""
    fwd, back, far, near, here = views
    scales, thirty, divisors = constants
    stacked, scratch, d1, d2, odd, even = stencil_out(here.shape) if out is None else out
    np.subtract(fwd, back, d1)
    np.add(fwd, back, d2)
    stacked *= scales
    np.subtract(far, near, odd)
    np.add(far, near, even)
    stacked -= scratch
    np.multiply(here, thirty, even)
    d2 -= even
    stacked /= divisors
    return stacked


def chord_weights(pts: np.ndarray) -> np.ndarray:
    """Arclength weight per node of one open polyline component: half of
    each adjacent chord (trapezoids, exact on straight lines)."""
    ch = _open_chords(pts)
    w = np.zeros(len(pts))
    w[:-1] += 0.5 * ch
    w[1:] += 0.5 * ch
    return w


class StepWorkspace:
    """Per-step geometry of a curve with a fixed node count, computed in
    preallocated arrays (see the module docstring for the layout and the
    aliasing rule): the one code that computes the degeneracy and origin
    guards, the frame, |x|^2, <x, n>, the flow velocity and the stable
    step.

    A caller writes the nodes into ``nodes``, a (2, N) view of the padded
    buffer, and calls :meth:`update`, or :meth:`update_velocity` when it
    needs only the guards and the velocity.  The results then describe
    those nodes: ``tangent`` and ``velocity`` as (2, N) rows;
    ``curvature``, ``r2`` (|x|^2) and ``dots`` (<x, n>) as length-N
    arrays; the smallest arclength spacing ``spacing`` (the smallest
    weight on a closed curve, taken as min |gamma'| times the index step;
    the smallest within-piece chord on an open one), ``r2_min``, the
    largest arclength weight ``max_weight`` and ``chord_floor``, a lower
    bound on the smallest chord (see the module docstring); :meth:`frame`;
    and, after :meth:`update`, the step cap ``cap`` (the stable step
    before its safety factor), ``kmax`` (max |kappa|) and ``vmax`` (max
    |v|); the step scalars are attributes only.  :meth:`area` gives the
    enclosed area of a closed curve.  The comments give each result as
    the expression whose float it is.  A closed curve's frame comes from :meth:`_frame_closed`,
    an open one's from :meth:`_frame_open`, and the rest is shared.
    """

    def __init__(self, points: np.ndarray, closed: bool = True):
        n = len(points)
        h = 2.0 * np.pi / n
        self.n, self.closed, self._h = n, closed, h
        # a lower bound on the smallest chord of the nodes that the next
        # update sees, which that update consumes (see the module docstring)
        self.carried_floor = None
        # two blocks: the padded nodes and a work array; the (2, N) rows;
        # the length-N arrays, which the extrema reduce as rows
        # [|x|^2, speed], [chord^2] and [|<x, n>|, |kappa|, |v|^2]
        buf, work = np.empty((2, 2, n + 4))
        rows = np.empty((3, 2, n))
        lines = np.empty((8, n))
        self.nodes = buf[:, 2 : n + 2]
        self.nodes[...] = points.T
        self.tangent, self.velocity, sq = rows
        self.r2, self.speed, chord2, self.dots, self.curvature = lines[:5]
        # a closed curve's weights are speed h; an open one's are chords
        self._weight = None if closed else np.empty(n)
        # Every view a step touches is made here, once: a view costs about
        # what a small ufunc call does.  Each stage unpacks its own tuple.
        x, y = buf[0, 2 : n + 2], buf[1, 2 : n + 2]
        (tx, ty), (vx, vy), (sq0, sq1) = self.tangent, self.velocity, sq
        w0, w1 = work[0, :n], work[1, :n]
        # Flat, a padded array is one contiguous run, which the stencils
        # and differences take in one call each.  A value at flat index i
        # of a stencil's output belongs to the buffer sample at i + 2, so
        # node j of row r lands at [r, j]; the columns N..N+3 of an output
        # mix the two rows and are never read, nor squared: their values
        # scale with the coordinates, not with the curve's size.
        flat, work_flat = buf.reshape(-1), work.reshape(-1)
        m = len(flat) - 4
        stencil_work = stencil_out((m,))
        d1, d2 = stencil_work[2:4]
        d1x, d1y, d2x, d2y = d1[:n], d1[n + 4 : 2 * n + 4], d2[:n], d2[n + 4 : 2 * n + 4]
        # the reductions' results: the minima and maxima of the spread
        # rows [|x|^2, speed], and the maxima of the peaks; with an exact
        # diameter, |x|^2 is left out
        spread, peaks = lines[0:2], lines[5:8]
        lows, highs = np.empty((2, 2))
        peak_max = np.empty(3)
        self._closed_views = (
            # each pad and the samples it copies
            buf[:, :2], buf[:, n : n + 2], buf[:, n + 2 :], buf[:, 2:4],
            # |x|^2: the flat square, then its rows at the nodes' columns
            flat, work_flat, work[0, 2 : n + 2], work[1, 2 : n + 2], self.r2,
            # chord^2: the flat difference, then its rows
            flat[3:], flat[2:-1], work_flat[: m + 1], w0, w1, chord2,
            # the flat stencils' inputs, work arrays and constants
            stencil_views(flat), stencil_work, stencil_constants(h, (m,)), h, np.array(3.0),
            d1x, d1y, d2x, d2y, self.speed, tx, ty, self.curvature,
            (spread, lows, highs), (spread[1:], lows[1:], highs[1:]),
        )
        self._velocity_views = (x, y, tx, ty, vx, vy, sq0, self.dots, self.curvature, self.r2)
        self._peak_views = (lines[3:5], peaks[:2], self.velocity, sq, sq0, sq1, peaks[2], peaks, peak_max)
        self._area_views = (x, y, d1x, d1y)

    def points(self) -> np.ndarray:
        """The nodes as a new (N, 2) array."""
        return np.ascontiguousarray(self.nodes.T)

    def _frame_closed(self, diameter: float | None = None) -> tuple[float, float | None]:
        """Spacing guard, frame and vanishing-speed guard of a closed curve,
        and |x|^2 unless its exact ``diameter`` is given.  The guards test
        ``diameter``, or else the bound 8 max|x| on it; returns the value
        they tested and min |x|^2 (None when ``diameter`` is given, where
        the curve's coordinates are never squared).  The chords are
        computed only when ``carried_floor`` is None or fails the spacing
        guard's threshold; either way ``chord_floor`` is set."""
        (
            lo_pad, lo_src, hi_pad, hi_src, flat, work_flat, wx, wy, r2,
            fwd, here, chords, w0, w1, chord2, stencil, stencil_work, constants, h, three,
            d1x, d1y, d2x, d2y, speed, tx, ty, kappa, with_r2, without_r2,
        ) = self._closed_views
        floor, self.carried_floor = self.carried_floor, None
        lo_pad[...] = lo_src
        hi_pad[...] = hi_src
        if diameter is None:
            # |x|^2 = x x + y y; the buffer holds only the nodes and their
            # periodic copies, so its flat square overflows only with |x|^2
            np.multiply(flat, flat, work_flat)
            np.add(wx, wy, r2)
            spread, lows, highs = with_r2
        else:
            spread, lows, highs = without_r2
        periodic_derivatives(stencil, constants, stencil_work)
        # speed = sqrt(d1x d1x + d1y d1y)
        np.multiply(d1x, d1x, w0)
        np.multiply(d1y, d1y, w1)
        np.add(w0, w1, speed)
        np.sqrt(speed, speed)
        lows = np.minimum.reduce(spread, 1, out=lows).tolist()
        highs = np.maximum.reduce(spread, 1, out=highs).tolist()
        speed_min, speed_max = lows[-1], highs[-1]
        if diameter is None:
            r2_min, bound = lows[0], _diameter_bound(highs[0])
        else:
            r2_min, bound = None, diameter
        threshold = DEGENERACY_FACTOR * max(bound, 1e-300)
        # not floor >= threshold, so that a nan floor takes the chord pass
        if floor is None or not floor >= threshold:
            # chord^2 = |f_{i+1} - f_i|^2, squared a row at a time
            np.subtract(fwd, here, chords)
            np.multiply(w0, w0, w0)
            np.multiply(w1, w1, w1)
            np.add(w0, w1, chord2)
            floor = math.sqrt(np.minimum.reduce(chord2))
            if floor < threshold:
                _check_spacing(floor, _diameter(self.points()))
        self.chord_floor = floor
        if speed_min <= 0.0:
            raise DegenerateCurveError("vanishing parametric speed")
        # tangent = d1 / speed
        np.divide(d1x, speed, tx)
        np.divide(d1y, speed, ty)
        # rounding is monotone, so min(speed) h and max(speed) h are the
        # smallest and largest weights exactly
        self.spacing = speed_min * h
        self.max_weight = speed_max * h
        # curvature = (d1x d2y - d1y d2x) / speed**3; speed**3 is pow,
        # which can differ from speed * speed * speed in the last bit
        np.multiply(d1x, d2y, kappa)
        np.multiply(d1y, d2x, w0)
        kappa -= w0
        np.power(speed, three, w0)
        kappa /= w0
        return bound, r2_min

    def _frame_open(self, diameter: float | None = None) -> tuple[float, float | None]:
        """Spacing guard, frame and vanishing-speed guard of an open curve,
        and |x|^2 unless its exact ``diameter`` is given; returns as
        :meth:`_frame_closed`.  Each piece of :func:`curve_pieces` is
        differentiated with ``np.gradient`` (one-sided at its ends) and
        weighted by chord trapezoids, and only within-piece chords count
        for the spacing: jumps in open fixtures are legitimate.  A
        ``carried_floor`` is dropped unread: the chords are always taken."""
        self.carried_floor = None
        pts = self.points()
        if diameter is None:
            (x, y), r2 = self.nodes, self.r2
            np.multiply(x, x, r2)
            r2 += y * y
            r2_min, bound = float(r2.min()), _diameter_bound(float(r2.max()))
        else:
            r2_min, bound = None, diameter
        pieces = curve_pieces(pts, False)
        self.spacing = float(
            min((_open_chords(pts[p]).min() for p in pieces if len(p) >= 2), default=np.inf)
        )
        if self.spacing < DEGENERACY_FACTOR * max(bound, 1e-300):
            _check_spacing(self.spacing, _diameter(pts))
        self.chord_floor = self.spacing
        (tx, ty), kappa, weight = self.tangent, self.curvature, self._weight
        for p in pieces:
            if len(p) < 2:
                raise DegenerateCurveError("single-node component in open curve")
            seg = pts[p]
            d1 = np.gradient(seg, axis=0)
            d2 = np.gradient(d1, axis=0)
            speed = np.linalg.norm(d1, axis=1)
            if speed.min() <= 0.0:
                raise DegenerateCurveError("vanishing parametric speed")
            tx[p] = d1[:, 0] / speed
            ty[p] = d1[:, 1] / speed
            # (d1x d2y - d1y d2x) / speed**3, as on a closed curve
            kappa[p] = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
            weight[p] = chord_weights(seg)
        self.max_weight = float(weight.max())
        return bound, r2_min

    def update(self) -> None:
        """Every per-step term at the current nodes: :meth:`update_velocity`,
        then the step scalars."""
        self.update_velocity()
        dk, abs_dk, velocity, sq, sq0, sq1, v2, peaks, peak_max = self._peak_views
        np.absolute(dk, abs_dk)
        np.multiply(velocity, velocity, sq)
        np.add(sq0, sq1, v2)
        dmax, self.kmax, v2max = np.maximum.reduce(peaks, 1, out=peak_max).tolist()
        # the stable step over safety; safety <= 0.375 keeps the h^2 term
        # inside the stencil stability limit
        h = self.spacing
        cap = h * h
        if dmax > 0.0:
            cap = min(cap, h * self.r2_min / (2.0 * dmax))
        self.vmax = vmax = math.sqrt(v2max)
        if vmax > 0.0:
            cap = min(cap, h / (2.0 * vmax))
        self.cap = cap

    def chord_floor_after(self, dt: float) -> float:
        """A lower bound on the smallest chord of the nodes after Euler's
        step nodes + dt velocity, from the last :meth:`update`: each chord
        shrinks by at most 2 dt vmax, and the step's and the chords'
        rounding by a few ulps of the chord, of max|x| (an eighth of the
        diameter bound at most) and of dt vmax, which CHORD_SLACK covers
        many times over."""
        floor, drift = self.chord_floor, dt * self.vmax
        return floor - 2.0 * drift - CHORD_SLACK * (floor + self._guard_scale + drift)

    def update_velocity(self) -> None:
        """The guards, the frame, |x|^2, <x, n> and the velocity at the
        current nodes; the step scalars are left as they were.  Raises
        DegenerateCurveError on coincident nodes or vanishing speed, then
        OriginContactError when a node is within ORIGIN_GUARD_FACTOR x
        diameter of the origin, where the velocity is singular.  Both
        guards are tested against the bound 8 max|x| on the diameter, and
        the exact diameter is computed only when one fails against it;
        the spacing guard of a closed curve first tests ``carried_floor``,
        a lower bound on the smallest chord, when one was handed in."""
        bound, r2_min = self._frame_closed() if self.closed else self._frame_open()
        if r2_min <= (ORIGIN_GUARD_FACTOR * bound) ** 2:
            _check_origin(r2_min, _diameter(self.points()))
        self.r2_min, self._guard_scale = r2_min, bound
        x, y, tx, ty, vx, vy, sq0, dots, kappa, r2 = self._velocity_views
        # <x, n> = x nx + y ny with n = (-ty, tx), as y tx - x ty (see the
        # module docstring)
        np.multiply(y, tx, dots)
        np.multiply(x, ty, sq0)
        dots -= sq0
        # velocity = kappa n - (<x, n> n) / |x|^2, a row at a time: a
        # broadcast over both rows costs more than two row calls; with
        # nx = -ty, vx is <x, n> ty / |x|^2 - kappa ty
        np.multiply(dots, ty, sq0)
        sq0 /= r2
        np.multiply(kappa, ty, vx)
        np.subtract(sq0, vx, vx)
        np.multiply(dots, tx, sq0)
        sq0 /= r2
        np.multiply(kappa, tx, vy)
        vy -= sq0

    def frame(self) -> FrameData:
        """The frame, in (N, 2) and length-N arrays of its own."""
        weight = self.speed * self._h if self.closed else self._weight.copy()
        return FrameData(
            tangent=self.tangent.T.copy(), curvature=self.curvature.copy(), weight=weight
        )

    def area(self) -> float:
        """The enclosed area, 0.5 * sum(x d1y - y d1x) h."""
        if not self.closed:
            raise CurveConfigError("enclosed area requires a closed curve")
        x, y, d1x, d1y = self._area_views
        # np.add.reduce is the reduction np.sum runs, without its wrapper
        return 0.5 * float(np.add.reduce(x * d1y - y * d1x) * self._h)


def _diameter_bound(r2_max: float) -> float:
    # an upper bound on the diameter, which is at most 4 max|x|: the factor
    # 8 covers rounding, also where |x|^2 is subnormal, down to max|x| ~
    # 3e-162; below that the diameter is under 1e-160, and the floor covers it
    return max(8.0 * math.sqrt(r2_max), 1e-150)


def curve_terms(points: np.ndarray, closed: bool = True) -> StepWorkspace:
    """Per-step geometry of the curve through ``points`` (an (N, 2) float64
    array): a new :class:`StepWorkspace` after one :meth:`update
    <StepWorkspace.update>`, whose guards it raises."""
    ws = StepWorkspace(points, closed)
    ws.update()
    return ws


def compute_frame(curve: PlaneCurve) -> FrameData:
    """Tangent, signed curvature and arclength weight per node: the frame
    of a :class:`StepWorkspace`, with its spacing and speed guards tested
    against the exact diameter, and without the origin guard.

    Closed curves use 4th-order periodic central differences in the index
    parameter.  Open curves are differentiated per component with
    ``np.gradient`` (one-sided at component ends) and weighted by chord
    trapezoids, which is exact on the straight-line fixtures.
    """
    ws = StepWorkspace(curve.points, curve.closed)
    (ws._frame_closed if curve.closed else ws._frame_open)(curve.diameter)
    return ws.frame()


def closed_weights(points: np.ndarray) -> np.ndarray:
    """``compute_frame(curve).weight`` of each closed curve of the block
    ``points`` (B, N, 2), in one array pass along the nodes: the d1
    stencil of :func:`periodic_derivatives`, speed = sqrt(d1x d1x + d1y
    d1y) and weight = speed h, the floats of the one-curve frame.

    The spacing and vanishing-speed guards of :func:`compute_frame` are
    first tested for the whole block against the bound 8 max|x| on each
    diameter; each curve that fails there, in block order, is checked by
    :func:`compute_frame` itself, whose exact test raises for the first
    curve that fails it, with its message.
    """
    nb, n = points.shape[:2]
    h = 2.0 * np.pi / n
    # padded along the nodes in a contiguous node-major (N + 4, B, 2)
    # array, so that the stencil runs along axis 0 for every curve at once
    # on views laid out as its output (d2 goes unused); the per-node rows
    # are (N, B) until the end
    p = pad_periodic(np.ascontiguousarray(points.transpose(1, 0, 2)))
    d1 = periodic_derivatives(stencil_views(p), stencil_constants(h, (1, 1, 1)))[0]
    speed = _squared_norms(d1.reshape(-1, 2)).reshape(n, nb)
    np.sqrt(speed, out=speed)
    chords = p[3 : n + 3] - p[2 : n + 2]
    min_chord = np.sqrt(_squared_norms(chords.reshape(-1, 2)).reshape(n, nb).min(axis=0))
    r2_max = _squared_norms(points.reshape(-1, 2)).reshape(nb, n).max(axis=1)
    bound = np.maximum(8.0 * np.sqrt(r2_max), 1e-150)  # _diameter_bound per curve
    suspect = (min_chord < DEGENERACY_FACTOR * bound) | (speed.min(axis=0) <= 0.0)
    for k in np.flatnonzero(suspect):
        compute_frame(PlaneCurve(points[k]))
    speed *= h
    return np.ascontiguousarray(speed.T)


# ---------------------------------------------------------------------------
# I0e, ported from Cephes i0.c (Stephen L. Moshier, Cephes Math Library,
# 1984, 1987, 2000), whose tables NumPy's i0 and SciPy's i0e also use.
# Chebyshev coefficients of exp(-x) I0(x) in x/2 - 2 on [0, 8] (_I0E_A) and
# of exp(-x) sqrt(x) I0(x) in 32/x - 2 on (8, inf] (_I0E_B).
# ---------------------------------------------------------------------------

_I0E_A = (
    -4.41534164647933937950E-18, 3.33079451882223809783E-17, -2.43127984654795469359E-16,
    1.71539128555513303061E-15, -1.16853328779934516808E-14, 7.67618549860493561688E-14,
    -4.85644678311192946090E-13, 2.95505266312963983461E-12, -1.72682629144155570723E-11,
    9.67580903537323691224E-11, -5.18979560163526290666E-10, 2.65982372468238665035E-9,
    -1.30002500998624804212E-8, 6.04699502254191894932E-8, -2.67079385394061173391E-7,
    1.11738753912010371815E-6, -4.41673835845875056359E-6, 1.64484480707288970893E-5,
    -5.75419501008210370398E-5, 1.88502885095841655729E-4, -5.76375574538582365885E-4,
    1.63947561694133579842E-3, -4.32430999505057594430E-3, 1.05464603945949983183E-2,
    -2.37374148058994688156E-2, 4.93052842396707084878E-2, -9.49010970480476444210E-2,
    1.71620901522208775349E-1, -3.04682672343198398683E-1, 6.76795274409476084995E-1,
)
_I0E_B = (
    -7.23318048787475395456E-18, -4.83050448594418207126E-18, 4.46562142029675999901E-17,
    3.46122286769746109310E-17, -2.82762398051658348494E-16, -3.42548561967721913462E-16,
    1.77256013305652638360E-15, 3.81168066935262242075E-15, -9.55484669882830764870E-15,
    -4.15056934728722208663E-14, 1.54008621752140982691E-14, 3.85277838274214270114E-13,
    7.18012445138366623367E-13, -1.79417853150680611778E-12, -1.32158118404477131188E-11,
    -3.14991652796324136454E-11, 1.18891471078464383424E-11, 4.94060238822496958910E-10,
    3.39623202570838634515E-9, 2.26666899049817806459E-8, 2.04891858946906374183E-7,
    2.89137052083475648297E-6, 6.88975834691682398426E-5, 3.36911647825569408990E-3,
    8.04490411014108831608E-1,
)


def _chbevl(x: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """Cephes chbevl: the Chebyshev series ``coeffs`` at x by Clenshaw's
    recurrence b0 = x b1 - b2 + c, each element in Cephes' operation order."""
    b0 = np.full_like(x, coeffs[0])
    b1 = np.zeros_like(x)
    b2 = np.empty_like(x)
    for c in coeffs[1:]:
        # the new b0 goes into the buffer of b2, which it replaces
        np.multiply(x, b0, out=b2)
        b2 -= b1
        b2 += c
        b0, b1, b2 = b2, b0, b1
    b0 -= b2
    b0 *= 0.5
    return b0


def _i0e(x) -> np.ndarray:
    """exp(-|x|) I0(x), the exponentially scaled modified Bessel function
    of order 0, per element of the float64 array x (Cephes ``i0e``): the
    series in x/2 - 2 on the elements up to |x| = 8, and the series in
    32/|x| - 2, divided by sqrt|x|, on the others."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    out = np.empty_like(x)
    small = x <= 8.0
    large = ~small  # also nan, which stays nan
    # a branch with no elements is skipped: its series is ~80 NumPy calls
    if small.any():
        out[small] = _chbevl(x[small] / 2.0 - 2.0, _I0E_A)
    if large.any():
        xl = x[large]
        out[large] = _chbevl(32.0 / xl - 2.0, _I0E_B) / np.sqrt(xl)
    return out


def swept_gaussian_density(
    points: np.ndarray, weight: np.ndarray, x0: np.ndarray, tau: float
) -> float:
    """Backward-heat-kernel mass, at the space-time point ((x0, 0), t + tau),
    of the surface swept by the nodes ``points`` with arclength weights
    ``weight``:

        (4 pi tau)^{-1} (1/2) int exp(-|X - (x0, 0)|^2 / (4 tau)) dH^2.

    The one-curve case of :func:`swept_gaussian_densities`.
    """
    return float(swept_gaussian_densities(points[None], weight[None], x0, np.array([tau]))[0])


def swept_gaussian_densities(
    points: np.ndarray, weight: np.ndarray, x0: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """:func:`swept_gaussian_density` of each curve of a block, in one
    array pass: nodes (B, N, 2), weights (B, N) and times tau (B,).

    The azimuthal integral is a modified Bessel function, taken in its
    exponentially scaled form so the exponent -(|gamma| - |x0|)^2 / (4 tau)
    never overflows.  At x0 = 0 the Bessel factor is exactly 1 and its
    argument is +-0, so the kernel is exp(-|gamma|^2 / (4 tau)), the same
    float the full expression gives, and is computed as that.

    Every element goes through the same operations whatever the block,
    the products <gamma, x0> are one matrix-vector product per curve, and
    each curve's sum is the pairwise np.sum of its row, so a value does
    not depend on the curves beside it.
    """
    r = np.linalg.norm(points, axis=2)
    four_tau = 4.0 * tau
    if x0.any():
        b = (points @ x0) / (2.0 * tau)[:, None]
        kernel = _i0e(b) * np.exp(-(r * r + float(x0 @ x0)) / four_tau[:, None] + np.abs(b))
    else:
        kernel = np.exp(-(r * r) / four_tau[:, None])
    return np.sum(weight * r * kernel, axis=1) / four_tau


def enclosed_area(curve: PlaneCurve) -> float:
    """Signed enclosed area, 0.5 * loop integral of (x dy - y dx).

    Evaluated with the same 4th-order derivatives as the frame, so the
    value is stable to ~1e-8 relative under resampling at moderate node
    counts (a plain polygon sum would drift at 2nd order).
    """
    if not curve.closed:
        raise CurveConfigError("enclosed area requires a closed curve")
    ws = StepWorkspace(curve.points)
    ws._frame_closed(curve.diameter)
    return ws.area()


# ---------------------------------------------------------------------------
# periodic cubic spline (uniform index grid) used by resample
#
# The second-derivative system M_{i-1} + 4 M_i + M_{i+1} = 6 (f_{i+1} - 2 f_i
# + f_{i-1}) is circulant on a periodic grid, so it diagonalizes under the
# FFT; this keeps redistribution fully vectorized (it runs whenever a flow
# step leaves the node spacing uneven).
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES = 0.5 * (_GL_NODES + 1.0)  # map to [0, 1]
_GL_WEIGHTS = 0.5 * _GL_WEIGHTS
# Newton's parameter rows: tau times this column is the 8 Gauss nodes of
# [0, tau], then tau * 1.0, which is tau exactly
_NEWTON_ROWS = np.append(_GL_NODES, 1.0)[:, None]


@lru_cache(maxsize=8)
def _circulant_eigenvalues(n: int) -> np.ndarray:
    eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / n)
    eig = eig[:, None]
    eig.setflags(write=False)
    return eig


def _quadrature(speed: np.ndarray) -> np.ndarray:
    """Gauss-Legendre sum per segment of speeds laid out (rows, segments)
    with the 8 nodes in rows 0-7.  The product runs on a contiguous
    (segments, 8) copy, the layout that fixes BLAS's summation order."""
    return np.ascontiguousarray(speed[:8].T) @ _GL_WEIGHTS


class _PeriodicSpline:
    """Natural periodic cubic through points on the unit index grid.

    Segment j is a_j + t (b_j + t (c_j + t d_j)) for t in [0, 1].  The
    speed |b + t (2c + t 3 d)| is evaluated component-wise, with the
    operation order of the vector form, on parameters laid out as (rows,
    segments), so that every ufunc runs along the contiguous segment axis.
    """

    def __init__(self, pts: np.ndarray):
        n = len(pts)
        p = np.concatenate((pts[-1:], pts, pts[:1]))
        nxt = p[2:]
        self.chord = nxt - pts
        rhs = 6.0 * (nxt - 2.0 * pts + p[:-2])
        m = np.fft.irfft(np.fft.rfft(rhs, axis=0) / _circulant_eigenvalues(n), n=n, axis=0)
        mn = np.concatenate((m[1:], m[:1]))
        self.a = pts
        self.b = self.chord - m / 3.0 - mn / 6.0
        self.c = m / 2.0
        self.d = (mn - m) / 6.0
        self.n = n
        # the speed's coefficient rows bx, by, 2cx, 2cy, dx, dy, (6, n)
        self.speed_rows = np.concatenate((self.b.T, 2.0 * self.c.T, self.d.T))

    @staticmethod
    def speed(rows: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Speed at the parameters t, shaped (k, M), of the M segments
        whose coefficient rows (6, M) are ``rows``."""
        bx, by, c2x, c2y, dx, dy = rows
        # bx + t (c2x + t3 dx) and |e|, worked in place: each element
        # sees the same operations, in the same order
        t3 = t * 3.0
        ex = t3 * dx
        ex += c2x
        ex *= t
        ex += bx
        ey = t3 * dy
        ey += c2y
        ey *= t
        ey += by
        ex *= ex
        ey *= ey
        ex += ey
        return np.sqrt(ex, out=ex)

    def segment_lengths(self) -> np.ndarray:
        return _quadrature(self.speed(self.speed_rows, _GL_NODES[:, None]))


def resample(curve: PlaneCurve, target_count: int) -> PlaneCurve:
    """Redistribute nodes to equal arclength spacing.

    Nodes are placed on the periodic cubic spline through the existing
    nodes at equal increments of spline arclength, anchored so output node
    0 stays at input node 0.  Arclength is measured per segment by 8-point
    Gauss-Legendre quadrature and inverted by Newton iteration, so the
    spacing is uniform to roundoff and the enclosed area moves by well
    under 1e-6 relative.
    """
    if not curve.closed:
        raise CurveConfigError("resampling is defined for closed curves")
    if target_count < MIN_NODES:
        raise CurveConfigError(f"target_count must be at least {MIN_NODES}")
    spl = _PeriodicSpline(curve.points)
    _check_spacing(_min_chord(spl.chord), curve.diameter)
    seg = spl.segment_lengths()
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    total = cum[-1]
    targets = np.arange(target_count) * (total / target_count)
    j = np.minimum(np.maximum(np.searchsorted(cum, targets, side="right") - 1, 0), spl.n - 1)
    rows = spl.speed_rows[:, j]
    base = cum[j]
    tau = (targets - base) / seg[j]
    for _ in range(4):
        # one speed evaluation: the quadrature nodes and tau itself
        speed = spl.speed(rows, _NEWTON_ROWS * tau)
        partial = _quadrature(speed) * tau
        tau = tau - (base + partial - targets) / speed[8]
        tau = np.minimum(np.maximum(tau, -0.25), 1.25)
    t = tau[:, None]
    return PlaneCurve(spl.a[j] + t * (spl.b[j] + t * (spl.c[j] + t * spl.d[j])), closed=True)

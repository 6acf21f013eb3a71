"""Curve container, frames, quadrature, resampling."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import i0e as scipy_i0e

from lagflow import flow, geometry
from lagflow.flow import RadialProfile, radial_rhs
from lagflow.geometry import (
    DEGENERACY_FACTOR,
    GAP_FACTOR,
    ORIGIN_GUARD_FACTOR,
    CurveConfigError,
    CurveError,
    DegenerateCurveError,
    OriginContactError,
    PlaneCurve,
    compute_frame,
    curve_pieces,
    curve_terms,
    enclosed_area,
    resample,
)
from lagflow.scenarios import cassini_curve, circle_curve, ellipse_curve, line_pair_curve


def circle(n=256, rho=1.0, center=(0.0, 0.0)):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([center[0] + rho * np.cos(u),
                                       center[1] + rho * np.sin(u)]))


def ellipse(n=256, a=3.0, b=2.0):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([a * np.cos(u), b * np.sin(u)]))


@st.composite
def star_curves(draw, n=256):
    """Random smooth star-shaped perturbations of the unit circle."""
    coeffs = draw(
        st.lists(st.floats(-0.08, 0.08), min_size=4, max_size=8)
    )
    u = 2 * np.pi * np.arange(n) / n
    r = np.ones(n)
    for k, c in enumerate(coeffs, start=1):
        # Decay with harmonic number keeps curvature bounded, so every
        # generated curve is resolvable at the fixed node count.
        r = r + (c / k**2) * (np.cos(k * u) + np.sin(k * u))
    return PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))


def arc_gaps(curve):
    """Arclength between consecutive nodes, measured with an independent
    interpolant (scipy periodic cubic) so the check does not reuse the
    machinery under test."""
    from scipy.interpolate import CubicSpline

    n = curve.node_count
    pts = np.vstack([curve.points, curve.points[:1]])
    spl = CubicSpline(np.arange(n + 1, dtype=float), pts, axis=0, bc_type="periodic")
    uu = np.linspace(0.0, n, 64 * n + 1)
    speed = np.linalg.norm(spl(uu, 1), axis=1)
    return np.array(
        [
            np.trapezoid(speed[64 * j : 64 * (j + 1) + 1], uu[64 * j : 64 * (j + 1) + 1])
            for j in range(n)
        ]
    )


class TestPlaneCurve:
    def test_too_few_nodes_rejected(self):
        u = 2 * np.pi * np.arange(8) / 8
        with pytest.raises(CurveConfigError):
            PlaneCurve(np.column_stack([np.cos(u), np.sin(u)]))

    def test_points_are_copied_and_readonly(self):
        pts = circle().points
        with pytest.raises(ValueError):
            pts[0, 0] = 99.0

    def test_diameter_of_offset_circle(self):
        c = circle(rho=1.5, center=(4.0, -1.0))
        assert c.diameter == pytest.approx(3.0, rel=1e-12)

    def test_degenerate_nodes_rejected_at_use(self):
        pts = circle().points.copy()
        pts[10] = pts[11]
        with pytest.raises(DegenerateCurveError):
            compute_frame(PlaneCurve(pts))

    def test_nonfinite_rejected(self):
        pts = circle().points.copy()
        pts[0, 0] = np.nan
        with pytest.raises(CurveConfigError):
            PlaneCurve(pts)


class TestComponents:
    def test_closed_curve_is_one_component(self):
        (piece,) = curve_pieces(circle().points, True)
        assert np.array_equal(piece, np.arange(256))

    def test_open_polyline_splits_at_jumps(self):
        xs = np.linspace(-5, 5, 40)
        seg1 = np.column_stack([xs, np.ones_like(xs)])
        seg2 = np.column_stack([xs, -np.ones_like(xs)])
        curve = PlaneCurve(np.vstack([seg1, seg2]), closed=False)
        pieces = curve_pieces(curve.points, curve.closed)
        assert len(pieces) == 2
        assert np.array_equal(pieces[0], np.arange(0, 40))
        assert np.array_equal(pieces[1], np.arange(40, 80))


def _split_mask_runs(keep, closed):
    # contiguous index runs of True, cyclic when closed: the splitter that
    # cone_decomposition used before curve_pieces, kept as the oracle
    n = len(keep)
    idx = np.nonzero(keep)[0]
    if len(idx) == 0:
        return []
    if keep.all():
        return [np.arange(n)]
    breaks = np.nonzero(np.diff(idx) > 1)[0]
    runs = np.split(idx, breaks + 1)
    if closed and len(runs) > 1 and runs[0][0] == 0 and runs[-1][-1] == n - 1:
        runs[0] = np.concatenate([runs[-1], runs[0]])
        runs.pop()
        # curve_pieces puts the wrapped run last, in curve order from the
        # first run that starts inside the index range
        runs.append(runs.pop(0))
    return runs


def _oracle_pieces(pts, closed, keep):
    # the old jump split of those runs: the median chord over all runs
    # together, every run cut at chords above GAP_FACTOR times it
    runs = _split_mask_runs(keep, closed)
    chords = [np.linalg.norm(np.diff(pts[run], axis=0), axis=1) for run in runs]
    joined = np.concatenate(chords) if chords else np.empty(0)
    med = float(np.median(joined)) if len(joined) else 0.0
    pieces = []
    for run, ch in zip(runs, chords):
        cuts = np.nonzero(ch > GAP_FACTOR * med)[0] if med > 0 else np.array([], int)
        pieces.extend(np.split(run, cuts + 1))
    if closed and keep.all() and len(pieces) > 1:
        # a whole closed curve cut at interior jumps: the first and the
        # last piece meet across the closing chord, wrapped piece last
        pieces.append(np.concatenate([pieces.pop(), pieces.pop(0)]))
    return pieces


def _jittered_circle(n, rng, blocks=()):
    # a closed curve whose node blocks [a, b) are moved far off, so the
    # chords into and out of each block are jumps; blocks inside [1, n-1)
    # leave the closing chord alone
    u = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([np.cos(u), np.sin(u)]) * (1.0 + 0.05 * rng.random((n, 1)))
    for k, (a, b) in enumerate(blocks):
        pts[a:b] += (3.0 * (k + 1), 0.0)
    return pts


class TestCurvePieces:
    """curve_pieces agrees with the run split plus jump split it replaced
    in cone_decomposition, and with geometry's old open-curve split."""

    @staticmethod
    def _assert_matches_oracle(pts, closed, keep):
        got = curve_pieces(pts, closed, keep)
        want = _oracle_pieces(pts, closed, keep)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
        return got

    def test_closed_mask_wrapping_past_node_zero(self):
        pts = circle(64).points
        keep = np.zeros(64, bool)
        keep[:5] = keep[20:30] = keep[58:] = True
        pieces = self._assert_matches_oracle(pts, True, keep)
        assert np.array_equal(pieces[-1], np.r_[58:64, 0:5])
        assert np.array_equal(pieces[0], np.arange(20, 30))
        # on an open curve the same mask gives three runs in index order
        assert len(self._assert_matches_oracle(pts, False, keep)) == 3

    def test_one_node_excursion(self):
        pts = circle(64).points
        keep = np.ones(64, bool)
        keep[10] = False
        pieces = self._assert_matches_oracle(pts, False, keep)
        assert [len(p) for p in pieces] == [10, 53]
        (piece,) = self._assert_matches_oracle(pts, True, keep)
        assert np.array_equal(piece, np.r_[11:64, 0:10])

    def test_jump_chord_inside_a_run(self):
        rng = np.random.default_rng(0)
        pts = _jittered_circle(96, rng, blocks=[(40, 60)])
        # open: three pieces; closed: the arcs before and after the block
        # join across the closing chord into one wrapped piece, last
        for closed, lengths in ((False, [40, 20, 36]), (True, [20, 76])):
            pieces = self._assert_matches_oracle(pts, closed, np.ones(96, bool))
            assert [len(p) for p in pieces] == lengths
            assert [len(p) for p in curve_pieces(pts, closed)] == lengths
        assert np.array_equal(pieces[-1], np.r_[60:96, 0:40])

    def test_empty_mask(self):
        pts = circle(32).points
        for closed in (False, True):
            assert curve_pieces(pts, closed, np.zeros(32, bool)) == []
            self._assert_matches_oracle(pts, closed, np.zeros(32, bool))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_masks(self, seed):
        rng = np.random.default_rng(seed)
        for _ in range(25):
            n = int(rng.integers(16, 160))
            ends = np.sort(rng.choice(np.arange(1, n - 1), size=2 * int(rng.integers(0, 3)), replace=False))
            pts = _jittered_circle(n, rng, ends.reshape(-1, 2))
            keep = rng.random(n) < rng.choice([0.3, 0.7, 0.95, 1.0])
            for closed in (False, True):
                self._assert_matches_oracle(pts, closed, keep)

    def test_closing_chord_is_never_a_jump(self):
        # the run split that curve_pieces replaced cut a wrapped run at a
        # long closing chord; on a closed curve that chord is curve
        pts = circle(64).points.copy()
        pts[32:] += (5.0, 0.0)
        keep = np.ones(64, bool)
        keep[10] = False
        (piece,) = curve_pieces(pts, True, keep)[1:]
        assert np.array_equal(piece, np.r_[32:64, 0:10])
        assert len(curve_pieces(pts, False, keep)) == 3

    def test_zero_median_chord_is_degenerate(self):
        pts = np.repeat(circle(16).points, 3, axis=0)
        with pytest.raises(DegenerateCurveError):
            curve_pieces(pts, False)


class TestFrame:
    def test_unit_circle_curvature(self):
        fr = compute_frame(circle(256))
        assert np.max(np.abs(fr.curvature - 1.0)) < 1e-3

    def test_ellipse_curvature_at_apex(self):
        # semi-major apex of the (3, 2) ellipse: kappa = a / b^2 = 3/4
        fr = compute_frame(ellipse(512))
        assert fr.curvature[0] == pytest.approx(0.75, abs=1e-4)

    def test_normal_points_inward_for_ccw(self):
        c = circle(64 * 4)
        fr = compute_frame(c)
        # inward normal of an origin-centered circle is -position/|position|
        normal = np.column_stack([-fr.tangent[:, 1], fr.tangent[:, 0]])
        assert np.allclose(normal, -c.points / np.linalg.norm(c.points, axis=1)[:, None], atol=1e-6)

    def test_weights_sum_to_perimeter(self):
        fr = compute_frame(circle(512, rho=2.0))
        assert fr.weight.sum() == pytest.approx(4 * np.pi, rel=1e-8)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (128, 256):
            c = ellipse(n)
            fr = compute_frame(c)
            u = 2 * np.pi * np.arange(n) / n
            exact = 6.0 / (9 * np.sin(u) ** 2 + 4 * np.cos(u) ** 2) ** 1.5
            errs.append(np.max(np.abs(fr.curvature - exact)))
        assert errs[0] / errs[1] >= 8.0

    def test_open_line_has_zero_curvature(self):
        xs = np.linspace(-3, 3, 64) + 0.003
        curve = PlaneCurve(np.column_stack([xs, 0.5 * xs]), closed=False)
        fr = compute_frame(curve)
        assert np.max(np.abs(fr.curvature)) < 1e-12


def _rolled_d1(f, h):
    # the np.roll form of the 4th-order periodic first difference, kept
    # here as an oracle for the padded-slice stencil
    return (
        8.0 * (np.roll(f, -1, axis=0) - np.roll(f, 1, axis=0))
        - (np.roll(f, -2, axis=0) - np.roll(f, 2, axis=0))
    ) / (12.0 * h)


def _rolled_d2(f, h):
    return (
        16.0 * (np.roll(f, -1, axis=0) + np.roll(f, 1, axis=0))
        - (np.roll(f, -2, axis=0) + np.roll(f, 2, axis=0))
        - 30.0 * f
    ) / (12.0 * h * h)


def perturbed_star(n=200):
    u = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.3 * np.cos(5 * u) + 0.05 * np.sin(11 * u + 0.4)
    rng = np.random.default_rng(7)
    pts = np.column_stack([r * np.cos(u), r * np.sin(u)])
    return PlaneCurve(pts + 1e-3 * rng.standard_normal(pts.shape))


class TestStencilOracle:
    """compute_frame and enclosed_area on closed curves, and the radial
    twin's rate, agree bit for bit with the rolled stencils."""

    @pytest.mark.parametrize(
        "curve",
        [circle(96, rho=2.0), ellipse(128), perturbed_star()],
        ids=["circle", "ellipse", "star"],
    )
    def test_frame_and_area_match_rolled_stencils(self, curve):
        pts = curve.points
        h = 2.0 * np.pi / curve.node_count
        d1 = _rolled_d1(pts, h)
        d2 = _rolled_d2(pts, h)
        speed = np.linalg.norm(d1, axis=1)
        tangent = d1 / speed[:, None]
        curvature = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3

        frame = compute_frame(curve)
        assert np.array_equal(frame.tangent, tangent)
        assert np.array_equal(frame.curvature, curvature)
        assert np.array_equal(frame.weight, speed * h)
        area = 0.5 * float(np.sum(pts[:, 0] * d1[:, 1] - pts[:, 1] * d1[:, 0]) * h)
        assert enclosed_area(curve) == area

    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 1000])
    def test_radial_rate_matches_rolled_stencils(self, n):
        # the radial twin differentiates its 1-D profile with the same stencils
        r = 1.0 + 0.5 * np.random.default_rng(n).random(n)
        h = 2.0 * np.pi / n
        d1, d2 = _rolled_d1(r, h), _rolled_d2(r, h)
        rate = (r * d2 - 2.0 * r * r - 3.0 * d1 * d1) / (r * d1 * d1 + r**3)
        assert np.array_equal(radial_rhs(RadialProfile(r)), rate)


def _assembled_terms(curve):
    """The per-step terms of curve_terms assembled in their earlier forms:
    the rolled stencils (np.gradient per piece on open curves), three-
    product squared norms and <x, n>, and the normal by np.column_stack.
    Kept as a bit-identity oracle for the kernel."""
    pts = curve.points
    area = None
    if curve.closed:
        h = 2.0 * np.pi / curve.node_count
        d1, d2 = _rolled_d1(pts, h), _rolled_d2(pts, h)
        speed = np.linalg.norm(d1, axis=1)
        weight = speed * h
        spacing = weight.min()
        area = 0.5 * float(np.sum(pts[:, 0] * d1[:, 1] - pts[:, 1] * d1[:, 0]) * h)
    else:
        d1, d2, speed = np.zeros_like(pts), np.zeros_like(pts), np.zeros(len(pts))
        weight = np.zeros(len(pts))
        spacing = math.inf
        for p in curve_pieces(pts, False):
            g1 = np.gradient(pts[p], axis=0)
            d1[p], d2[p], speed[p] = g1, np.gradient(g1, axis=0), np.linalg.norm(g1, axis=1)
            chords = np.linalg.norm(np.diff(pts[p], axis=0), axis=1)
            w = np.zeros(len(p))
            w[:-1] += 0.5 * chords
            w[1:] += 0.5 * chords
            weight[p] = w
            spacing = min(spacing, chords.min())
    tangent = d1 / speed[:, None]
    normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
    curvature = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
    r2 = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    dots = pts[:, 0] * normal[:, 0] + pts[:, 1] * normal[:, 1]
    vel = curvature[:, None] * normal - (dots[:, None] * normal) / r2[:, None]
    caps = [spacing * spacing]
    dmax = np.abs(dots).max()
    if dmax > 0.0:
        caps.append(spacing * r2.min() / (2.0 * dmax))
    vmax = math.sqrt(float((vel[:, 0] * vel[:, 0] + vel[:, 1] * vel[:, 1]).max()))
    if vmax > 0.0:
        caps.append(spacing / (2.0 * vmax))
    return {
        "tangent": tangent,
        "weight": weight,
        "area": area,
        "normal": normal,
        "curvature": curvature,
        "r2": r2,
        "dots": dots,
        "velocity": vel,
        "spacing": float(spacing),
        "stable_dt": 0.2 * min(caps),
        "min_radius": math.sqrt(float(r2.min())),
    }


def parabola(n=64):
    xs = np.linspace(-1.0, 1.0, n)
    return PlaneCurve(np.column_stack([xs, xs**2 + 0.5]), closed=False)


def _close_pair(n, gap):
    """The unit circle at n nodes with node 1 moved to ``gap`` times the
    diameter from node 0, along the curve."""
    pts = circle(n).points.copy()
    pts[1] = pts[0] + gap * 2.0 * (pts[1] - pts[0]) / np.linalg.norm(pts[1] - pts[0])
    return pts


def _touching(n, distance):
    """The unit circle at n nodes, centred on the x-axis so that node n/2
    lies ``distance`` from the origin."""
    return circle(n, center=(1.0 + distance, 0.0)).points


def _open_line(n=64, gap=None, offset=0.5):
    """An open straight polyline at height ``offset``, with node 1 moved to
    ``gap`` times its diameter from node 0 when gap is given."""
    xs = np.linspace(-3.0, 3.0, n)
    pts = np.column_stack([xs, 0.5 * xs + offset])
    if gap is not None:
        step = pts[1] - pts[0]
        pts[1] = pts[0] + gap * np.hypot(6.0, 3.0) * step / np.linalg.norm(step)
    return pts


# Curves on which a guard fails against the bound 8 max|x| but passes
# against the exact diameter: the kernel must compute the diameter there.
_NEAR_GUARD = {
    # max|x| = 1e11 + 1: 1e-12 * 8 max|x| exceeds the chords, 1e-12 * 2 does not
    "far_from_origin": circle(64, center=(1e11, 0.0)).points,
    "close_pair": _close_pair(64, 3.0 * DEGENERACY_FACTOR),
    # 5e-10 lies between 1e-10 * 2 and 1e-10 * 8 max|x|
    "near_origin_guard": _touching(64, 5.0 * ORIGIN_GUARD_FACTOR),
}


def _hairpin(n, i):
    """The unit circle at n nodes with nodes i+1 and i+2 moved onto nodes
    i-1 and i-2: the curve folds back at node i, where the 4th-order
    first derivative is exactly 0 and no chord is short."""
    pts = circle(n).points.copy()
    pts[i + 1], pts[i + 2] = pts[i - 1], pts[i - 2]
    return pts


def _open_hairpin(i):
    """_open_line with node i+1 moved onto node i-1, so that np.gradient
    vanishes at node i."""
    pts = _open_line()
    pts[i + 1] = pts[i - 1]
    return pts


def _assembled_guards(pts, closed):
    """The guards of curve_terms in their earlier forms and in its order:
    the spacing check against the exact diameter, the vanishing-speed
    check on the rolled (closed) or per-piece np.gradient (open) first
    derivative, then the origin check against the exact diameter."""
    diameter = geometry._diameter(pts)
    chords = np.roll(pts, -1, axis=0) - pts if closed else np.diff(pts, axis=0)
    geometry._check_spacing(float(np.sqrt((chords * chords).sum(axis=1)).min()), diameter)
    if closed:
        d1 = _rolled_d1(pts, 2.0 * np.pi / len(pts))
    else:
        d1 = np.concatenate([np.gradient(pts[p], axis=0) for p in curve_pieces(pts, False)])
    if np.linalg.norm(d1, axis=1).min() <= 0.0:
        raise DegenerateCurveError("vanishing parametric speed")
    r2_min = (pts * pts).sum(axis=1).min()
    if r2_min <= (ORIGIN_GUARD_FACTOR * max(diameter, 1e-300)) ** 2:
        raise OriginContactError(
            f"node at distance {math.sqrt(r2_min):.3e} from the origin; "
            "velocity is singular there"
        )


# inputs near or past a guard, with the error each must raise (None: none)
_GUARD_INPUTS = {
    **{name: (pts, True, None) for name, pts in _NEAR_GUARD.items()},
    "vanishing_speed": (_hairpin(64, 10), True, DegenerateCurveError),
    "open_vanishing_speed": (_open_hairpin(20), False, DegenerateCurveError),
    "coincident_nodes": (_close_pair(64, 0.0), True, DegenerateCurveError),
    "close_pair_below_guard": (_close_pair(64, 0.5 * DEGENERACY_FACTOR), True, DegenerateCurveError),
    "node_on_origin": (_touching(64, 0.0), True, OriginContactError),
    "node_inside_origin_guard": (_touching(64, 0.5 * ORIGIN_GUARD_FACTOR), True, OriginContactError),
    "open_pair_below_guard": (_open_line(gap=0.5 * DEGENERACY_FACTOR), False, DegenerateCurveError),
    "open_through_origin": (_open_line(65, offset=0.0), False, OriginContactError),
}


class TestCurveTermsOracle:
    """curve_terms agrees bit for bit with the assembly in _assembled_terms."""

    @pytest.mark.parametrize(
        "curve",
        [
            circle(96, rho=2.0),
            ellipse(128),
            perturbed_star(),
            circle(256, center=(1.05, 0.0)),
            line_pair_curve(128, phi=0.3),
            parabola(),
        ]
        + [PlaneCurve(pts) for pts in _NEAR_GUARD.values()],
        ids=["circle", "ellipse", "star", "near_origin", "open_line_pair", "open_parabola"]
        + list(_NEAR_GUARD),
    )
    def test_terms_match_assembly(self, curve):
        want = _assembled_terms(curve)
        terms = curve_terms(curve.points, curve.closed)
        frame = terms.frame()
        for name in ("tangent", "curvature", "weight"):
            assert np.array_equal(getattr(frame, name), want[name]), name
        for name in ("r2", "dots"):
            assert np.array_equal(getattr(terms, name), want[name]), name
        assert np.array_equal(terms.velocity.T, want["velocity"])
        assert terms.spacing == want["spacing"]
        assert 0.2 * terms.cap == want["stable_dt"]
        assert math.sqrt(terms.r2_min) == want["min_radius"]
        if curve.closed:
            assert terms.area() == want["area"]
        else:
            with pytest.raises(CurveConfigError):
                terms.area()

    @pytest.mark.parametrize("name", list(_GUARD_INPUTS))
    def test_guards_match_assembly(self, name):
        pts, closed, error = _GUARD_INPUTS[name]
        want = _raised(lambda: _assembled_guards(pts, closed))
        got = _raised(lambda: curve_terms(pts, closed))
        assert type(got) is type(want) and str(got) == str(want)
        assert type(got) is (error or type(None))
        if error is None:
            self.test_terms_match_assembly(PlaneCurve(pts, closed=closed))


def _wobbly(n):
    u = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.1 * np.cos(3 * u) + 0.05 * np.sin(2 * u)
    return PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))


def _oracle_replay(points, scheme, steps, snapshot_dt):
    """The first ``steps`` steps of evolve from ``points`` at t = 0,
    replayed through _assembled_terms on (N, 2) arrays: the stable step
    cut by the record clock, the Euler or Heun update and the
    redistribution trigger.  Returns (nodes, t, dt) before each step and
    the number of redistributions."""
    n = len(points)
    clock = flow._StepClock(0.0, snapshot_dt, None)
    pts, t, floor = points, 0.0, 1.0
    before, redistributions = [], 0
    for _ in range(steps):
        want = _assembled_terms(PlaneCurve(pts))
        if floor is None:
            floor = want["weight"].max() / want["spacing"]
        clock.on_grid(t)
        dt = clock.shorten(t, want["stable_dt"])
        before.append((pts, t, dt))
        vel = want["velocity"]
        if scheme == "euler":
            new = pts + dt * vel
        else:
            vel2 = _assembled_terms(PlaneCurve(pts + dt * vel))["velocity"]
            new = pts + 0.5 * dt * (vel + vel2)
        t = t + dt
        if want["weight"].max() > flow.REDISTRIBUTE_RATIO * floor * want["spacing"]:
            new = resample(PlaneCurve(new), n).points
            floor = None
            redistributions += 1
        pts = new
    return before, redistributions


class TestWorkspaceLoopOracle:
    """evolve keeps its nodes in one StepWorkspace; every step it takes
    equals, bit for bit, a replay through _assembled_terms."""

    CURVES = {
        "circle": lambda: circle_curve(64, rho=1.0),
        "ellipse": lambda: ellipse_curve(224, a=3.0),
        "cassini": lambda: cassini_curve(128),
        "odd_n": lambda: _wobbly(101),
    }

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("name", list(CURVES))
    def test_steps_match_replay(self, monkeypatch, name, scheme):
        steps = 240
        start = flow.make_state(self.CURVES[name]())
        snapshot_dt = 0.02
        seen = []
        advance = flow._advance

        def logged(pts, vel, dt, last, *buffers):
            st = last()
            # pts is the workspace's (2, N) view: kept only as a copy
            seen.append((pts.T.copy(), st.t, dt))
            assert np.array_equal(st.curve.points, seen[-1][0])
            return advance(pts, vel, dt, last, *buffers)

        monkeypatch.setattr(flow, "_advance", logged)
        monkeypatch.setattr(flow, "MAX_STEPS", steps)
        with pytest.raises(flow.IntegrationError, match=f"step budget {steps}") as info:
            flow.evolve(
                start, flow.FlowConfig(scheme), recording=flow.RecordingConfig(snapshot_dt)
            )
        want, redistributions = _oracle_replay(start.curve.points, scheme, steps + 1, snapshot_dt)
        assert len(seen) == steps
        for k, ((pts, t, dt), (want_pts, want_t, want_dt)) in enumerate(zip(seen, want)):
            assert np.array_equal(pts, want_pts), k
            assert t == want_t and dt == want_dt, k
        last = info.value.last_state
        assert np.array_equal(last.curve.points, want[steps][0])
        assert last.t == want[steps][1]
        if name == "ellipse":
            assert redistributions > 0


def _exact_chord(pts):
    """The smallest chord of the closed node set ``pts`` (2, N), as the
    spacing guard's chord pass computes it."""
    ws = geometry.StepWorkspace(pts.T)
    ws._frame_closed()
    return ws.chord_floor


def _guard_threshold(pts):
    """The spacing guard's threshold on the closed node set ``pts`` (N, 2):
    DEGENERACY_FACTOR times the bound 8 max|x| on its diameter."""
    r2 = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    return DEGENERACY_FACTOR * geometry._diameter_bound(float(r2.max()))


@st.composite
def stepped_curves(draw):
    """A random closed curve (star-shaped, of random size, node count and
    distance from the origin) and a step of up to SAFETY times its cap."""
    n = draw(st.integers(16, 300))
    curve = draw(star_curves(n))
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    offset = 10.0 ** draw(st.floats(-3.0, 4.0)) * np.array([draw(st.floats(-1.0, 1.0)), 0.3])
    return scale * (curve.points + offset), draw(st.floats(1e-6, 1.0))


class TestCarriedChordFloor:
    """An update handed a lower bound on the smallest chord (carried_floor)
    skips the chord pass while the bound clears the spacing guard's
    threshold; the guard fires on exactly the inputs of the chord pass."""

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    @pytest.mark.parametrize("name", list(TestWorkspaceLoopOracle.CURVES))
    def test_floor_never_above_the_exact_chord_along_runs(self, monkeypatch, name, scheme):
        floors, skips, resampled = {}, [], []
        update_velocity, resample_curve = geometry.StepWorkspace.update_velocity, flow.resample

        def checked(ws):
            floor = ws.carried_floor
            exact = _exact_chord(ws.nodes)
            update_velocity(ws)
            if floor is not None:
                assert floor <= exact
                skip = floor >= _guard_threshold(ws.points())
                assert ws.chord_floor == (floor if skip else exact)
                skips.append(skip)
            floors.setdefault(ws, []).append(floor)

        monkeypatch.setattr(geometry.StepWorkspace, "update_velocity", checked)
        monkeypatch.setattr(flow, "resample", lambda c, n: resampled.append(1) or resample_curve(c, n))
        monkeypatch.setattr(flow, "MAX_STEPS", 300)
        start = flow.make_state(TestWorkspaceLoopOracle.CURVES[name]())
        with pytest.raises(flow.IntegrationError, match="step budget 300"):
            flow.evolve(start, flow.FlowConfig(scheme), recording=flow.RecordingConfig(0.02))
        loop, *predictor = floors.values()
        assert len(loop) == 301 and loop[0] is None
        if scheme == "euler":
            # every update after an Euler step gets a floor, except after
            # a redistribution
            assert sum(floor is not None for floor in loop) == 300 - len(resampled)
        else:
            # the corrector's nodes get the chord pass, the predictor's a floor
            assert loop == [None] * 301
            assert len(predictor) == 1 and None not in predictor[0]
        if name == "ellipse":
            assert resampled
        # most floors clear the threshold, and their update skips the pass
        assert sum(skips) > 0.8 * len(skips)

    @pytest.mark.parametrize("handed", [None, math.nan, -1.0, 0.0, 0.5], ids=str)
    def test_floor_below_the_threshold_runs_the_chord_pass(self, handed):
        # a floor is handed as a multiple of the guard's threshold, each
        # below it, or none is
        pts = circle(64).points
        threshold = _guard_threshold(pts)
        ws = geometry.StepWorkspace(pts)
        ws.carried_floor = None if handed is None else handed * threshold
        ws.update()
        assert ws.chord_floor == _exact_chord(pts.T) > 0.01
        # the same floor on coincident nodes: the chord pass raises, with
        # the message of an update handed nothing
        want = _raised(lambda: curve_terms(_close_pair(64, 0.0)))
        ws.nodes[...] = _close_pair(64, 0.0).T
        ws.carried_floor = None if handed is None else handed * threshold
        got = _raised(ws.update)
        assert type(got) is DegenerateCurveError and str(got) == str(want)

    def test_floor_above_the_threshold_skips_the_chord_pass(self):
        pts = circle(64).points
        floor = 2.0 * _guard_threshold(pts)
        ws = geometry.StepWorkspace(pts)
        ws.carried_floor = floor
        ws.update()
        assert ws.chord_floor == floor and ws.carried_floor is None
        fresh = curve_terms(pts)
        for name in ("velocity", "curvature", "r2", "dots"):
            assert np.array_equal(getattr(ws, name), getattr(fresh, name)), name
        for name in ("cap", "spacing", "max_weight", "r2_min", "kmax", "vmax"):
            assert getattr(ws, name) == getattr(fresh, name), name

    def test_a_floor_serves_one_update(self):
        # a caller that writes its own nodes and updates gets the chord
        # pass, whatever floor the previous update was handed
        pts = circle(64).points
        ws = geometry.StepWorkspace(pts)
        ws.carried_floor = _exact_chord(pts.T)
        ws.update()
        assert ws.carried_floor is None
        ws.nodes[...] = _close_pair(64, 0.0).T
        with pytest.raises(DegenerateCurveError, match=r"spacing 0\.000e\+00"):
            ws.update()

    @settings(max_examples=60, deadline=None)
    @given(stepped_curves())
    def test_chord_floor_after_bounds_the_stepped_chords(self, case):
        pts, fraction = case
        ws = curve_terms(pts)
        dt = fraction * flow.SAFETY * ws.cap
        floor = ws.chord_floor_after(dt)
        # nodes + dt velocity, in the floats of flow._advance
        stepped = np.multiply(ws.velocity, dt)
        stepped += ws.nodes
        assert _exact_chord(stepped) >= floor
        assert floor < ws.chord_floor


class TestWorkspaceResults:
    """What a workspace hands out is a copy; its one-shot uses square no
    coordinates that they do not need."""

    def test_snapshots_survive_the_next_update(self):
        a, b = ellipse(128), perturbed_star(128)
        ws = geometry.StepWorkspace(a.points)
        ws.update()
        frame = ws.frame()
        kept = {k: np.copy(getattr(frame, k)) for k in ("tangent", "curvature", "weight")}
        ws.nodes[...] = b.points.T
        ws.update()
        for k in ("tangent", "curvature", "weight"):
            assert np.array_equal(getattr(frame, k), kept[k]), k

    # A workspace makes its views once, in its constructor.  evolve writes
    # a resampled curve into the nodes in place, so those views must
    # follow the nodes: the next update gives a fresh workspace's floats.
    @pytest.mark.parametrize(
        "before, after",
        [(ellipse(128), perturbed_star(128)), (parabola(128), line_pair_curve(128, phi=0.3))],
        ids=["closed", "open"],
    )
    def test_views_follow_overwritten_nodes(self, before, after):
        ws = geometry.StepWorkspace(before.points, before.closed)
        ws.update()
        ws.nodes[...] = after.points.T
        ws.update()
        fresh = geometry.curve_terms(after.points, after.closed)
        for name in ("tangent", "velocity", "curvature", "r2", "dots"):
            assert np.array_equal(getattr(ws, name), getattr(fresh, name)), name
        for name in ("spacing", "max_weight", "r2_min", "cap", "kmax"):
            assert getattr(ws, name) == getattr(fresh, name), name
        frame, want = ws.frame(), fresh.frame()
        for name in ("tangent", "curvature", "weight"):
            assert np.array_equal(getattr(frame, name), getattr(want, name)), name
        if after.closed:
            assert ws.area() == fresh.area()

    def test_views_follow_overwritten_nodes_in_the_exact_diameter_frame(self):
        # compute_frame's branch, which leaves |x|^2 out of its extrema,
        # before and after an update that takes them all
        a, b = ellipse(128), perturbed_star(128)
        ws = geometry.StepWorkspace(a.points)
        ws._frame_closed(a.diameter)
        ws.nodes[...] = b.points.T
        ws.update()
        fresh = geometry.curve_terms(b.points)
        assert np.array_equal(ws.velocity, fresh.velocity)
        assert (ws.r2_min, ws.cap) == (fresh.r2_min, fresh.cap)
        ws.nodes[...] = a.points.T
        ws._frame_closed(a.diameter)
        frame, want = ws.frame(), compute_frame(a)
        for name in ("tangent", "curvature", "weight"):
            assert np.array_equal(getattr(frame, name), getattr(want, name)), name

    @pytest.mark.parametrize("radius", [1.0, 1e145])
    def test_far_curve_frame_does_not_square_coordinates(self, radius):
        # |x|^2 overflows beyond about 1.34e154, but the frame and the area
        # read only differences and the centred diameter: a small circle
        # that far out collapses onto few distinct nodes and raises the
        # spacing guard, with no overflow warning on the way
        pts = np.array([1e160, -1e160]) + radius * circle(64).points
        curve = PlaneCurve(pts)
        with np.errstate(over="ignore"):
            want = _raised(lambda: _assembled_guards(pts, True))
        assert type(want) is DegenerateCurveError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for got in (_raised(lambda: compute_frame(curve)), _raised(lambda: enclosed_area(curve))):
                assert type(got) is type(want) and str(got) == str(want)

    def test_far_open_curve_frame_does_not_square_coordinates(self):
        # the open twin: the chords, about 0.6 float spacings at 1e160,
        # round to 0 or to one spacing, so the median chord is positive,
        # the smallest is 0, and the exact-diameter guard raises
        pts = np.array([1e160, -1e160]) + 1e145 * _open_line()
        curve = PlaneCurve(pts, closed=False)
        with np.errstate(over="ignore"):
            want = _raised(lambda: _assembled_guards(pts, False))
        assert type(want) is DegenerateCurveError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _raised(lambda: compute_frame(curve))
        assert type(got) is type(want) and str(got) == str(want)


def _exact_guards(pts, closed):
    """The degeneracy and origin guards of curve_terms in their earlier
    form, against the exact diameter: the spacing check, then the origin
    check.  (No case below has a vanishing speed, the check between.)"""
    diameter = geometry._diameter(pts)
    chords = np.diff(pts, axis=0)
    if closed:
        chords = np.roll(pts, -1, axis=0) - pts
    geometry._check_spacing(float(np.sqrt((chords * chords).sum(axis=1)).min()), diameter)
    r2_min = (pts * pts).sum(axis=1).min()
    if r2_min <= (ORIGIN_GUARD_FACTOR * max(diameter, 1e-300)) ** 2:
        raise OriginContactError(
            f"node at distance {math.sqrt(r2_min):.3e} from the origin; "
            "velocity is singular there"
        )


def _raised(fn):
    try:
        fn()
    except CurveError as exc:
        return exc
    return None


class TestGuardBound:
    """curve_terms tests its guards against 8 max|x| and computes the exact
    diameter only when a guard fails there; it raises exactly what the
    exact-diameter guards raise."""

    CASES = {
        "circle": (circle(64).points, True, None),
        "coincident_nodes": (_close_pair(64, 0.0), True, DegenerateCurveError),
        "close_pair_below_guard": (_close_pair(64, 0.5 * DEGENERACY_FACTOR), True, DegenerateCurveError),
        "node_on_origin": (_touching(64, 0.0), True, OriginContactError),
        "node_inside_origin_guard": (_touching(64, 0.5 * ORIGIN_GUARD_FACTOR), True, OriginContactError),
        "tiny_circle": (circle(64, rho=1e-160).points, True, None),
        "open_line": (_open_line(), False, None),
        "open_close_pair": (_open_line(gap=3.0 * DEGENERACY_FACTOR), False, None),
        "open_pair_below_guard": (_open_line(gap=0.5 * DEGENERACY_FACTOR), False, DegenerateCurveError),
        "open_through_origin": (_open_line(65, offset=0.0), False, OriginContactError),
        **{name: (pts, True, None) for name, pts in _NEAR_GUARD.items()},
    }

    @pytest.mark.parametrize("name", list(CASES))
    def test_same_errors_as_exact_diameter(self, name):
        pts, closed, error = self.CASES[name]
        want = _raised(lambda: _exact_guards(pts, closed))
        # the tiny circle's speed**3 underflows: only the errors matter here
        with np.errstate(divide="ignore", invalid="ignore"):
            got = _raised(lambda: curve_terms(pts, closed))
        assert type(want) is type(got) and str(got) == str(want)
        assert type(got) is (error or type(None))

    @pytest.mark.parametrize("name", ["circle", "open_line", *_NEAR_GUARD])
    def test_exact_diameter_only_near_a_guard(self, monkeypatch, name):
        pts, closed, _ = self.CASES[name]
        calls = []
        diameter = geometry._diameter
        monkeypatch.setattr(geometry, "_diameter", lambda p: calls.append(1) or diameter(p))
        curve_terms(pts, closed)
        assert len(calls) == (name in _NEAR_GUARD)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def _oracle_resample(pts, target_count):
    """resample in its earlier form, kept as a bit-identity oracle: the
    circulant eigenvalues computed per call, the spline speed evaluated on
    (M, 8) Gauss nodes and again at tau in each Newton iteration, and
    np.clip."""
    n = len(pts)
    p = np.concatenate((pts[-1:], pts, pts[:1]))
    nxt = p[2:]
    rhs = 6.0 * (nxt - 2.0 * pts + p[:-2])
    eig = 4.0 + 2.0 * np.cos(2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / n)
    m = np.fft.irfft(np.fft.rfft(rhs, axis=0) / eig[:, None], n=n, axis=0)
    mn = np.concatenate((m[1:], m[:1]))
    b = (nxt - pts) - m / 3.0 - mn / 6.0
    c = m / 2.0
    d = (mn - m) / 6.0

    def columns(j=None):
        bj, c2j, dj = b, 2.0 * c, d
        if j is not None:
            bj, c2j, dj = bj[j], c2j[j], dj[j]
        return tuple(v[:, k : k + 1] for v in (bj, c2j, dj) for k in (0, 1))

    def speed(cols, t):
        bx, by, c2x, c2y, dx, dy = cols
        t3 = t * 3.0
        ex = bx + t * (c2x + t3 * dx)
        ey = by + t * (c2y + t3 * dy)
        return np.sqrt(ex * ex + ey * ey)

    seg = speed(columns(), _GL_NODES[None, :]) @ _GL_WEIGHTS
    cum = np.concatenate([[0.0], np.cumsum(seg)])
    targets = np.arange(target_count) * (cum[-1] / target_count)
    j = np.clip(np.searchsorted(cum, targets, side="right") - 1, 0, n - 1)
    cols = columns(j)
    tau_cols = tuple(v[:, 0] for v in cols)
    base = cum[j]
    tau = (targets - base) / seg[j]
    for _ in range(4):
        nodes = tau[:, None] * _GL_NODES[None, :]
        partial = (speed(cols, nodes) @ _GL_WEIGHTS) * tau
        tau = tau - (base + partial - targets) / speed(tau_cols, tau)
        tau = np.clip(tau, -0.25, 1.25)
    t = tau[:, None]
    return pts[j] + t * (b[j] + t * (c[j] + t * d[j]))


class TestResampleOracle:
    """resample agrees bit for bit with _oracle_resample."""

    @pytest.mark.parametrize("n", [128, 256])
    @pytest.mark.parametrize("shape", ["circle", "ellipse", "star"])
    @pytest.mark.parametrize("target", [None, 384, 96, 101])
    def test_matches_oracle(self, n, shape, target):
        curve = {"circle": circle(n, rho=2.0), "ellipse": ellipse(n), "star": perturbed_star(n)}[shape]
        target = target or n
        got = resample(curve, target).points
        assert got.shape == (target, 2)
        assert np.array_equal(got, _oracle_resample(curve.points, target))

    @settings(max_examples=20, deadline=None)
    @given(star_curves(), st.sampled_from([256, 96, 384, 101]))
    def test_matches_oracle_on_star_curves(self, curve, target):
        assert np.array_equal(resample(curve, target).points, _oracle_resample(curve.points, target))


class TestArea:
    def test_unit_circle(self):
        assert enclosed_area(circle(256)) == pytest.approx(np.pi, abs=1e-4)

    def test_ellipse(self):
        assert enclosed_area(ellipse(512)) == pytest.approx(6 * np.pi, abs=1e-3)

    def test_clockwise_is_negative(self):
        cw = PlaneCurve(circle(256).points[::-1].copy())
        assert enclosed_area(cw) == pytest.approx(-np.pi, abs=1e-4)

    def test_open_curve_rejected(self):
        xs = np.linspace(0, 1, 32)
        open_curve = PlaneCurve(np.column_stack([xs, xs**2]), closed=False)
        with pytest.raises(CurveConfigError):
            enclosed_area(open_curve)


class TestResample:
    def test_area_preserved(self):
        c = ellipse(256)
        r = resample(c, 256)
        assert abs(enclosed_area(r) - enclosed_area(c)) / enclosed_area(c) < 1e-6

    def test_spacing_uniform(self):
        # Chord lengths of an equal-arclength sampling legitimately vary with
        # curvature (chord = h - k^2 h^3/24 + ...), so measure the arclength
        # between consecutive nodes rather than straight-line distances.
        r = resample(ellipse(256), 256)
        gaps = arc_gaps(r)
        assert gaps.std() / gaps.mean() < 1e-6

    def test_equal_arclength_curve_is_fixed_point(self):
        c = circle(256, rho=2.0)
        r = resample(c, 256)
        assert np.max(np.linalg.norm(r.points - c.points, axis=1)) < 1e-8 * c.diameter

    def test_node_zero_anchored(self):
        c = ellipse(256)
        r = resample(c, 512)
        assert np.linalg.norm(r.points[0] - c.points[0]) < 1e-10

    def test_upsample_count(self):
        assert resample(ellipse(128), 384).node_count == 384

    def test_open_curve_rejected(self):
        xs = np.linspace(0, 1, 32)
        open_curve = PlaneCurve(np.column_stack([xs, xs]), closed=False)
        with pytest.raises(CurveConfigError):
            resample(open_curve, 64)


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(star_curves())
    def test_resample_preserves_area_and_uniformity(self, curve):
        # Random high-harmonic curves at this resolution carry a few-1e-6 of
        # honest interpolation disagreement, so the bounds are looser than the
        # smooth-ellipse contract in TestResample.
        r = resample(curve, curve.node_count)
        a0, a1 = enclosed_area(curve), enclosed_area(r)
        assert abs(a1 - a0) <= 1e-5 * abs(a0)
        gaps = arc_gaps(r)
        assert gaps.std() / gaps.mean() < 2e-5

    @settings(max_examples=20, deadline=None)
    @given(star_curves(), st.floats(0.1, 6.0))
    def test_area_rotation_invariant(self, curve, angle):
        rot = np.array([[np.cos(angle), -np.sin(angle)],
                        [np.sin(angle), np.cos(angle)]])
        rotated = PlaneCurve(curve.points @ rot.T)
        assert enclosed_area(rotated) == pytest.approx(enclosed_area(curve), rel=1e-12)


def _bits(a):
    return np.asarray(a, dtype=np.float64).view(np.int64)


class TestI0eOracle:
    """The in-tree Cephes port against scipy.special.i0e, bit for bit."""

    oracle = staticmethod(scipy_i0e)

    def test_branch_edge_and_extremes(self):
        eight = 8.0
        x = np.array([
            0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300,
            eight, -eight, np.nextafter(eight, 0.0), np.nextafter(eight, 16.0),
            -np.nextafter(eight, 0.0), -np.nextafter(eight, 16.0),
            np.inf, -np.inf,
        ])
        assert np.array_equal(_bits(geometry._i0e(x)), _bits(self.oracle(x)))
        assert geometry._i0e(np.array([0.0]))[0] == 1.0

    @pytest.mark.parametrize("low, high", [(0.0, 8.0), (8.0, 1e4), (-40.0, 40.0)])
    def test_random_sample(self, low, high):
        x = np.random.default_rng(7).uniform(low, high, 20_000)
        assert np.array_equal(_bits(geometry._i0e(x)), _bits(self.oracle(x)))

    def test_wide_magnitudes_and_shapes(self):
        rng = np.random.default_rng(11)
        x = np.sign(rng.standard_normal(20_000)) * np.exp(rng.uniform(-700.0, 700.0, 20_000))
        x = x.reshape(100, 200)
        got = geometry._i0e(x)
        assert got.shape == x.shape
        assert np.array_equal(_bits(got), _bits(self.oracle(x)))

    def test_nan_stays_nan(self):
        assert np.isnan(geometry._i0e(np.array([np.nan]))).all()

    # each series runs on its branch's elements only; both branches in one
    # array must give each element its own series, with no warning from
    # the 32/x of the other branch at x = 0
    @pytest.mark.parametrize("shape", [(2_000,), (40, 50), (1, 3)])
    def test_mixed_branches_in_one_array(self, shape):
        rng = np.random.default_rng(5)
        size = int(np.prod(shape))
        x = np.where(rng.random(size) < 0.5, rng.uniform(-8.0, 8.0, size), rng.uniform(8.0, 60.0, size))
        x[: min(size, 3)] = [0.0, np.nextafter(8.0, 16.0), 8.0][: min(size, 3)]
        x = x.reshape(shape)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = geometry._i0e(x)
        assert got.shape == x.shape
        assert np.array_equal(_bits(got), _bits(self.oracle(x)))

    def test_mixed_branches_with_extremes(self):
        x = np.array([0.0, np.inf, -3.5, 1e300, 5e-324, np.nan, 7.999, -8.001])
        got = geometry._i0e(x)
        want = self.oracle(x)
        assert np.isnan(got[5]) and np.isnan(want[5])
        keep = ~np.isnan(want)
        assert np.array_equal(_bits(got[keep]), _bits(want[keep]))


class TestSweptDensityAtOrigin:
    # at x0 = 0 the kernel skips the Bessel factor; it must be the same
    # float as the full expression
    @pytest.mark.parametrize("x0", [(0.0, 0.0), (-0.0, 0.0), (-0.0, -0.0)])
    @pytest.mark.parametrize("tau", [0.25, 1e-3, 7.5])
    def test_shortcut_equals_full_expression(self, x0, tau):
        curve = ellipse(256)
        pts, w = curve.points, compute_frame(curve).weight
        x0 = np.array(x0)
        r = np.linalg.norm(pts, axis=1)
        b = (pts @ x0) / (2.0 * tau)
        kernel = scipy_i0e(b) * np.exp(-(r * r + float(x0 @ x0)) / (4.0 * tau) + np.abs(b))
        full = float(np.sum(w * r * kernel) / (4.0 * tau))
        assert geometry.swept_gaussian_density(pts, w, x0, tau) == full

"""Curve container, frames, quadrature, resampling."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagflow.geometry import (
    CurveConfigError,
    DegenerateCurveError,
    PlaneCurve,
    antipodal_defect,
    antipodal_symmetrize,
    component_slices,
    compute_frame,
    enclosed_area,
    normal_projection,
    resample,
)


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

    def test_orientation(self):
        assert circle().is_counterclockwise
        cw = PlaneCurve(circle().points[::-1].copy())
        assert not cw.is_counterclockwise

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
        assert component_slices(circle()) == [slice(0, 256)]

    def test_open_polyline_splits_at_jumps(self):
        xs = np.linspace(-5, 5, 40)
        seg1 = np.column_stack([xs, np.ones_like(xs)])
        seg2 = np.column_stack([xs, -np.ones_like(xs)])
        curve = PlaneCurve(np.vstack([seg1, seg2]), closed=False)
        slices = component_slices(curve)
        assert len(slices) == 2
        assert slices[0] == slice(0, 40) and slices[1] == slice(40, 80)


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
        assert np.allclose(fr.normal, -c.points / np.linalg.norm(c.points, axis=1)[:, None], atol=1e-6)

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

    def test_normal_projection_on_circle(self):
        c = circle(128, rho=2.0)
        proj = normal_projection(c, compute_frame(c))
        # position is purely normal on an origin-centered circle
        assert np.allclose(proj, c.points, atol=1e-10)


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
    """compute_frame and enclosed_area agree bit for bit with the rolled
    stencils on closed curves."""

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
        normal = np.column_stack([-tangent[:, 1], tangent[:, 0]])
        assert np.array_equal(frame.normal, normal)
        assert np.array_equal(frame.curvature, curvature)
        assert np.array_equal(frame.weight, speed * h)
        area = 0.5 * float(np.sum(pts[:, 0] * d1[:, 1] - pts[:, 1] * d1[:, 0]) * h)
        assert enclosed_area(curve) == area


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


class TestAntipodal:
    def test_offset_circle_defect(self):
        c = circle(center=(1.0, 0.0))
        assert antipodal_defect(c) == pytest.approx(2.0, rel=1e-12)

    def test_centered_circle_defect_small(self):
        assert antipodal_defect(circle(256)) < 1e-12

    def test_symmetrize_zeroes_defect(self):
        sym = antipodal_symmetrize(circle(center=(0.01, -0.02)))
        assert antipodal_defect(sym) < 1e-15

    def test_odd_count_rejected(self):
        u = 2 * np.pi * np.arange(17) / 17
        c = PlaneCurve(np.column_stack([np.cos(u), np.sin(u)]))
        with pytest.raises(CurveConfigError):
            antipodal_defect(c)


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

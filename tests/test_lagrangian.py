"""Angle field and monotonicity invariants, checked against closed forms.

Every numeric target here is derived by hand from the defining formula
theta = arg(gamma * gamma'):

* circle rho*e^{is}:       theta = 2s + pi/2, increment 4*pi
* line through origin at angle phi:  theta = 2*phi (+pi on the far ray)
* ellipse (a cos, b sin):  liouville = 2*pi*a*b, c = a*b/2
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lagflow.geometry import PlaneCurve, compute_frame, enclosed_area
from lagflow.lagrangian import (
    NonMonotoneError,
    drainage_defect,
    lagrangian_angle,
    monotone_data,
    normalize,
)
from lagflow.scenarios import line_pair_curve, x_cone_curve


def circle(n=256, rho=1.0):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([rho * np.cos(u), rho * np.sin(u)]))


def ellipse(n=512, a=3.0, b=2.0):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([a * np.cos(u), b * np.sin(u)]))


def figure_eight(n=256):
    # Winding zero about the origin and turning number zero, so the total
    # angle increment around the loop vanishes.
    s = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([np.sin(2 * s), np.sin(s) + 1.5]))


@st.composite
def star_curves(draw, n=256):
    coeffs = draw(st.lists(st.floats(-0.08, 0.08), min_size=4, max_size=8))
    u = 2 * np.pi * np.arange(n) / n
    r = np.ones(n)
    for k, c in enumerate(coeffs, start=1):
        r = r + (c / k**2) * (np.cos(k * u) + np.sin(k * u))
    return PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))


class TestAngleField:
    def test_circle_angle_is_doubled_parameter(self):
        n = 256
        c = circle(n, rho=2.0)
        angle = lagrangian_angle(c, compute_frame(c))
        u = 2 * np.pi * np.arange(n) / n
        assert np.max(np.abs(angle.theta - (2 * u + np.pi / 2))) < 1e-6

    def test_circle_total_increment(self):
        c = circle(256, rho=1.5)
        angle = lagrangian_angle(c, compute_frame(c))
        assert angle.total_increment == pytest.approx(4 * np.pi, abs=1e-9)

    def test_anchor_in_base_window(self):
        c = ellipse()
        angle = lagrangian_angle(c, compute_frame(c))
        assert 0.0 <= angle.theta[0] < 2 * np.pi

    def test_line_pair_doubled_angle_constant(self):
        # Both rays of a line at angle phi differ by pi in theta, so the
        # doubled angle e^{2 i theta} = e^{4 i phi} is one number for the
        # whole pair.
        phi = 0.3
        c = line_pair_curve(256, phi=phi)
        angle = lagrangian_angle(c, compute_frame(c))
        doubled = np.exp(2j * angle.theta)
        assert np.max(np.abs(doubled - np.exp(4j * phi))) < 1e-9

    def test_x_cone_doubled_angle(self):
        c = x_cone_curve(256)
        angle = lagrangian_angle(c, compute_frame(c))
        assert np.max(np.abs(np.exp(2j * angle.theta) + 1.0)) < 1e-9

    def test_open_curve_has_no_increment(self):
        c = line_pair_curve(128)
        angle = lagrangian_angle(c, compute_frame(c))
        assert math.isnan(angle.total_increment)

    def test_ellipse_angle_monotone(self):
        c = ellipse(512)
        angle = lagrangian_angle(c, compute_frame(c))
        ext = np.append(angle.theta, angle.theta[0] + angle.total_increment)
        assert np.min(np.diff(ext)) > -1e-6

    def test_scale_invariance(self):
        c = ellipse(256)
        scaled = PlaneCurve(c.points * 7.3)
        t0 = lagrangian_angle(c, compute_frame(c)).theta
        t1 = lagrangian_angle(scaled, compute_frame(scaled)).theta
        assert np.max(np.abs(t0 - t1)) < 1e-9


class TestMonotoneData:
    def test_circle_integrals(self):
        c = circle(256, rho=2.0)
        md = monotone_data(c, compute_frame(c))
        assert md.liouville_integral == pytest.approx(8 * np.pi, rel=1e-6)
        assert md.maslov_integral == pytest.approx(4 * np.pi, abs=1e-9)
        assert md.constant_c == pytest.approx(2.0, rel=1e-6)

    def test_unit_circle_constant(self):
        c = circle(256, rho=1.0)
        md = monotone_data(c, compute_frame(c))
        assert md.constant_c == pytest.approx(0.5, rel=1e-6)

    def test_ellipse_constant_equals_half_axis_product(self):
        md = monotone_data(ellipse(512), compute_frame(ellipse(512)))
        assert md.constant_c == pytest.approx(3.0, rel=1e-6)

    def test_open_curve_rejected(self):
        c = line_pair_curve(128)
        with pytest.raises(Exception):
            monotone_data(c, compute_frame(c))

    def test_zero_increment_raises(self):
        c = figure_eight()
        with pytest.raises(NonMonotoneError):
            monotone_data(c, compute_frame(c))


class TestNormalize:
    def test_unit_circle_scales_up(self):
        scaled, factor = normalize(circle(256, rho=1.0))
        assert factor == pytest.approx(math.sqrt(2.0), rel=1e-6)
        md = monotone_data(scaled, compute_frame(scaled))
        assert md.constant_c == pytest.approx(1.0, rel=1e-9)

    def test_ellipse_scales_down(self):
        scaled, factor = normalize(ellipse(512))
        assert factor == pytest.approx(3.0**-0.5, rel=1e-6)
        md = monotone_data(scaled, compute_frame(scaled))
        assert md.constant_c == pytest.approx(1.0, rel=1e-9)

    def test_open_curve_rejected(self):
        with pytest.raises(Exception):
            normalize(line_pair_curve(128))


class TestMonotoneDefect:
    def test_shrinking_circle_family_obeys_drainage(self):
        # rho(t) = sqrt(4 - 4t) solves the flow exactly, c0 = 2; the
        # defect of each exact state should be pure discretization noise.
        for t in (0.0, 0.25, 0.5, 0.75):
            c = circle(256, rho=math.sqrt(4.0 - 4.0 * t))
            assert drainage_defect(monotone_data(c, compute_frame(c)), 2.0, t) < 1e-7

    def test_wrong_constant_detected(self):
        c = circle(256, rho=2.0)
        assert drainage_defect(monotone_data(c, compute_frame(c)), 2.1, 0.0) > 0.05


class TestProperties:
    @settings(max_examples=20, deadline=None)
    @given(star_curves())
    def test_liouville_is_twice_area(self, curve):
        md = monotone_data(curve, compute_frame(curve))
        assert md.liouville_integral == pytest.approx(
            2.0 * enclosed_area(curve), rel=1e-6
        )

    @settings(max_examples=20, deadline=None)
    @given(star_curves())
    def test_increment_snaps_to_two_turns(self, curve):
        angle = lagrangian_angle(curve, compute_frame(curve))
        assert angle.total_increment == pytest.approx(4 * np.pi, abs=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(star_curves(), st.floats(0.25, 4.0))
    def test_constant_scales_quadratically(self, curve, sigma):
        md0 = monotone_data(curve, compute_frame(curve))
        scaled = PlaneCurve(curve.points * sigma)
        md1 = monotone_data(scaled, compute_frame(scaled))
        assert md1.constant_c == pytest.approx(sigma**2 * md0.constant_c, rel=1e-9)

"""Tangent-flow analysis tools, anchored by an independent quadrature.

The first class re-derives the Gaussian-density values by brute-force 2-D
integration over the swept surface, with no Bessel reduction, and pins
the closed-form implementation against it.  Everything downstream
(monotonicity, rescaling, cone decomposition) is tested on exactly
solvable circle flows and on line/hyperbola fixtures whose limits are
known by construction.
"""
import dataclasses
import json
import math
import os
import shutil

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from lagflow import analysis, runio
from lagflow.analysis import (
    DensityRatio,
    _clip_lengths,
    _drainage_check,
    _periodic_spline,
    _polar_radii,
    _probe_ratios,
    _row_dot,
    _segments,
    angle_spectrum,
    cone_decomposition,
    gaussian_density,
    lemma_table,
    local_density_ratio,
    monotonicity_check,
    polar_profile,
    quadrant_monotonicity,
    rescale_flow,
)
from lagflow.flow import (
    FlowState,
    RadialProfile,
    RecordingConfig,
    Trajectory,
    TrajectoryRangeError,
    evolve,
    StopConditions,
    make_state,
    radial_rhs,
)
from lagflow.cli import main
from lagflow.geometry import (
    CurveConfigError,
    CurveError,
    DegenerateCurveError,
    PlaneCurve,
    _i0e,
    closed_weights,
    compute_frame,
    curve_pieces,
)
from lagflow.runio import load_trajectory, read_manifest, read_snapshot
from lagflow.scenarios import ellipse_curve, line_pair_curve, x_cone_curve


def circle(n=256, rho=2.0, center=(0.0, 0.0)):
    u = 2 * np.pi * np.arange(n) / n
    pts = np.column_stack([rho * np.cos(u), rho * np.sin(u)])
    return PlaneCurve(pts + np.asarray(center))


def single_line(phi=0.3, L=12.0, n=2048):
    # a full line through the origin, nodes half-offset so none sits at 0
    u = -L + (np.arange(n) + 0.5) * (2 * L / n)
    e = np.array([math.cos(phi), math.sin(phi)])
    return PlaneCurve(np.outer(u, e), closed=False)


def hyperbola_pair(b=0.1, L=3.0, per_branch=401):
    # both branches of y^2 - x^2 = b^2: the exact special-Lagrangian
    # fixture, theta = pi/2 identically (mod pi)
    x = np.linspace(-L, L, per_branch)
    up = np.column_stack([x, np.sqrt(x * x + b * b)])
    dn = np.column_stack([x, -np.sqrt(x * x + b * b)])[::-1]
    return PlaneCurve(np.vstack([up, dn]), closed=False)


def circle_trajectory(rho0=2.0, t_grid=None, n=128):
    """Exact shrinking-circle records rho(t) = sqrt(rho0^2 - 4t)."""
    if t_grid is None:
        t_grid = np.linspace(0.0, 0.8, 33)
    c = rho0 * rho0 / 2.0
    states = [
        FlowState(
            curve=circle(n, rho=math.sqrt(rho0 * rho0 - 4.0 * t)),
            t=float(t),
            initial_constant=c,
            step_index=i,
        )
        for i, t in enumerate(t_grid)
    ]
    return Trajectory(
        states=states,
        diagnostics={"t": np.asarray(t_grid, float)},
        initial_constant=c,
    )


# ---------------------------------------------------------------------------
# independent density quadrature (no Bessel reduction anywhere)
# ---------------------------------------------------------------------------


def quadrature_density(z, speed, u, x0, tau, closed, n_alpha=512):
    """Theta by direct 2-D integration over the swept surface.

    Surface element |gamma| |gamma'| du d(alpha); the (u, alpha) chart
    covers the surface twice for a full antipodal curve, hence the 1/2.
    """
    x0c = complex(x0[0], x0[1])
    r2 = np.abs(z) ** 2 + abs(x0c) ** 2
    cross = 2.0 * np.real(z * np.conj(x0c))
    alpha = 2 * np.pi * np.arange(n_alpha) / n_alpha
    expo = -(r2[:, None] - np.outer(cross, np.cos(alpha))) / (4.0 * tau)
    f_u = (np.abs(z) * speed) * np.exp(expo).mean(axis=1) * 2 * np.pi
    if closed:
        du = u[1] - u[0]
        total = f_u.sum() * du  # periodic trapezoid
    else:
        from scipy.integrate import simpson

        total = simpson(f_u, x=u)
    return total / (8.0 * np.pi * tau)


class TestGaussianDensityOracle:
    def test_self_similar_circle_against_quadrature_and_closed_form(self):
        # circle of radius 2 at tau = 1: both routes must give 2*pi/e
        n = 2048
        s = 2 * np.pi * np.arange(n) / n
        z = 2.0 * np.exp(1j * s)
        quad = quadrature_density(z, np.full(n, 2.0), s, (0.0, 0.0), 1.0, closed=True)
        assert quad == pytest.approx(2 * math.pi / math.e, rel=1e-9)
        code = gaussian_density(circle(1024, rho=2.0), (0.0, 0.0), T=1.0, t=0.0)
        assert code.value == pytest.approx(quad, rel=1e-6)

    def test_off_center_point_matches_quadrature(self):
        # nonzero base point exercises the Bessel reduction proper
        n = 2048
        s = 2 * np.pi * np.arange(n) / n
        z = 2.0 * np.exp(1j * s)
        x0 = (0.3, -0.2)
        tau = 0.7
        quad = quadrature_density(
            z, np.full(n, 2.0), s, x0, tau, closed=True, n_alpha=1024
        )
        code = gaussian_density(circle(1024, rho=2.0), x0, T=tau, t=0.0)
        assert code.value == pytest.approx(quad, rel=1e-6)

    def test_static_line_has_unit_density(self):
        # one Lagrangian plane through the base point: density exactly 1
        phi, L, n = 0.3, 12.0, 4097
        u = np.linspace(-L, L, n)
        z = u * np.exp(1j * phi)
        quad = quadrature_density(
            z, np.ones(n), u, (0.0, 0.0), 1.0, closed=False, n_alpha=64
        )
        assert quad == pytest.approx(1.0, rel=1e-6)
        code = gaussian_density(single_line(phi), (0.0, 0.0), T=1.0, t=0.0)
        assert code.value == pytest.approx(1.0, rel=1e-4)

    def test_transverse_line_pair_has_density_two(self):
        code = gaussian_density(x_cone_curve(2048, truncation=12.0), (0.0, 0.0), T=1.0, t=0.0)
        assert code.value == pytest.approx(2.0, rel=1e-4)

    def test_density_constant_along_self_similar_flow(self):
        # rho(t) = sqrt(4 - 4t) with T = 1 keeps rho^2 = 4*tau, the
        # equality case of the monotonicity formula
        for t in (0.0, 0.3, 0.6, 0.9):
            rho = math.sqrt(4.0 - 4.0 * t)
            smp = gaussian_density(circle(1024, rho=rho), (0.0, 0.0), T=1.0, t=t)
            assert smp.value == pytest.approx(2 * math.pi / math.e, rel=1e-6)

    def test_flow_density_column_is_this_density_at_the_origin(self):
        # the diagnostics column is Theta((0, 0), c0/2) of each record,
        # bit for bit: one kernel serves both
        st = make_state(circle(64, rho=1.5))
        traj, _ = evolve(st, recording=RecordingConfig(snapshot_dt=0.1))
        T = 0.5 * st.initial_constant
        column = traj.diagnostics["gaussian_density_origin"]
        for state, value in zip(traj.states, column):
            if state.t < T:
                assert value == gaussian_density(state.curve, (0.0, 0.0), T, state.t).value

    def test_far_point_sees_nothing(self):
        smp = gaussian_density(circle(256, rho=2.0), (40.0, 0.0), T=1.0, t=0.0)
        assert smp.value < 1e-12

    def test_time_past_reference_rejected(self):
        with pytest.raises(ValueError):
            gaussian_density(circle(64), (0.0, 0.0), T=1.0, t=1.0)
        with pytest.raises(ValueError):
            gaussian_density(circle(64), (0.0, 0.0), T=1.0, t=1.5)


class TestMonotonicityCheck:
    def test_self_similar_flow_is_flat(self):
        traj = circle_trajectory(rho0=2.0, n=256)
        rep = monotonicity_check(traj, (0.0, 0.0), T=1.0)
        assert rep.passed
        assert rep.max_increase < 1e-6
        assert np.all(np.abs(rep.values - 2 * math.pi / math.e) < 1e-5)

    def test_cutoff_skips_late_records(self):
        traj = circle_trajectory(rho0=2.0, n=128)
        rep = monotonicity_check(traj, (0.0, 0.0), T=1.0, t_max=0.5)
        assert rep.times.max() < 0.5

    def test_artificial_growth_flagged(self):
        # a curve family that grows violates the decay law
        t_grid = [0.0, 0.5]
        states = [
            FlowState(curve=circle(128, rho=1.0), t=0.0, initial_constant=0.5, step_index=0),
            FlowState(curve=circle(128, rho=1.99), t=0.5, initial_constant=0.5, step_index=1),
        ]
        traj = Trajectory(
            states=states,
            diagnostics={"t": np.asarray(t_grid)},
            initial_constant=0.5,
        )
        rep = monotonicity_check(traj, (0.0, 0.0), T=1.0)
        assert not rep.passed
        assert rep.max_increase > 0.1

    @pytest.mark.parametrize("T", [0.0, 0.3])
    def test_no_verdict_from_fewer_than_two_records(self, T):
        # T = 0 leaves no record before it, T = 0.3 one: nothing can rise
        traj = circle_trajectory(rho0=2.0, t_grid=[0.0, 0.5, 0.9], n=64)
        rep = monotonicity_check(traj, (0.0, 0.0), T=T)
        assert rep.passed is None
        assert math.isnan(rep.max_increase)


class TestLocalDensityRatio:
    def test_line_through_center_is_one(self):
        ratio = local_density_ratio(single_line(0.3, n=512), (0.0, 0.0), delta=0.5)
        assert ratio.value == pytest.approx(1.0, abs=1e-9)
        assert not ratio.under_resolved

    def test_circle_arc_matches_geometry(self):
        # length of the circle of radius a inside B_delta(p), p on the
        # circle: 4a*asin(delta/(2a))
        a, delta = 2.0, 0.3
        c = circle(4096, rho=a)
        ratio = local_density_ratio(c, (a, 0.0), delta=delta)
        exact = 4 * a * math.asin(delta / (2 * a)) / (2 * delta)
        assert ratio.value == pytest.approx(exact, rel=1e-4)

    def test_far_center_is_zero(self):
        ratio = local_density_ratio(circle(128, rho=2.0), (10.0, 0.0), delta=0.5)
        assert ratio.value == 0.0

    def test_under_resolved_flagged(self):
        ratio = local_density_ratio(circle(64, rho=2.0), (2.0, 0.0), delta=0.1)
        assert ratio.under_resolved

    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            local_density_ratio(circle(64), (0.0, 0.0), delta=0.0)


def _segment_clip_length(a, b, center, delta):
    # exact length of segment [a, b] inside B_delta(center), one segment
    # at a time: the oracle for analysis._clip_lengths
    d = b - a
    f = a - center
    A = float(d @ d)
    if A == 0.0:
        return 0.0
    B = 2.0 * float(f @ d)
    C = float(f @ f) - delta * delta
    disc = B * B - 4.0 * A * C
    if disc <= 0.0:
        return 0.0
    sq = math.sqrt(disc)
    lo = max((-B - sq) / (2.0 * A), 0.0)
    hi = min((-B + sq) / (2.0 * A), 1.0)
    if hi <= lo:
        return 0.0
    return (hi - lo) * math.sqrt(A)


def _looped_ratio(curve, x0, delta, count_jumps=False):
    # local_density_ratio as a per-segment loop: each component's
    # segments in order, then the closing chord if closed;
    # count_jumps=True also clips the chords between open components
    p = np.asarray(x0, dtype=np.float64).reshape(2)
    pts = curve.points
    pieces = [np.arange(len(pts))] if count_jumps else curve_pieces(pts, curve.closed)
    pairs = [(pts[i], pts[i + 1]) for piece in pieces for i in piece[:-1]]
    if curve.closed:
        pairs.append((pts[-1], pts[0]))
    total = 0.0
    touched = []
    for a, b in pairs:
        ln = _segment_clip_length(a, b, p, delta)
        if ln > 0.0:
            total += ln
            touched.append(float(np.linalg.norm(b - a)))
    under = bool(touched) and delta <= 5.0 * float(np.median(touched))
    return DensityRatio(value=total / (2.0 * delta), under_resolved=under)


class TestClipOracle:
    """The array clip agrees bit for bit with the scalar per-segment clip,
    and local_density_ratio with the loop it replaced."""

    EDGE_CASES = {
        "zero_length": ((0.3, 0.2), (0.3, 0.2)),
        "tangent": ((-1.0, 1.0), (1.0, 1.0)),
        "inside": ((0.1, 0.1), (0.2, -0.3)),
        "outside": ((3.0, 3.0), (4.0, 5.0)),
        "through": ((-2.0, 0.5), (2.0, 0.5)),
        "enters": ((0.0, 0.0), (2.0, 0.0)),
        "leaves_from_circle": ((1.0, 0.0), (-3.0, 0.0)),
        "starts_on_circle_outward": ((1.0, 0.0), (2.0, 0.0)),
        "ends_on_circle": ((0.0, 0.0), (0.0, -1.0)),
    }

    @staticmethod
    def _clip(a, b, center, delta):
        d = b - a
        A = _row_dot(d, d)
        return _clip_lengths(a - center, d, A, delta), A

    def _assert_bit_equal(self, a, b, center, delta):
        lengths, A = self._clip(a, b, center, delta)
        for i in range(len(a)):
            assert lengths[i] == _segment_clip_length(a[i], b[i], center, delta)
            assert A[i] == float((b[i] - a[i]) @ (b[i] - a[i]))

    def test_edge_cases(self):
        a = np.array([seg[0] for seg in self.EDGE_CASES.values()])
        b = np.array([seg[1] for seg in self.EDGE_CASES.values()])
        center = np.zeros(2)
        self._assert_bit_equal(a, b, center, 1.0)
        # the fixtures hit the branch they are named after
        lengths, _ = self._clip(a, b, center, 1.0)
        got = dict(zip(self.EDGE_CASES, lengths.tolist()))
        assert got["zero_length"] == got["tangent"] == got["outside"] == 0.0
        assert got["starts_on_circle_outward"] == 0.0
        assert got["inside"] == pytest.approx(math.hypot(0.1, 0.4))
        assert got["through"] == pytest.approx(2.0 * math.sqrt(0.75))
        assert got["enters"] == got["ends_on_circle"] == 1.0
        assert got["leaves_from_circle"] == 2.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_segments(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-2.0, 2.0, size=(2000, 2))
        b = a + rng.normal(scale=rng.choice([0.01, 0.3, 2.0]), size=(2000, 2))
        center = rng.uniform(-1.0, 1.0, size=2)
        self._assert_bit_equal(a, b, center, float(rng.uniform(0.05, 1.5)))

    @pytest.mark.parametrize(
        "curve",
        [circle(96, rho=2.0), x_cone_curve(256), line_pair_curve(200, phi=0.1)],
        ids=["circle", "x_cone", "line_pair"],
    )
    def test_ratio_matches_loop(self, curve):
        rng = np.random.default_rng(7)
        for x0 in rng.uniform(-3.0, 3.0, size=(40, 2)):
            for delta in (0.05, 0.4, 2.0):
                assert local_density_ratio(curve, x0, delta) == _looped_ratio(curve, x0, delta)


class TestSegmentAssembly:
    def test_open_components_skip_jump_chord(self):
        # the x_cone's first line ends near (7.07, 7.07) and its second
        # starts near (7.07, -7.07): the jump chord between them crosses
        # this disk, both lines stay 5 away from it
        curve = x_cone_curve(256)
        x0, delta = (10.0 / math.sqrt(2.0), 0.0), 1.0
        assert _looped_ratio(curve, x0, delta, count_jumps=True).value > 0.9
        ratio = local_density_ratio(curve, x0, delta)
        assert ratio == _looped_ratio(curve, x0, delta)
        assert ratio.value == 0.0

    def test_closed_curve_counts_wrap_chord(self):
        curve = circle(64, rho=2.0)
        pts = curve.points
        x0 = 0.5 * (pts[-1] + pts[0])
        delta = 0.25 * float(np.linalg.norm(pts[0] - pts[-1]))
        ratio = local_density_ratio(curve, x0, delta)
        assert ratio == _looped_ratio(curve, x0, delta)
        assert ratio.value == pytest.approx(1.0)


class TestRescaleFlow:
    def test_self_similar_circle_is_scale_invariant(self):
        traj = circle_trajectory(rho0=2.0, t_grid=np.linspace(0.0, 0.99, 199), n=128)
        views = rescale_flow(traj, (0.0, 0.0), T=1.0, scales=[2.0, 4.0, 8.0], s=-1.0)
        assert len(views) == 3
        for view in views:
            radii = np.linalg.norm(view.curve.points, axis=1)
            assert np.max(np.abs(radii - 2.0)) < 5e-3
            assert view.curve.closed

    def test_out_of_range_scale_names_offender(self):
        traj = circle_trajectory(rho0=2.0, t_grid=np.linspace(0.0, 0.9, 19), n=128)
        with pytest.raises(TrajectoryRangeError, match="sigma=32"):
            rescale_flow(traj, (0.0, 0.0), T=1.0, scales=[2.0, 32.0], s=-1.0)

    def test_tiny_window_rejected(self):
        traj = circle_trajectory(rho0=2.0, t_grid=np.linspace(0.0, 0.9, 19), n=128)
        with pytest.raises(CurveConfigError):
            rescale_flow(
                traj, (0.0, 0.0), T=1.0, scales=[2.0], s=-1.0, window=1e-3
            )

    # sigma = 0, or one whose square underflows, divides by zero, and a
    # negative sigma mirrors the view
    @pytest.mark.parametrize("sigma", [0.0, 1e-300, -2.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_sigma_rejected(self, sigma):
        traj = circle_trajectory(rho0=2.0, t_grid=np.linspace(0.0, 0.9, 19), n=128)
        message = f"sigma must be positive and finite with a nonzero square, got {sigma:g}"
        with pytest.raises(CurveConfigError, match=message):
            rescale_flow(traj, (0.0, 0.0), T=1.0, scales=[2.0, sigma], s=-1.0)


class TestConeDecomposition:
    def test_transverse_pair_gives_two_clean_lines(self):
        dec = cone_decomposition(x_cone_curve(1024, truncation=10.0), R=1.0)
        assert len(dec.components) == 2
        dirs = sorted(c.direction for c in dec.components)
        assert dirs[0] == pytest.approx(math.pi / 4, abs=1e-6)
        assert dirs[1] == pytest.approx(3 * math.pi / 4, abs=1e-6)
        for comp in dec.components:
            assert comp.angle_spread < 1e-6
            assert abs(comp.mean_doubled_angle - (-1.0)) < 1e-6
            assert comp.residual < 1e-9

    def test_rotated_pair_follows_phi(self):
        phi = 0.3
        dec = cone_decomposition(line_pair_curve(1024, phi=phi), R=1.0)
        dirs = sorted(c.direction for c in dec.components)
        assert dirs[0] == pytest.approx(phi, abs=1e-6)
        assert dirs[1] == pytest.approx(phi + math.pi / 2, abs=1e-6)

    def test_single_line_is_one_component(self):
        dec = cone_decomposition(single_line(0.3, n=512), R=1.0)
        assert len(dec.components) == 1
        assert dec.components[0].direction == pytest.approx(0.3, abs=1e-6)

    def test_closed_survivor_has_no_direction(self):
        dec = cone_decomposition(circle(256, rho=2.0), R=2.5)
        assert len(dec.components) == 1
        comp = dec.components[0]
        assert math.isnan(comp.direction)
        assert comp.mass == pytest.approx(4 * math.pi, rel=1e-4)

    def test_closed_curve_with_one_jump_is_one_arc(self):
        # A closed V: out from near the origin along pi/6, a jump chord
        # across the far ends, back in along 2*pi/3.  The closing chord
        # joins the two tips, so the curve is one arc, cut at the tip into
        # two rays, whichever node carries index 0.
        u = np.linspace(0.05, 3.0, 60)
        out = u[:, None] * [math.cos(math.pi / 6), math.sin(math.pi / 6)]
        back = (u[::-1] + 0.025)[:, None] * [math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)]
        pts = np.vstack([out, back])
        chords = np.linalg.norm(np.diff(pts, axis=0), axis=1)
        length = chords.sum() - chords[59] + np.linalg.norm(pts[-1] - pts[0])
        decs = [cone_decomposition(PlaneCurve(np.roll(pts, k, axis=0)), R=1.0) for k in (0, 7, 90)]
        for dec in decs:
            assert dec.components == decs[0].components
        dirs = sorted(c.direction for c in decs[0].components)
        assert dirs == pytest.approx([math.pi / 6, 2 * math.pi / 3], abs=0.01)
        # every chord but the jump is mass, the closing chord included
        assert sum(c.mass for c in decs[0].components) == pytest.approx(length, rel=1e-12)

    @pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
    def test_non_positive_or_non_finite_radius_rejected(self, R):
        with pytest.raises(CurveConfigError, match=f"R must be positive and finite, got {R:g}"):
            cone_decomposition(x_cone_curve(256), R=R)

    def test_curve_missing_core_gives_nothing(self):
        dec = cone_decomposition(circle(256, rho=2.0), R=1.0)
        assert dec.components == ()

    def test_hyperbola_pair_splits_at_apexes(self):
        # The exact minimal fixture: both branches of y^2 - x^2 = b^2 have
        # constant angle (pi/2 mod pi) and apex distance b; the split at
        # the two apex minima must produce exactly the two asymptote
        # directions, each carrying half the mass.
        dec = cone_decomposition(hyperbola_pair(b=0.1), R=1.0)
        assert len(dec.components) == 2
        dirs = sorted(c.direction for c in dec.components)
        assert dirs[0] == pytest.approx(math.pi / 4, abs=0.03)
        assert dirs[1] == pytest.approx(3 * math.pi / 4, abs=0.03)
        masses = [c.mass for c in dec.components]
        assert masses[0] == pytest.approx(masses[1], rel=0.05)
        for comp in dec.components:
            assert comp.angle_spread < 0.05
            assert abs(comp.mean_doubled_angle - (-1.0)) < 0.1
            assert comp.residual < 0.05


class TestAngleSpectrum:
    def test_total_is_first_radial_moment(self):
        spec = angle_spectrum(circle(512, rho=2.0))
        assert spec.total == pytest.approx(math.pi * 2.0 * 4 * math.pi, rel=1e-6)
        assert spec.mass.sum() == pytest.approx(spec.total, rel=1e-12)

    def test_circle_spectrum_is_flat(self):
        # theta = 2s + pi/2 sweeps the angle circle twice at constant
        # speed, so every bin receives the same mass.  The half-node phase
        # offset keeps node angles off the bin edges, where assignment
        # would be a rounding coin-flip.
        n = 720
        u = 2 * np.pi * (np.arange(n) + 0.5) / n
        c = PlaneCurve(np.column_stack([2 * np.cos(u), 2 * np.sin(u)]))
        spec = angle_spectrum(c)
        assert len(spec.mass) == 36
        expected = spec.total / 36
        assert np.max(np.abs(spec.mass - expected)) < 0.05 * expected

    def test_line_concentrates_in_antipodal_bins(self):
        spec = angle_spectrum(single_line(0.3, n=512))
        order = np.argsort(spec.mass)[::-1]
        top_mass = spec.mass[order[:2]].sum()
        assert top_mass > 0.99 * spec.total

    def test_x_cone_bins(self):
        # theta is pi/2 on one line and 3*pi/2 on the other (mod 2*pi)
        spec = angle_spectrum(x_cone_curve(512))
        idx = np.nonzero(spec.mass > 1e-9)[0]
        assert len(idx) <= 4
        centers = (spec.edges[:-1] + spec.edges[1:]) / 2
        hit = centers[spec.mass > 0.2 * spec.total]
        assert len(hit) == 2


class TestQuadrantMonotonicity:
    @staticmethod
    def ellipse_profile(n=128, a=3.0, b=2.0):
        s = 2 * np.pi * np.arange(n) / n
        return a * b / np.sqrt(b**2 * np.cos(s) ** 2 + a**2 * np.sin(s) ** 2)

    def test_axis_aligned_ellipse_passes(self):
        rep = quadrant_monotonicity(RadialProfile(self.ellipse_profile()))
        assert rep.passed
        assert rep.worst_violation <= 1e-6 * 3.0

    def test_circle_passes(self):
        rep = quadrant_monotonicity(RadialProfile(np.full(64, 2.0)))
        assert rep.passed

    def test_bump_in_first_quadrant_fails(self):
        r = self.ellipse_profile().copy()
        # the bump must beat the profile's own decrement (~0.036 per node
        # here) before the difference turns positive
        r[5] += 0.08  # strictly inside (0, pi/2)
        rep = quadrant_monotonicity(RadialProfile(r))
        assert not rep.passed
        assert rep.worst_violation > 0.03

    def test_boundary_straddling_exempt(self):
        # n not divisible by 4 leaves differences across quadrant corners;
        # they must not be scored
        n = 66
        s = 2 * np.pi * np.arange(n) / n
        r = 6.0 / np.sqrt(4 * np.cos(s) ** 2 + 9 * np.sin(s) ** 2)
        rep = quadrant_monotonicity(RadialProfile(r))
        assert rep.passed


def _scipy_polar_radii(curve, samples=None):
    # polar_profile as it was built on scipy's periodic spline: the oracle
    # for the spline kernel; None where the curve has no profile
    pts = curve.points
    n = samples if samples is not None else len(pts)
    phi = np.unwrap(np.arctan2(pts[:, 1], pts[:, 0]))
    r = np.linalg.norm(pts, axis=1)
    dphi = np.diff(phi)
    total = phi[-1] - phi[0]
    if dphi.min() <= 0.0 and dphi.max() >= 0.0:
        return None
    if total < 0.0:
        phi, r, total = phi[::-1], r[::-1], -total
    if not 0.0 < 2.0 * np.pi - total < 2.0 * np.pi:
        return None
    spline = CubicSpline(
        np.append(phi, phi[0] + 2.0 * np.pi), np.append(r, r[0]), bc_type="periodic"
    )
    targets = 2.0 * np.pi * np.arange(n) / n
    return spline(phi[0] + (targets - phi[0]) % (2.0 * np.pi))


def ellipse(n, a=3.0, b=2.0):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([a * np.cos(u), b * np.sin(u)]))


def perturbed_circle(n=96):
    # uneven node angles and a wavy radius
    u = 2 * np.pi * np.arange(n) / n + 0.02 * np.sin(7 * 2 * np.pi * np.arange(n) / n)
    r = 1.0 + 0.2 * np.cos(3 * u) + 0.1 * np.sin(5 * u)
    return PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))


class TestPolarProfile:
    def test_ellipse_profile_recovered(self):
        n = 256
        u = 2 * np.pi * np.arange(n) / n
        curve = PlaneCurve(np.column_stack([3 * np.cos(u), 2 * np.sin(u)]))
        prof = polar_profile(curve, samples=n)
        s = 2 * np.pi * np.arange(n) / n
        exact = 6.0 / np.sqrt(4 * np.cos(s) ** 2 + 9 * np.sin(s) ** 2)
        assert np.max(np.abs(prof.r - exact)) < 1e-5

    def test_orientation_irrelevant(self):
        n = 128
        u = 2 * np.pi * np.arange(n) / n
        pts = np.column_stack([3 * np.cos(u), 2 * np.sin(u)])
        fw = polar_profile(PlaneCurve(pts), samples=64)
        bw = polar_profile(PlaneCurve(pts[::-1]), samples=64)
        assert np.max(np.abs(fw.r - bw.r)) < 1e-9

    def test_sample_count_override(self):
        prof = polar_profile(circle(128, rho=2.0), samples=64)
        assert len(prof.r) == 64
        assert np.max(np.abs(prof.r - 2.0)) < 1e-12

    def test_non_star_curve_rejected(self):
        # a circle not containing the origin sweeps no full turn
        with pytest.raises(CurveConfigError):
            polar_profile(circle(128, rho=1.0, center=(3.0, 0.0)))

    def test_open_curve_rejected(self):
        with pytest.raises(CurveConfigError):
            polar_profile(line_pair_curve(128))

    @pytest.mark.parametrize(
        "curve, samples",
        [
            (ellipse(128), None),
            (perturbed_circle(), None),
            (PlaneCurve(ellipse(128).points[::-1]), None),
            (ellipse(16), None),
            (ellipse(128), 64),
            (perturbed_circle(), 203),
        ],
        ids=["ellipse", "perturbed_circle", "clockwise", "N16", "samples64", "samples203"],
    )
    def test_spline_kernel_is_scipy_bit_for_bit(self, curve, samples):
        expected = _scipy_polar_radii(curve, samples)
        assert np.array_equal(polar_profile(curve, samples=samples).r, expected)

    def test_spline_kernel_rows_with_row_interchanges(self):
        # knot spacings that jump by a factor of 50 make ?gtsv swap rows;
        # evaluation points far outside one period exercise the remap
        rng = np.random.default_rng(3)
        rows = 5
        dx = rng.choice([0.02, 1.0], size=(rows, 40)) * rng.uniform(0.5, 1.5, size=(rows, 40))
        x = np.concatenate([np.zeros((rows, 1)), np.cumsum(dx, axis=1)], axis=1) - 3.0
        y = rng.normal(size=(rows, 41))
        y[:, -1] = y[:, 0]
        at = rng.uniform(-50.0, 50.0, size=(rows, 300))
        got = _periodic_spline(x, y, at)
        for k in range(rows):
            assert np.array_equal(got[k], CubicSpline(x[k], y[k], bc_type="periodic")(at[k]))

    def test_spline_kernel_block_mixing_interchanges(self, monkeypatch):
        # one block of rows that need no row interchange, rows that need
        # several, and a row whose only one is at the last elimination
        # step: only the rows that interchange are eliminated again with
        # the interchanges, and every row is scipy's bit for bit
        rng = np.random.default_rng(5)
        n = 40
        dx = rng.uniform(0.8, 1.2, size=(7, n))
        dx[[1, 4]] *= rng.choice([0.02, 1.0], size=(2, n))
        dx[5, n - 2] = 50.0
        first = [_first_interchange(row) for row in dx]
        assert [first[k] for k in (0, 2, 3, 6)] == [None] * 4
        assert first[1] is not None and first[4] is not None
        assert first[5] == n - 3                  # the last step, m - 2
        pivoted = []
        elimination = analysis._pivoted_elimination

        def counting(d, *args):
            pivoted.append(d.shape[1])
            elimination(d, *args)

        monkeypatch.setattr(analysis, "_pivoted_elimination", counting)
        x = np.concatenate([np.zeros((len(dx), 1)), np.cumsum(dx, axis=1)], axis=1) - 3.0
        y = rng.normal(size=x.shape)
        y[:, -1] = y[:, 0]
        at = rng.uniform(-60.0, 60.0, size=(len(dx), 300))
        got = _periodic_spline(x, y, at)
        assert pivoted == [3]
        for k in range(len(dx)):
            assert np.array_equal(got[k], CubicSpline(x[k], y[k], bc_type="periodic")(at[k]))

    def test_angles_not_monotone_rejected(self):
        pts = ellipse(64).points.copy()
        pts[[10, 11]] = pts[[11, 10]]
        with pytest.raises(CurveConfigError, match="not star-shaped"):
            polar_profile(PlaneCurve(pts))

    def test_double_turn_rejected(self):
        # odd N: the nodes of a circle run twice are all distinct
        u = 4 * np.pi * np.arange(65) / 65
        with pytest.raises(CurveConfigError, match="expected a single turn"):
            polar_profile(PlaneCurve(np.column_stack([np.cos(u), np.sin(u)])))


def _first_interchange(dx):
    # the first step at which ?gtsv's elimination of the condensed cyclic
    # system of the knot spacings dx interchanges rows, or None; before
    # it the elimination is the one without interchanges
    m = len(dx) - 1
    d = [2.0 * (dx[-1] + dx[0])] + [2.0 * (dx[i - 1] + dx[i]) for i in range(1, m)]
    du = [dx[-1], *dx[: m - 2]]
    for i in range(m - 1):
        if abs(d[i]) < abs(dx[i + 1]):
            return i
        d[i + 1] -= dx[i + 1] / d[i] * du[i]
    return None


def _looped_lemma_table(trajectory):
    # the lemma table one record and one probe at a time, with scipy's
    # polar profiles: the oracle for lemma_table's block passes
    results = {"monotone_defect": _drainage_check(trajectory.diagnostics)}
    resolved = 0
    worst_rate = worst_q = -math.inf
    ok_q = True
    for st in trajectory.states:
        if not st.curve.closed:
            continue
        radii = _scipy_polar_radii(st.curve)
        if radii is None:
            continue
        try:
            prof = RadialProfile(radii)
        except CurveError:
            continue
        h = 2.0 * np.pi / len(prof.r)
        if prof.r.min() < 5.0 * h * prof.r.max():
            continue
        resolved += 1
        worst_rate = max(worst_rate, float(radial_rhs(prof).max()))
        rep = quadrant_monotonicity(prof)
        ok_q = ok_q and rep.passed
        worst_q = max(worst_q, rep.worst_violation)
    results["radius_nonincreasing"] = {
        "passed": bool(resolved) and worst_rate <= 1e-6,
        "value": worst_rate if resolved else float("nan"),
    }
    results["quadrant_monotonicity"] = {
        "passed": bool(resolved) and ok_q,
        "value": worst_q if resolved else float("nan"),
    }
    if not trajectory.states[0].curve.closed:
        for row in results.values():
            row["passed"] = None
    pts0 = trajectory.states[0].curve.points
    probes = pts0[:: max(len(pts0) // 8, 1)][:8]
    worst_ratio = 0.0
    count = 0
    for st in trajectory.states:
        for probe in probes:
            window = 0.25 * float(np.linalg.norm(probe))
            if window <= 0.0:
                continue
            ratio = local_density_ratio(st.curve, probe, window)
            if ratio.under_resolved:
                continue
            worst_ratio = max(worst_ratio, ratio.value)
            count += 1
    results["density_ratio_bound"] = {
        "passed": (worst_ratio <= 1.55) if count else None,
        "value": worst_ratio if count else float("nan"),
    }
    return results


def _records(curves, defect=0.0):
    # a hand-built trajectory of the given curves, one record per 0.01
    states = [FlowState(curve=c, t=0.01 * k, initial_constant=1.0) for k, c in enumerate(curves)]
    return Trajectory(
        states=states,
        diagnostics={"t": np.array([s.t for s in states]), "monotone_defect": np.full(len(states), defect)},
        initial_constant=1.0,
    )


class TestLemmaTableOracle:
    """lemma_table's block passes give the table of the per-record loop,
    to the last bit (compared through JSON, which tells -0.0 and nan)."""

    @staticmethod
    def _assert_same(trajectory):
        table = lemma_table(trajectory)
        assert json.dumps(table) == json.dumps(_looped_lemma_table(trajectory))
        return table

    def test_dense_small_ellipse_run(self, monkeypatch):
        traj, _ = evolve(make_state(ellipse_curve(32, a=2.0)), recording=RecordingConfig(snapshot_dt=0.02))
        self._assert_same(traj)
        # blocks of 32 records at N = 32
        monkeypatch.setattr(analysis, "BLOCK_BUDGET", 32 * 32)
        assert len(traj.states) > 32
        table = self._assert_same(traj)
        assert table["radius_nonincreasing"]["passed"] is True

    def test_mixed_node_counts(self, monkeypatch):
        # N = 64 and N = 128 interleaved, more records of one count than a
        # block holds, with records that have no profile (off-center, not
        # star-shaped) or are not resolved (a deep dip at the origin); a
        # polar block holds 32 records of N = 64
        monkeypatch.setattr(analysis, "BLOCK_BUDGET", 32 * 64)
        u = 2 * np.pi * np.arange(128) / 128
        dip = PlaneCurve(np.column_stack([np.cos(u), np.sin(u)]) * (0.02 + np.cos(u) ** 2)[:, None])
        curves = []
        for k in range(32 + 20):
            curves.append(ellipse(64, a=3.0 - 0.01 * k, b=2.0 + 0.005 * k))
            if k % 3 == 0:
                curves.append(perturbed_circle(128))
        curves[5] = circle(64, rho=1.0, center=(3.0, 0.0))
        curves[9] = dip
        traj = _records(curves, defect=2e-4)
        table = self._assert_same(traj)
        assert table["quadrant_monotonicity"]["passed"] is False

    def test_open_fixture(self):
        traj, _ = evolve(make_state(x_cone_curve(128)), stop=StopConditions(t_end=0.01))
        table = self._assert_same(traj)
        for name in ("monotone_defect", "radius_nonincreasing", "quadrant_monotonicity"):
            assert table[name]["passed"] is None

    def test_under_resolved_and_zero_window_probes(self):
        # the first record's node 8 is the origin (a zero window); its
        # other probes (windows 0.5 to 2) see chords of 1, too coarse for
        # them; the fine records' chords of 0.08 resolve every window
        coarse = PlaneCurve(np.column_stack([np.linspace(-8.0, 8.0, 17), np.zeros(17)]), closed=False)
        fine = [
            PlaneCurve(np.column_stack([np.linspace(-8.0, 8.0, 201), np.full(201, y)]), closed=False)
            for y in (0.0, 0.3, 1.0)
        ]
        table = self._assert_same(_records([coarse, *fine, circle(64, rho=3.0)]))
        assert table["density_ratio_bound"]["passed"] is True
        only_coarse = self._assert_same(_records([coarse]))
        assert only_coarse["density_ratio_bound"]["passed"] is None


def _record_probe_ratios(curve, centers, deltas):
    # the length-ratio kernel as it ran one record at a time, with each
    # chord's squared length computed once per probe: the oracle for the
    # block pass
    pts = curve.points
    if curve.closed:
        idx = np.arange(len(pts))
    else:
        idx = np.concatenate([piece[:-1] for piece in curve_pieces(pts, False)])
    k, m = len(centers), len(idx)
    a = np.tile(pts[idx], (k, 1))
    d = np.tile(pts[(idx + 1) % len(pts)], (k, 1)) - a
    A = _row_dot(d, d)
    lengths = _clip_lengths(a - np.repeat(centers, m, axis=0), d, A, np.repeat(deltas, m))
    lengths = lengths.reshape(k, m)
    totals = np.add.accumulate(lengths, axis=1)[:, -1]
    hit = lengths > 0.0
    count = hit.sum(axis=1)
    chords = np.sort(np.where(hit, np.sqrt(A[:m]), np.inf), axis=1)
    rows = np.arange(k)
    median = (chords[rows, np.maximum(count - 1, 0) // 2] + chords[rows, count // 2]) / 2.0
    under = (count > 0) & (deltas <= 5.0 * median)
    return totals / (2.0 * deltas), under


def _record_density(curve, x0, T, t):
    # Theta of one record as it was computed one record at a time: the
    # frame's weights and the one-curve density; the oracle for the
    # block pass
    points, weight = curve.points, compute_frame(curve).weight
    x0 = np.asarray(x0, dtype=np.float64)
    tau = T - t
    r = np.linalg.norm(points, axis=1)
    if x0.any():
        b = (points @ x0) / (2.0 * tau)
        kernel = _i0e(b) * np.exp(-(r * r + float(x0 @ x0)) / (4.0 * tau) + np.abs(b))
    else:
        kernel = np.exp(-(r * r) / (4.0 * tau))
    return float(np.sum(weight * r * kernel) / (4.0 * tau))


def _bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _block_test_curves():
    # 10 records of N = 64, then N = 96, open N = 128 and N = 64 again
    curves = [ellipse(64, a=3.0 - 0.05 * k, b=2.0 + 0.02 * k) for k in range(10)]
    curves += [perturbed_circle(96) for _ in range(4)]
    curves += [x_cone_curve(128), line_pair_curve(128), x_cone_curve(128, truncation=3.0)]
    curves += [ellipse(64, a=2.5, b=2.0 - 0.1 * k) for k in range(5)]
    return curves


class TestBlockKernelOracle:
    """The block passes give, record for record, the floats of the kernels
    as they ran one record at a time, whatever the block size."""

    @staticmethod
    def set_block(monkeypatch, records):
        # blocks of ``records`` records at N = 64 (None: the default budget)
        if records is not None:
            monkeypatch.setattr(analysis, "BLOCK_BUDGET", records * 64)

    @pytest.mark.parametrize("records", [1, 3, None])
    @pytest.mark.parametrize("x0", [(0.0, 0.0), (0.3, -0.2)])
    @pytest.mark.parametrize("T, t_max", [(1.0, None), (0.15, None), (1.0, 0.195)])
    def test_theta_matches_record_loop(self, monkeypatch, records, x0, T, t_max):
        # 10 records of N = 64 in blocks of 3 leave a block of one; T and
        # t_max each cut the run short
        self.set_block(monkeypatch, records)
        traj = _records(_block_test_curves())
        rep = monotonicity_check(traj, x0, T, t_max=t_max)
        cutoff = T if t_max is None else min(T, t_max)
        kept = [st for st in traj.states if st.t < cutoff]
        assert 0 < len(kept) < len(traj.states) or cutoff == 1.0
        assert _bits(rep.times) == _bits([st.t for st in kept])
        assert _bits(rep.values) == _bits([_record_density(st.curve, x0, T, st.t) for st in kept])
        for st in kept:
            assert gaussian_density(st.curve, x0, T, st.t).value == _record_density(st.curve, x0, T, st.t)

    def test_closed_weights_match_frames(self):
        # a small circle far from the origin fails the block's bound on its
        # diameter, and passes the exact test of compute_frame
        u = 2 * np.pi * np.arange(64) / 64
        far = np.column_stack([1e9 + 1e-3 * np.cos(u), 1e-3 * np.sin(u)])
        pts = np.stack([ellipse(64).points, far, perturbed_circle(64).points])
        weight = closed_weights(pts)
        for k in range(len(pts)):
            assert _bits(weight[k]) == _bits(compute_frame(PlaneCurve(pts[k])).weight)

    def test_closed_weights_raise_for_first_failing_record(self):
        # record 1 has a vanishing speed at node 4 (nodes 5, 6 fold back
        # onto 3, 2), record 3 coincident nodes: the block raises record
        # 1's error, and record 3's without record 1
        fold = ellipse(64).points.copy()
        fold[5], fold[6] = fold[3], fold[2]
        twin = ellipse(64).points.copy()
        twin[1] = twin[0]
        good = ellipse(64).points
        for block, record in (([good, fold, good, twin], fold), ([good, good, twin], twin)):
            with pytest.raises(DegenerateCurveError) as scalar:
                compute_frame(PlaneCurve(record))
            with pytest.raises(DegenerateCurveError) as blocked:
                closed_weights(np.stack(block))
            assert str(blocked.value) == str(scalar.value)
        assert "vanishing parametric speed" in str(
            pytest.raises(DegenerateCurveError, closed_weights, np.stack([good, fold, twin])).value
        )

    @pytest.mark.parametrize("records", [1, 3, None])
    def test_probe_ratios_match_record_loop(self, monkeypatch, records):
        curves = _block_test_curves()
        pts0 = curves[0].points
        centers = np.vstack([pts0[::8], [[0.5, 0.1]]])
        deltas = np.concatenate([np.full(8, 0.6), [3.0]])
        closed = np.stack([c.points for c in curves[:10]])
        values, under = _probe_ratios(closed, np.roll(closed, -1, axis=1), centers, deltas)
        for k, curve in enumerate(curves):
            expected = _record_probe_ratios(curve, centers, deltas)
            if k < 10:
                got = values[k], under[k]
            else:
                a, b = _segments(curve.points, curve.closed)
                got = tuple(x[0] for x in _probe_ratios(a[None], b[None], centers, deltas))
            assert _bits(got[0]) == _bits(expected[0])
            assert np.array_equal(got[1], expected[1])
            ratio = local_density_ratio(curve, centers[-1], deltas[-1])
            assert _bits(ratio.value) == _bits(expected[0][-1])
        assert under.any() and not under.all()
        # and through the lemma table, in blocks of 1 or 3 records of N = 64
        # or the default
        self.set_block(monkeypatch, records)
        traj = _records(curves)
        probes = pts0[:: len(pts0) // 8][:8]
        windows = np.array([0.25 * float(np.linalg.norm(p)) for p in probes])
        resolved = []
        for curve in curves:
            v, u = _record_probe_ratios(curve, probes, windows)
            resolved.extend(v[~u])
        row = lemma_table(traj)["density_ratio_bound"]
        assert _bits(row["value"]) == _bits(max(resolved))

    def test_polar_radii_match_one_record_blocks(self):
        # star-shaped records, and records without a profile (off-center,
        # a double turn, nodes out of angular order)
        u = 2 * np.pi * np.arange(64) / 64
        swapped = ellipse(64).points.copy()
        swapped[[10, 11]] = swapped[[11, 10]]
        records = [
            ellipse(64),
            perturbed_circle(64),
            circle(64, rho=1.0, center=(3.0, 0.0)),
            PlaneCurve(ellipse(64).points[::-1]),
            PlaneCurve(np.column_stack([np.cos(2 * u + 0.01), np.sin(2 * u + 0.01)])),
            PlaneCurve(swapped),
            ellipse(64, a=1.5, b=1.0),
        ]
        pts = np.stack([c.points for c in records])
        for samples in (64, 37):
            radii, errors = _polar_radii(pts, samples)
            for k in range(len(pts)):
                one, one_error = _polar_radii(pts[k][None], samples)
                assert _bits(radii[k]) == _bits(one[0])
                assert errors[k] == one_error[0]
        assert sum(e is None for e in errors) == 4


def _dense_probe_ratios(a, b, centers, deltas):
    # the length-ratio block pass without its box test: every chord
    # clipped at every probe, its rows ordered polyline, probe, chord;
    # the oracle for analysis._probe_ratios
    nb, m = a.shape[:2]
    k = len(centers)
    rows = (nb, k, m, 2)
    d = b - a
    A = _row_dot(d.reshape(-1, 2), d.reshape(-1, 2)).reshape(nb, 1, m)
    lengths = _clip_lengths(
        (a[:, None] - centers[:, None]).reshape(-1, 2),
        np.broadcast_to(d[:, None], rows).reshape(-1, 2),
        np.broadcast_to(A, rows[:3]).reshape(-1),
        np.broadcast_to(deltas[:, None], rows[:3]).reshape(-1),
    ).reshape(rows[:3])
    totals = np.add.accumulate(lengths, axis=2)[..., -1]
    hit = lengths > 0.0
    count = hit.sum(axis=2)
    chords = np.sort(np.where(hit, np.sqrt(A), np.inf), axis=2)
    middle = (
        np.take_along_axis(chords, (np.maximum(count - 1, 0) // 2)[..., None], axis=2)
        + np.take_along_axis(chords, (count // 2)[..., None], axis=2)
    )[..., 0] / 2.0
    under = (count > 0) & (deltas <= 5.0 * middle)
    return totals / (2.0 * deltas), under


def _lemma_probes(curve):
    # the lemma table's eight probes and windows on an initial curve
    probes = curve.points[:: max(curve.node_count // 8, 1)][:8]
    windows = np.array([0.25 * float(np.linalg.norm(p)) for p in probes])
    return probes[windows > 0.0], windows[windows > 0.0]


def _one_chord_each(a, b):
    # polylines of one chord each, as a block: (M, 1, 2) starts and ends
    return np.asarray(a, dtype=np.float64)[:, None], np.asarray(b, dtype=np.float64)[:, None]


class TestProbeBoxTestOracle:
    """The box test of _probe_ratios skips only chords whose clip is
    exactly 0: its values and flags are those of clipping every chord at
    every probe, to the last bit."""

    @staticmethod
    def assert_dense(a, b, centers, deltas):
        centers = np.asarray(centers, dtype=np.float64).reshape(-1, 2)
        deltas = np.asarray(deltas, dtype=np.float64)
        values, under = _probe_ratios(a, b, centers, deltas)
        want_values, want_under = _dense_probe_ratios(a, b, centers, deltas)
        assert values.shape == under.shape == (a.shape[0], len(centers))
        assert np.array_equal(values, want_values) and _bits(values) == _bits(want_values)
        assert np.array_equal(under, want_under)
        return values, under

    @staticmethod
    def clipped_rows(monkeypatch):
        # the row count of each clip pass, that is the candidates
        counts = []
        clip = analysis._clip_lengths

        def counting(f, *args):
            counts.append(len(f))
            return clip(f, *args)

        monkeypatch.setattr(analysis, "_clip_lengths", counting)
        return counts

    def test_closed_blocks_of_an_ellipse_run(self, monkeypatch):
        # the lemma table's probes, and large windows at the origin whose
        # disks hold whole late records
        traj, _ = evolve(make_state(ellipse_curve(64)), recording=RecordingConfig(snapshot_dt=0.01))
        probes, windows = _lemma_probes(traj.states[0].curve)
        centers = np.vstack([probes, [[0.0, 0.0], [0.4, -0.1]]])
        deltas = np.concatenate([windows, [2.5, 3.5]])
        counts = self.clipped_rows(monkeypatch)
        # blocks of 12 records: the budget of one probe per center
        monkeypatch.setattr(analysis, "BLOCK_BUDGET", analysis.BLOCK_BUDGET // len(centers))
        blocks = list(analysis._record_blocks(traj.states, math.inf))
        assert len(blocks) > 2
        for _, pts, _ in blocks:
            values, under = self.assert_dense(pts, np.roll(pts, -1, axis=1), centers, deltas)
            assert values[:, -2:].all()
        # the box test skipped most chord-probe pairs, and kept some
        assert 0 < sum(counts) < 0.5 * len(traj.states) * len(centers) * 64

    @pytest.mark.parametrize("truncation", [None, 3.0])
    def test_x_cone_open_pieces(self, truncation):
        curve = x_cone_curve(128) if truncation is None else x_cone_curve(128, truncation=truncation)
        a, b = _segments(curve.points, curve.closed)
        assert len(curve_pieces(curve.points, False)) > 1
        centers = np.vstack([curve.points[::9], [[0.0, 0.0]]])
        deltas = np.concatenate([np.linspace(0.05, 1.5, len(centers) - 1), [0.7]])
        values, _ = self.assert_dense(a[None], b[None], centers, deltas)
        assert values.all()

    @pytest.mark.parametrize("angle", [0.0, 0.7, math.pi / 2, 2.4])
    def test_near_tangent_chords(self, angle):
        # chords along the tangent of the disk at angle, at 1 -+ rel times
        # delta from its center, from well before to well after the tangent
        # point, or ending just short of it
        center, delta = np.array([0.3, -0.2]), 0.7
        normal = np.array([math.cos(angle), math.sin(angle)])
        tangent = np.array([-normal[1], normal[0]])
        starts, ends, outside, through = [], [], [], []
        for rel in (1e-15, 1e-12, 1e-9, 1e-6, 1e-3):
            for sign in (1.0, -1.0):
                foot = center + delta * (1.0 + sign * rel) * normal
                for u0, u1 in ((-0.5, 0.5), (-0.5, -1e-7), (1e-7, 0.5), (-1e-9, 1e-9)):
                    starts.append(foot + u0 * tangent)
                    ends.append(foot + u1 * tangent)
                    outside.append(sign > 0.0)
                    through.append(sign < 0.0 and rel >= 1e-9 and u0 < 0.0 < u1)
        values, _ = self.assert_dense(*_one_chord_each(starts, ends), center, [delta])
        assert not values[outside, 0].any()
        assert values[through, 0].all()

    def test_chords_touching_the_padded_box(self, monkeypatch):
        # horizontal chords whose box touches a side of the padded disk box
        # exactly are candidates, those one float farther out are not; all
        # clip to 0
        center, delta, length = np.array([0.3, -0.2]), np.array([0.7]), 0.25
        reach = analysis._disk_reach(length, center[None], delta)[0]
        right, left = center[0] + reach, center[0] - reach
        touching = [(right, right + length), (left - length, left)]
        beyond = [
            (np.nextafter(right, np.inf), np.nextafter(right, np.inf) + length),
            (np.nextafter(left, -np.inf) - length, np.nextafter(left, -np.inf)),
        ]
        counts = self.clipped_rows(monkeypatch)
        for chords, candidates in ((touching, 2), (beyond, 0)):
            starts = [(x0, center[1]) for x0, _ in chords]
            ends = [(x1, center[1]) for _, x1 in chords]
            values, under = self.assert_dense(*_one_chord_each(starts, ends), center, delta)
            assert counts.pop() == candidates
            assert not values.any() and not under.any()

    def test_zero_probes(self):
        pts = ellipse(64).points[None]
        values, under = self.assert_dense(pts, np.roll(pts, -1, axis=1), np.empty((0, 2)), np.empty(0))
        assert values.shape == (1, 0)

    def test_block_without_a_candidate(self, monkeypatch):
        # one probe beyond each side of the records' box, each ruled out by
        # one of the four comparisons alone
        pts = np.stack([ellipse(64).points, perturbed_circle(64).points])
        centers = [[10.0, 0.0], [-10.0, 0.5], [0.2, 10.0], [-0.3, -10.0]]
        counts = self.clipped_rows(monkeypatch)
        values, under = self.assert_dense(pts, np.roll(pts, -1, axis=1), centers, [1.0, 2.0, 1.5, 3.0])
        assert counts == [0]
        assert not values.any() and not under.any()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_perturbed_records(self, seed):
        # an ellipse and a circle under a small even-mode radial wave, as
        # seeded benchmark runs start, and uneven nodes
        rng = np.random.default_rng(seed)
        curves = []
        for base in (ellipse_curve(128), circle(128, rho=1.5)):
            u = np.arctan2(base.points[:, 1], base.points[:, 0])
            wave = 1.0 + 1e-3 * rng.uniform(0.5, 1.0) * np.cos(2 * rng.integers(1, 4) * u + rng.uniform(0, 2 * np.pi))
            curves.append(base.points * wave[:, None])
        curves.append(perturbed_circle(128).points)
        pts = np.stack(curves)
        probes, windows = _lemma_probes(PlaneCurve(pts[0]))
        self.assert_dense(pts, np.roll(pts, -1, axis=1), probes, windows)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_chords_and_probes(self, seed):
        # chords of every length around probes of every scale, far from
        # the origin too
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(6, 200, 2)) * 10.0 ** rng.uniform(-2, 2, (6, 200, 1))
        b = a + rng.normal(size=(6, 200, 2)) * 10.0 ** rng.uniform(-4, 1, (6, 200, 1))
        centers = rng.normal(size=(12, 2)) * 10.0 ** rng.uniform(-2, 3, (12, 1))
        deltas = 10.0 ** rng.uniform(-3, 1, 12)
        values, _ = self.assert_dense(a, b, centers, deltas)
        assert values.any()


class _EagerTrajectory(Trajectory):
    # the loader before records were read on demand: every snapshot
    # parsed up front, the times taken from the records themselves
    @property
    def times(self):
        return np.array([s.t for s in self.states])


def _eager_trajectory(run_dir):
    manifest = read_manifest(os.path.join(run_dir, "manifest.json"))
    c = manifest["initial_constant"]
    snap_dir = os.path.join(run_dir, "snapshots")
    states = []
    for k, name in enumerate(sorted(os.listdir(snap_dir))):
        curve, t = read_snapshot(os.path.join(snap_dir, name))
        states.append(FlowState(curve=curve, t=t, initial_constant=c, step_index=k))
    diagnostics = load_trajectory(run_dir).diagnostics
    return _EagerTrajectory(states=states, diagnostics=diagnostics, initial_constant=c)


def _as_json(obj):
    # every float of a result, as JSON tells -0.0 and nan apart
    if dataclasses.is_dataclass(obj):
        return {f.name: _as_json(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (list, tuple)):
        return [_as_json(v) for v in obj]
    if isinstance(obj, dict):
        return {k: _as_json(v) for k, v in obj.items()}
    return obj


@pytest.fixture(scope="module")
def ellipse_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("runs")
    cfg = root / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": {"name": "ellipse", "params": {"a": 3.0}},
                "resolution": 48,
                "recording": {"snapshot_dt": 0.05},
            }
        )
    )
    assert main(["run", "--config", str(cfg), "--out", str(root)]) == 2
    (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
    return str(run_dir)


class TestOnDemandLoadOracle:
    """Each pass on a trajectory whose records are read on demand gives
    the results of the eager loader, to the last bit."""

    PASSES = {
        "density": lambda traj, x0, T: monotonicity_check(traj, x0, T),
        "rescale": lambda traj, x0, T: rescale_flow(traj, x0, T, [4.0, 8.0, 16.0], -1.0),
        "cones": lambda traj, x0, T: [
            cone_decomposition(view, R=1.0)
            for view in rescale_flow(traj, x0, T, [4.0, 8.0, 16.0], -1.0, window=10.0)
        ],
        "spectrum": lambda traj, x0, T: [
            angle_spectrum(traj.curve_at(t)) for t in (traj.states[-1].t, 0.5 * T)
        ],
        "lemmas": lambda traj, x0, T: lemma_table(traj),
    }

    @pytest.mark.parametrize("name", list(PASSES))
    def test_pass_matches_eager_loader(self, ellipse_run, name):
        sing = read_manifest(os.path.join(ellipse_run, "manifest.json"))["singularity"]
        T = 0.5 * (sing["t_low"] + sing["t_high"])
        x0 = np.asarray(sing["singular_point"])
        run = self.PASSES[name]
        lazy = load_trajectory(ellipse_run)
        eager = _eager_trajectory(ellipse_run)
        assert not isinstance(lazy.states, list)
        assert json.dumps(_as_json(run(lazy, x0, T))) == json.dumps(_as_json(run(eager, x0, T)))


RECORD_RUNS = {
    "circle": ({"name": "circle", "params": {"rho": 1.0}}, {}, 2),
    "ellipse": ({"name": "ellipse", "params": {"a": 3.0}}, {"snapshot_dt": 0.05}, 2),
    "x_cone": ({"name": "x_cone", "params": {}}, {"snapshot_dt": 0.002}, 0),
}


@pytest.fixture(scope="module", params=list(RECORD_RUNS))
def record_run(request, tmp_path_factory):
    scenario, recording, code = RECORD_RUNS[request.param]
    root = tmp_path_factory.mktemp(request.param)
    doc = {"scenario": scenario, "resolution": 48, "recording": recording}
    if request.param == "x_cone":
        doc["stop"] = {"t_end": 0.01}
    cfg = root / "config.json"
    cfg.write_text(json.dumps(doc))
    assert main(["run", "--config", str(cfg), "--out", str(root)]) == code
    (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
    return str(run_dir)


class TestRecordArrayOracle:
    def test_served_record_is_the_parsed_record(self, record_run, monkeypatch):
        # records.npy serves every record of an intact run, bit for bit
        # the state that the snapshot's JSON gives
        eager = _eager_trajectory(record_run).states
        monkeypatch.setattr(runio, "read_snapshot", None)
        served = load_trajectory(record_run).states
        assert len(served) == len(eager) > 2
        for a, b in zip(served, eager):
            assert a.curve.points.shape == b.curve.points.shape
            assert a.curve.points.tobytes() == b.curve.points.tobytes()
            assert type(a.t) is type(b.t) is float
            assert a.t.hex() == b.t.hex()
            assert a.curve.closed is b.curve.closed
            assert a.step_index == b.step_index
        assert served[0].curve.closed is not os.path.basename(record_run).startswith("x_cone")


def _per_record_blocks(states, cutoff):
    # the block iterator's oracle: one state at a time, a new block at a
    # change of node count or closedness and when the budget is full
    blocks, block = [], []
    for st in states:
        if st.t >= cutoff:
            continue
        head = block[0].curve if block else None
        if head is not None and (
            len(block) == max(1, analysis.BLOCK_BUDGET // head.node_count)
            or st.curve.node_count != head.node_count
            or st.curve.closed != head.closed
        ):
            blocks.append(block)
            block = []
        block.append(st)
    if block:
        blocks.append(block)
    return [
        (np.array([st.t for st in b]), np.stack([st.curve.points for st in b]), b[0].curve.closed)
        for b in blocks
    ]


def _assert_same_blocks(blocks, expected):
    assert len(blocks) == len(expected) > 0
    for (t, nodes, closed), (want_t, want_nodes, want_closed) in zip(blocks, expected):
        assert _bits(t) == _bits(want_t)
        assert np.array_equal(nodes, want_nodes) and nodes.tobytes() == want_nodes.tobytes()
        assert closed is want_closed


class TestSlabBlocks:
    """The block passes read slabs: a loaded run's served records come as
    views of the verified records.npy rows, every other record one state
    at a time, and each slab holds the floats of the per-record blocks."""

    @pytest.mark.parametrize("budget", [None, 1024])
    def test_served_blocks_are_views_of_the_rows(self, record_run, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(analysis, "BLOCK_BUDGET", budget)
        eager = _eager_trajectory(record_run).states
        monkeypatch.setattr(runio, "read_snapshot", None)
        states = load_trajectory(record_run).states
        rows = states.slab(0)[1]
        assert len(rows) == len(states)
        blocks = list(analysis._record_blocks(states, math.inf))
        _assert_same_blocks(blocks, _per_record_blocks(eager, math.inf))
        for _, nodes, _ in blocks:
            assert np.shares_memory(nodes, rows)
            assert not nodes.flags.writeable

    def test_cutoff_inside_the_served_rows(self, record_run, monkeypatch):
        # the block that the cutoff cuts is a copy, and no record past it
        # is in a block
        monkeypatch.setattr(analysis, "BLOCK_BUDGET", 1024)
        eager = _eager_trajectory(record_run).states
        states = load_trajectory(record_run).states
        cutoff = float(states.slab(0)[0][len(states) // 2])
        blocks = list(analysis._record_blocks(states, cutoff))
        _assert_same_blocks(blocks, _per_record_blocks(eager, cutoff))
        assert sum(len(t) for t, _, _ in blocks) == len(states) // 2

    def test_block_passes_match_eager_loader(self, record_run, monkeypatch):
        # the x_cone run is open: its density weights come from one frame
        # per record, its length ratios from one clip pass per record
        eager = _eager_trajectory(record_run)
        monkeypatch.setattr(runio, "read_snapshot", None)
        lazy = load_trajectory(record_run)
        T = float(eager.times[-1]) + 0.01
        for x0 in ((0.0, 0.0), (0.3, -0.2)):
            got, want = monotonicity_check(lazy, x0, T), monotonicity_check(eager, x0, T)
            assert json.dumps(_as_json(got)) == json.dumps(_as_json(want))
        assert json.dumps(lemma_table(lazy)) == json.dumps(lemma_table(eager))

    def test_each_snapshot_is_hashed_once_per_load(self, record_run, monkeypatch):
        # the block passes, then indexing, ask for every record again
        hashed = []
        file_sha256 = runio.file_sha256

        def counting(path):
            hashed.append(os.path.basename(path))
            return file_sha256(path)

        monkeypatch.setattr(runio, "file_sha256", counting)
        traj = load_trajectory(record_run)
        del hashed[:]
        monotonicity_check(traj, (0.0, 0.0), float(traj.times[-1]) + 0.01)
        lemma_table(traj)
        for k in (0, len(traj.states) // 2, -1):
            traj.states[k]
        assert sorted(hashed) == sorted(os.listdir(os.path.join(record_run, "snapshots")))

    def test_density_materializes_no_state(self, record_run, monkeypatch):
        def refuse(states, k):
            raise AssertionError(f"record {k} built as a FlowState")

        monkeypatch.setattr(runio._SnapshotStates, "_read", refuse)
        traj = load_trajectory(record_run)
        rep = monotonicity_check(traj, (0.0, 0.0), float(traj.times[-1]) + 0.01)
        assert len(rep.values) == len(traj.states)

    def test_run_without_records_is_served_per_record(self, record_run, tmp_path):
        run_dir = tmp_path / "run"
        shutil.copytree(record_run, run_dir)
        os.remove(run_dir / runio.RECORDS_FILE)
        states = load_trajectory(str(run_dir)).states
        assert states.slab(0) is None
        blocks = list(analysis._record_blocks(states, math.inf))
        eager = _eager_trajectory(record_run).states
        _assert_same_blocks(blocks, _per_record_blocks(eager, math.inf))

    @pytest.mark.parametrize("records", [1, 3, None])
    @pytest.mark.parametrize("cutoff", [math.inf, 0.075, 0.155])
    def test_in_memory_blocks(self, monkeypatch, records, cutoff):
        # a list of states has no slabs: each block stacks its states, cut
        # at node counts, closedness, the budget and the cutoff
        if records is not None:
            monkeypatch.setattr(analysis, "BLOCK_BUDGET", records * 64)
        traj = _records(_block_test_curves())
        blocks = list(analysis._record_blocks(traj.states, cutoff))
        _assert_same_blocks(blocks, _per_record_blocks(traj.states, cutoff))

    def test_skipped_record_keeps_its_block_open(self):
        # a record at or past the cutoff is read and left out, and does not
        # end the block, whatever its node count or closedness
        traj = _records(_block_test_curves())
        states = list(traj.states)
        for k in (4, 11, 15):
            states[k] = dataclasses.replace(states[k], t=9.0)
        blocks = list(analysis._record_blocks(states, 1.0))
        _assert_same_blocks(blocks, _per_record_blocks(states, 1.0))
        # the open records 14 and 16 share a block across record 15
        assert [len(t) for t, _, _ in blocks] == [9, 3, 2, 5]

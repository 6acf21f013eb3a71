"""Integrator tests built on exactly solvable motions.

The centered circle is the workhorse: rho(t) = sqrt(rho0^2 - 4t) solves
the flow exactly, so radii, lifespans and drainage can all be checked
against closed forms.  Lines through the origin are stationary, which
pins the zero of the velocity field.
"""
import math
import sys

import numpy as np
import pytest

from lagflow import flow, geometry
from lagflow.flow import (
    REDISTRIBUTE_RATIO,
    FlowConfig,
    FlowState,
    IntegrationError,
    RadialProfile,
    RecordingConfig,
    StepUnderflowError,
    StopConditions,
    TrajectoryRangeError,
    _advance,
    _step_buffers,
    estimate_singular_time,
    evolve,
    make_state,
    radial_evolve,
    radial_rhs,
    step,
    stability_dt,
    velocity,
)
from lagflow.geometry import (
    CurveConfigError,
    DegenerateCurveError,
    OriginContactError,
    PlaneCurve,
    StepWorkspace,
    compute_frame,
    curve_pieces,
    curve_terms,
    pad_periodic,
    periodic_derivatives,
    resample,
    stencil_constants,
    stencil_views,
)
from lagflow.scenarios import (
    MAX_RESOLUTION,
    cassini_curve,
    circle_curve,
    ellipse_curve,
    line_pair_curve,
    x_cone_curve,
)


def circle(n=256, rho=2.0):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([rho * np.cos(u), rho * np.sin(u)]))


def ellipse(n=512, a=3.0, b=2.0):
    u = 2 * np.pi * np.arange(n) / n
    return PlaneCurve(np.column_stack([a * np.cos(u), b * np.sin(u)]))


class TestVelocity:
    def test_circle_moves_radially_inward(self):
        # kappa*n = (1/rho)*(-x/rho); the position term adds another
        # (1/rho)*(-x/rho), so v = -2x/rho^2 = -x/2 at rho = 2.
        c = circle(256, rho=2.0)
        v = velocity(c)
        assert np.max(np.abs(v - (-c.points / 2.0))) < 1e-7

    def test_lines_through_origin_are_stationary(self):
        c = line_pair_curve(128, phi=0.3)
        v = velocity(c)
        assert np.max(np.abs(v)) < 1e-12

    def test_ellipse_major_apex(self):
        # At (3, 0): kappa = a/b^2 = 3/4 pointing in -x, position term
        # (x.n)n/|x|^2 = (1/3, 0); total (-3/4 - 1/3, 0) = (-13/12, 0).
        c = ellipse(512)
        v = velocity(c)
        assert v[0, 0] == pytest.approx(-13.0 / 12.0, abs=1e-4)
        assert abs(v[0, 1]) < 1e-9

    def test_origin_contact_rejected(self):
        # 65 samples put a node exactly at the origin, where the position
        # term is singular.
        pts = np.column_stack([np.linspace(-1, 1, 65), np.zeros(65)])
        c = PlaneCurve(pts, closed=False)
        with pytest.raises(Exception):
            velocity(c)


class TestStep:
    def test_circle_radius_drops_by_dt(self):
        # |v| = rho/2 = 1 on the circle of radius 2
        st = make_state(circle(256, rho=2.0))
        new = step(st, FlowConfig())
        radii = np.linalg.norm(new.curve.points, axis=1)
        assert new.t == stability_dt(st.curve, flow.SAFETY) > 0.0
        assert np.max(np.abs(radii - (2.0 - new.t))) < 1e-9
        assert new.step_index == 1

    def test_stationary_line_pair(self):
        st = make_state(x_cone_curve(128))
        new = step(st, FlowConfig())
        assert np.max(np.abs(new.curve.points - st.curve.points)) < 1e-12

    def test_underflow_raises(self, monkeypatch):
        monkeypatch.setattr(flow, "DT_MIN", 10.0)
        st = make_state(circle(64, rho=2.0))
        with pytest.raises(StepUnderflowError):
            step(st, FlowConfig())

    def test_antipodal_symmetry_survives_raw_stepping(self):
        # the discrete velocity of an antipodal node set is odd, so the
        # defect stays at rounding level
        h = ellipse_curve(128).points[:64]
        st = make_state(PlaneCurve(np.vstack([h, -h])))
        cfg = FlowConfig()
        for _ in range(200):
            st = step(st, cfg)
        p = st.curve.points
        assert np.linalg.norm(p[:64] + p[64:], axis=1).max() < 1e-10

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_advance_keeps_exact_antipodal_symmetry(self, scheme):
        # every operation of a step commutes with negation: one step of
        # an exactly antipodal node set is exactly antipodal again
        h = ellipse_curve(64, a=3.0).points[:32]
        pts, m = np.vstack([h, -h]), len(h)
        terms = curve_terms(pts)
        # _advance takes and gives (2, N) rows, the StepWorkspace layout
        buffers = _step_buffers(PlaneCurve(pts), scheme)
        new = _advance(pts.T, terms.velocity, 0.2 * terms.cap, None, *buffers).T
        assert not np.array_equal(new, pts)
        assert np.array_equal(new[m:], -new[:m])

    @pytest.mark.parametrize(
        "target, error, message",
        [
            ("origin", OriginContactError, r"distance 0\.000e\+00 from the origin"),
            ("node_0", DegenerateCurveError, r"spacing 0\.000e\+00"),
        ],
    )
    def test_heun_predictor_keeps_both_guards(self, target, error, message):
        # dt is a power of two, so dt * (v / dt) is v exactly: the predictor
        # puts node 0 exactly on the origin, or node 1 exactly on node 0
        # (1 - cos u and 0 - sin u are exact differences, by Sterbenz)
        u = 2 * np.pi * np.arange(64) / 64
        pts = np.array([np.cos(u), np.sin(u)])
        dt = 0.25
        vel = np.zeros_like(pts)
        if target == "origin":
            vel[:, 0] = -pts[:, 0] / dt
        else:
            vel[:, 1] = (pts[:, 0] - pts[:, 1]) / dt
        buffers = _step_buffers(PlaneCurve(pts.T), "heun")
        with pytest.raises(error, match=message):
            _advance(pts, vel, dt, None, *buffers)

    def test_stability_cap_positive_and_modest(self):
        c = circle(256, rho=2.0)
        dt = stability_dt(c, safety=0.2)
        h = compute_frame(c).weight.min()
        assert 0.0 < dt <= 0.2 * h * h + 1e-15


def step_caps(c):
    """The three terms of the step cap, h^2, h min|x|^2 / (2 max|<x,n>|)
    and h / (2 max|v|), assembled from the frame, with h the smallest
    weight on a closed curve and the smallest within-piece chord on an
    open one; a zero denominator makes its term inf."""
    pts = c.points
    frame = compute_frame(c)
    if c.closed:
        h = frame.weight.min()
    else:
        h = min(np.linalg.norm(np.diff(pts[p], axis=0), axis=1).min() for p in curve_pieces(pts, False))
    r2 = pts[:, 0] * pts[:, 0] + pts[:, 1] * pts[:, 1]
    normal = np.column_stack([-frame.tangent[:, 1], frame.tangent[:, 0]])
    dmax = np.abs(pts[:, 0] * normal[:, 0] + pts[:, 1] * normal[:, 1]).max()
    vmax = np.linalg.norm(velocity(c), axis=1).max()
    return [
        h * h,
        h * r2.min() / (2.0 * dmax) if dmax > 0.0 else math.inf,
        h / (2.0 * vmax) if vmax > 0.0 else math.inf,
    ]


def wavy_star(n=64, m=8, eps=0.3):
    u = 2 * np.pi * np.arange(n) / n
    r = 1.0 + eps * np.cos(m * u)
    return PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))


# each curve with the index of the step-cap term that binds on it
CAP_CURVES = {
    "circle": (lambda: circle(256), 0),
    "ellipse": (lambda: ellipse(512), 0),
    "line_pair": (lambda: line_pair_curve(128, phi=0.3), 0),
    "near_origin": (lambda: PlaneCurve(circle(256, rho=1.0).points + [1.05, 0.0]), 1),
    "wavy_star": (wavy_star, 2),
}


@pytest.mark.parametrize("name", list(CAP_CURVES))
class TestCurveTermsViews:
    """velocity() and stability_dt() are views of geometry.curve_terms,
    the one kernel a flow step reads them from."""

    def test_velocity_is_the_kernel_velocity(self, name):
        c = CAP_CURVES[name][0]()
        assert np.array_equal(velocity(c), curve_terms(c.points, c.closed).velocity.T)

    @pytest.mark.parametrize("safety", [0.2, 0.37])
    def test_stability_dt_matches_step_cap(self, name, safety):
        make, binding = CAP_CURVES[name]
        c = make()
        caps = step_caps(c)
        assert caps.index(min(caps)) == binding
        if not c.closed:
            # an open pair of lines: the jump chord between the lines is
            # no spacing, and the end weights are half a chord
            assert len(curve_pieces(c.points, False)) == 2
        assert stability_dt(c, safety) == safety * min(caps)


class TestEvolve:
    def test_circle_matches_exact_radius_at_t_end(self):
        st = make_state(circle(256, rho=2.0))
        traj, report = evolve(
            st, stop=StopConditions(t_end=0.5), recording=RecordingConfig(snapshot_dt=0.1)
        )
        assert not report.detected
        last = traj.states[-1]
        assert last.t == pytest.approx(0.5, abs=1e-9)
        radii = np.linalg.norm(last.curve.points, axis=1)
        assert np.max(np.abs(radii - math.sqrt(2.0))) < 1e-3

    @pytest.mark.parametrize(
        "scheme, t_end, snapshot_dt",
        [("euler", 0.2, 0.05), ("heun", 0.17, 0.05), ("euler", None, 0.05)],
        ids=["euler", "heun-t_end", "tail-records"],
    )
    def test_times_are_the_record_times(self, scheme, t_end, snapshot_dt):
        # Trajectory.times is the diagnostics t column; it must be the
        # records' own t, bit for bit, on and off the record grid
        traj, _ = evolve(
            make_state(circle(32, rho=1.0)),
            FlowConfig(scheme=scheme),
            StopConditions(t_end=t_end),
            RecordingConfig(snapshot_dt=snapshot_dt),
        )
        expected = np.array([s.t for s in traj.states])
        assert traj.times.tobytes() == expected.tobytes()
        off_grid = np.abs(expected / snapshot_dt - np.round(expected / snapshot_dt)) > 1e-6
        if t_end is None:
            assert off_grid.sum() > 10
        else:
            assert expected[-1] == t_end

    def test_records_land_on_grid(self):
        st = make_state(circle(128, rho=2.0))
        traj, _ = evolve(
            st, stop=StopConditions(t_end=0.3), recording=RecordingConfig(snapshot_dt=0.05)
        )
        grid = traj.times
        expected = np.arange(0.0, 0.3 + 1e-12, 0.05)
        assert np.allclose(grid, expected, atol=1e-9)

    def test_circle_collapse_brackets_exact_lifespan(self):
        st = make_state(circle(128, rho=2.0))
        traj, report = evolve(st, recording=RecordingConfig(snapshot_dt=0.05))
        assert report.detected
        assert report.trigger == "origin_contact"
        assert report.t_low <= report.t_high
        # Exact lifespan is rho^2/4 = 1.  The discrete curve outlives it
        # by O(dt) (the Euler update drains rho^2 by 4dt - 4dt^2/rho^2 per
        # step), so at this coarse resolution the bracket is held to the
        # discretization scale rather than machine precision.
        assert report.t_low > 0.98
        assert report.t_high < 1.01
        mid = 0.5 * (report.t_low + report.t_high)
        assert abs(mid - 1.0) < 5e-3
        assert report.t_high - report.t_low < 5e-3
        # origin contact names the origin
        assert report.singular_point.tolist() == [0.0, 0.0]
        assert report.min_radius_at_stop < 0.005 * 4.0 + 1e-6

    def test_off_center_contact_point_is_the_origin(self):
        # a closed curve with no antipodal symmetry:
        # the circle of radius 1 around (1.004, 0) passes 0.004 from the
        # origin at its node 32, inside the contact radius 0.005 * 2.  The
        # contact, not that node, is the singular point: a node at distance
        # d from the origin sweeps a circle of radius d in C^2
        u = 2 * np.pi * np.arange(64) / 64
        curve = PlaneCurve(np.column_stack([1.004 + np.cos(u), np.sin(u)]))
        _, report = evolve(make_state(curve), stop=StopConditions(t_end=0.01))
        assert report.trigger == "origin_contact"
        assert report.min_radius_at_stop == pytest.approx(0.004, abs=1e-12)
        assert report.singular_point.tolist() == [0.0, 0.0]

    def test_bracketed_step_underflow_point_is_the_origin(self, monkeypatch):
        # the circle of radius 1 around (0.3, 0) is not antipodal; with the
        # step floor raised, its collapse stops on a step underflow that
        # the records bracket, long before origin contact
        monkeypatch.setattr(flow, "DT_MIN", 1e-4)
        u = 2 * np.pi * np.arange(64) / 64
        curve = PlaneCurve(np.column_stack([0.3 + np.cos(u), np.sin(u)]))
        _, report = evolve(make_state(curve), recording=RecordingConfig(snapshot_dt=0.01))
        assert report.trigger == "step_underflow"
        assert report.t_low < report.t_high < math.inf
        assert report.min_radius_at_stop > 0.1
        assert report.singular_point.tolist() == [0.0, 0.0]

    def test_curvature_blowup_point_is_the_node_of_largest_curvature(self, monkeypatch):
        # a lowered product fires at t = 0 on a curve with neither antipodal
        # nor mirror symmetry, whose largest |kappa| sits at one node only
        monkeypatch.setattr(flow, "CURVATURE_BLOWUP_PRODUCT", 0.2)
        u = 2 * np.pi * np.arange(64) / 64
        r = 1.0 + 0.2 * np.cos(3 * u) + 0.1 * np.sin(2 * u)
        curve = PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)]))
        traj, report = evolve(make_state(curve), stop=StopConditions(t_end=0.05))
        assert report.trigger == "curvature_blowup"
        last = traj.states[-1].curve.points
        kappa = np.abs(curve_terms(last).curvature)
        assert np.sort(kappa)[-1] > 1.1 * np.sort(kappa)[-2]
        assert np.array_equal(report.singular_point, last[kappa.argmax()])
        assert np.linalg.norm(report.singular_point) > 0.5

    def test_drainage_bound_caps_bracket(self):
        # c = 2 for the centered circle of radius 2, so t_high <= c/2 = 1
        # whenever the stop happens before that time.
        st = make_state(circle(128, rho=2.0))
        _, report = evolve(st, recording=RecordingConfig(snapshot_dt=0.05))
        if report.t_low <= 0.5 * st.initial_constant:
            assert report.t_high <= 0.5 * st.initial_constant + 1e-9

    def test_stationary_cone_under_t_end(self):
        st = make_state(x_cone_curve(128))
        traj, report = evolve(st, stop=StopConditions(t_end=0.01))
        assert not report.detected
        drift = np.max(
            np.abs(traj.states[-1].curve.points - st.curve.points)
        )
        assert drift < 1e-12

    def test_reflection_equivariance(self):
        # The law commutes with reflection about the x-axis; so does the
        # discretization (symmetric stencils), up to rounding.
        u = 2 * np.pi * np.arange(128) / 128
        r = 1.0 + 0.1 * np.cos(3 * u) + 0.05 * np.sin(2 * u)
        pts = np.column_stack([r * np.cos(u), r * np.sin(u)])
        a = make_state(PlaneCurve(pts))
        b = make_state(PlaneCurve(pts * np.array([1.0, -1.0])))
        cfg = FlowConfig()
        for _ in range(50):
            a = step(a, cfg)
            b = step(b, cfg)
        mirrored = a.curve.points * np.array([1.0, -1.0])
        assert np.max(np.abs(mirrored - b.curve.points)) < 1e-10

    def test_trajectory_interpolation_and_range(self):
        st = make_state(circle(128, rho=2.0))
        traj, _ = evolve(
            st, stop=StopConditions(t_end=0.2), recording=RecordingConfig(snapshot_dt=0.05)
        )
        mid = traj.curve_at(0.125)
        rho = np.linalg.norm(mid.points, axis=1).mean()
        assert rho == pytest.approx(math.sqrt(4.0 - 4.0 * 0.125), abs=2e-3)
        with pytest.raises(TrajectoryRangeError):
            traj.curve_at(0.5)


class TestLoopSemantics:
    """evolve is the public step plus the spacing-triggered redistribution,
    nothing more: its state after the step budget equals a replay through
    step() and resample() bit for bit."""

    @pytest.mark.parametrize("scheme", ["euler", "heun"])
    def test_budget_state_equals_public_step_replay(self, monkeypatch, scheme):
        monkeypatch.setattr(flow, "MAX_STEPS", 200)
        start = make_state(ellipse_curve(64, a=3.0))
        config = FlowConfig(scheme=scheme)
        with pytest.raises(IntegrationError, match="step budget 200") as info:
            evolve(start, config, recording=RecordingConfig(snapshot_dt=10.0))
        last = info.value.last_state

        st = start
        floor, redistributions = 1.0, 0
        for _ in range(200):
            weight = compute_frame(st.curve).weight
            st = step(st, config)
            if weight.max() > REDISTRIBUTE_RATIO * floor * weight.min():
                curve = resample(st.curve, st.curve.node_count)
                st = FlowState(curve, st.t, st.initial_constant, st.step_index)
                left = compute_frame(curve).weight
                floor = float(left.max()) / float(left.min())
                redistributions += 1
        assert 0 < redistributions < 100
        assert last.step_index == st.step_index == 200
        assert last.t == st.t
        assert np.array_equal(last.curve.points, st.curve.points)

    def test_plain_loop_equals_public_step_replay(self, monkeypatch):
        # with a trigger that never fires, evolve is step() and nothing else
        monkeypatch.setattr(flow, "REDISTRIBUTE_RATIO", math.inf)
        monkeypatch.setattr(flow, "MAX_STEPS", 200)
        u = 2 * np.pi * np.arange(128) / 128
        r = 1.0 + 0.1 * np.cos(3 * u) + 0.05 * np.sin(2 * u)
        start = make_state(PlaneCurve(np.column_stack([r * np.cos(u), r * np.sin(u)])))
        config = FlowConfig()
        with pytest.raises(IntegrationError, match="step budget 200") as info:
            evolve(start, config, recording=RecordingConfig(snapshot_dt=10.0))
        last = info.value.last_state

        st = start
        for _ in range(200):
            st = step(st, config)
        assert last.step_index == st.step_index == 200
        assert last.t == st.t
        assert np.array_equal(last.curve.points, st.curve.points)

    def test_exact_diameter_grows_with_the_records_not_the_steps(self, monkeypatch):
        # curve_terms checks its guards against 8 max|x|; away from the
        # guards only the set-up and the records compute a diameter
        calls = []
        diameter = geometry._diameter
        monkeypatch.setattr(geometry, "_diameter", lambda p: calls.append(1) or diameter(p))
        traj, report = evolve(make_state(circle_curve(64, rho=1.0)))
        records, steps = len(traj.states), traj.states[-1].step_index
        assert report.trigger == "origin_contact" and steps > 5 * records
        assert len(calls) <= records + 8

    def test_curve_error_in_the_loop_becomes_integration_error(self):
        # a node on the origin fails the velocity's origin guard at t = 0
        u = 2 * np.pi * np.arange(64) / 64
        st = make_state(PlaneCurve(np.column_stack([1.0 + np.cos(u), np.sin(u)])))
        with pytest.raises(IntegrationError, match="OriginContactError") as info:
            evolve(st, stop=StopConditions(t_end=0.01))
        assert info.value.last_state.t == 0.0
        assert np.array_equal(info.value.last_state.curve.points, st.curve.points)

    # the parametric twin of test_radial_non_finite_rate_keeps_last_state:
    # the loop's velocity turns nan after the step size is taken from it,
    # so step 5 goes non-finite; the nodes advance in the loop's workspace,
    # and the error must still carry the state before that step
    @pytest.mark.parametrize(
        "scheme, message", [("euler", "non-finite node positions"), ("heun", "non-finite predictor")]
    )
    def test_non_finite_step_keeps_pre_step_state(self, monkeypatch, scheme, message):
        start = make_state(circle_curve(64, rho=1.0))
        config, recording = FlowConfig(scheme), RecordingConfig(snapshot_dt=0.1)
        with monkeypatch.context() as m:
            m.setattr(flow, "MAX_STEPS", 4)
            with pytest.raises(IntegrationError, match="step budget 4") as info:
                evolve(start, config, recording=recording)
        before = info.value.last_state

        update = geometry.StepWorkspace.update
        loop_updates = []

        def poisoned(ws):
            update(ws)
            # the loop's workspace is the first one updated
            if not loop_updates or ws is loop_updates[0]:
                loop_updates.append(ws)
                if len(loop_updates) == 5:
                    ws.velocity[0, 7] = np.nan

        monkeypatch.setattr(geometry.StepWorkspace, "update", poisoned)
        with pytest.raises(IntegrationError, match=message) as info:
            evolve(start, config, recording=recording)
        last = info.value.last_state
        assert last.step_index == before.step_index == 4
        assert last.t == before.t > 0.0
        assert np.array_equal(last.curve.points, before.curve.points)

    def test_underflow_without_bracket_raises(self, monkeypatch):
        # the first stable step is below the floor, so no record tail
        # exists to bracket a singular time from; the record interval must
        # stay above the floor
        monkeypatch.setattr(flow, "DT_MIN", 1.0)
        st = make_state(circle(64))
        with pytest.raises(StepUnderflowError, match="no singular-time bracket") as info:
            evolve(st, recording=RecordingConfig(snapshot_dt=10.0))
        assert info.value.last_state.t == 0.0

    # an infinite t_end is never reached, and would leave the automatic
    # interval to c/2 alone; 1e-13 is within the end tolerance of 0, so a
    # run would stop at its start without a step
    @pytest.mark.parametrize("t_end", [0.0, -0.5, math.inf, 1e-13])
    @pytest.mark.parametrize("snapshot_dt", [None, 0.1])
    def test_t_end_at_or_before_start_rejected(self, t_end, snapshot_dt):
        st = make_state(circle(64))
        with pytest.raises(CurveConfigError, match=r"stop\.t_end .* start time 0"):
            evolve(st, stop=StopConditions(t_end=t_end), recording=RecordingConfig(snapshot_dt))

    # steps cut to an interval below the floor would all be below it; the
    # automatic interval (c/2)/50 of the circle of radius 1e-6 is 5e-15
    @pytest.mark.parametrize("rho, snapshot_dt", [(1.0, 1e-16), (1e-6, None)])
    def test_record_interval_below_step_floor_rejected(self, rho, snapshot_dt):
        st = make_state(circle_curve(64, rho=rho))
        with pytest.raises(CurveConfigError, match=r"snapshot_dt .* below the step floor 1e-14"):
            evolve(st, recording=RecordingConfig(snapshot_dt))

    # the scale is a check of the initial curve, made by make_state and
    # again by evolve, whose state may be built without it; the edge
    # itself is accepted
    def test_curve_beyond_coordinate_scale_rejected(self):
        big = PlaneCurve(circle_curve(64, rho=1.0).points * 1e60)
        scale = r"reach 1\.000e\+60, beyond the coordinate scale 1e\+50"
        with pytest.raises(CurveConfigError, match=scale):
            make_state(big)
        with pytest.raises(CurveConfigError, match="beyond the coordinate scale"):
            evolve(FlowState(big, 0.0, 5e119), stop=StopConditions(t_end=1.0))
        edge = PlaneCurve(circle_curve(64, rho=1.0).points * flow.COORDINATE_SCALE)
        assert math.isfinite(make_state(edge).initial_constant)

    # every grid point ends a step, so 1e-10 up to c/2 = 1/4 is about
    # 2.5e9 records: the run would record every step until its budget ran
    # out, holding about 3.5 GB; the grid must fit the budget before a step
    # is taken
    @pytest.mark.parametrize("t_end", [None, 0.1])
    def test_record_grid_over_step_budget_rejected(self, t_end):
        st = make_state(circle_curve(64, rho=1.0))
        horizon = r"0\.1" if t_end else r"0\.2499"
        with pytest.raises(
            CurveConfigError,
            match=rf"snapshot_dt 1e-10 puts more than the step budget 2000000 .* t={horizon}",
        ):
            evolve(st, stop=StopConditions(t_end=t_end), recording=RecordingConfig(1e-10))


class TestRedistributionTrigger:
    """evolve redistributes a closed curve after a step whose arclength
    weights have spread by more than REDISTRIBUTE_RATIO, and only then."""

    @staticmethod
    def _resample_steps(monkeypatch) -> list[int]:
        """The number of steps taken before each resample call of evolve."""
        steps, calls = [0], []
        advance, resample_ = flow._advance, flow.resample

        def counted_advance(*args):
            steps[0] += 1
            return advance(*args)

        def counted_resample(curve, n):
            calls.append(steps[0])
            return resample_(curve, n)

        monkeypatch.setattr(flow, "_advance", counted_advance)
        monkeypatch.setattr(flow, "resample", counted_resample)
        return calls

    def test_circle_is_never_redistributed(self, monkeypatch):
        calls = self._resample_steps(monkeypatch)
        traj, report = evolve(make_state(circle_curve(256, rho=2.0)), stop=StopConditions(t_end=0.1))
        assert not report.detected and traj.states[-1].step_index > 200
        assert calls == []

    @pytest.mark.parametrize("a", [3.0, 6.0])
    def test_ellipse_is_redistributed_but_never_on_consecutive_steps(self, monkeypatch, a):
        # at a=6 and N=64 the late curve is too coarse for a redistribution
        # to bring the weight spread back under the ratio; measured from
        # that spread, the trigger still waits for the spacing to drift
        calls = self._resample_steps(monkeypatch)
        _, report = evolve(make_state(ellipse_curve(64, a=a)))
        assert report.detected
        assert len(calls) >= 1
        assert np.all(np.diff(calls) >= 2)


class TestStepCallBudget:
    """At the flow's node counts a step is about fifty NumPy calls, and the
    Python around them is a fifth of its time; the Python-level calls of a
    step are counted, deterministically, so that overhead cannot creep
    back unseen."""

    # A steady-state Euler step of a closed curve calls StepWorkspace's
    # update, update_velocity, _frame_closed and chord_floor_after,
    # geometry's periodic_derivatives and _diameter_bound, the clock's
    # on_grid and shorten, _at_end and _advance, whether or not it takes
    # the chord pass; a step that takes the tail check also calls area.
    CALLS_PER_STEP = 11
    # A steady-state radial step calls _RadialWorkspace's update and
    # advance, radial_velocity, geometry's periodic_derivatives, the
    # clock's on_grid and shorten, and _at_end.
    RADIAL_CALLS_PER_STEP = 7

    @staticmethod
    def _step_starts(step_code, run, record_code=None):
        """The running count of Python-level calls at each call of
        ``step_code`` during ``run()``, and the number of those calls made
        before each call of ``record_code``."""
        count, starts, records = [0], [], []

        def profile(frame, event, arg):
            if event == "call":
                count[0] += 1
                if frame.f_code is step_code:
                    starts.append(count[0])
                elif frame.f_code is record_code:
                    records.append(len(starts))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            run()
        finally:
            sys.setprofile(previous)
        return starts, records

    def test_steady_state_euler_step(self):
        # one record at the start, then tail records from t = 0.75 on
        state = make_state(circle_curve(64, rho=2.0))
        starts, records = self._step_starts(
            flow._advance.__code__,
            lambda: evolve(
                state, stop=StopConditions(t_end=0.9), recording=RecordingConfig(snapshot_dt=1.0)
            ),
            flow._diagnostics_row.__code__,
        )
        # the calls from each _advance to the next one: one whole step
        window = np.diff(starts[10:111])
        assert len(window) == 100
        assert not [k for k in records if 10 < k <= 110]
        assert window.max() <= self.CALLS_PER_STEP

    def test_steady_state_radial_step(self):
        # one record at the start and none after it, as snapshot_dt
        # exceeds the run
        start = RadialProfile(np.full(64, 2.0))
        starts, _ = self._step_starts(
            flow._RadialWorkspace.advance.__code__,
            lambda: radial_evolve(start, t_end=0.9, snapshot_dt=1.0),
        )
        # the calls from each advance to the next one: one whole step
        window = np.diff(starts[10:111])
        assert len(window) == 100
        assert window.max() <= self.RADIAL_CALLS_PER_STEP


class TestSingularTimeEstimate:
    def test_linear_radius_squared_recovers_root(self):
        t = np.linspace(0.0, 0.8, 9)
        r = np.sqrt(4.0 - 4.0 * t)  # vanishes at t = 1
        est = estimate_singular_time(t, r)
        assert est.conclusive
        assert est.value == pytest.approx(1.0, abs=1e-9)
        # width covers the gap from the last record to the root plus the
        # fit residual; the data are exactly linear so only the gap remains
        assert est.width == pytest.approx(1.0 - 0.8, abs=1e-9)

    def test_growing_radius_is_inconclusive(self):
        t = np.linspace(0.0, 0.8, 9)
        r = 1.0 + t
        est = estimate_singular_time(t, r)
        assert not est.conclusive
        assert math.isinf(est.width)

    def test_short_tail_is_inconclusive(self):
        est = estimate_singular_time([0.0, 0.1], [2.0, 1.9])
        assert not est.conclusive


class TestRadialTwin:
    def test_circle_rate(self):
        rhs = radial_rhs(RadialProfile(np.full(64, 2.0)))
        assert np.max(np.abs(rhs + 1.0)) < 1e-12

    def test_ellipse_profile_matches_angle_derivative(self):
        # Independent identity: dr/dt = -theta'/r with theta the angle
        # field of the reconstructed curve.
        from lagflow.lagrangian import lagrangian_angle

        n = 512
        s = 2 * np.pi * np.arange(n) / n
        r = 6.0 / np.sqrt(4 * np.cos(s) ** 2 + 9 * np.sin(s) ** 2)
        rhs = radial_rhs(RadialProfile(r))
        curve = PlaneCurve(np.column_stack([r * np.cos(s), r * np.sin(s)]))
        theta = lagrangian_angle(curve, compute_frame(curve)).theta
        h = 2 * np.pi / n
        ext = np.concatenate([theta[-2:] - 4 * np.pi, theta, theta[:2] + 4 * np.pi])
        d1 = (8 * (ext[3:-1] - ext[1:-3]) - (ext[4:] - ext[:-4])) / (12 * h)
        assert np.max(np.abs(rhs - (-d1 / r))) < 1e-5

    # with snapshot_dt=1.5 the only record before the stop is t=0, so the
    # min-radius fit is inconclusive and the bracket widens by 50 stable
    # steps, not 50 record intervals
    @pytest.mark.parametrize("n, snapshot_dt", [(128, 0.05), (64, 1.5)])
    def test_radial_circle_collapse(self, n, snapshot_dt):
        traj, report = radial_evolve(RadialProfile(np.full(n, 2.0)), snapshot_dt=snapshot_dt)
        assert report.detected
        assert report.t_low > 0.97
        assert report.t_high < 1.03
        assert report.t_high - report.t_low < 1e-3
        # every record's rate should be the exact circle rate -2/r
        for prof in traj.profiles:
            assert np.max(np.abs(radial_rhs(prof) + 2.0 / prof.r)) < 1e-9

    @pytest.mark.parametrize("periodic", [False, True])
    def test_radial_singular_point_and_contact(self, periodic):
        # the polar profile of the unit circle about (0.5, 0), or an
        # exactly pi-periodic profile (an ellipse): either way an origin
        # contact's point is the origin
        n = 128
        s = 2 * np.pi * np.arange(n) / n
        if periodic:
            half = 1.0 / np.sqrt(np.cos(s) ** 2 / 2.25 + np.sin(s) ** 2)
            r = np.concatenate([half[: n // 2], half[: n // 2]])
        else:
            r = 0.5 * np.cos(s) + np.sqrt(1.0 - 0.25 * np.sin(s) ** 2)
        nodes = r[:, None] * np.column_stack([np.cos(s), np.sin(s)])
        contact = flow.ORIGIN_CONTACT_FACTOR * PlaneCurve(nodes).diameter
        traj, report = radial_evolve(RadialProfile(r), snapshot_dt=0.01)
        assert report.trigger == "origin_contact"
        # a step moves r by at most SAFETY/2 = 10% of min r
        assert report.min_radius_at_stop < contact <= report.min_radius_at_stop / 0.9
        if periodic:
            assert all(np.array_equal(p.r[: n // 2], p.r[n // 2 :]) for p in traj.profiles)
        else:
            assert report.min_radius_at_stop < 0.0125
        assert report.singular_point.tolist() == [0.0, 0.0]

    def test_radial_bracketed_step_underflow_point_is_the_origin(self, monkeypatch):
        # the polar profile of the unit circle about (0.3, 0), not antipodal
        monkeypatch.setattr(flow, "DT_MIN", 1e-4)
        s = 2 * np.pi * np.arange(64) / 64
        r = 0.3 * np.cos(s) + np.sqrt(1.0 - 0.09 * np.sin(s) ** 2)
        _, report = radial_evolve(RadialProfile(r), snapshot_dt=0.01)
        assert report.trigger == "step_underflow"
        assert report.t_low < report.t_high < math.inf
        assert report.singular_point.tolist() == [0.0, 0.0]

    def test_radial_non_finite_rate_keeps_last_state(self, monkeypatch):
        velocity = flow.radial_velocity

        def nan_rate(views, out=None):
            rhs, d1 = velocity(views, out)
            rhs[...] = np.nan
            return rhs, d1

        monkeypatch.setattr(flow, "radial_velocity", nan_rate)
        start = RadialProfile(np.full(32, 2.0), t=0.25)
        with pytest.raises(IntegrationError, match="non-finite") as info:
            radial_evolve(start, t_end=1.0, snapshot_dt=0.1)
        assert isinstance(info.value.last_state, RadialProfile)
        assert info.value.last_state.t == 0.25
        assert np.array_equal(info.value.last_state.r, start.r)

    def test_radial_interval_below_step_floor_rejected(self):
        with pytest.raises(CurveConfigError, match=r"snapshot_dt .* below the step floor 1e-14"):
            radial_evolve(RadialProfile(np.full(64, 1.0)), t_end=0.1, snapshot_dt=1e-16)

    def test_radial_record_grid_over_step_budget_rejected(self):
        with pytest.raises(CurveConfigError, match=r"more than the step budget 2000000 .* t=0\.1$"):
            radial_evolve(RadialProfile(np.full(32, 2.0)), t_end=0.1, snapshot_dt=1e-10)

    def test_radial_profile_beyond_coordinate_scale_rejected(self):
        with pytest.raises(CurveConfigError, match="beyond the coordinate scale 1e\\+50"):
            radial_evolve(RadialProfile(np.full(32, 1e60)), t_end=1.0, snapshot_dt=0.1)

    def test_radial_underflow_without_bracket_raises(self):
        # the first stable step, about 1.9e-17, is below the default floor
        with pytest.raises(StepUnderflowError, match="no singular-time bracket") as info:
            radial_evolve(RadialProfile(np.full(64, 1e-7)), snapshot_dt=0.05)
        assert info.value.last_state.t == 0.0

    @pytest.mark.parametrize("t_end", [0.0, -0.5, math.inf])
    @pytest.mark.parametrize("snapshot_dt", [None, 0.1])
    def test_radial_t_end_at_or_before_start_rejected(self, t_end, snapshot_dt):
        profile = RadialProfile(np.full(32, 2.0), t=0.25)
        with pytest.raises(CurveConfigError, match=r"^t_end .* start time 0\.25"):
            radial_evolve(profile, t_end=t_end, snapshot_dt=snapshot_dt)

    def test_radial_t_end(self):
        traj, report = radial_evolve(
            RadialProfile(np.full(128, 2.0)), t_end=0.5, snapshot_dt=0.1
        )
        assert not report.detected
        assert traj.profiles[-1].t == pytest.approx(0.5, abs=1e-9)
        assert traj.profiles[-1].r.mean() == pytest.approx(math.sqrt(2.0), abs=1e-3)


class TestStepBudget:
    """Both integrators test their stops before their step budget: a
    budget of exactly the steps a run takes to t_end is enough, one step
    fewer is not (refused up front when the record grid alone needs more
    steps, else exhausted in the loop)."""

    @staticmethod
    def _last_time(integrator, t_end, snapshot_dt):
        if integrator == "evolve":
            traj, _ = evolve(
                make_state(circle_curve(32, rho=2.0)),
                stop=StopConditions(t_end=t_end),
                recording=RecordingConfig(snapshot_dt),
            )
            return traj.states[-1].t
        traj, _ = radial_evolve(RadialProfile(np.full(32, 2.0)), t_end=t_end, snapshot_dt=snapshot_dt)
        return traj.profiles[-1].t

    # (t_end, snapshot_dt, the steps both runs take, the error one fewer raises)
    CASES = [(0.05, 0.01, 5, CurveConfigError), (0.1, 0.1, 4, IntegrationError)]

    @pytest.mark.parametrize("t_end, snapshot_dt, steps, error", CASES)
    @pytest.mark.parametrize("integrator", ["evolve", "radial_evolve"])
    def test_budget_ending_at_t_end(self, monkeypatch, integrator, t_end, snapshot_dt, steps, error):
        monkeypatch.setattr(flow, "MAX_STEPS", steps)
        assert self._last_time(integrator, t_end, snapshot_dt) == pytest.approx(t_end, abs=1e-12)
        monkeypatch.setattr(flow, "MAX_STEPS", steps - 1)
        with pytest.raises(error, match="step budget"):
            self._last_time(integrator, t_end, snapshot_dt)


def _radial_oracle(r, t, t_end, snapshot_dt):
    """The radial twin's loop with the allocating step it had before its
    workspace, kept as a bit-identity oracle: periodic_derivatives of the
    stencil_views of pad_periodic, the rate as one expression, the two
    step caps, then r + dt * rhs.  The stepping clock and the stops are
    flow's own.  Returns the (r, t, dt) before every step, the final r
    and t, and the trigger."""
    n = len(r)
    h = 2.0 * np.pi / n
    s = 2.0 * np.pi * np.arange(n) / n
    contact = flow.ORIGIN_CONTACT_FACTOR * PlaneCurve(
        r[:, None] * np.column_stack([np.cos(s), np.sin(s)])
    ).diameter
    clock = flow._StepClock(t, snapshot_dt, t_end)
    steps = []
    while True:
        r_min = float(r.min())
        d1, d2 = periodic_derivatives(stencil_views(pad_periodic(r)), stencil_constants(h, r.shape))
        rhs = (r * d2 - 2.0 * r * r - 3.0 * d1 * d1) / (r * d1 * d1 + r**3)
        caps = [h * h * float((r * r + d1 * d1).min())]
        rate = float(np.abs(rhs).max())
        if rate > 0.0:
            caps.append(0.5 * r_min / rate)
        dt_auto = flow.SAFETY * min(caps)
        if steps:
            clock.on_grid(t)  # the loop asks only after its first record
        if r_min < contact:
            return steps, (r, t), "origin_contact"
        if dt_auto < flow.DT_MIN:
            return steps, (r, t), "step_underflow"
        if flow._at_end(t, t_end):
            return steps, (r, t), None
        dt = clock.shorten(t, dt_auto)
        steps.append((r, t, dt))
        r = r + dt * rhs
        t += dt


class TestRadialLoopOracle:
    """radial_evolve keeps its profile in one workspace; every step it
    takes equals, bit for bit, the allocating step of _radial_oracle."""

    PROFILES = {
        "constant": lambda s: np.full(len(s), 2.0),
        "star": lambda s: 2.0 + 0.3 * np.cos(3 * s) + 0.1 * np.sin(5 * s + 0.4),
    }

    @pytest.mark.parametrize(
        "n, name, t_end",
        [(32, "constant", None), (32, "star", None), (256, "constant", 0.02), (256, "star", 0.02)],
    )
    def test_steps_match_oracle(self, monkeypatch, n, name, t_end):
        s = 2.0 * np.pi * np.arange(n) / n
        start = RadialProfile(self.PROFILES[name](s), t=0.125)
        stop = None if t_end is None else start.t + t_end
        seen = []
        advance = flow._RadialWorkspace.advance

        def logged(ws, t, dt):
            seen.append((ws.r.copy(), t, dt))
            advance(ws, t, dt)

        monkeypatch.setattr(flow._RadialWorkspace, "advance", logged)
        traj, report = radial_evolve(start, t_end=stop, snapshot_dt=0.01)
        want, (want_r, want_t), trigger = _radial_oracle(start.r, start.t, stop, 0.01)
        assert report.trigger == trigger == (None if t_end else "origin_contact")
        assert len(seen) == len(want) > 30
        for k, ((r, t, dt), (r_k, t_k, dt_k)) in enumerate(zip(seen, want)):
            assert np.array_equal(r, r_k) and t == t_k and dt == dt_k, k
        assert np.array_equal(traj.profiles[-1].r, want_r)
        assert traj.profiles[-1].t == want_t == report.t_low


class TestScenarioBuilders:
    def test_circle_scenario_is_centered(self):
        c = circle_curve(128, rho=2.0)
        radii = np.linalg.norm(c.points, axis=1)
        assert np.max(np.abs(radii - 2.0)) < 1e-12

    def test_odd_node_count_runs_to_origin_contact(self):
        # no node pairing is needed: with 65 nodes no node has an
        # antipodal partner, and the collapse still ends at the origin
        c = circle_curve(65, rho=2.0)
        assert c.node_count == 65
        _, report = evolve(make_state(c))
        assert report.trigger == "origin_contact"
        assert report.singular_point.tolist() == [0.0, 0.0]

    def test_ellipse_scenario_axes(self):
        c = ellipse_curve(256, a=3.0)
        assert np.max(c.points[:, 0]) == pytest.approx(3.0, abs=1e-6)
        assert np.max(c.points[:, 1]) == pytest.approx(2.0, abs=1e-6)

    def test_cassini_scenario_axes(self):
        # r^2 = cos 2θ + sqrt(b^4 - sin^2 2θ): r(0)^2 = 1 + b^2, and the
        # neck on the y axis has r^2 = b^2 - 1
        b = 1.05
        c = cassini_curve(256, b=b)
        assert c.node_count == 256
        assert np.max(c.points[:, 0]) == pytest.approx(math.sqrt(1.0 + b * b), abs=1e-6)
        neck = np.min(np.abs(c.points[np.abs(c.points[:, 0]) < 0.05, 1]))
        assert neck == pytest.approx(math.sqrt(b * b - 1.0), abs=1e-3)

    @pytest.mark.parametrize("b", [1.0, 0.5, math.nan])
    def test_cassini_without_a_neck_rejected(self, b):
        with pytest.raises(CurveConfigError, match="greater than 1"):
            cassini_curve(64, b=b)

    @pytest.mark.parametrize("resolution", [MAX_RESOLUTION + 1, 10**12])
    @pytest.mark.parametrize("builder", [circle_curve, ellipse_curve, cassini_curve, line_pair_curve])
    def test_resolution_above_the_bound_rejected(self, builder, resolution):
        with pytest.raises(CurveConfigError, match=f"above the largest, {MAX_RESOLUTION}$"):
            builder(resolution)

    def test_line_pair_avoids_origin(self):
        c = line_pair_curve(128, phi=0.3)
        assert not c.closed
        assert np.min(np.linalg.norm(c.points, axis=1)) > 0.01

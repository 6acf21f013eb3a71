"""Full-pipeline acceptance gate.

Each test prints one PASS/FAIL line (run with -s to see them) and then
asserts the stated tolerances.  The heavy fixtures — a resolution-512
circle collapse and a resolution-1024 normalized ellipse pinch, both
through the command-line entry point — are shared across the module.

Two checks are known to fall short at these settings and fail honestly
rather than being weakened: the pinch-cone structure and the rescaled
length-ratio threshold both require magnifications far beyond what the
semi-axis-3 ellipse reaches before the origin-contact stop (its waist is
still an oval at every resolvable scale; eccentricity grows only a few
percent per e-fold of zoom).  The printed lines carry the measured
values; README and the repository notes discuss the behavior.
"""
import json
import math
import os

import numpy as np
import pytest

from lagflow import analysis as ana
from lagflow.cli import main
from lagflow.flow import (
    FlowConfig,
    RadialProfile,
    RecordingConfig,
    StopConditions,
    evolve,
    make_state,
    radial_evolve,
    radial_rhs,
    step,
)
from lagflow.runio import file_sha256, load_trajectory, read_snapshot
from lagflow.scenarios import circle_curve, line_pair_curve, x_cone_curve


def _report(num, label, ok, detail):
    print(f"[{num}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")


def _grid_series(times, values, dt):
    """Map grid index -> value, keeping only records that sit exactly on
    the uniform grid (runs also record off-grid tail samples near a
    pinch, which must not shadow the grid values)."""
    out = {}
    for t, v in zip(times, values):
        key = round(t / dt)
        if abs(t - key * dt) <= 1e-9:
            out[key] = v
    return out


def _manifest(run_dir):
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        return json.load(fh)


def _mid_T(manifest):
    sing = manifest["singularity"]
    return 0.5 * (sing["t_low"] + sing["t_high"])


@pytest.fixture(scope="module")
def circle_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_circle")
    cfg = root / "config.json"
    cfg.write_text(
        json.dumps(
            {"scenario": {"name": "circle", "params": {"rho": 2.0}}, "resolution": 512}
        )
    )
    code = main(["run", "--config", str(cfg), "--out", str(root)])
    assert code == 2, "circle collapse must be detected"
    (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
    return str(run_dir)


@pytest.fixture(scope="module")
def ellipse_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acc_ellipse")
    cfg = root / "config.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": {"name": "ellipse", "params": {"a": 3.0}},
                "resolution": 1024,
                "normalize": True,
            }
        )
    )
    code = main(["run", "--config", str(cfg), "--out", str(root)])
    assert code == 2, "ellipse pinch must be detected"
    (run_dir,) = [p for p in root.iterdir() if p.is_dir()]
    return str(run_dir)


def test_circle_closed_form(circle_run):
    manifest = _manifest(circle_run)
    sing = manifest["singularity"]
    T = _mid_T(manifest)
    traj = load_trajectory(circle_run)
    worst = 0.0
    for state in traj.states:
        if state.t > 0.9:
            continue
        exact = math.sqrt(4.0 - 4.0 * state.t)
        radii = np.linalg.norm(state.curve.points, axis=1)
        worst = max(worst, float(np.max(np.abs(radii - exact)) / exact))
    point_err = math.hypot(*sing["singular_point"])
    ok = (
        0.999 <= T <= 1.001
        and point_err < 1e-3
        and worst < 1e-3
        and manifest["wall_seconds"] <= 60.0
    )
    _report(
        1,
        "circle closed form",
        ok,
        f"T={T:.6f}, point={point_err:.2e}, radius err={worst:.2e}, "
        f"wall={manifest['wall_seconds']:.1f}s",
    )
    assert 0.999 <= T <= 1.001
    assert point_err < 1e-3
    assert worst < 1e-3
    assert manifest["wall_seconds"] <= 60.0


def test_area_drainage_law(circle_run, ellipse_run):
    worst = 0.0
    for run_dir in (circle_run, ellipse_run):
        manifest = _manifest(run_dir)
        T = _mid_T(manifest)
        traj = load_trajectory(run_dir)
        t = traj.diagnostics["t"]
        area = traj.diagnostics["area"]
        keep = t <= 0.9 * T
        drift = np.abs(area[keep] - area[0] + 4.0 * math.pi * t[keep]) / area[0]
        worst = max(worst, float(drift.max()))
    ok = worst < 5e-3
    _report(2, "area drainage law", ok, f"max relative drift {worst:.2e}")
    assert worst < 5e-3


def test_ellipse_pinch_before_half(ellipse_run):
    manifest = _manifest(ellipse_run)
    T = _mid_T(manifest)
    sing = manifest["singularity"]
    first, _ = read_snapshot(os.path.join(ellipse_run, "snapshots", "snapshot_000000.json"))
    diam = first.diameter
    point_err = math.hypot(*sing["singular_point"])
    ok = (
        sing["detected"]
        and T < 0.5
        and point_err < 0.01 * diam
        and manifest["wall_seconds"] <= 600.0
    )
    _report(
        3,
        "ellipse pinch before t=1/2",
        ok,
        f"T={T:.6f}, point={point_err:.2e} (1% diam = {0.01 * diam:.3f}), "
        f"wall={manifest['wall_seconds']:.0f}s",
    )
    assert sing["detected"]
    assert T < 0.5
    assert point_err < 0.01 * diam
    assert manifest["wall_seconds"] <= 600.0


def test_pinch_cone_structure(ellipse_run):
    manifest = _manifest(ellipse_run)
    T = _mid_T(manifest)
    traj = load_trajectory(ellipse_run)
    x0 = np.asarray(manifest["singularity"]["singular_point"], dtype=float)
    (view,) = ana.rescale_flow(traj, x0, T, scales=[16.0], s=-1.0, window=10.0)
    dec = ana.cone_decomposition(view, R=1.0)
    comps = dec.components
    n = len(comps)
    spreads = [c.angle_spread for c in comps]
    dirs = [c.direction for c in comps]
    angle_gap = (
        abs(comps[0].mean_doubled_angle - comps[1].mean_doubled_angle) if n == 2 else float("nan")
    )
    dir_ok = n == 2 and all(
        min(abs(d - math.pi / 4), abs(d - 3 * math.pi / 4)) < 0.05 for d in dirs
    )
    ok = (
        n == 2
        and all(s < 0.05 for s in spreads)
        and angle_gap < 0.05
        and dir_ok
    )
    _report(
        4,
        "pinch cone structure",
        ok,
        f"{n} component(s), spreads={[f'{s:.3f}' for s in spreads]}, "
        f"directions={[f'{d:.3f}' for d in dirs]}; at sigma=16 the waist "
        "is still an oval, see README",
    )
    assert n == 2, (
        f"expected a transverse line pair, found {n} component(s); the "
        "semi-axis-3 waist has not sharpened into a cone at sigma=16"
    )
    assert all(s < 0.05 for s in spreads)
    assert angle_gap < 0.05
    assert dir_ok


def test_density_monotonicity(circle_run, ellipse_run):
    # circle: value pinned to the self-shrinker constant
    circle_traj = load_trajectory(circle_run)
    worst_dev = 0.0
    for state in circle_traj.states:
        if state.t > 0.9:
            continue
        smp = ana.gaussian_density(state.curve, (0.0, 0.0), T=1.0, t=state.t)
        worst_dev = max(worst_dev, abs(smp.value - 2 * math.pi / math.e))
    # ellipse: nonincreasing within drift tolerance at the singular point
    manifest = _manifest(ellipse_run)
    T = _mid_T(manifest)
    width = manifest["singularity"]["t_high"] - manifest["singularity"]["t_low"]
    x0 = np.asarray(manifest["singularity"]["singular_point"], dtype=float)
    traj = load_trajectory(ellipse_run)
    rep = ana.monotonicity_check(
        traj, x0, T, drift_tol=1e-3, t_max=T - 20.0 * max(width, 1e-6)
    )
    ok = worst_dev < 1e-3 and rep.passed
    _report(
        5,
        "density monotonicity",
        ok,
        f"circle |dev from 2pi/e| {worst_dev:.2e}; ellipse max increase "
        f"{rep.max_increase:.2e} over {len(rep.values)} records",
    )
    assert worst_dev < 1e-3
    assert rep.passed


def test_radial_lemma_suite(ellipse_run):
    manifest = _manifest(ellipse_run)
    T = _mid_T(manifest)
    traj = load_trajectory(ellipse_run)

    # (a) dr/dt <= 0 and (b) quadrant pattern, on every recorded profile
    # the uniform angle grid can resolve
    worst_rate = -math.inf
    worst_quad = -math.inf
    used = 0
    for state in traj.states:
        try:
            prof = ana.polar_profile(state.curve)
        except Exception:
            continue
        h = 2.0 * math.pi / len(prof.r)
        if prof.r.min() < 5.0 * h * prof.r.max():
            continue
        used += 1
        worst_rate = max(worst_rate, float(radial_rhs(prof).max()))
        worst_quad = max(worst_quad, ana.quadrant_monotonicity(prof).worst_violation)

    # (c) off-origin density ratios <= 1.55, measured at fixed base points
    # taken from the initial curve.  The bound rules out singularities away
    # from the origin, so the probes must not track the shrinking curve.
    pts0 = traj.states[0].curve.points
    probes = pts0[:: max(len(pts0) // 8, 1)][:8]
    worst_ratio = 0.0
    ratio_count = 0
    for state in traj.states:
        for probe in probes:
            delta = 0.25 * float(np.linalg.norm(probe))
            if delta <= 0.0:
                continue
            ratio = ana.local_density_ratio(state.curve, probe, delta)
            if ratio.under_resolved:
                continue
            ratio_count += 1
            worst_ratio = max(worst_ratio, ratio.value)

    # (d) rescaled ratio at the singular point
    x0 = np.asarray(manifest["singularity"]["singular_point"], dtype=float)
    (view,) = ana.rescale_flow(traj, x0, T, scales=[16.0], s=-1.0, window=10.0)
    central = ana.local_density_ratio(view.curve, (0.0, 0.0), delta=4.0)

    ok_abc = (
        used > 0
        and worst_rate <= 1e-6
        and worst_quad <= 1e-6 * 3.0
        and ratio_count > 0
        and worst_ratio <= 1.55
    )
    ok = ok_abc and central.value >= 1.9
    _report(
        6,
        "radial lemma suite",
        ok,
        f"max dr/dt {worst_rate:.2e} over {used} profiles, quadrant "
        f"violation {worst_quad:.2e}, off-origin ratio {worst_ratio:.3f} "
        f"({ratio_count} checks), central rescaled ratio {central.value:.3f} "
        "(needs >= 1.9; the oval waist tops out below that, see README)",
    )
    assert used > 0 and worst_rate <= 1e-6
    assert worst_quad <= 1e-6 * 3.0
    assert ratio_count > 0 and worst_ratio <= 1.55
    assert central.value >= 1.9, (
        f"rescaled central length ratio {central.value:.3f} < 1.9: the "
        "sigma=16 view of the semi-axis-3 pinch is still a closed oval"
    )


def test_cross_integrator_agreement(circle_run, ellipse_run):
    # circle: graph solver vs node solver through t = 0.9
    circle_traj = load_trajectory(circle_run)
    rad_traj, _ = radial_evolve(
        RadialProfile(np.full(512, 2.0)), t_end=0.9, snapshot_dt=0.02
    )
    param_min = _grid_series(
        circle_traj.diagnostics["t"], circle_traj.diagnostics["min_radius"], 0.02
    )
    worst_circle = 0.0
    matched = 0
    for prof in rad_traj.profiles:
        key = round(prof.t / 0.02)
        if abs(prof.t - key * 0.02) > 1e-9 or key not in param_min:
            continue
        matched += 1
        worst_circle = max(worst_circle, abs(float(prof.r.min()) - param_min[key]))
    assert matched >= 40

    # ellipse: through half the detected lifespan
    manifest = _manifest(ellipse_run)
    T = _mid_T(manifest)
    first, _ = read_snapshot(
        os.path.join(ellipse_run, "snapshots", "snapshot_000000.json")
    )
    snapshot_dt = 0.01
    prof0 = ana.polar_profile(first)
    rad_ell, _ = radial_evolve(prof0, t_end=0.5 * T, snapshot_dt=snapshot_dt)
    ell_traj = load_trajectory(ellipse_run)
    ell_min = _grid_series(
        ell_traj.diagnostics["t"], ell_traj.diagnostics["min_radius"], snapshot_dt
    )
    worst_ell = 0.0
    matched_ell = 0
    for prof in rad_ell.profiles:
        key = round(prof.t / snapshot_dt)
        if abs(prof.t - key * snapshot_dt) > 1e-9 or key not in ell_min:
            continue
        matched_ell += 1
        worst_ell = max(worst_ell, abs(float(prof.r.min()) - ell_min[key]))
    assert matched_ell >= 15

    ok = worst_circle < 1e-3 and worst_ell < 1e-2
    _report(
        7,
        "cross-integrator agreement",
        ok,
        f"circle min-radius gap {worst_circle:.2e} ({matched} times), "
        f"ellipse gap {worst_ell:.2e} ({matched_ell} times)",
    )
    assert worst_circle < 1e-3
    assert worst_ell < 1e-2


def test_stationarity_and_avoidance(circle_run):
    # cones: 1e4 raw steps must not move the nodes
    worst_disp = 0.0
    for fixture in (line_pair_curve(128, phi=0.3), x_cone_curve(128)):
        state = make_state(fixture)
        cfg = FlowConfig()
        for _ in range(10_000):
            state = step(state, cfg)
        worst_disp = max(
            worst_disp, float(np.max(np.abs(state.curve.points - fixture.points)))
        )

    # avoidance: the radius-3 circle must stay outside the radius-2 one
    # for the inner circle's whole recorded life, matching the closed form
    outer_state = make_state(circle_curve(256, rho=3.0))
    outer_traj, _ = evolve(
        outer_state,
        stop=StopConditions(t_end=0.98),
        recording=RecordingConfig(snapshot_dt=0.02),
    )
    inner_traj = load_trajectory(circle_run)
    outer_min = _grid_series(
        outer_traj.diagnostics["t"], outer_traj.diagnostics["min_radius"], 0.02
    )
    min_gap = math.inf
    worst_oracle = 0.0
    for t, r_in in zip(
        inner_traj.diagnostics["t"], inner_traj.diagnostics["min_radius"]
    ):
        key = round(t / 0.02)
        if abs(t - key * 0.02) > 1e-9 or key not in outer_min:
            continue
        gap = outer_min[key] - r_in
        min_gap = min(min_gap, gap)
        exact = math.sqrt(9.0 - 4.0 * t) - math.sqrt(4.0 - 4.0 * t)
        worst_oracle = max(worst_oracle, abs(gap - exact))
    ok = worst_disp < 1e-10 and min_gap > 0.0 and worst_oracle < 1e-2
    _report(
        8,
        "stationarity and avoidance",
        ok,
        f"cone displacement {worst_disp:.2e} per 1e4 steps, min circle gap "
        f"{min_gap:.3f}, oracle deviation {worst_oracle:.2e}",
    )
    assert worst_disp < 1e-10
    assert min_gap > 0.0
    assert worst_oracle < 1e-2


def test_determinism_and_convergence(tmp_path):
    # byte-identical reruns
    cfg = tmp_path / "config.json"
    cfg.write_text(
        json.dumps(
            {"scenario": {"name": "circle", "params": {"rho": 1.0}}, "resolution": 64}
        )
    )
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 2
    (run_a,) = [p for p in (tmp_path / "a").iterdir() if p.is_dir()]
    (run_b,) = [p for p in (tmp_path / "b").iterdir() if p.is_dir()]
    sha_a = file_sha256(str(run_a / "diagnostics.csv"))
    sha_b = file_sha256(str(run_b / "diagnostics.csv"))
    identical = sha_a == sha_b

    # second-order scheme: doubling resolution cuts the error >= 4x
    errors = {}
    for n in (128, 256):
        state = make_state(circle_curve(n, rho=2.0))
        traj, _ = evolve(
            state,
            config=FlowConfig(scheme="heun"),
            stop=StopConditions(t_end=0.9),
            recording=RecordingConfig(snapshot_dt=0.45),
        )
        last = traj.states[-1]
        exact = math.sqrt(4.0 - 4.0 * last.t)
        radii = np.linalg.norm(last.curve.points, axis=1)
        errors[n] = float(np.max(np.abs(radii - exact)) / exact)
    factor = errors[128] / errors[256]
    ok = identical and factor >= 4.0
    _report(
        9,
        "determinism and convergence",
        ok,
        f"reruns {'identical' if identical else 'DIFFER'}, error ratio "
        f"128->256 = {factor:.1f}x (errors {errors[128]:.2e} -> {errors[256]:.2e})",
    )
    assert identical
    assert factor >= 4.0

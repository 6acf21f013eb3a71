"""Command-line front end: configured runs, analysis passes, manifests.

Exit codes for ``run``: 0 = reached the requested end time, 2 = a
singularity trigger fired (the expected outcome for shrinking curves,
not a failure), 3 = the integrator lost the curve (non-finite values or
step underflow without a singularity bracket), 1 = malformed config.
``analyze`` exits 4 when the requested times fall outside the recorded
span.  ``verify`` exits 1 on any hash mismatch.

The output root is, in order of preference: ``--out``, the
``LAGFLOW_RUNS`` environment variable, or ``./runs``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from . import analysis as ana
from .flow import (
    FlowConfig,
    IntegrationError,
    RecordingConfig,
    StopConditions,
    Trajectory,
    TrajectoryRangeError,
    evolve,
    make_state,
    radial_rhs,
)
from .geometry import CurveConfigError, CurveError, PlaneCurve, resample
from .lagrangian import normalize
from .runio import (
    file_sha256,
    load_trajectory,
    read_manifest,
    read_snapshot,
    snapshot_name,
    write_decomposition,
    write_diagnostics_csv,
    write_manifest,
    write_snapshot,
    write_svg,
)
from .scenarios import SCENARIOS, build_scenario, scenario_table

__all__ = ["main", "ConfigError", "resolve_config", "RUNS_ENV_VAR"]

RUNS_ENV_VAR = "LAGFLOW_RUNS"


class ConfigError(Exception):
    """Malformed configuration; message names the offending field."""


_FLOW_FIELDS = {
    "safety": (float, int),
    "scheme": (str,),
    "redistribute_every": (int,),
    "dt_min": (float, int),
    "origin_contact_factor": (float, int),
    "curvature_blowup_product": (float, int),
    "enforce_antipodal": (bool, type(None)),
    "max_steps": (int,),
}
_STOP_FIELDS = {"t_end": (float, int, type(None))}
_RECORDING_FIELDS = {
    "snapshot_dt": (float, int, type(None)),
    "area_switch": (float, int),
    "tail_factor": (float, int),
}
_TOP_FIELDS = ("scenario", "resolution", "normalize", "flow", "stop", "recording")


def _take_section(raw: dict, key: str, fields: dict, defaults: dict) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be an object")
    for k, v in section.items():
        if k not in fields:
            raise ConfigError(f"unknown key '{key}.{k}'")
        if not isinstance(v, fields[k]) or isinstance(v, bool) and bool not in fields[k]:
            want = "/".join(t.__name__ for t in fields[k])
            raise ConfigError(f"'{key}.{k}' must be {want}, got {type(v).__name__}")
    out = dict(defaults)
    out.update(section)
    return out


def resolve_config(raw: dict) -> dict:
    """Materialize every default; reject unknown keys with their path."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    for k in raw:
        if k not in _TOP_FIELDS:
            raise ConfigError(f"unknown key '{k}'")
    scen = raw.get("scenario")
    if not isinstance(scen, dict):
        raise ConfigError("'scenario' must be an object with 'name' and 'params'")
    for k in scen:
        if k not in ("name", "params"):
            raise ConfigError(f"unknown key 'scenario.{k}'")
    name = scen.get("name")
    if name not in SCENARIOS:
        raise ConfigError(
            f"'scenario.name' must be one of {sorted(SCENARIOS)}, got {name!r}"
        )
    params = scen.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("'scenario.params' must be an object")
    known = SCENARIOS[name].params
    for k, v in params.items():
        if k not in known:
            raise ConfigError(f"unknown key 'scenario.params.{k}'")
        want = (str,) if isinstance(known[k], str) else (float, int)
        if not isinstance(v, want) or isinstance(v, bool):
            raise ConfigError(f"'scenario.params.{k}' has the wrong type")
    resolution = raw.get("resolution", 256)
    if not isinstance(resolution, int) or isinstance(resolution, bool) or resolution < 16:
        raise ConfigError("'resolution' must be an integer >= 16")
    norm = raw.get("normalize", False)
    if not isinstance(norm, bool):
        raise ConfigError("'normalize' must be true or false")
    flow_cfg = _take_section(raw, "flow", _FLOW_FIELDS, _defaults_of(FlowConfig))
    if flow_cfg["scheme"] not in ("euler", "heun"):
        raise ConfigError("'flow.scheme' must be 'euler' or 'heun'")
    stop_cfg = _take_section(raw, "stop", _STOP_FIELDS, _defaults_of(StopConditions))
    rec_cfg = _take_section(raw, "recording", _RECORDING_FIELDS, _defaults_of(RecordingConfig))
    return {
        "scenario": {"name": name, "params": {**known, **params}},
        "resolution": resolution,
        "normalize": norm,
        "flow": flow_cfg,
        "stop": stop_cfg,
        "recording": rec_cfg,
    }


def _defaults_of(cls) -> dict:
    return {f.name: f.default for f in cls.__dataclass_fields__.values()}


def _build_curve(resolved: dict) -> PlaneCurve:
    scen = resolved["scenario"]
    resolution = resolved["resolution"]
    if scen["name"] == "custom":
        path = scen["params"]["path"]
        if not path:
            raise ConfigError("'scenario.params.path' is required for custom scenarios")
        try:
            curve, _ = read_snapshot(path)
        except FileNotFoundError:
            raise ConfigError(f"snapshot file not found: {path}")
        except (json.JSONDecodeError, KeyError, ValueError) as exc:
            raise ConfigError(f"bad snapshot file {path}: {exc}")
        if curve.closed and curve.node_count != resolution:
            curve = resample(curve, resolution)
        elif not curve.closed and curve.node_count != resolution:
            raise ConfigError(
                "'resolution' must equal the node count for open custom curves"
            )
        return curve
    return build_scenario(scen["name"], resolution, scen["params"])


def _acceptance_checks(trajectory: Trajectory, report, resolved: dict) -> dict:
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
        defect = d["monotone_defect"]
        finite = defect[np.isfinite(defect)]
        worst_defect = float(finite.max()) if len(finite) else float("nan")
        checks["monotone_defect"] = {
            "passed": bool(len(finite)) and worst_defect < 1e-3,
            "value": worst_defect,
        }
    else:
        moved = float(
            np.max(np.linalg.norm(last.curve.points - first.curve.points, axis=1))
        )
        checks["stationary_displacement"] = {"passed": moved < 1e-10, "value": moved}
    return checks


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        print(f"config file not found: {args.config}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 1
    try:
        resolved = resolve_config(raw)
        curve = _build_curve(resolved)
        factor = 1.0
        if resolved["normalize"]:
            curve, factor = normalize(curve)
        state = make_state(curve)
        config = FlowConfig(**resolved["flow"])
        stop = StopConditions(**resolved["stop"])
        recording = RecordingConfig(**resolved["recording"])
    except (ConfigError, CurveError) as exc:
        print(f"bad config: {exc}", file=sys.stderr)
        return 1

    out_root = args.out or os.environ.get(RUNS_ENV_VAR) or "runs"
    blob = json.dumps(resolved, sort_keys=True).encode()
    run_id = f"{resolved['scenario']['name']}-r{resolved['resolution']}-{hashlib.sha256(blob).hexdigest()[:10]}"
    run_dir = os.path.join(out_root, run_id)

    started = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    t0 = time.monotonic()
    status = 0
    error_note = None
    trajectory = None
    report = None
    try:
        trajectory, report = evolve(state, config, stop, recording)
        status = 2 if report.detected else 0
    except IntegrationError as exc:
        status = 3
        error_note = str(exc)
    except CurveError as exc:
        # raised before the first step: the curve does not fit the config
        print(f"bad config: {exc}", file=sys.stderr)
        return 1
    finished = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())

    os.makedirs(os.path.join(run_dir, "snapshots"), exist_ok=True)
    manifest = {
        "scenario": raw.get("scenario", {}),
        "config": resolved,
        "normalize_factor": factor,
        "started": started,
        "finished": finished,
        "wall_seconds": time.monotonic() - t0,
        "exit_status": status,
    }
    files = {}
    if trajectory is not None:
        manifest["initial_constant"] = trajectory.initial_constant
        for k, st in enumerate(trajectory.states):
            rel = os.path.join("snapshots", snapshot_name(k))
            write_snapshot(os.path.join(run_dir, rel), st.curve, st.t)
            files[rel] = None
        write_diagnostics_csv(os.path.join(run_dir, "diagnostics.csv"), trajectory.diagnostics)
        files["diagnostics.csv"] = None
        write_svg(
            os.path.join(run_dir, "curve.svg"),
            [trajectory.states[0].curve, trajectory.states[-1].curve],
        )
        files["curve.svg"] = None
        manifest["singularity"] = {
            "detected": report.detected,
            "trigger": report.trigger,
            "t_low": report.t_low,
            "t_high": report.t_high,
            "singular_point": None
            if report.singular_point is None
            else [float(report.singular_point[0]), float(report.singular_point[1])],
            "max_curvature_at_stop": report.max_curvature_at_stop,
            "min_radius_at_stop": report.min_radius_at_stop,
        }
        manifest["acceptance"] = _acceptance_checks(trajectory, report, resolved)
    if error_note:
        manifest["error"] = error_note
    for rel in files:
        files[rel] = file_sha256(os.path.join(run_dir, rel))
    manifest["files"] = files
    write_manifest(os.path.join(run_dir, "manifest.json"), manifest)
    print(run_dir)
    if report is not None and report.detected:
        print(
            f"singularity: {report.trigger} bracketed in "
            f"[{report.t_low:.6g}, {report.t_high:.6g}]"
        )
    return status


def _detected_time(manifest: dict) -> float:
    sing = manifest.get("singularity") or {}
    if not sing.get("detected"):
        raise ConfigError("run has no detected singularity; pass --T explicitly")
    return 0.5 * (float(sing["t_low"]) + float(sing["t_high"]))


def _default_x0(manifest: dict) -> np.ndarray:
    sing = manifest.get("singularity") or {}
    pt = sing.get("singular_point")
    return np.array([0.0, 0.0]) if pt is None else np.asarray(pt, dtype=np.float64)


def _load_run(run_dir: str) -> tuple[dict, Trajectory]:
    manifest = read_manifest(os.path.join(run_dir, "manifest.json"))
    if not manifest.get("files"):
        raise FileNotFoundError("manifest lists no output files")
    return manifest, load_trajectory(run_dir)


def _cmd_analyze(args) -> int:
    try:
        manifest, trajectory = _load_run(args.run_dir)
    except FileNotFoundError as exc:
        print(f"cannot load run: {exc}", file=sys.stderr)
        return 4
    out_dir = os.path.join(args.run_dir, "analysis")
    os.makedirs(out_dir, exist_ok=True)
    try:
        if args.subcommand == "density":
            return _analyze_density(args, manifest, trajectory, out_dir)
        if args.subcommand == "rescale":
            return _analyze_rescale(args, manifest, trajectory, out_dir)
        if args.subcommand == "cones":
            return _analyze_cones(args, manifest, trajectory, out_dir)
        if args.subcommand == "spectrum":
            return _analyze_spectrum(args, manifest, trajectory, out_dir)
        return _analyze_lemmas(args, manifest, trajectory, out_dir)
    except (TrajectoryRangeError, ConfigError, ValueError) as exc:
        print(f"analysis out of range: {exc}", file=sys.stderr)
        return 4


def _analyze_density(args, manifest, trajectory, out_dir) -> int:
    T = args.T if args.T is not None else _detected_time(manifest)
    x0 = np.asarray(args.x0, dtype=np.float64) if args.x0 else _default_x0(manifest)
    rep = ana.monotonicity_check(trajectory, x0, T, drift_tol=args.drift_tol)
    path = os.path.join(out_dir, "density.csv")
    with open(path, "w") as fh:
        fh.write("t,theta\n")
        for t, v in zip(rep.times, rep.values):
            fh.write(f"{t!r},{v!r}\n")
    verdict = "pass" if rep.passed else "FAIL"
    print(f"density series -> {path}")
    print(f"monotone within +{args.drift_tol:g}: {verdict} (max increase {rep.max_increase:.3g})")
    return 0


def _analyze_rescale(args, manifest, trajectory, out_dir) -> int:
    T = args.T if args.T is not None else _detected_time(manifest)
    x0 = np.asarray(args.x0, dtype=np.float64) if args.x0 else _default_x0(manifest)
    views = ana.rescale_flow(trajectory, x0, T, args.sigma, args.s, window=args.window)
    for view in views:
        path = os.path.join(out_dir, f"rescaled_s{view.s:g}_sigma{view.sigma:g}.json")
        write_snapshot(path, view.curve, T + view.s / view.sigma**2)
        print(f"sigma={view.sigma:g} -> {path}")
    return 0


def _analyze_cones(args, manifest, trajectory, out_dir) -> int:
    T = args.T if args.T is not None else _detected_time(manifest)
    x0 = np.asarray(args.x0, dtype=np.float64) if args.x0 else _default_x0(manifest)
    for sigma in args.sigma:
        (view,) = ana.rescale_flow(
            trajectory, x0, T, [sigma], args.s, window=max(args.window, 4.0 * args.R)
        )
        decomp = ana.cone_decomposition(view, R=args.R, merge_tol=args.merge_tol)
        path = os.path.join(out_dir, f"cones_s{args.s:g}_sigma{sigma:g}.json")
        write_decomposition(path, args.s, sigma, decomp)
        dirs = ", ".join(
            f"{c.direction:.4f}" if math.isfinite(c.direction) else "closed"
            for c in decomp.components
        )
        print(f"sigma={sigma:g}: {len(decomp.components)} component(s) at [{dirs}] -> {path}")
    return 0


def _analyze_spectrum(args, manifest, trajectory, out_dir) -> int:
    t = args.t if args.t is not None else trajectory.states[-1].t
    curve = trajectory.curve_at(t)
    spec = ana.angle_spectrum(curve, bins=args.bins)
    path = os.path.join(out_dir, "spectrum.csv")
    with open(path, "w") as fh:
        fh.write("angle_lo,angle_hi,mass\n")
        for lo, hi, m in zip(spec.edges[:-1], spec.edges[1:], spec.mass):
            fh.write(f"{lo!r},{hi!r},{m!r}\n")
    print(f"spectrum ({spec.total:.6g} total mass) -> {path}")
    return 0


def _resolvable_profiles(trajectory: Trajectory):
    """Polar profiles of recorded curves whose radial dip the uniform
    angle grid can still resolve (min r not below ~5 angular spacings
    times max r); the degenerate tail is skipped."""
    out = []
    for st in trajectory.states:
        curve = st.curve
        if not curve.closed:
            continue
        try:
            prof = ana.polar_profile(curve)
        except CurveError:
            continue
        r = prof.r
        h = 2.0 * np.pi / len(r)
        if r.min() >= 5.0 * h * r.max():
            out.append((st.t, prof))
    return out


def _analyze_lemmas(args, manifest, trajectory, out_dir) -> int:
    d = trajectory.diagnostics
    results: dict[str, dict] = {}

    defect = d["monotone_defect"]
    finite = defect[np.isfinite(defect)]
    worst = float(finite.max()) if len(finite) else float("nan")
    results["monotone_defect"] = {"passed": bool(len(finite)) and worst < 1e-3, "value": worst}

    profiles = _resolvable_profiles(trajectory)
    worst_rate = -math.inf
    for _, prof in profiles:
        worst_rate = max(worst_rate, float(radial_rhs(prof).max()))
    results["radius_nonincreasing"] = {
        "passed": bool(profiles) and worst_rate <= 1e-6,
        "value": worst_rate if profiles else float("nan"),
    }

    worst_q = -math.inf
    ok_q = bool(profiles)
    for _, prof in profiles:
        rep = ana.quadrant_monotonicity(prof)
        ok_q = ok_q and rep.passed
        worst_q = max(worst_q, rep.worst_violation)
    results["quadrant_monotonicity"] = {
        "passed": ok_q,
        "value": worst_q if profiles else float("nan"),
    }

    # Fixed off-origin base points: the bound rules out singularities away
    # from the origin, so the probes must stay put while the curve moves.
    pts0 = trajectory.states[0].curve.points
    probes = pts0[:: max(len(pts0) // 8, 1)][:8]
    worst_ratio = 0.0
    count = 0
    for st in trajectory.states:
        for probe in probes:
            dist = float(np.linalg.norm(probe))
            delta = args.delta if args.delta is not None else 0.25 * dist
            if delta <= 0.0 or delta > 0.5 * dist:
                continue
            ratio = ana.local_density_ratio(st.curve, probe, delta)
            if ratio.under_resolved:
                continue
            worst_ratio = max(worst_ratio, ratio.value)
            count += 1
    results["density_ratio_bound"] = {
        "passed": (worst_ratio <= 1.55) if count else None,
        "value": worst_ratio if count else float("nan"),
    }

    path = os.path.join(out_dir, "lemmas.json")
    with open(path, "w") as fh:
        json.dump(
            {k: {"passed": v["passed"], "value": None if not math.isfinite(v["value"]) else v["value"]}
             for k, v in results.items()},
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    width = max(len(k) for k in results)
    for k, v in results.items():
        verdict = "n/a " if v["passed"] is None else ("pass" if v["passed"] else "FAIL")
        print(f"{k.ljust(width)}  {verdict}  ({v['value']:.3g})")
    print(f"lemma table -> {path}")
    return 0


def _cmd_scenarios(args) -> int:
    print(scenario_table())
    return 0


def _cmd_verify(args) -> int:
    try:
        manifest = read_manifest(os.path.join(args.run_dir, "manifest.json"))
    except FileNotFoundError:
        print(f"no manifest in {args.run_dir}", file=sys.stderr)
        return 1
    bad = 0
    for rel, expect in sorted((manifest.get("files") or {}).items()):
        path = os.path.join(args.run_dir, rel)
        if not os.path.exists(path):
            print(f"missing: {rel}")
            bad += 1
        elif file_sha256(path) != expect:
            print(f"hash mismatch: {rel}")
            bad += 1
    if bad:
        print(f"{bad} file(s) failed verification", file=sys.stderr)
        return 1
    print(f"ok: {len(manifest.get('files') or {})} file(s) verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lagflow",
        description="equivariant Lagrangian mean curvature flow laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured scenario")
    p_run.add_argument("--config", required=True, help="path to a JSON config file")
    p_run.add_argument("--out", default=None, help="output root (default: $%s or ./runs)" % RUNS_ENV_VAR)
    p_run.set_defaults(func=_cmd_run)

    p_an = sub.add_parser("analyze", help="post-process a finished run")
    p_an.add_argument("run_dir")
    p_an.add_argument(
        "subcommand",
        choices=["density", "rescale", "cones", "spectrum", "lemmas"],
    )
    p_an.add_argument("--x0", nargs=2, type=float, default=None, metavar=("X", "Y"))
    p_an.add_argument("--T", type=float, default=None, help="reference singular time")
    p_an.add_argument("--sigma", nargs="+", type=float, default=[4.0, 8.0, 16.0])
    p_an.add_argument("--s", type=float, default=-1.0, help="rescaled time, negative")
    p_an.add_argument("--R", type=float, default=1.0, help="decomposition ball radius")
    p_an.add_argument("--delta", type=float, default=None, help="density-ratio window")
    p_an.add_argument("--window", type=float, default=10.0, help="rescaling clip radius")
    p_an.add_argument("--merge-tol", type=float, default=0.15, dest="merge_tol")
    p_an.add_argument("--bins", type=int, default=36)
    p_an.add_argument("--t", type=float, default=None, help="snapshot time for spectrum")
    p_an.add_argument("--drift-tol", type=float, default=1e-3, dest="drift_tol")
    p_an.set_defaults(func=_cmd_analyze)

    p_sc = sub.add_parser("scenarios", help="describe the built-in scenarios")
    p_sc.add_argument("action", choices=["list"])
    p_sc.set_defaults(func=_cmd_scenarios)

    p_ver = sub.add_parser("verify", help="re-hash a run directory against its manifest")
    p_ver.add_argument("run_dir")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

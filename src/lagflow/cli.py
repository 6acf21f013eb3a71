"""Command-line front end: configured runs, analysis passes, manifests.

Exit codes for ``run``: 0 = reached the requested end time, 2 = a
singularity trigger fired (the expected outcome for shrinking curves,
not a failure), 3 = the integrator lost the curve (non-finite values or
step underflow without a singularity bracket), 1 = malformed config.
``analyze`` exits 4 when the requested times fall outside the recorded
span, a coordinate of the request is invalid, or a record it reads is
missing or damaged.  ``verify`` exits 1 on
any hash mismatch, and on a listed file that is missing or unreadable
(as is one that is not a regular file).

The output root is, in order of preference: ``--out``, the
``LAGFLOW_RUNS`` environment variable, or ``./runs``.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import sys
import time
import typing

import numpy as np

from . import analysis as ana
from .flow import (
    COORDINATE_SCALE,
    FlowConfig,
    IntegrationError,
    RecordingConfig,
    StopConditions,
    Trajectory,
    TrajectoryRangeError,
    check_scale,
    evolve,
    make_state,
)
from .geometry import MIN_NODES, CurveError, PlaneCurve, resample
from .lagrangian import normalize
from .runio import (
    RECORDS_FILE,
    RunLoadError,
    file_sha256,
    load_trajectory,
    read_manifest,
    read_snapshot,
    snapshot_name,
    write_csv,
    write_decomposition,
    write_diagnostics_csv,
    write_json,
    write_records,
    write_snapshot,
    write_svg,
)
from .scenarios import MAX_RESOLUTION, SCENARIOS, build_scenario, scenario_table

__all__ = ["main", "ConfigError", "resolve_config", "RUNS_ENV_VAR"]

RUNS_ENV_VAR = "LAGFLOW_RUNS"


class ConfigError(Exception):
    """Malformed configuration; message names the offending field."""


_TOP_FIELDS = ("scenario", "resolution", "normalize", "flow", "stop", "recording")


def _accepted_types(hint) -> tuple[type, ...]:
    # X | None accepts None, and float accepts int
    out: list[type] = []
    for t in typing.get_args(hint) or (hint,):
        out.append(t)
        if t is float:
            out.append(int)
    return tuple(out)


def _take_section(raw: dict, key: str, cls) -> dict:
    """The ``key`` section of the config, checked against the fields of
    the dataclass ``cls`` and completed with their defaults."""
    hints = typing.get_type_hints(cls)
    fields = {f.name: _accepted_types(hints[f.name]) for f in dataclasses.fields(cls)}
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be an object")
    for k, v in section.items():
        if k not in fields:
            raise ConfigError(f"unknown key '{key}.{k}'")
        if not isinstance(v, fields[k]) or isinstance(v, bool) and bool not in fields[k]:
            want = "/".join(t.__name__ for t in fields[k])
            raise ConfigError(f"'{key}.{k}' must be {want}, got {type(v).__name__}")
    out = {f.name: f.default for f in dataclasses.fields(cls)}
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
    if (
        not isinstance(resolution, int)
        or isinstance(resolution, bool)
        or not MIN_NODES <= resolution <= MAX_RESOLUTION
    ):
        raise ConfigError(
            f"'resolution' must be an integer from {MIN_NODES} to {MAX_RESOLUTION}"
        )
    norm = raw.get("normalize", False)
    if not isinstance(norm, bool):
        raise ConfigError("'normalize' must be true or false")
    flow_cfg = _take_section(raw, "flow", FlowConfig)
    stop_cfg = _take_section(raw, "stop", StopConditions)
    rec_cfg = _take_section(raw, "recording", RecordingConfig)
    return {
        "scenario": {"name": name, "params": {**known, **params}},
        "resolution": resolution,
        "normalize": norm,
        "flow": flow_cfg,
        "stop": stop_cfg,
        "recording": rec_cfg,
    }


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
        except (OSError, TypeError, ValueError, KeyError) as exc:
            raise ConfigError(f"bad snapshot file {path}: {exc}")
        if curve.closed and curve.node_count != resolution:
            curve = resample(curve, resolution)
        elif not curve.closed and curve.node_count != resolution:
            raise ConfigError(
                "'resolution' must equal the node count for open custom curves"
            )
        return curve
    return build_scenario(scen["name"], resolution, scen["params"])


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
            # beyond the scale, normalize's own frame would overflow
            check_scale(curve.points)
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

    # a rerun of the same config gets the same directory: replace it, so no
    # record, analysis or file of the previous run outlives its manifest
    if os.path.isdir(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(os.path.join(run_dir, "snapshots"))
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
        manifest["closed"] = trajectory.states[0].curve.closed
        for k, st in enumerate(trajectory.states):
            rel = os.path.join("snapshots", snapshot_name(k))
            write_snapshot(os.path.join(run_dir, rel), st.curve, st.t)
            files[rel] = None
        write_records(os.path.join(run_dir, RECORDS_FILE), trajectory.states)
        files[RECORDS_FILE] = None
        write_diagnostics_csv(os.path.join(run_dir, "diagnostics.csv"), trajectory.diagnostics)
        files["diagnostics.csv"] = None
        write_svg(
            os.path.join(run_dir, "curve.svg"),
            [trajectory.states[0].curve, trajectory.states[-1].curve],
        )
        files["curve.svg"] = None
        manifest["singularity"] = dataclasses.asdict(report)
        manifest["acceptance"] = ana.acceptance_checks(trajectory, report)
    if error_note:
        manifest["error"] = error_note
    for rel in files:
        files[rel] = file_sha256(os.path.join(run_dir, rel))
    manifest["files"] = files
    write_json(os.path.join(run_dir, "manifest.json"), manifest)
    print(run_dir)
    if report is not None and report.detected:
        print(
            f"singularity: {report.trigger} bracketed in "
            f"[{report.t_low:.6g}, {report.t_high:.6g}]"
        )
    return status


def _reference_point(args, manifest: dict) -> tuple[float, np.ndarray]:
    """(T, x0) from --T and --x0, else from the run's detected singularity:
    the midpoint of its bracket, and its singular point (the origin unless
    the run stopped on curvature blow-up), or the origin without one.
    Both must be finite, and x0 within flow.COORDINATE_SCALE."""
    sing = manifest.get("singularity") or {}
    T = args.T
    if T is None:
        if not sing.get("detected"):
            raise ConfigError("run has no detected singularity; pass --T explicitly")
        T = 0.5 * (float(sing["t_low"]) + float(sing["t_high"]))
    pt = args.x0 or sing.get("singular_point")
    x0 = np.array([0.0, 0.0]) if pt is None else np.asarray(pt, dtype=np.float64)
    if not math.isfinite(T):
        raise ConfigError(f"reference time T must be finite, got {T:g}")
    if not np.isfinite(x0).all():
        raise ConfigError(f"reference point x0 must be finite, got {x0[0]:g} {x0[1]:g}")
    if np.abs(x0).max() > COORDINATE_SCALE:
        raise ConfigError(
            f"reference point x0 {x0[0]:g} {x0[1]:g} is beyond the coordinate "
            f"scale {COORDINATE_SCALE:g}"
        )
    return T, x0


def _load_run(run_dir: str) -> tuple[dict, Trajectory]:
    manifest = read_manifest(os.path.join(run_dir, "manifest.json"))
    if not manifest.get("files"):
        raise RunLoadError("manifest.json: lists no output files")
    return manifest, load_trajectory(run_dir, manifest)


def _cmd_analyze(args) -> int:
    try:
        manifest, trajectory = _load_run(args.run_dir)
    except RunLoadError as exc:
        print(f"cannot load run: {exc}", file=sys.stderr)
        return 4
    out_dir = os.path.join(args.run_dir, "analysis")
    try:
        return _ANALYSES[args.subcommand](args, manifest, trajectory, out_dir)
    except RunLoadError as exc:
        # a pass reads its records on demand
        print(f"cannot load run: {exc}", file=sys.stderr)
        return 4
    except (TrajectoryRangeError, ConfigError, ValueError) as exc:
        print(f"analysis out of range: {exc}", file=sys.stderr)
        return 4


def _output(out_dir: str, name: str) -> str:
    """Path of an analysis file; the directory is made when first written to."""
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _sigma_names(args, stem: str) -> list[str]:
    """The file name of each requested sigma, in order; two sigma that
    would share a name are refused before anything is written."""
    seen: dict[str, float] = {}
    for sigma in args.sigma:
        name = f"{stem}_s{args.s:g}_sigma{sigma:g}.json"
        if name in seen:
            raise ConfigError(
                f"sigma={seen[name]!r} and sigma={sigma!r} would both write {name}"
            )
        seen[name] = sigma
    return list(seen)


def _analyze_density(args, manifest, trajectory, out_dir) -> int:
    T, x0 = _reference_point(args, manifest)
    rep = ana.monotonicity_check(trajectory, x0, T)
    path = _output(out_dir, "density.csv")
    write_csv(path, ("t", "theta"), (rep.times, rep.values))
    verdict = "n/a" if rep.passed is None else ("pass" if rep.passed else "FAIL")
    print(f"density series -> {path}")
    print(f"monotone within +{ana.DRIFT_TOL:g}: {verdict} (max increase {rep.max_increase:.3g})")
    return 0


def _analyze_rescale(args, manifest, trajectory, out_dir) -> int:
    T, x0 = _reference_point(args, manifest)
    names = _sigma_names(args, "rescaled")
    views = ana.rescale_flow(trajectory, x0, T, args.sigma, args.s)
    for name, view in zip(names, views):
        path = _output(out_dir, name)
        write_snapshot(path, view.curve, T + view.s / view.sigma**2)
        print(f"sigma={view.sigma:g} -> {path}")
    return 0


def _analyze_cones(args, manifest, trajectory, out_dir) -> int:
    T, x0 = _reference_point(args, manifest)
    names = _sigma_names(args, "cones")
    views = ana.rescale_flow(
        trajectory, x0, T, args.sigma, args.s, window=max(ana.RESCALE_WINDOW, 4.0 * args.R)
    )
    decomps = [ana.cone_decomposition(view, R=args.R) for view in views]
    for name, view, decomp in zip(names, views, decomps):
        path = _output(out_dir, name)
        write_decomposition(path, args.s, view.sigma, decomp)
        dirs = ", ".join(
            f"{c.direction:.4f}" if math.isfinite(c.direction) else "closed"
            for c in decomp.components
        )
        print(f"sigma={view.sigma:g}: {len(decomp.components)} component(s) at [{dirs}] -> {path}")
    return 0


def _analyze_spectrum(args, manifest, trajectory, out_dir) -> int:
    t = args.t if args.t is not None else trajectory.states[-1].t
    curve = trajectory.curve_at(t)
    spec = ana.angle_spectrum(curve)
    path = _output(out_dir, "spectrum.csv")
    write_csv(path, ("angle_lo", "angle_hi", "mass"), (spec.edges[:-1], spec.edges[1:], spec.mass))
    print(f"spectrum ({spec.total:.6g} total mass) -> {path}")
    return 0


def _analyze_lemmas(args, manifest, trajectory, out_dir) -> int:
    results = ana.lemma_table(trajectory)
    path = _output(out_dir, "lemmas.json")
    write_json(path, results)
    width = max(len(k) for k in results)
    for k, v in results.items():
        verdict = "n/a " if v["passed"] is None else ("pass" if v["passed"] else "FAIL")
        print(f"{k.ljust(width)}  {verdict}  ({v['value']:.3g})")
    print(f"lemma table -> {path}")
    return 0


_ANALYSES = {
    "density": _analyze_density,
    "rescale": _analyze_rescale,
    "cones": _analyze_cones,
    "spectrum": _analyze_spectrum,
    "lemmas": _analyze_lemmas,
}


def _cmd_scenarios(args) -> int:
    print(scenario_table())
    return 0


def _cmd_verify(args) -> int:
    try:
        manifest = read_manifest(os.path.join(args.run_dir, "manifest.json"))
    except RunLoadError as exc:
        print(f"cannot verify {args.run_dir}: {exc}", file=sys.stderr)
        return 1
    bad = 0
    root = os.path.join(args.run_dir, "")
    for rel, expect in sorted((manifest.get("files") or {}).items()):
        try:
            digest = file_sha256(root + rel)
        except FileNotFoundError:
            print(f"missing: {rel}")
            bad += 1
            continue
        except OSError as exc:
            print(f"unreadable: {rel} ({exc.strerror or exc})")
            bad += 1
            continue
        if digest != expect:
            print(f"hash mismatch: {rel}")
            bad += 1
    if bad:
        print(f"{bad} file(s) failed verification", file=sys.stderr)
        return 1
    print(f"ok: {len(manifest.get('files') or {})} file(s) verified")
    return 0


class _NumberToken:
    """argparse's test for a token that starts with "-" and is a value,
    not an option: every token that float() reads.  Python 3.11's own
    test takes only integers and decimals such as -0.001, so it read
    -1e-3 as an option."""

    @staticmethod
    def match(token: str) -> bool:
        try:
            float(token)
        except ValueError:
            return False
        return True


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
    p_an.add_argument("subcommand", choices=list(_ANALYSES))
    p_an.add_argument("--x0", nargs=2, type=float, default=None, metavar=("X", "Y"))
    p_an.add_argument("--T", type=float, default=None, help="reference singular time")
    p_an.add_argument("--sigma", nargs="+", type=float, default=[4.0, 8.0, 16.0])
    p_an.add_argument("--s", type=float, default=-1.0, help="rescaled time, negative")
    p_an.add_argument("--R", type=float, default=1.0, help="decomposition ball radius")
    p_an.add_argument("--t", type=float, default=None, help="snapshot time for spectrum")
    # a negative value may be written in exponent form: --x0 -1e-3 0
    p_an._negative_number_matcher = _NumberToken
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

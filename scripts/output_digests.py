#!/usr/bin/env python3
"""Digests of the outputs that a bit-identical change must leave unchanged.

Prints one line per output, ``name sha256``:

* ``circle_run``   -- ``lagflow run`` on the circle of radius 2, N=256, to
  origin contact;
* ``ellipse_run``  -- ``lagflow run`` on the normalized a=3 ellipse, N=224;
* ``cassini_run``  -- ``lagflow run`` on the normalized b=1.05 cassini oval,
  N=256, to its stop;
* ``heun_ladder``  -- ``evolve`` with the Heun scheme to t_end 0.9
  (snapshot_dt 0.02) on the radius-2 circle at N = 32, 64, 128, 256, each
  followed by ``radial_evolve`` on the constant profile at the same N;
* ``x_cone``       -- ``lagflow run`` on the x_cone fixture, N=128, to
  t_end 0.01;
* ``analysis``     -- the ``analysis/`` directory after ``analyze`` density,
  rescale, cones, spectrum and lemmas on a normalized a=3 ellipse run with
  N=128 and snapshot_dt 0.001;
* ``analysis_x0``  -- the same run's ``analysis/`` directory after
  ``analyze density --x0 0.3 -0.2``, a reference point off the origin,
  where the density takes its Bessel factor.

A ``lagflow run`` digest covers the exit status, diagnostics.csv, every
snapshot (name and bytes) and the manifest's singularity and acceptance
blocks; the manifest's timestamps and wall time are left out.  The
analysis digest covers each pass's exit status and every file of
``analysis/`` (name and bytes).  Two checkouts are compared by running the
script in each and diffing the output, or by saving one checkout's output
and passing it to ``--check`` in the other: each digest that differs from
its saved line (or has none) is printed as a mismatch, and the exit status
is 1 if there is one.

Usage, from the repository root:
    PYTHONPATH=src python scripts/output_digests.py
    PYTHONPATH=src python scripts/output_digests.py --only x_cone
    PYTHONPATH=src python scripts/output_digests.py --check saved.txt
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from lagflow import cli
from lagflow.flow import (
    FlowConfig,
    RadialProfile,
    RecordingConfig,
    StopConditions,
    evolve,
    make_state,
    radial_evolve,
    radial_rhs,
)
from lagflow.scenarios import circle_curve

ANALYZE_PASSES = (
    ("density", []),
    ("rescale", ["--sigma", "4", "8", "16"]),
    ("cones", ["--sigma", "4", "8", "16"]),
    ("spectrum", []),
    ("lemmas", []),
)


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _hash_dir(h, path: str) -> None:
    for name in sorted(os.listdir(path)):
        with open(os.path.join(path, name), "rb") as fh:
            h.update(name.encode() + fh.read())


def _run(work: str, config: dict) -> tuple[int, str | None]:
    """``lagflow run`` on ``config``; returns its exit status and run directory."""
    cfg = os.path.join(work, "config.json")
    with open(cfg, "w") as fh:
        json.dump(config, fh)
    out = os.path.join(work, "runs")
    code = _quiet_cli(["run", "--config", cfg, "--out", out])
    dirs = sorted(os.listdir(out)) if os.path.isdir(out) else []
    return code, os.path.join(out, dirs[0]) if len(dirs) == 1 else None


def _run_digest(work: str, config: dict) -> str:
    code, run_dir = _run(work, config)
    h = hashlib.sha256(f"exit {code}".encode())
    if run_dir is not None:
        with open(os.path.join(run_dir, "diagnostics.csv"), "rb") as fh:
            h.update(b"diagnostics.csv" + fh.read())
        _hash_dir(h, os.path.join(run_dir, "snapshots"))
        with open(os.path.join(run_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        for key in ("singularity", "acceptance"):
            h.update(json.dumps(manifest.get(key), sort_keys=True).encode())
    return h.hexdigest()


def circle_run(work: str) -> str:
    return _run_digest(work, {"scenario": {"name": "circle", "params": {"rho": 2.0}}, "resolution": 256})


def ellipse_run(work: str) -> str:
    return _run_digest(
        work, {"scenario": {"name": "ellipse", "params": {"a": 3.0}}, "resolution": 224, "normalize": True}
    )


def cassini_run(work: str) -> str:
    return _run_digest(
        work, {"scenario": {"name": "cassini", "params": {"b": 1.05}}, "resolution": 256, "normalize": True}
    )


def x_cone(work: str) -> str:
    return _run_digest(
        work, {"scenario": {"name": "x_cone", "params": {}}, "resolution": 128, "stop": {"t_end": 0.01}}
    )


def heun_ladder(work: str) -> str:
    h = hashlib.sha256()
    for n in (32, 64, 128, 256):
        traj, _ = evolve(
            make_state(circle_curve(n, rho=2.0)),
            FlowConfig(scheme="heun"),
            StopConditions(t_end=0.9),
            RecordingConfig(snapshot_dt=0.02),
        )
        for name in sorted(traj.diagnostics):
            h.update(name.encode() + np.ascontiguousarray(traj.diagnostics[name]).tobytes())
        h.update(traj.states[-1].curve.points.tobytes())
        rtraj, _ = radial_evolve(RadialProfile(np.full(n, 2.0)), t_end=0.9, snapshot_dt=0.02)
        for profile in rtraj.profiles:
            rate = radial_rhs(profile)
            h.update(np.float64(profile.t).tobytes() + profile.r.tobytes() + rate.tobytes())
    return h.hexdigest()


def _analysis_digest(work: str, passes) -> str:
    """The exit status of the analysis fixture run, then of each of
    ``passes`` on it, and its ``analysis/`` directory."""
    code, run_dir = _run(
        work,
        {
            "scenario": {"name": "ellipse", "params": {"a": 3.0}},
            "resolution": 128,
            "normalize": True,
            "recording": {"snapshot_dt": 0.001},
        },
    )
    h = hashlib.sha256(f"exit {code}".encode())
    if run_dir is None:
        return h.hexdigest()
    for sub, extra in passes:
        h.update(f"{sub} exit {_quiet_cli(['analyze', run_dir, sub, *extra])}".encode())
    _hash_dir(h, os.path.join(run_dir, "analysis"))
    return h.hexdigest()


def analysis(work: str) -> str:
    return _analysis_digest(work, ANALYZE_PASSES)


def analysis_x0(work: str) -> str:
    return _analysis_digest(work, [("density", ["--x0", "0.3", "-0.2"])])


DIGESTS = {
    f.__name__: f
    for f in (circle_run, ellipse_run, cassini_run, heun_ladder, x_cone, analysis, analysis_x0)
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--only", choices=sorted(DIGESTS), default=None, help="print this digest only")
    ap.add_argument(
        "--check", metavar="FILE", default=None, help="compare with a saved 'name sha256' listing"
    )
    args = ap.parse_args(argv)
    saved = None
    if args.check:
        with open(args.check) as fh:
            saved = dict(line.split() for line in fh if line.strip())
    names = [args.only] if args.only else list(DIGESTS)
    mismatches = 0
    for name in names:
        with tempfile.TemporaryDirectory() as work:
            digest = DIGESTS[name](work)
        print(f"{name} {digest}", flush=True)
        if saved is not None and saved.get(name) != digest:
            print(f"mismatch: {name} saved {saved.get(name, 'nothing')}, now {digest}")
            mismatches += 1
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())

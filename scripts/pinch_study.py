#!/usr/bin/env python3
"""Run one scenario over a resolution ladder and zoom into its pinches.

CONFIG is the JSON file that ``lagflow run`` takes.  Each rung of
--resolutions runs it in-process with its resolution overridden and
reads the run directory back.  One ladder row per rung: exit status,
stop trigger, the singular-time bracket [t_low, t_high], the r^2 fit T*
of ``flow.estimate_singular_time``, the area fraction left and the wall
time.  The ``circle`` scenario has an exact oracle, rho(t) =
sqrt(rho0^2 - 4t) with rho0 = rho * normalize_factor, so its rows also
give the worst relative radius error and the observed order between
consecutive rungs.

Then, for each rung that detected a singularity: the Gaussian density at
the singular point up to T - 2*dt (dt the record interval), and
magnified views of the pinch across --sigmas (waist, extent, cone
components, central length ratio) at s = -1 and R = 1, the defaults of
``lagflow analyze``.  --csv writes one row per rung and sigma.

Each rung leaves its run directory under the ``lagflow run`` output root
($LAGFLOW_RUNS, else ./runs), where ``lagflow analyze`` can open it.  A
bad config ends the study with exit status 1.

Usage, from the repository root:
    PYTHONPATH=src python scripts/pinch_study.py scripts/circle_ladder.json \\
        --resolutions 32 64 128 256 512
    PYTHONPATH=src python scripts/pinch_study.py scripts/ellipse_pinch.json \\
        --sigmas 4 8 16 32 64 --csv zoom.csv
"""

import argparse
import contextlib
import io
import json
import math
import os
import sys
import tempfile

import numpy as np

from lagflow import analysis as ana
from lagflow import cli
from lagflow.flow import TrajectoryRangeError, estimate_singular_time
from lagflow.geometry import CurveConfigError
from lagflow.runio import load_trajectory, read_manifest

S = -1.0  # rescaled time
R = 1.0  # decomposition ball radius
COLUMNS = ("resolution,exit,trigger,t_low,t_high,t_fit,area_left,wall_seconds,"
           "max_rel_error,order,sigma,tau,nodes,waist,extent,components,central_ratio")


def run_rung(config: dict, work: str) -> tuple[int, str | None]:
    """``lagflow run`` on ``config``: its exit status and run directory."""
    path = os.path.join(work, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["run", "--config", path])
    return code, (out.getvalue().splitlines() or [None])[0]


def zoom(trajectory, manifest: dict, sigmas) -> tuple[list[str], list[tuple]]:
    """The printed lines and the table rows of a detected pinch's study."""
    sing = manifest["singularity"]
    T = 0.5 * (sing["t_low"] + sing["t_high"])
    x0 = np.asarray(sing["singular_point"])
    t = trajectory.diagnostics["t"]
    dt = manifest["config"]["recording"]["snapshot_dt"] or t[1] - t[0]
    mono = ana.monotonicity_check(trajectory, x0, T, t_max=T - 2.0 * dt)
    lines = [
        f"\nN={manifest['config']['resolution']}: T={T:.6f}, "
        f"singular point ({x0[0]:.2e}, {x0[1]:.2e})",
        f"gaussian density: {mono.values[0]:.4f} -> {mono.values[-1]:.4f}, "
        f"max increase {mono.max_increase:.2e} "
        f"({'nonincreasing' if mono.passed else 'INCREASING'})",
        f"{'sigma':>7}  {'tau':>9}  {'nodes':>6}  {'waist':>9}  "
        f"{'extent':>9}  {'comps':>5}  {'central ratio':>13}",
    ]
    rows = []
    for sigma in sigmas:
        try:
            (view,) = ana.rescale_flow(trajectory, x0, T, scales=[sigma], s=S)
        except (TrajectoryRangeError, CurveConfigError) as exc:
            lines.append(f"{sigma:>7g}  unreachable: {exc}")
            continue
        rad = np.linalg.norm(view.curve.points, axis=1)
        ncomp = len(ana.cone_decomposition(view, R=R).components)
        ratio = ana.local_density_ratio(view.curve, (0.0, 0.0), delta=4.0)
        tau = -S / sigma**2
        lines.append(
            f"{sigma:>7g}  {tau:>9.3e}  {len(rad):>6}  {rad.min():>9.4f}  "
            f"{rad.max():>9.4f}  {ncomp:>5}  {ratio.value:>12.4f}"
            + ("*" if ratio.under_resolved else "")
        )
        rows.append((sigma, tau, len(rad), rad.min(), rad.max(), ncomp, ratio.value))
    return lines, rows


def study(manifest: dict, run_dir: str, prev, sigmas):
    """One rung: its ladder row and line, and its zoom lines and rows.
    ``prev`` is the ladder row of the rung before, or None."""
    n, code = manifest["config"]["resolution"], manifest["exit_status"]
    if code == 3:
        row = (n, code) + (None,) * 8
        return row, f"{n:>6}  {code:>4}  lost: {manifest['error']}", [], []
    trajectory = load_trajectory(run_dir)
    d, sing = trajectory.diagnostics, manifest["singularity"]
    row = (n, code, sing["trigger"], sing["t_low"], sing["t_high"],
           estimate_singular_time(d["t"], d["min_radius"]).value,
           d["area"][-1] / d["area"][0], manifest["wall_seconds"])
    line = (f"{n:>6}  {code:>4}  {sing['trigger'] or '-':>16}  {row[3]:>9.6f}  "
            f"{row[4]:>9.6f}  {row[5]:>9.6f}  {row[6]:>9.4g}  {row[7]:>7.2f}")
    scenario = manifest["config"]["scenario"]
    if scenario["name"] == "circle":
        rho0 = scenario["params"]["rho"] * manifest["normalize_factor"]
        exact = np.sqrt(rho0 * rho0 - 4.0 * d["t"])
        err = float(np.max(np.abs(d["min_radius"] - exact) / exact))
        order = math.log(prev[8] / err) / math.log(n / prev[0]) if prev and prev[8] else math.nan
        row += (err, order)
        line += f"  {err:>14.3e}  {order:>6.2f}"
    else:
        row += (None, None)
    lines, rows = zoom(trajectory, manifest, sigmas) if sing["detected"] else ([], [])
    return row, line, lines, rows


def _cell(v) -> str:
    return "" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="a `lagflow run` config file")
    ap.add_argument("--resolutions", nargs="+", type=int, default=None, metavar="N",
                    help="resolution ladder (default: the config's resolution)")
    ap.add_argument("--sigmas", nargs="+", type=float, default=[2.0, 4.0, 8.0, 16.0],
                    metavar="S")
    ap.add_argument("--csv", default=None, help="also write the study table to this file")
    args = ap.parse_args(argv)
    try:
        with open(args.config) as fh:
            base = dict(json.load(fh))
    except (OSError, ValueError, TypeError) as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return 1

    print(f"{'N':>6}  {'exit':>4}  {'trigger':>16}  {'t_low':>9}  {'t_high':>9}  "
          f"{'fit T*':>9}  {'area left':>9}  {'wall s':>7}  {'max rel error':>14}  {'order':>6}")
    table, zooms = [], []
    for n in args.resolutions or [None]:
        with tempfile.TemporaryDirectory() as work:
            code, run_dir = run_rung(base if n is None else {**base, "resolution": n}, work)
        if code == 1:
            return 1
        manifest = read_manifest(os.path.join(run_dir, "manifest.json"))
        row, line, lines, rows = study(manifest, run_dir, table[-1] if table else None, args.sigmas)
        print(line)
        zooms += lines
        table += [row + z for z in rows or [(None,) * 7]]
    for line in zooms:
        print(line)
    if zooms:
        print("(* = under-resolved window; a transverse line pair would give "
              "2 comps and ratio >= 2)")

    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(COLUMNS + "\n")
            fh.writelines(",".join(map(_cell, row)) + "\n" for row in table)
        print(f"study table -> {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""lagflow benchmark: run one workload for a fixed time and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload circle-collapse --seed 0 --seconds 20 --trace 0

Workloads: circle-collapse, ellipse-pinch, analyze-passes, oracle-ladder
(why each one is here: ``perfbench/workloads.py``).  The lagflow sources are
imported from ``src/`` of the checkout the script sits in; nothing is
installed.  A run sets up its inputs three times (``setup_s`` is the
median), then repeats the workload's timed pass until ``--seconds`` would be
exceeded, and at least once.  Every op's output is checked against the
oracles; a failed check fails the op.  Times are scaled to a reference host
by a frozen kernel run around and during every op (``workloads.SpeedProbe``).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is a separate run: it alternates untraced and traced passes,
and reports the per-layer metrics of ``perfbench/tracing.py`` instead.

Human-readable lines come first: the machine record, then each metric by
name with its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The same result, with
the machine record, is written under ``.perfbench/results/``, and a traced
run writes its spans there once, at the end.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# One closed-loop client on one thread: keep numeric libraries single-threaded.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 3

# Accuracy figures that exist on some workloads only, with their units.  They
# are printed by name, and their acceptance thresholds gate pass_ratio where
# one exists.  The bounded metrics and their units are in BENCHMARK.json.
REPORT_ONLY = {
    "t_singular_err": "t",   # |(t_low + t_high)/2 - c0/2|; c0/2 = rho^2/4 = 1 on the exact circle
    "t_bracket_width": "t",  # t_high - t_low from the manifest
    "radius_rel_err": "1",   # worst |r - sqrt(4 - 4t)| / sqrt(4 - 4t) for t <= 0.9 (exact circle)
    "observed_order": "1",   # log2 of the radius-error ratio between the two finest ladder rungs
    "radial_rel_err": "1",   # radial twin's radius error against the exact radius at the finest N
    "wall_raw_s": "s",       # wall_s as the clock read it, before scaling to the reference host
    "setup_raw_s": "s",      # setup_s as the clock read it
    "host_speed": "1",       # median over ops of REF_SECONDS / reference-kernel time: 1 on the reference host
}


def machine_record() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def import_lagflow():
    if not os.path.isfile(os.path.join(SRC, "lagflow", "__init__.py")):
        raise ImportError(f"no lagflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import lagflow
    import lagflow.cli  # noqa: F401  (loads every layer)

    if not os.path.abspath(lagflow.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lagflow was imported from {lagflow.__file__}, not from {SRC}")
    return lagflow


def per_index(ops, phase: str, attr: str) -> list[float]:
    """Sum of ``attr`` over the ops of each set-up repeat or pass."""
    sums: dict[int, float] = {}
    for op in ops:
        if op.phase == phase:
            sums[op.index] = sums.get(op.index, 0.0) + getattr(op, attr)
    return [sums[i] for i in sorted(sums)]


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, list[str]]:
    """Set up, run the timed passes, and return (result, report-only
    figures, notes)."""
    lagflow = import_lagflow()
    from tracing import Tracer
    from workloads import WORKLOADS, Context

    work = os.path.join(ROOT, ".perfbench", "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tracer = Tracer(lagflow) if trace else None
    ctx = Context(root=ROOT, work=work, seed=seed, lagflow=lagflow, tracer=tracer)
    traced_passes = []
    try:
        wl = WORKLOADS[workload](ctx)
        for k in range(SETUP_REPEATS):
            wl.setup(k, trace and k == SETUP_REPEATS - 1)
        start = time.perf_counter()
        done = 0
        while True:
            traced = trace and done % 2 == 1
            wl.run_pass(done, traced)
            traced_passes.append(traced)
            done += 1
            elapsed = time.perf_counter() - start
            # a traced run needs one untraced and one traced pass
            if done >= 1 + trace and elapsed * (done + 1) / done > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ctx.ops)
    failed = sum(1 for op in ctx.ops if op.failures)
    notes = [f"FAIL {op.phase} op '{op.kind}': {'; '.join(op.failures)}" for op in ctx.ops if op.failures]
    walls = per_index(ctx.ops, "pass", "ref_seconds")
    raw_walls = per_index(ctx.ops, "pass", "seconds")
    if trace:
        # raw times: a traced op has no speed samples during it (see Context.call)
        raw = {t: [w for w, traced in zip(raw_walls, traced_passes) if traced == t] for t in (False, True)}
        metrics = tracer.layer_metrics(raw[False], raw[True])
        notes += [f"missing: {name} (renamed or removed; its metrics are not reported)" for name in tracer.missing]
        tracer.write(os.path.join(ROOT, ".perfbench", "results", f"{workload}-seed{seed}.spans.csv.gz"))
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(per_index(ctx.ops, "setup", "ref_seconds")),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_ratio": (attempted - failed) / attempted,
        }
        for name in ("drainage_defect", "area_drift"):
            metrics[name] = ctx.accuracy.get(name)
    report = {k: v for k, v in ctx.accuracy.items() if k in REPORT_ONLY}
    report["wall_raw_s"] = statistics.median(raw_walls)
    report["setup_raw_s"] = statistics.median(per_index(ctx.ops, "setup", "seconds"))
    report["host_speed"] = statistics.median(op.scale for op in ctx.ops)
    notes.append(
        f"workload {workload} seed={seed} trace={int(trace)} passes={done} "
        f"scaled s per pass: {', '.join(f'{w:.4f}' for w in walls)}; "
        f"raw s per pass: {', '.join(f'{w:.4f}' for w in raw_walls)}"
    )
    result = {
        "correct": failed == 0 and all(v is not None for v in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, report, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    sys.path.insert(0, HERE)
    from tracing import LAYER_METRICS
    from workloads import WORKLOADS

    if args.seed < 0:
        ap.error("--seed must be a non-negative integer")
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if {m["name"] for m in spec["per_layer"]} != set(LAYER_METRICS):
        print("perfbench: per_layer in BENCHMARK.json and LAYER_METRICS in tracing.py differ", file=sys.stderr)
        return 2
    try:
        result, report_only, notes = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"perfbench: cannot import lagflow: {exc}", file=sys.stderr)
        return 2
    if not args.trace and set(result["metrics"]) != {m["name"] for m in spec["end_to_end"]}:
        print("perfbench: the metrics measured and end_to_end in BENCHMARK.json differ", file=sys.stderr)
        return 2

    machine = machine_record()
    units = {**declared, **REPORT_ONLY}
    print("machine " + " ".join(f"{k}={v}" for k, v in machine.items()))
    for note in notes:
        print(note)
    for name, value in {**result["metrics"], **report_only}.items():
        tag = "  (report only)" if name in report_only else ""
        print(f"metric {name} = {value!r} {units[name]}{tag}")
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "report_only": report_only, "machine": machine, "notes": notes}, fh, indent=2)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

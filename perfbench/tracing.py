"""Span tracer for the benchmark's traced run.

The tracer changes nothing inside ``src/``.  It replaces, for the length of
one traced op, the functions that lagflow's
modules call across layer boundaries with wrappers that record one span per
call.  A layer is a module of the package; a cross-layer call is a call made
through a name that one module imported from another (``flow`` calling
``geometry.compute_frame``).  A few functions are also replaced in their
home module, because they are reached through a module alias (``cli``
calls ``ana.polar_profile``), called by the benchmark itself, or are the
flow loop's own stages (``flow._advance``, ``flow._diagnostics_row``).

A span is ``[name, start_ns, end_ns, parent, op]``.  Spans stay in memory and
are written once, by :meth:`Tracer.write`.  A span's self time is its
duration minus the durations of its direct children; calls never overlap,
since the benchmark runs one operation at a time in one thread.
"""
from __future__ import annotations

import contextlib
import csv
import functools
import gzip
import inspect
import os
import statistics
import time

import numpy as np

LAYERS = ("geometry", "lagrangian", "flow", "analysis", "scenarios", "runio", "cli")

# Replaced in their home module as well as in every importer (see above).
HOME_PATCHED = {
    "flow": ("evolve", "radial_evolve", "velocity", "stability_dt"),
    "scenarios": ("build_scenario",),
    "cli": ("main",),
}
# Private flow stages wrapped by name.  When a refactor renames one, the
# metrics built on it are reported as missing, never as zero.
PRIVATE_STAGES = ("_advance", "_diagnostics_row")

# The analyze passes, keyed by the op kind the workload gives them.
ANALYZE_PASSES = ("density", "rescale", "cones", "spectrum", "lemmas")

# Every per-layer metric, and which end-to-end metric it should move on which
# workload.  BENCHMARK.json lists the same names, with their units.
LAYER_METRICS = {
    "flow.steps": "wall_s on circle-collapse, ellipse-pinch, oracle-ladder; setup_s on analyze-passes",
    "flow.us_per_step": "same targets as flow.steps",
    "flow.evolve_s": "same targets as flow.steps",
    "flow.velocity_s": "same targets as flow.steps (velocity + stability_dt)",
    "flow.advance_s": "same targets as flow.steps",
    "flow.redistributions": "wall_s on circle-collapse, no loss on ellipse-pinch",
    "flow.redistribution_shift": "useful work of redistribution: ~0 on circle-collapse, >0 on ellipse-pinch",
    "flow.diagnostics_row_s": "wall_s on ellipse-pinch, through its tail records",
    "flow.records": "wall_s on ellipse-pinch, through its tail records",
    "flow.self_s": "wall_s on the run workloads and oracle-ladder",
    "geometry.compute_frame_s": "same targets as flow.steps",
    "geometry.frames_per_step": "same targets as flow.steps",
    "geometry.antipodal_symmetrize_s": "same targets as flow.steps",
    "geometry.antipodal_symmetrize_per_step": "same targets as flow.steps",
    "geometry.curves_built_per_step": "wall_s on circle-collapse and ellipse-pinch",
    "geometry.diameter_calls_per_step": "wall_s on circle-collapse and ellipse-pinch",
    "geometry.resample_s": "wall_s on circle-collapse, no loss on ellipse-pinch",
    "geometry.enclosed_area_calls": "wall_s on ellipse-pinch, through its tail records",
    "geometry.self_s": "wall_s on the run workloads and oracle-ladder",
    "lagrangian.angle_s": "wall_s on ellipse-pinch, through its tail records",
    "lagrangian.monotone_data_s": "wall_s on ellipse-pinch, through its tail records",
    "lagrangian.normalize_s": "setup_s on analyze-passes, wall_s on ellipse-pinch",
    "lagrangian.self_s": "wall_s on ellipse-pinch",
    "runio.write_s": "wall_s on circle-collapse and ellipse-pinch; setup_s on analyze-passes",
    "runio.hash_s": "wall_s on circle-collapse and ellipse-pinch; setup_s on analyze-passes",
    "runio.files_written": "wall_s on circle-collapse and ellipse-pinch; setup_s on analyze-passes",
    "runio.bytes_written": "wall_s on circle-collapse and ellipse-pinch; setup_s on analyze-passes",
    "runio.load_s": "wall_s and peak_rss_mb on analyze-passes",
    "runio.loads": "wall_s and peak_rss_mb on analyze-passes",
    "runio.bytes_read": "wall_s and peak_rss_mb on analyze-passes",
    "runio.self_s": "wall_s on analyze-passes",
    "analysis.density_s": "wall_s on analyze-passes only",
    "analysis.rescale_s": "wall_s on analyze-passes only",
    "analysis.cones_s": "wall_s on analyze-passes only",
    "analysis.spectrum_s": "wall_s on analyze-passes only",
    "analysis.lemmas_s": "wall_s on analyze-passes only",
    "analysis.local_density_ratio_calls": "wall_s on analyze-passes only",
    "analysis.polar_profile_calls": "wall_s on analyze-passes only",
    "analysis.gaussian_density_calls": "wall_s on analyze-passes only",
    "analysis.self_s": "wall_s on analyze-passes only",
    "scenarios.build_s": "setup_s on every workload",
    "cli.overhead_s": "wall_s on every workload (op wall time minus its child spans)",
    "trace.coverage": "none: layer self time over traced op wall time",
    "trace.overhead": "none: traced wall_s over untraced wall_s",
}

_RUNIO_READS = ("load_trajectory", "read_snapshot", "read_manifest", "read_diagnostics_csv")
_DIAGNOSTIC_FILES = ("diagnostics.csv", "manifest.json")


class Tracer:
    """Spans and counts for one traced benchmark invocation."""

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.ops: list[dict] = []
        self.missing = [f"flow.{a}" for a in PRIVATE_STAGES if not hasattr(package.flow, a)]
        self._stack: list[int] = []
        self._op = -1
        self._counts: dict[str, int] = {}
        self._wrappers: dict[int, object] = {}
        self._shifts: list[float] = []
        self._bytes: list[tuple[int, str, int]] = []

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def op(self, kind: str, phase: str, pass_index: int = 0):
        """One benchmark operation: a root span that owns every call in it.
        The wrappers are in place only for the length of the op."""
        with self.installed():
            self._op = len(self.ops)
            self._counts = {}
            self.ops.append({"kind": kind, "phase": phase, "pass": pass_index, "counts": self._counts})
            span = ["bench.op", time.perf_counter_ns(), 0, -1, self._op]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                yield
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
                self._op = -1

    def _count(self, name: str) -> None:
        self._counts[name] = self._counts.get(name, 0) + 1

    def _wrap(self, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = self._after_hook(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0, stack[-1] if stack else -1, self._op]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, result)
            return result

        self._wrappers[key] = traced
        return traced

    def _after_hook(self, name: str):
        layer, func = name.split(".", 1)
        if name == "geometry.resample":
            return self._note_shift
        if layer == "runio" and func.startswith("write_"):
            return self._note_written
        if layer == "runio" and func in _RUNIO_READS:
            return self._note_read
        return None

    def _note_shift(self, idx, args, result) -> None:
        # only redistributions made by the flow loop measure useful work
        parent = self.spans[idx][3]
        if parent < 0 or self.spans[parent][0] != "flow.evolve":
            return
        before = args[0].points
        if result.points.shape != before.shape:
            return
        chords = np.linalg.norm(np.roll(before, -1, axis=0) - before, axis=1)
        shift = float(np.linalg.norm(result.points - before, axis=1).max())
        self._shifts.append(shift / float(chords.mean()))

    def _note_written(self, idx, args, result) -> None:
        path = str(args[0])
        # the manifest carries wall-clock timings, so its size is not a count
        if os.path.basename(path) != "manifest.json":
            self._bytes.append((self._op, "written", os.path.getsize(path)))

    def _note_read(self, idx, args, result) -> None:
        path = str(args[0])
        if self.spans[idx][0] == "runio.load_trajectory":
            snap_dir = os.path.join(path, "snapshots")
            size = sum(os.path.getsize(os.path.join(snap_dir, f)) for f in os.listdir(snap_dir))
            size += sum(os.path.getsize(os.path.join(path, f)) for f in _DIAGNOSTIC_FILES)
        else:
            size = os.path.getsize(path)
        self._bytes.append((self._op, "read", size))

    # -- installing the wrappers --------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch lagflow's modules for the length of the block."""
        package = self.package
        modules = {layer: getattr(package, layer) for layer in LAYERS}
        saved: list[tuple[object, str, object]] = []

        def patch(owner, attr, value):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if (
                    inspect.isfunction(obj)
                    and obj.__module__.startswith(package.__name__ + ".")
                    and obj.__module__ != module.__name__
                ):
                    patch(module, attr, self._wrap(obj))
        home = {layer: list(names) for layer, names in HOME_PATCHED.items()}
        home["analysis"] = [
            n for n in modules["analysis"].__all__ if inspect.isfunction(getattr(modules["analysis"], n))
        ]
        home["flow"] += [a for a in PRIVATE_STAGES if f"flow.{a}" not in self.missing]
        for layer, names in home.items():
            for attr in names:
                patch(modules[layer], attr, self._wrap(getattr(modules[layer], attr)))

        curve_cls = modules["geometry"].PlaneCurve
        post_init, diameter = curve_cls.__post_init__, curve_cls.diameter
        count = self._count

        def counted_post_init(curve):
            count("geometry.PlaneCurve")
            post_init(curve)

        def counted_diameter(curve):
            count("geometry.diameter")
            return diameter.fget(curve)

        patch(curve_cls, "__post_init__", counted_post_init)
        patch(curve_cls, "diameter", property(counted_diameter))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    # -- output -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span once, as gzip-compressed CSV."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("name", "start_ns", "end_ns", "parent", "op", "op_kind", "op_phase"))
            for name, start, end, parent, op in self.spans:
                out.writerow((name, start, end, parent, op, self.ops[op]["kind"], self.ops[op]["phase"]))

    def layer_metrics(self, untraced_walls: list[float], traced_walls: list[float]) -> dict:
        """Per-layer metrics for one set-up plus one timed pass.

        Set-up ops count once; timed-pass ops are averaged over the traced
        passes, so counts that repeat exactly stay whole numbers.
        """
        passes = max(1, len({op["pass"] for op in self.ops if op["phase"] == "pass"}))
        weight = [1.0 if op["phase"] == "setup" else 1.0 / passes for op in self.ops]
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start

        self_s: dict[str, float] = {}
        calls: dict[str, float] = {}
        total_s: dict[str, float] = {}
        layer_self = {layer: 0.0 for layer in LAYERS}
        by_pass: dict[str, float] = {p: 0.0 for p in ANALYZE_PASSES}
        covered = wall = 0.0
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            w = weight[op]
            dur = (end - start) * 1e-9
            own = dur - child[i] * 1e-9
            if name == "bench.op":
                if self.ops[op]["phase"] == "pass":
                    wall += dur
                continue
            layer = name.split(".", 1)[0]
            self_s[name] = self_s.get(name, 0.0) + w * own
            total_s[name] = total_s.get(name, 0.0) + w * dur
            calls[name] = calls.get(name, 0.0) + w
            layer_self[layer] += w * own
            if self.ops[op]["phase"] == "pass":
                covered += own
            kind = self.ops[op]["kind"]
            if layer == "analysis" and kind.startswith("analyze "):
                by_pass[kind.split()[1]] += w * own
        counts: dict[str, float] = {}
        for op, w in zip(self.ops, weight):
            for name, n in op["counts"].items():
                counts[name] = counts.get(name, 0.0) + w * n
        io = {"written": 0.0, "read": 0.0}
        for op, kind, size in self._bytes:
            io[kind] += weight[op] * size

        def s(*names):
            return sum((self_s.get(n, 0.0) for n in names), 0.0)

        def n(name):
            return calls.get(name, 0.0)

        m: dict[str, float] = {}
        evolve_s = total_s.get("flow.evolve", 0.0)
        m["flow.evolve_s"] = evolve_s
        m["flow.velocity_s"] = s("flow.velocity", "flow.stability_dt")
        m["flow.self_s"] = layer_self["flow"]
        redistributions = sum(
            weight[self.spans[i][4]]
            for i, span in enumerate(self.spans)
            if span[0] == "geometry.resample" and span[3] >= 0 and self.spans[span[3]][0] == "flow.evolve"
        )
        m["flow.redistributions"] = redistributions
        m["flow.redistribution_shift"] = statistics.median(self._shifts) if self._shifts else 0.0
        steps = None
        if "flow._advance" not in self.missing:
            steps = n("flow._advance")
            m["flow.steps"] = steps
            m["flow.us_per_step"] = 1e6 * evolve_s / steps if steps else 0.0
            m["flow.advance_s"] = s("flow._advance")
        if "flow._diagnostics_row" not in self.missing:
            m["flow.diagnostics_row_s"] = s("flow._diagnostics_row")
            m["flow.records"] = n("flow._diagnostics_row")

        def per_step(value):
            return value / steps if steps else 0.0

        m["geometry.compute_frame_s"] = s("geometry.compute_frame")
        m["geometry.antipodal_symmetrize_s"] = s("geometry.antipodal_symmetrize")
        m["geometry.resample_s"] = s("geometry.resample")
        m["geometry.enclosed_area_calls"] = n("geometry.enclosed_area")
        m["geometry.self_s"] = layer_self["geometry"]
        if steps is not None:
            m["geometry.frames_per_step"] = per_step(n("geometry.compute_frame"))
            m["geometry.antipodal_symmetrize_per_step"] = per_step(n("geometry.antipodal_symmetrize"))
            m["geometry.curves_built_per_step"] = per_step(counts.get("geometry.PlaneCurve", 0.0))
            m["geometry.diameter_calls_per_step"] = per_step(counts.get("geometry.diameter", 0.0))
        m["lagrangian.angle_s"] = s("lagrangian.lagrangian_angle")
        m["lagrangian.monotone_data_s"] = s("lagrangian.monotone_data")
        m["lagrangian.normalize_s"] = s("lagrangian.normalize")
        m["lagrangian.self_s"] = layer_self["lagrangian"]
        writes = [k for k in self_s if k.startswith("runio.write_")]
        m["runio.write_s"] = s(*writes)
        m["runio.hash_s"] = s("runio.file_sha256")
        m["runio.files_written"] = sum((n(k) for k in writes), 0.0)
        m["runio.bytes_written"] = io["written"]
        m["runio.load_s"] = s(*(f"runio.{f}" for f in _RUNIO_READS))
        m["runio.loads"] = n("runio.load_trajectory")
        m["runio.bytes_read"] = io["read"]
        m["runio.self_s"] = layer_self["runio"]
        for p in ANALYZE_PASSES:
            m[f"analysis.{p}_s"] = by_pass[p]
        for f in ("local_density_ratio", "polar_profile", "gaussian_density"):
            m[f"analysis.{f}_calls"] = n(f"analysis.{f}")
        m["analysis.self_s"] = layer_self["analysis"]
        m["scenarios.build_s"] = layer_self["scenarios"]
        m["cli.overhead_s"] = layer_self["cli"]
        m["trace.coverage"] = covered / wall if wall else 0.0
        if untraced_walls and traced_walls:
            m["trace.overhead"] = statistics.median(traced_walls) / statistics.median(untraced_walls)
        return {k: m[k] for k in LAYER_METRICS if k in m}

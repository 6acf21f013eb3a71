"""The benchmark's four workloads, their inputs and their oracle checks.

Every workload is a closed loop: one operation at a time, from this single
process, each operation starting when the previous one returned.  An
operation ("op") is one call into a public entry point of lagflow:
``lagflow.cli.main`` for ``run``, ``analyze`` and ``verify``, and
``flow.evolve`` / ``flow.radial_evolve`` on the ladder.  A pass is one
repetition of a workload's timed sequence of ops; ``wall_s`` is the sum of
its ops' scaled times (see ``SpeedProbe``), without the checks that
follow them.  Set-up is timed the same way, as ops of its own: the
fresh-interpreter import, the scenario build with config writing, and the
fixture run of ``analyze-passes``.

Why each workload is here:

* ``circle-collapse`` -- ``lagflow run`` on the circle of radius 2 to origin
  contact.  It has an exact oracle (rho(t) = sqrt(4 - 4t), collapse at
  T = 1).  Its nodes stay equidistributed, so the redistribution every 10
  steps is pure overhead, and it writes only about 120 records, so it
  isolates the per-step cost of the flow loop.
* ``ellipse-pinch`` -- ``lagflow run`` on the normalized a=3 ellipse to
  origin contact near c/2, at a second node count.  Uneven curvature makes
  redistribution do real work, and the run exercises the tail cadence and
  the c/2 cap.  A change that wins on circle-collapse by skipping
  redistribution or coarsening steps must not lose here on wall_s or
  accuracy.
* ``analyze-passes`` -- set-up runs the normalized ellipse with dense
  snapshots (``recording.snapshot_dt`` = 0.001, about 540 records); the
  timed part runs ``analyze`` density, rescale, cones, spectrum and
  lemmas, then ``verify``.  ``flow`` does no work here: ``runio`` works on
  the read side (every ``analyze`` reloads all snapshots) and the Python
  loops of ``analysis`` dominate.  It mirrors the write-side run workloads.
* ``oracle-ladder`` -- the Python API on the circle of radius 2 at N = 32,
  64, 128, 256: ``FlowConfig(scheme="heun")`` to ``t_end`` = 0.9, then
  ``radial_evolve`` on the constant profile at the same N.  Without it the
  Heun branch of ``flow._advance``, the ``t_end`` stop and
  ``flow.radial_evolve`` go unmeasured, and at small N per-call overhead,
  not array length, sets the cost.

Seed 0 runs the fixtures exactly as listed below.  Any other seed feeds the
initial curve of the three ``lagflow run`` workloads in as a ``custom``
snapshot carrying a small, deterministic, antipodally symmetric even-mode
radial perturbation; the exact-circle oracles are then skipped, and the
exit-code, drainage and determinism checks stay.  The ladder does not
depend on the seed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

import numpy as np

# Acceptance thresholds, as in tests/test_acceptance.py; never loosened here.
T_WINDOW = (0.999, 1.001)      # check 1: singular time of the radius-2 circle
POINT_TOL = 1e-3               # check 1: singular point distance from the origin
RADIUS_TOL = 1e-3              # check 1: relative radius error through t = 0.9
AREA_DRIFT_TOL = 5e-3          # check 2: relative drift from the 4*pi area law
DEFECT_TOL = 1e-3              # check 2 / manifest acceptance: drainage defect
GAP_TOL = 1e-3                 # check 7: radial-vs-parametric min-radius gap
GAP_MATCHES = 40               # check 7: grid times the comparison must cover
ORDER_RATIO = 4.0              # check 9: error ratio per doubling of N

EXIT_COLLAPSE = 2              # ``lagflow run`` exit status for a detected singularity
PERTURBATION = 1e-3            # relative amplitude of the seeded radial perturbation

# On a shared host, speed can drift by half within minutes and jump within
# seconds, for a frozen loop as much as for lagflow.  So a frozen reference
# kernel samples the host's speed around every timed op, and every
# SAMPLE_EVERY seconds during it, and the op's time is scaled to a host on
# which that kernel takes REF_SECONDS.
REF_SECONDS = 0.004
BRACKET = 5           # kernel runs before and after each op
SAMPLE_EVERY = 0.1    # seconds between kernel runs during an op
_REF_U = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
_REF_CURVE = np.column_stack([np.cos(_REF_U), np.sin(_REF_U)])


def reference_kernel() -> float:
    """Duration of a fixed mix of interpreter work and small-array NumPy
    calls, the two costs a lagflow step is made of.  Never change it: the
    scaled timings of two commits compare only under the same kernel."""
    start = time.perf_counter()
    total = 0
    for i in range(25_000):
        total += i * i
    p = _REF_CURVE.copy()
    for _ in range(35):
        d1 = np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0)
        d2 = np.roll(p, -1, axis=0) + np.roll(p, 1, axis=0) - 2.0 * p
        speed = np.linalg.norm(d1, axis=1)
        k = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]) / speed**3
        p = p + 1e-6 * k[:, None] * d2
        total += float(speed.min()) > 0.0
    return time.perf_counter() - start


class SpeedProbe:
    """Runs the reference kernel ``BRACKET`` times before and after a block
    and, if ``during``, every ``SAMPLE_EVERY`` seconds inside it, from a
    SIGALRM handler in this thread.  ``paused`` is the time the handler
    took out of the block."""

    def __init__(self, during: bool):
        self.during = during
        self.samples: list[float] = []
        self.paused = 0.0
        self._handler = None

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(reference_kernel())
        self.paused += time.perf_counter() - start

    def __enter__(self):
        self.samples += [reference_kernel() for _ in range(BRACKET)]
        if self.during:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)
        return self

    def __exit__(self, *exc) -> None:
        if self.during:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._handler)
        self.samples += [reference_kernel() for _ in range(BRACKET)]

    @property
    def scale(self) -> float:
        """Reference-host seconds per second measured."""
        return REF_SECONDS * len(self.samples) / sum(self.samples)


@dataclass
class Op:
    """One timed call: ``index`` is the set-up repeat or the pass it belongs
    to, ``seconds`` its wall time less what the speed probe took out of it,
    ``scale`` the probe's reference-host seconds per second."""

    kind: str
    phase: str
    index: int
    seconds: float = 0.0
    scale: float = 1.0
    failures: list[str] = field(default_factory=list)

    @property
    def ref_seconds(self) -> float:
        return self.seconds * self.scale


@dataclass
class Context:
    """What every workload needs: where to work, the seed, the package."""

    root: str
    work: str
    seed: int
    lagflow: object
    tracer: object = None
    ops: list[Op] = field(default_factory=list)
    accuracy: dict[str, float] = field(default_factory=dict)

    def fresh_dir(self, name: str) -> str:
        path = os.path.join(self.work, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def call(self, kind: str, phase: str, index: int, traced: bool, fn, in_process: bool = True):
        """Time one op, ``fn()``, and scale it to the reference host.  The
        speed probe samples during the op only when the op runs in this
        process untraced: a child process does not pause for the handler,
        and spans must not hold kernel time.  Returns (op, result, captured
        output); result is None when the call raised, and the op then says
        why."""
        op = Op(kind=kind, phase=phase, index=index)
        out = io.StringIO()
        scope = self.tracer.op(kind, phase, index) if traced else nullcontext()
        result = None
        probe = SpeedProbe(during=in_process and not traced)
        with probe, scope, redirect_stdout(out), redirect_stderr(out):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:  # a crashing op is a failed op, never the end of the run
                op.failures.append("raised " + traceback.format_exc(limit=3).strip().splitlines()[-1])
            op.seconds = time.perf_counter() - start - probe.paused
        op.scale = probe.scale
        self.ops.append(op)
        return op, result, out.getvalue()

    def cli(self, kind: str, phase: str, index: int, traced: bool, argv: list[str]):
        # looked up at call time, so the traced run sees the wrapped entry point
        return self.call(kind, phase, index, traced, lambda: self.lagflow.cli.main(argv))

    def import_fresh(self) -> None:
        """Import lagflow in a fresh interpreter, as every CLI user pays."""
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        subprocess.run(
            [sys.executable, "-c", "import lagflow.cli"],
            cwd=self.root, env=env, check=True, timeout=120,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )


# -- oracles -----------------------------------------------------------------


def read_diagnostics(path: str) -> dict[str, np.ndarray]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    data = np.array(rows[1:], dtype=float)
    return {name: data[:, j] for j, name in enumerate(rows[0])}


def area_drift(t: np.ndarray, area: np.ndarray, horizon: float) -> float:
    """Check 2: worst relative drift from area(t) = area(0) - 4*pi*t."""
    keep = t <= horizon
    return float(np.max(np.abs(area[keep] - area[0] + 4.0 * math.pi * (t[keep] - t[0])) / abs(area[0])))


def drainage_defect(defect: np.ndarray) -> float:
    """Largest finite drift from the linear drainage law c - 2t."""
    finite = defect[np.isfinite(defect)]
    return float(finite.max()) if len(finite) else math.inf


def circle_radius_error(times, radii, t_max: float = 0.9) -> float:
    """Worst |r - sqrt(4 - 4t)| / sqrt(4 - 4t) over records with t <= t_max."""
    worst = 0.0
    for t, r in zip(times, radii):
        if t > t_max + 1e-12:
            continue
        exact = math.sqrt(4.0 - 4.0 * t)
        worst = max(worst, float(np.max(np.abs(r - exact))) / exact)
    return worst


def on_grid(times, values, dt: float) -> dict[int, float]:
    """Grid index -> value for the records that sit exactly on the uniform
    snapshot grid (tail records near a pinch are off-grid)."""
    out = {}
    for t, v in zip(times, values):
        key = round(t / dt)
        if abs(t - key * dt) <= 1e-9:
            out[key] = v
    return out


def run_digest(run_dir: str) -> str:
    """sha256 over diagnostics.csv and the snapshot set, in order."""
    h = hashlib.sha256()
    snap_dir = os.path.join(run_dir, "snapshots")
    paths = [os.path.join(run_dir, "diagnostics.csv")]
    paths += [os.path.join(snap_dir, f) for f in sorted(os.listdir(snap_dir))]
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def only_run_dir(out_root: str) -> str | None:
    dirs = [d for d in os.listdir(out_root) if os.path.isdir(os.path.join(out_root, d))]
    return os.path.join(out_root, dirs[0]) if len(dirs) == 1 else None


def check_collapse_run(op: Op, code, run_dir: str | None, exact_circle: bool) -> dict[str, float]:
    """Oracle checks on one ``lagflow run`` to collapse.  Appends failures
    to ``op`` and returns the accuracy figures of the run."""
    if code != EXIT_COLLAPSE:
        op.failures.append(f"exit status {code}, want {EXIT_COLLAPSE}")
    if run_dir is None:
        op.failures.append("no run directory")
        return {}
    with open(os.path.join(run_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    sing = manifest.get("singularity") or {}
    if not sing.get("detected"):
        op.failures.append("no singularity detected")
        return {}
    failed = sorted(k for k, v in manifest.get("acceptance", {}).items() if not v.get("passed"))
    if failed:
        op.failures.append("manifest acceptance failed: " + ", ".join(failed))
    d = read_diagnostics(os.path.join(run_dir, "diagnostics.csv"))
    t_mid = 0.5 * (sing["t_low"] + sing["t_high"])
    acc = {
        "drainage_defect": drainage_defect(d["monotone_defect"]),
        "area_drift": area_drift(d["t"], d["area"], 0.9 * t_mid),
        "t_singular_err": abs(t_mid - 0.5 * manifest["initial_constant"]),
        "t_bracket_width": sing["t_high"] - sing["t_low"],
    }
    if not acc["area_drift"] < AREA_DRIFT_TOL:
        op.failures.append(f"check 2: area drift {acc['area_drift']:.3e} >= {AREA_DRIFT_TOL:g}")
    if exact_circle:
        snap_dir = os.path.join(run_dir, "snapshots")
        times, radii = [], []
        for name in sorted(os.listdir(snap_dir)):
            with open(os.path.join(snap_dir, name)) as fh:
                doc = json.load(fh)
            times.append(doc["t"])
            radii.append(np.linalg.norm(np.asarray(doc["points"]), axis=1))
        acc["radius_rel_err"] = circle_radius_error(times, radii)
        point_err = math.hypot(*sing["singular_point"])
        if not T_WINDOW[0] <= t_mid <= T_WINDOW[1]:
            op.failures.append(f"check 1: T = {t_mid:.6f} outside {T_WINDOW}")
        if not point_err < POINT_TOL:
            op.failures.append(f"check 1: singular point {point_err:.2e} from the origin")
        if not acc["radius_rel_err"] < RADIUS_TOL:
            op.failures.append(f"check 1: radius error {acc['radius_rel_err']:.2e}")
    return acc


# -- inputs ------------------------------------------------------------------


def perturbed_points(points: np.ndarray, seed: int) -> np.ndarray:
    """Multiply each radius by 1 + eps*cos(k*angle + phase), k even, so node
    i + N/2 stays the exact reflection of node i."""
    rng = np.random.default_rng(seed)
    k = 2 * int(rng.integers(1, 4))
    eps = PERTURBATION * rng.uniform(0.5, 1.0)
    phase = rng.uniform(0.0, 2.0 * math.pi)
    half = len(points) // 2
    first = points[:half]
    angle = np.arctan2(first[:, 1], first[:, 0])
    first = first * (1.0 + eps * np.cos(k * angle + phase))[:, None]
    return np.vstack([first, -first])


# -- workloads ---------------------------------------------------------------


class RunWorkload:
    """``lagflow run`` on one scenario to origin contact."""

    scenario = "circle"
    params = {"rho": 2.0}
    resolution = 256
    normalize = False
    recording: dict | None = None

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.config_path = os.path.join(ctx.work, "config.json")
        self.last_digest = None

    @property
    def exact_circle(self) -> bool:
        return self.scenario == "circle" and self.ctx.seed == 0

    def setup(self, repeat: int, traced: bool) -> None:
        self.ctx.call("import", "setup", repeat, False, self.ctx.import_fresh, in_process=False)
        self.ctx.call("build", "setup", repeat, traced, self.write_config)

    def write_config(self) -> None:
        ctx = self.ctx
        curve = ctx.lagflow.scenarios.build_scenario(self.scenario, self.resolution, self.params)
        config = {"resolution": self.resolution, "normalize": self.normalize}
        if ctx.seed == 0:
            config["scenario"] = {"name": self.scenario, "params": self.params}
        else:
            snapshot = os.path.join(ctx.work, "initial.json")
            pts = perturbed_points(curve.points, ctx.seed)
            with open(snapshot, "w") as fh:
                json.dump({"t": 0.0, "closed": True, "points": pts.tolist()}, fh)
            config["scenario"] = {"name": "custom", "params": {"path": snapshot}}
        if self.recording:
            config["recording"] = self.recording
        with open(self.config_path, "w") as fh:
            json.dump(config, fh)

    def collapse_op(self, kind: str, phase: str, index: int, traced: bool, name: str):
        out_root = self.ctx.fresh_dir(name)
        argv = ["run", "--config", self.config_path, "--out", out_root]
        op, code, _ = self.ctx.cli(kind, phase, index, traced, argv)
        run_dir = only_run_dir(out_root)
        acc = check_collapse_run(op, code, run_dir, self.exact_circle)
        if run_dir is not None and os.path.exists(os.path.join(run_dir, "diagnostics.csv")):
            digest = run_digest(run_dir)
            if self.last_digest is not None and digest != self.last_digest:
                op.failures.append("diagnostics.csv or snapshots differ from the previous repeat")
            self.last_digest = digest
        return op, acc, run_dir

    def run_pass(self, index: int, traced: bool) -> None:
        _, acc, _ = self.collapse_op("run", "pass", index, traced, "pass")
        self.ctx.accuracy.update(acc)
        shutil.rmtree(os.path.join(self.ctx.work, "pass"), ignore_errors=True)


class CircleCollapse(RunWorkload):
    name = "circle-collapse"


class EllipsePinch(RunWorkload):
    name = "ellipse-pinch"
    scenario = "ellipse"
    params = {"a": 3.0}
    resolution = 224
    normalize = True


class AnalyzePasses(RunWorkload):
    name = "analyze-passes"
    scenario = "ellipse"
    params = {"a": 3.0}
    resolution = 128
    normalize = True
    recording = {"snapshot_dt": 0.001}
    passes = (
        ("density", []),
        ("rescale", ["--sigma", "4", "8", "16"]),
        ("cones", ["--sigma", "4", "8", "16"]),
        ("spectrum", []),
        ("lemmas", []),
    )

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.fixture = None
        self.last_analysis = None

    def setup(self, repeat: int, traced: bool) -> None:
        super().setup(repeat, traced)
        # the fixture run is produced by the code under test, every repeat
        _, acc, run_dir = self.collapse_op("fixture run", "setup", repeat, traced, f"fixture-{repeat}")
        self.ctx.accuracy.update(acc)
        if repeat == 0:
            self.fixture = run_dir
        else:
            shutil.rmtree(os.path.join(self.ctx.work, f"fixture-{repeat}"), ignore_errors=True)

    def run_pass(self, index: int, traced: bool) -> None:
        ctx = self.ctx
        if self.fixture is None:
            ctx.ops.append(Op("analyze", "pass", index, failures=["set-up produced no fixture run"]))
            return
        run_dir = os.path.join(ctx.fresh_dir("pass"), "run")
        shutil.copytree(self.fixture, run_dir, ignore=shutil.ignore_patterns("analysis"))
        for sub, extra in self.passes:
            op, code, _ = ctx.cli(f"analyze {sub}", "pass", index, traced, ["analyze", run_dir, sub, *extra])
            if code != 0:
                op.failures.append(f"exit status {code}, want 0")
        op, code, out = ctx.cli("verify", "pass", index, traced, ["verify", run_dir])
        if code != 0 or "mismatch" in out or "missing" in out:
            op.failures.append(f"verify exit status {code}: {out.strip().splitlines()[-1:]}")
        h = hashlib.sha256()
        analysis_dir = os.path.join(run_dir, "analysis")
        for name in sorted(os.listdir(analysis_dir)) if os.path.isdir(analysis_dir) else ():
            with open(os.path.join(analysis_dir, name), "rb") as fh:
                h.update(name.encode() + fh.read())
        if self.last_analysis is not None and h.hexdigest() != self.last_analysis:
            op.failures.append("analysis outputs differ from the previous repeat")
        self.last_analysis = h.hexdigest()
        shutil.rmtree(os.path.dirname(run_dir), ignore_errors=True)


class OracleLadder:
    name = "oracle-ladder"
    rungs = (32, 64, 128, 256)
    t_end = 0.9
    snapshot_dt = 0.02

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.states = {}
        self.last_digest = None

    def setup(self, repeat: int, traced: bool) -> None:
        self.ctx.call("import", "setup", repeat, False, self.ctx.import_fresh, in_process=False)
        self.ctx.call("build", "setup", repeat, traced, self.build_states)

    def build_states(self) -> None:
        flow, scenarios = self.ctx.lagflow.flow, self.ctx.lagflow.scenarios
        self.states = {n: flow.make_state(scenarios.build_scenario("circle", n, {"rho": 2.0})) for n in self.rungs}

    def run_pass(self, index: int, traced: bool) -> None:
        ctx = self.ctx
        flow = ctx.lagflow.flow
        config = flow.FlowConfig(scheme="heun")
        stop = flow.StopConditions(t_end=self.t_end)
        recording = flow.RecordingConfig(snapshot_dt=self.snapshot_dt)
        h = hashlib.sha256()
        errors = []
        for n in self.rungs:
            op, out, _ = ctx.call(
                f"evolve N={n}", "pass", index, traced,
                lambda: ctx.lagflow.flow.evolve(self.states[n], config, stop, recording),
            )
            if out is None:
                return
            traj, report = out
            d = traj.diagnostics
            last = traj.states[-1]
            if report.detected or abs(last.t - self.t_end) > 1e-9:
                op.failures.append(f"stopped at t={last.t!r} ({report.trigger}), want t_end={self.t_end}")
            err = circle_radius_error(
                [s.t for s in traj.states], [np.linalg.norm(s.curve.points, axis=1) for s in traj.states]
            )
            drift = area_drift(d["t"], d["area"], self.t_end)
            defect = drainage_defect(d["monotone_defect"])
            if not drift < AREA_DRIFT_TOL:
                op.failures.append(f"check 2: area drift {drift:.3e}")
            if not defect < DEFECT_TOL:
                op.failures.append(f"drainage defect {defect:.3e}")
            if errors and not errors[-1] / err >= ORDER_RATIO:
                op.failures.append(f"check 9: error ratio {errors[-1] / err:.2f} < {ORDER_RATIO:g}")
            errors.append(err)
            for name in sorted(d):
                h.update(np.ascontiguousarray(d[name]).tobytes())
            h.update(last.curve.points.tobytes())

            profile = flow.RadialProfile(np.full(n, 2.0))
            rop, rout, _ = ctx.call(
                f"radial_evolve N={n}", "pass", index, traced,
                lambda: ctx.lagflow.flow.radial_evolve(profile, t_end=self.t_end, snapshot_dt=self.snapshot_dt),
            )
            if rout is None:
                return
            rtraj, _ = rout
            h.update(rtraj.profiles[-1].r.tobytes())
        # accuracy of the finest rung
        if not errors[-1] < RADIUS_TOL:
            op.failures.append(f"check 1: radius error {errors[-1]:.2e}")
        radial_err = circle_radius_error([p.t for p in rtraj.profiles], [p.r for p in rtraj.profiles])
        param_min = on_grid(d["t"], d["min_radius"], self.snapshot_dt)
        radial_min = on_grid([p.t for p in rtraj.profiles], [p.r.min() for p in rtraj.profiles], self.snapshot_dt)
        gaps = [abs(float(r) - param_min[k]) for k, r in radial_min.items() if k in param_min]
        if len(gaps) < GAP_MATCHES or not max(gaps) < GAP_TOL:
            rop.failures.append(f"check 7: gap {max(gaps, default=math.inf):.2e} over {len(gaps)} times")
        digest = h.hexdigest()
        if self.last_digest is not None and digest != self.last_digest:
            rop.failures.append("ladder diagnostics differ from the previous repeat")
        self.last_digest = digest
        ctx.accuracy.update(
            drainage_defect=defect,
            area_drift=drift,
            radius_rel_err=errors[-1],
            observed_order=math.log2(errors[-2] / errors[-1]),
            radial_rel_err=radial_err,
        )


WORKLOADS = {w.name: w for w in (CircleCollapse, EllipsePinch, AnalyzePasses, OracleLadder)}

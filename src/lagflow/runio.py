"""Run artifacts: snapshot JSON, diagnostics CSV, manifests, SVG.

All writers are deterministic byte-for-byte given the same inputs:
floats are serialized with Python's shortest round-trip repr (which
preserves the full binary value, i.e. more than 15 significant digits
whenever they matter), dict keys are sorted, and no timestamps enter
the diagnostics or snapshot files.

A run directory holds one snapshot file per diagnostics row: snapshot k
is row k, at the same time t.  It also holds ``records.npy``, every
record's nodes as one float64 (K, N, 2) array in record order, listed
with its sha256 in the manifest's ``files`` like every other output.
``load_trajectory`` reads diagnostics.csv once and hashes those bytes;
when they hash to the manifest's value it parses the ``t`` column up
front and every other column when a pass first reads it, and otherwise
every column up front.  It reads the rows of records.npy up front, all
of them into one array with one read, hashed there, and each record only
when a pass first asks for it.  Record k comes from ``records.npy`` when
that array, diagnostics.csv and snapshot k all hash to the manifest's
values, without parsing the snapshot; otherwise from the snapshot's
JSON.  Snapshot k is hashed at most once per load.  The block passes of
``analysis`` take runs of such records as slabs, views of the rows with
no FlowState each (``Trajectory`` documents the ``slab`` method); every
other record goes per record, parsed.  The JSON snapshots stay the
human-readable record, the one that a ``custom`` scenario reads, and
``verify`` stays the integrity check.

Every run file is read through one opener, ``_open_run_file``, which
refuses at once a file that is not regular: a FIFO would wait for a
writer, and a device may never end.
"""
from __future__ import annotations

import errno
import hashlib
import json
import math
import os
import stat
from collections.abc import Sequence
from typing import Iterable, Mapping

import numpy as np

from .flow import DIAGNOSTIC_COLUMNS, FlowState, Trajectory
from .geometry import PlaneCurve

RECORDS_FILE = "records.npy"

__all__ = [
    "write_snapshot",
    "read_snapshot",
    "write_records",
    "write_csv",
    "write_diagnostics_csv",
    "read_diagnostics_csv",
    "Diagnostics",
    "write_json",
    "read_manifest",
    "write_decomposition",
    "write_svg",
    "file_sha256",
    "load_trajectory",
    "RunLoadError",
    "snapshot_name",
    "RECORDS_FILE",
]


def write_snapshot(path: str, curve: PlaneCurve, t: float) -> None:
    doc = {"t": float(t), "closed": bool(curve.closed), "points": curve.points.tolist()}
    # json.dumps runs the C encoder (json.dump to a file does not); the
    # bytes are the same
    with open(path, "w") as fh:
        fh.write(json.dumps(doc) + "\n")


def read_snapshot(path: str) -> tuple[PlaneCurve, float]:
    """The curve and time of the snapshot at ``path``.  A ``closed`` that
    is not a JSON boolean, or a ``t`` that is not a number, raises
    ValueError naming the field."""
    with open(_open_run_file(path)) as fh:
        doc = json.load(fh)
    pts = np.asarray(doc["points"], dtype=np.float64)
    closed = doc["closed"]
    if not isinstance(closed, bool):
        raise ValueError("'closed' is not true or false")
    curve = PlaneCurve(pts, closed=closed)
    t = doc["t"]
    if not _is_number(t):
        raise ValueError("'t' is not a number")
    return curve, float(t)


def write_records(path: str, states: Sequence[FlowState]) -> None:
    """Every state's nodes as one float64 (K, N, 2) array, in order, in
    the .npy format that ``np.save`` writes (the same bytes), written a
    record at a time, so no copy of the whole array is made."""
    first = states[0].curve.points
    header = {
        "descr": np.lib.format.dtype_to_descr(first.dtype),
        "fortran_order": False,
        "shape": (len(states), *first.shape),
    }
    with open(path, "wb") as fh:
        np.lib.format.write_array_header_1_0(fh, header)
        for st in states:
            fh.write(st.curve.points.tobytes())


def write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """A header line, then one row per index of the equal-length
    ``columns``, each value written as repr(float(x))."""
    cols = [np.asarray(c, dtype=np.float64) for c in columns]
    lines = [",".join(header)]
    for i in range(len(cols[0])):
        lines.append(",".join(repr(float(c[i])) for c in cols))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_diagnostics_csv(path: str, diagnostics: Mapping[str, np.ndarray]) -> None:
    write_csv(path, DIAGNOSTIC_COLUMNS, [diagnostics[name] for name in DIAGNOSTIC_COLUMNS])


def read_diagnostics_csv(path: str, sha256: str | None = None) -> Diagnostics:
    """The columns of the diagnostics CSV at ``path``, by header name.

    The file is read once and its bytes hashed; ``sha256`` of the result
    is that digest.  When it equals ``sha256`` the bytes are the file that
    was listed under it, and each column is parsed the first time it is
    read; otherwise (or with no ``sha256``) every column is parsed here.
    Blank lines are skipped.  A value that does not parse, or a row
    without a field of the column, raises
    RunLoadError("<file name>: ...") when its column is parsed."""
    fd = _open_run_file(path)
    with open(fd, "rb", buffering=0) as fh:
        data = fh.readall()
    digest = hashlib.sha256(data).hexdigest()
    head, _, body = data.decode().partition("\n")
    rows = [line for raw in body.splitlines() if (line := raw.strip())]
    diagnostics = Diagnostics(os.path.basename(path), head.strip().split(","), rows, digest)
    if digest != sha256:
        # bytes that no manifest vouches for are parsed, and refused, here
        diagnostics._parse(list(diagnostics))
    return diagnostics


class Diagnostics(Mapping[str, np.ndarray]):
    """The read-only columns of a diagnostics CSV (see
    :func:`read_diagnostics_csv`), each a read-only float64 array parsed
    from the file's lines when first read and then kept; the lines are
    dropped once every column is parsed."""

    def __init__(self, name: str, header: list[str], rows: list[str], sha256: str):
        self._name = name
        self._index = {column: j for j, column in enumerate(header)}
        self._width = len(header)
        self._rows: list[str] | None = rows
        self._columns: dict[str, np.ndarray] = {}
        self.sha256 = sha256

    def __getitem__(self, column: str) -> np.ndarray:
        try:
            return self._columns[column]
        except KeyError:
            self._parse([column])
        return self._columns[column]

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def _parse(self, columns: list[str]) -> None:
        """Parse the header's ``columns`` together, and keep them."""
        index = [self._index[column] for column in columns]
        try:
            values = _parse_columns(self._rows, index, self._width)
        except ValueError as exc:
            raise RunLoadError(f"{self._name}: {exc}") from exc
        for column, array in zip(columns, values):
            array.setflags(write=False)
            self._columns[column] = array
        if len(self._columns) == len(self._index):
            self._rows = None


def _parse_columns(rows: list[str], index: list[int], width: int) -> list[np.ndarray]:
    """Fields ``index`` of every comma-separated row, a float64 array per
    field: the floats that np.asarray makes of the strings.  Each row is
    split once, up to the last field asked for; the last of ``width``
    columns takes the rest of its row, so a row with a field too many does
    not parse."""
    last = max(index)
    cut = last + 1 if last + 1 < width else last
    split = [row.split(",", cut) for row in rows]
    try:
        return [np.asarray([fields[j] for fields in split], dtype=np.float64) for j in index]
    except IndexError:
        k = next(k for k, fields in enumerate(split) if len(fields) <= last)
        raise ValueError(f"row {k} has {len(split[k])} field(s), the header {width}") from None


def _json_safe(obj):
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    return obj


def write_json(path: str, doc) -> None:
    """``doc`` as JSON with sorted keys and indent 2, nan and inf written
    as null (JSON has neither), and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(_json_safe(doc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path: str) -> dict:
    """The manifest at ``path``; one that is missing, unreadable, does not
    parse, is not a JSON object or has a field of the wrong type raises
    RunLoadError("manifest.json: ...")."""
    name = os.path.basename(path)
    try:
        with open(_open_run_file(path)) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:
        raise RunLoadError(f"{name}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise RunLoadError(f"{name}: not a JSON object")
    fault = _manifest_fault(manifest)
    if fault is not None:
        raise RunLoadError(f"{name}: {fault}")
    return manifest


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _manifest_fault(manifest: dict) -> str | None:
    """The first field that ``verify`` or ``analyze`` reads and that has the
    wrong type, described, or None.  Each field may be absent or null,
    except the bracket ends of a detected singularity."""
    files = manifest.get("files")
    if files is not None and not isinstance(files, dict):
        return "'files' is not an object"
    closed = manifest.get("closed")
    if closed is not None and not isinstance(closed, bool):
        return "'closed' is not true or false"
    c = manifest.get("initial_constant")
    if c is not None and not _is_number(c):
        return "'initial_constant' is not a number"
    sing = manifest.get("singularity")
    if sing is None:
        return None
    if not isinstance(sing, dict):
        return "'singularity' is not an object"
    if sing.get("detected"):
        for key in ("t_low", "t_high"):
            if not _is_number(sing.get(key)):
                return f"'singularity.{key}' is not a number"
    point = sing.get("singular_point")
    if point is not None and not (
        isinstance(point, list) and len(point) == 2 and all(map(_is_number, point))
    ):
        return "'singularity.singular_point' is not a pair of numbers"
    return None


def write_decomposition(path: str, s: float, sigma: float, decomposition) -> None:
    components = [
        {
            "direction": comp.direction,
            "doubled_angle": [comp.mean_doubled_angle.real, comp.mean_doubled_angle.imag],
            "spread": comp.angle_spread,
            "mass": comp.mass,
            "residual": comp.residual,
        }
        for comp in decomposition.components
    ]
    write_json(path, {"s": float(s), "sigma": float(sigma), "components": components})


def write_svg(path: str, curves: Iterable[PlaneCurve]) -> None:
    """Origin-centered sketch of one or more curves, its half-width 1.2
    times the largest node radius.

    Convenience output only; earlier curves are drawn fainter.
    """
    curves = list(curves)
    half_extent = 1.2 * max(float(np.max(np.linalg.norm(c.points, axis=1))) for c in curves)
    size = 640
    scale = size / (2.0 * half_extent)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<line x1="0" y1="{size/2}" x2="{size}" y2="{size/2}" stroke="#ddd"/>',
        f'<line x1="{size/2}" y1="0" x2="{size/2}" y2="{size}" stroke="#ddd"/>',
    ]
    n = len(curves)
    for k, curve in enumerate(curves):
        shade = "#1b6ca8" if k == n - 1 else "#a8c6dd"
        xs = size / 2 + curve.points[:, 0] * scale
        ys = size / 2 - curve.points[:, 1] * scale
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        tag = "polygon" if curve.closed else "polyline"
        parts.append(f'<{tag} points="{coords}" fill="none" stroke="{shade}"/>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def _open_run_file(path: str) -> int:
    """A read-only descriptor of the regular file at ``path``, the one way
    this module opens a run file for reading.  The open does not block,
    so a FIFO is refused at once instead of waiting for a writer: a
    directory raises IsADirectoryError, and any other file that is not
    regular (a FIFO, a device, a socket) OSError("not a regular file")."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mode = os.fstat(fd).st_mode
    except BaseException:
        os.close(fd)
        raise
    if stat.S_ISREG(mode):
        return fd
    os.close(fd)
    if stat.S_ISDIR(mode):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    raise OSError("not a regular file")


def file_sha256(path: str) -> str:
    """The sha256 hex digest of the regular file at ``path``.  A path that
    is not a regular file raises OSError at once (see _open_run_file):
    hashing a FIFO or a device would wait for a writer or never end."""
    fd = _open_run_file(path)
    try:
        h = hashlib.sha256()
        # a read of a regular file comes back short only at its end
        while True:
            chunk = os.read(fd, 1 << 16)
            h.update(chunk)
            if len(chunk) < 1 << 16:
                return h.hexdigest()
    finally:
        os.close(fd)


def snapshot_name(index: int) -> str:
    return f"snapshot_{index:06d}.json"


class RunLoadError(Exception):
    """A run directory whose records cannot be read back.  The message
    starts with the path of the file at fault, relative to the run."""


class _SnapshotStates(Sequence[FlowState]):
    """The records of a run directory as a Sequence[FlowState].

    Record k is served by ``nodes[k]``, row k of the verified records.npy
    (``nodes`` is None without one), when snapshot k's bytes hash to
    ``hashes``'s value; each snapshot is hashed at most once, when its
    record is first asked for, and the result is kept.  Indexing builds
    record k's FlowState on first access and keeps it.  :meth:`slab`
    hands a run of served records to the block passes as a view of the
    rows, with no FlowState; a record goes per record, through indexing,
    when its snapshot does not verify or the run has no verified
    records.npy, and is then parsed from its snapshot and checked against
    diagnostics row k's time.
    """

    def __init__(
        self,
        run_dir: str,
        times: np.ndarray,
        initial_constant: float,
        nodes: np.ndarray | None,
        closed: bool | None,
        hashes: Mapping[str, str],
    ):
        # snapshot k is at self._dir + snapshot_name(k), listed in the
        # manifest as self._rel + snapshot_name(k)
        self._rel = os.path.join("snapshots", "")
        self._dir = os.path.join(run_dir, self._rel)
        self._times = times
        self._c = initial_constant
        self._nodes = nodes
        self._closed = closed
        self._hashes = hashes
        self._served: list[bool | None] = [None] * len(times)
        self._states: list[FlowState | None] = [None] * len(times)

    def __len__(self) -> int:
        return len(self._states)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[k] for k in range(*index.indices(len(self)))]
        k = range(len(self))[index]
        if self._states[k] is None:
            self._states[k] = self._read(k)
        return self._states[k]

    def slab(self, start: int) -> tuple[np.ndarray, np.ndarray, bool] | None:
        """Records ``start`` onwards, up to the first that records.npy does
        not serve, as (t, nodes, closed): their times (B,) from
        diagnostics.csv, their nodes as a read-only (B, N, 2) view of the
        verified rows, and the manifest's ``closed``; None when record
        ``start`` is not served.  The rows are the floats indexing gives,
        unchecked: a row that PlaneCurve would refuse raises only when
        indexed."""
        end = start
        while end < len(self) and self._serves(end):
            end += 1
        if end == start:
            return None
        return self._times[start:end], self._nodes[start:end], self._closed

    def _serves(self, k: int) -> bool:
        # whether row k of records.npy is record k: snapshot k hashes to
        # the manifest's value, checked once
        if self._nodes is None:
            return False
        if self._served[k] is None:
            name = snapshot_name(k)
            digest = _sha256_or_none(self._dir + name)
            self._served[k] = digest == self._hashes.get(self._rel + name)
        return self._served[k]

    def _read(self, k: int) -> FlowState:
        if self._serves(k):
            curve = PlaneCurve(self._nodes[k], closed=self._closed)
            t = float(self._times[k])
            return FlowState(curve=curve, t=t, initial_constant=self._c, step_index=k)
        name = snapshot_name(k)
        rel = self._rel + name
        try:
            curve, t = read_snapshot(self._dir + name)
        except KeyError as exc:
            raise RunLoadError(f"{rel}: no {exc} entry") from exc
        except (OSError, TypeError, ValueError) as exc:
            raise RunLoadError(f"{rel}: {exc}") from exc
        if t != self._times[k]:
            raise RunLoadError(
                f"{rel}: t={t!r} differs from diagnostics row {k} (t={float(self._times[k])!r})"
            )
        return FlowState(curve=curve, t=t, initial_constant=self._c, step_index=k)


def _sha256_or_none(path: str) -> str | None:
    try:
        return file_sha256(path)
    except OSError:
        return None


def _verified_records(
    run_dir: str, manifest: dict, count: int, diagnostics_sha256: str
) -> np.ndarray | None:
    """Every record's nodes from records.npy, as one read-only float64
    (count, N, 2) array, when the manifest lists the file and a boolean
    ``closed``, diagnostics.csv (whose digest the caller has taken, as
    ``diagnostics_sha256``) and records.npy hash to the manifest's
    values, and the array is a C-order float64 (count, N, 2); else None.
    The rows are read into the array in one read and hashed there, so the
    file's bytes are held once."""
    files = manifest.get("files") or {}
    if not isinstance(manifest.get("closed"), bool) or RECORDS_FILE not in files:
        return None
    if diagnostics_sha256 != files.get("diagnostics.csv"):
        return None
    try:
        fd = _open_run_file(os.path.join(run_dir, RECORDS_FILE))
        with open(fd, "rb", buffering=0) as fh:
            if np.lib.format.read_magic(fh) != (1, 0):
                return None
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if fortran_order or dtype != np.float64 or len(shape) != 3:
                return None
            if (shape[0], shape[2]) != (count, 2):
                return None
            header = fh.tell()
            size = count * 16 * shape[1]
            # a file cut short of its header's shape (whose hash matches only
            # an edited manifest) is refused before the array is allocated
            if os.fstat(fd).st_size < header + size:
                return None
            digest = hashlib.sha256(os.pread(fd, header, 0))
            nodes = np.empty(shape)
            # one read fills the rows of a file under 2 GiB, where Linux
            # caps a read; a larger one takes more, and one cut short fails
            rows, done = memoryview(nodes).cast("B"), 0
            while done < size:
                got = fh.readinto(rows[done:])
                if not got:
                    return None
                done += got
            digest.update(rows)
            digest.update(fh.read())
    except (OSError, ValueError):
        return None
    if digest.hexdigest() != files[RECORDS_FILE]:
        return None
    nodes.setflags(write=False)
    return nodes


def load_trajectory(run_dir: str, manifest: dict | None = None) -> Trajectory:
    """Rebuild a Trajectory from a run directory.

    The manifest (unless the caller has read it with ``read_manifest`` and
    passes it), diagnostics.csv and the snapshot file list are read here;
    the records are read on demand (see ``Trajectory.states``).
    diagnostics.csv is read once and hashed; when it hashes to the
    manifest's value its ``t`` column is parsed here and every other
    column when a pass first reads it (``Trajectory.diagnostics`` is then
    a read-only Mapping), and otherwise every column is parsed here.
    When the manifest lists records.npy and a boolean ``closed``, and
    records.npy (read and hashed here, once) and diagnostics.csv hash to
    the manifest's values, record k is row k of that array whenever
    snapshot k's bytes hash to the manifest's value: the snapshot is read
    and hashed once, and not parsed, t is diagnostics row k's and
    ``closed`` the manifest's.  Such records are served by indexing and,
    as slabs of rows, by ``states.slab``.  In every other case snapshot k
    is parsed, as for a run without records.npy; both give the same
    state.  A diagnostics.csv without a row, or a snapshot list that is
    not snapshot_000000.json onwards, one file per diagnostics row, raises
    RunLoadError, and so does a parsed snapshot that cannot be read or
    whose t is not its row's, when it is read, and a diagnostics column
    that does not parse, when it is parsed.  Record k's state has
    step_index k, not a step count, which snapshots do not store.
    """
    if manifest is None:
        manifest = read_manifest(os.path.join(run_dir, "manifest.json"))
    c = manifest.get("initial_constant")
    c = float("nan") if c is None else float(c)
    files = manifest.get("files") or {}
    try:
        diagnostics = read_diagnostics_csv(
            os.path.join(run_dir, "diagnostics.csv"), files.get("diagnostics.csv")
        )
        times = diagnostics["t"]
    except KeyError as exc:
        raise RunLoadError(f"diagnostics.csv: no {exc} column") from exc
    except (OSError, ValueError) as exc:
        raise RunLoadError(f"diagnostics.csv: {exc}") from exc
    if len(times) == 0:
        raise RunLoadError("diagnostics.csv: no records")
    try:
        names = {f for f in os.listdir(os.path.join(run_dir, "snapshots")) if f.endswith(".json")}
    except OSError as exc:
        raise RunLoadError(f"snapshots: {exc}") from exc
    expected = [snapshot_name(k) for k in range(len(times))]
    missing = [name for name in expected if name not in names]
    extra = sorted(names.difference(expected))
    if missing or extra:
        name, fault = (missing[0], "missing") if missing else (extra[0], "unexpected")
        raise RunLoadError(
            f"{os.path.join('snapshots', name)}: {fault}; {len(names)} snapshot file(s) "
            f"against {len(times)} diagnostics row(s)"
        )
    states = _SnapshotStates(
        run_dir,
        times,
        c,
        _verified_records(run_dir, manifest, len(times), diagnostics.sha256),
        manifest.get("closed"),
        files,
    )
    return Trajectory(states=states, diagnostics=diagnostics, initial_constant=c)

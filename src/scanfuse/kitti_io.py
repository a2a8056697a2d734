"""Bit-exact readers and writers for SemanticKITTI-format sequences.

On-disk formats:
  scans    ``NNNNNN.bin``   packed little-endian float32, 4 per point (x, y, z, remission)
  labels   ``NNNNNN.label`` packed little-endian uint32, low 16 bits semantic, high 16 instance
  poses    ``poses.txt``    12 decimals per line, row-major 3x4, left-camera frame
  calib    ``calib.txt``    line starting ``Tr:`` holds the 3x4 velodyne-to-camera transform

A parsed scan keeps the file's float32 records: its ``points`` and
``remission`` are read-only column views of the bytes it was parsed from. A
scan loaded through ``read_file`` is a view of the file's read-only mapping,
so it takes no heap memory; files are only ever replaced, never rewritten in
place (``write_file``), so a loaded scan keeps its bytes. Code that
computes on coordinates widens the rows it gathers to float64 (exact for
float32), so results do not depend on whether a cloud came from disk or was
built in float64. Writers quantize back to the 32-bit disk format. Labels
stay in the raw SemanticKITTI class-ID space; ``toynet.remap_semantic``
maps them to train IDs (see ``parse_class_map``).
"""

from __future__ import annotations

import mmap
import os
import stat
from collections.abc import Callable, Collection, Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

import numpy as np

from .errors import (
    InvalidConfig,
    MalformedCalib,
    MalformedLabel,
    MalformedPose,
    MalformedScan,
    ScanFuseError,
)
from .geometry import RigidTransform, compose, invert

SCAN_RECORD_BYTES = 16  # 4 float32 per point
LABEL_RECORD_BYTES = 4  # 1 uint32 per point

# Raw SemanticKITTI class IDs for the classes fused by default: bicycle,
# motorcycle, truck, other-vehicle, person, bicyclist, motorcyclist,
# traffic-sign.
DEFAULT_HARD_CLASSES = frozenset({11, 15, 18, 20, 30, 31, 32, 81})

T = TypeVar("T")
R = TypeVar("R", bound="_RowRecord")

# What ``write_file`` writes whole rather than as a stream of chunks.
Bytes = bytes | bytearray | memoryview


def _float_array(values) -> np.ndarray:
    """``values`` as a float32 or float64 array, converting anything else to
    float64."""
    values = np.asarray(values)
    if values.dtype in (np.float32, np.float64):
        return values
    return values.astype(np.float64)


class _RowRecord:
    """Two equal-length columns of one row set: the two dataclass fields of a
    subclass, in order. Indexing selects rows of both columns: a slice gives
    views (a parsed scan's rows stay read-only views of its bytes), an index
    array or a mask gathered copies, an integer a one-row record. ``copy()``
    returns writable arrays. Only an integer runs the constructor again: the
    other selections and copies keep the checked columns' dtypes (``_of``)."""

    def _check_lengths(self) -> None:
        (a, first), (b, second) = vars(self).items()
        if len(first) != len(second):
            raise ValueError(f"{a} ({len(first)}) and {b} ({len(second)}) lengths differ")

    def __len__(self) -> int:
        first, _ = vars(self).values()
        return len(first)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(map(np.array_equal, vars(self).values(), vars(other).values()))

    def _of(self: R, fields: dict[str, np.ndarray]) -> R:
        record = object.__new__(type(self))  # holding the columns as given
        record.__dict__.update(fields)
        return record

    def copy(self: R) -> R:
        return self._of({name: column.copy() for name, column in vars(self).items()})

    def __getitem__(self: R, rows) -> R:
        (a, first), (b, second) = vars(self).items()
        first, second = first[rows], second[rows]
        if second.ndim != 1:  # an integer's row: the constructor reshapes it
            return type(self)(first, second)
        return self._of({a: first, b: second})


@dataclass(eq=False)
class PointCloud(_RowRecord):
    """Ordered 3D points with per-point remission.

    ``points`` is (N, 3), ``remission`` is (N,) with values in [0, 1]. Both
    keep a float32 or float64 dtype as given (a parsed scan's are read-only
    float32 views of its file bytes); any other input becomes float64.
    """

    points: np.ndarray
    remission: np.ndarray

    def __post_init__(self) -> None:
        self.points = _float_array(self.points).reshape(-1, 3)
        self.remission = _float_array(self.remission).reshape(-1)
        self._check_lengths()


def pack_label(instance, semantic):
    """The packed label ``(instance << 16) | semantic`` of uint16-range
    values, for Python ints or uint32 arrays."""
    return (instance << 16) | semantic


def unpack_label(label):
    """``(instance, semantic)`` of a packed label; inverse of ``pack_label``."""
    return label >> 16, label & 0xFFFF


@dataclass(eq=False)
class LabelSet(_RowRecord):
    """Per-point semantic class and instance ID, parallel to a PointCloud.

    Both fields are uint16-range values; the packed disk form is
    ``(instance << 16) | semantic`` as uint32.
    """

    semantic: np.ndarray
    instance: np.ndarray

    def __post_init__(self) -> None:
        self.semantic = np.asarray(self.semantic, dtype=np.uint16).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.uint16).reshape(-1)
        self._check_lengths()


@dataclass
class SequenceData:
    """A fully materialized sequence: scans, labels, sensor-frame poses."""

    scans: list[PointCloud]
    labels: list[LabelSet | None]
    poses: list[RigidTransform]
    calib: RigidTransform = field(default_factory=RigidTransform.identity)
    name: str = "00"

    def __post_init__(self) -> None:
        if len(self.poses) != len(self.scans):
            raise ValueError("poses and scans lengths differ")
        if len(self.labels) != len(self.scans):
            raise ValueError("labels and scans lengths differ")
        for i, (scan, labels) in enumerate(zip(self.scans, self.labels)):
            _check_labels(self.name, i, scan, labels)

    def __len__(self) -> int:
        return len(self.scans)

    def iter_scans(self) -> Iterator[tuple[PointCloud, LabelSet | None]]:
        """Each scan with its labels, in order."""
        return zip(self.scans, self.labels)


def _check_labels(name: str, i: int, scan: PointCloud, labels: LabelSet | None) -> None:
    if labels is not None and len(labels) != len(scan):
        raise MalformedLabel(
            f"sequence {name} scan {i}: {len(labels)} labels for {len(scan)} points"
        )


@dataclass
class SequenceIndex:
    """File-backed view of a sequence directory."""

    scan_paths: list[Path]
    label_paths: list[Path | None]
    poses: list[RigidTransform]
    calib: RigidTransform
    name: str = "00"

    def __post_init__(self) -> None:
        if len(self.poses) != len(self.scan_paths):
            raise MalformedPose(
                f"{len(self.poses)} poses for {len(self.scan_paths)} scans"
            )
        if len(self.label_paths) != len(self.scan_paths):
            raise ValueError("label_paths and scan_paths lengths differ")

    def __len__(self) -> int:
        return len(self.scan_paths)

    def load_scan(self, i: int) -> PointCloud:
        return read_file(self.scan_paths[i], parse_scan)

    def load_labels(self, i: int) -> LabelSet | None:
        path = self.label_paths[i]
        if path is None:
            return None
        return read_file(path, parse_labels)

    def iter_scans(self) -> Iterator[tuple[PointCloud, LabelSet | None]]:
        """Each scan with its labels, in order, each read as it is reached.

        Only the scans a caller still holds stay mapped, so a caller that
        lets each go holds one descriptor (see ``read_file``) rather than
        one per scan of the sequence. A malformed file, or labels whose
        count differs from the scan's points, raises when it is reached."""
        for i in range(len(self)):
            scan, labels = self.load_scan(i), self.load_labels(i)
            _check_labels(self.name, i, scan, labels)
            yield scan, labels

    def load(self) -> SequenceData:
        """Every scan and label file, read through ``read_file``: each scan
        is a view of its file's mapping and holds one file descriptor while
        it lives; labels are copies and hold none. A sequence longer than
        the process's descriptor limit cannot be loaded at once: read it
        with ``iter_scans``, as fusion does."""
        return SequenceData(
            scans=[self.load_scan(i) for i in range(len(self))],
            labels=[self.load_labels(i) for i in range(len(self))],
            poses=list(self.poses),
            calib=self.calib,
            name=self.name,
        )


def read_file(path: str | Path, parse: Callable[[bytes | mmap.mmap], T]) -> T:
    """``parse`` of the contents of file ``path``, handed over as a read-only
    mapping of the file rather than a copy. Only a regular file of nonzero
    size is mapped (``mmap`` refuses length 0). Any other file is read
    whole: an empty one, and a pipe or a ``/proc`` file, whose size says
    nothing of its contents.

    A parser that keeps views of the mapping, as ``parse_scan`` does, keeps
    it alive with its result, and with it one duplicate of the file's
    descriptor, which CPython's ``mmap`` holds; a parser that copies, as
    ``parse_labels`` and the text parsers do, lets both go when this
    returns. Truncating a mapped file in place would make a later read of
    those views fault (SIGBUS), so ``scanfuse`` only replaces files
    (``write_file``). A data error ``parse`` raises keeps its class and
    names the file, as does text that is not UTF-8 (``ScanFuseError``)."""
    with open(path, "rb") as file:
        status = os.fstat(file.fileno())
        if stat.S_ISREG(status.st_mode) and status.st_size:
            data = mmap.mmap(file.fileno(), 0, access=mmap.ACCESS_READ)
        else:
            data = file.read()
    try:
        return parse(data)
    except UnicodeDecodeError as exc:
        raise ScanFuseError(f"{path}: not UTF-8 text: {exc}") from None
    except ScanFuseError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_file(path: str | Path, data: Bytes | Iterable[Bytes]) -> None:
    """Replace file ``path`` by ``data``: one bytes-like object (``bytes``,
    ``bytearray`` or ``memoryview``, such as ``write_scan`` returns), or
    bytes-like chunks written in order.

    The bytes go to a temporary sibling, ``.<name>.<pid>.tmp`` (the pid
    keeps two processes writing one path apart), which is then renamed over
    ``path`` (``os.replace``). A reader never sees a half-written file, and
    a mapping of the old file (see ``read_file``) keeps its bytes. If
    writing fails, or the process dies while writing, the old file stays;
    a failed write also removes the temporary. The temporary's name matches
    neither ``*.bin`` nor ``*.label``, so a leftover is never loaded as a
    scan. Nothing is synced to disk, so after an operating-system crash or
    a power loss the file may still be empty or partial. The new file has
    the default mode of a new file, and a symbolic link at ``path`` is
    replaced by the file, not written through. Every file that ``scanfuse``
    writes goes through here."""
    path = Path(path)
    temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "wb") as out:
            for chunk in [data] if isinstance(data, Bytes) else data:
                out.write(chunk)
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def parse_scan(data: bytes) -> PointCloud:
    """Decode packed float32 scan bytes into a PointCloud whose arrays are
    read-only float32 column views of ``data`` (nothing is copied; through
    ``read_file``, ``data`` is the file's mapping)."""
    if len(data) % SCAN_RECORD_BYTES != 0:
        raise MalformedScan(
            f"scan length {len(data)} is not a multiple of {SCAN_RECORD_BYTES}"
        )
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    # NaN propagates to both extremes and an infinity is one: no (N, 4) temporary
    if not (np.isfinite(raw.min(initial=0.0)) and np.isfinite(raw.max(initial=0.0))):
        raise MalformedScan("scan contains non-finite values")
    return PointCloud(points=raw[:, :3], remission=raw[:, 3])


def _record_bytes(raw: np.ndarray) -> memoryview:
    """The bytes of a filled record array, as a read-only 1-D view of it:
    its length is the byte count, it compares equal to ``bytes`` of the same
    content, and ``bytes()`` of it copies. Unlike ``memoryview.cast``, this
    also holds for an empty array."""
    return memoryview(raw.reshape(-1).view(np.uint8)).toreadonly()


def write_scan(cloud: PointCloud) -> memoryview:
    """Serialize a PointCloud to packed float32 bytes (quantizes to f32).

    Returns a read-only bytes-like view of the one record array it fills,
    not a copy: pass it to ``write_file``, or call ``bytes()`` on it."""
    raw = np.empty((len(cloud), 4), dtype="<f4")
    raw[:, :3] = cloud.points
    raw[:, 3] = cloud.remission
    return _record_bytes(raw)


def parse_labels(data: bytes) -> LabelSet:
    """Decode packed uint32 label bytes into a LabelSet whose two columns are
    contiguous, writable uint16 arrays.

    A little-endian uint32 ``(instance << 16) | semantic`` is the uint16 pair
    (semantic, instance), so one transposed copy of the pairs splits every
    label; contiguous columns keep later comparisons and gathers fast.
    """
    if len(data) % LABEL_RECORD_BYTES != 0:
        raise MalformedLabel(
            f"label length {len(data)} is not a multiple of {LABEL_RECORD_BYTES}"
        )
    semantic, instance = np.frombuffer(data, dtype="<u2").reshape(-1, 2).T.copy()
    return LabelSet(semantic=semantic, instance=instance)


def write_labels(labels: LabelSet) -> memoryview:
    """Serialize a LabelSet to packed uint32 bytes: the interleaved
    (semantic, instance) little-endian uint16 pairs ``parse_labels`` reads.

    Returns a read-only bytes-like view of its record array, as
    ``write_scan`` does."""
    raw = np.empty((len(labels), 2), dtype="<u2")
    raw[:, 0] = labels.semantic
    raw[:, 1] = labels.instance
    return _record_bytes(raw)


def instance_rows(
    labels: LabelSet, classes: Collection[int]
) -> tuple[np.ndarray, dict[int, slice]]:
    """The rows of a scan's instances of the classes ``classes``, grouped: one
    array of them, and each instance's ``slice`` of it keyed by its packed
    label ``(instance << 16) | semantic``.

    An instance is one packed label with instance ID != 0; rows with
    instance 0 belong to no instance. Keys ascend, and so do each group's
    rows: one stable sort of the instance rows' keys groups them, and the
    groups of other classes are dropped after it. Fusion, the instance
    database and IAAD take their hard-class instances from here and slice
    the one array."""
    rows = np.flatnonzero(labels.instance != 0)
    keys = pack_label(labels.instance[rows].astype(np.uint32), labels.semantic[rows])
    order = np.argsort(keys, kind="stable")
    rows, keys = rows[order], keys[order]
    firsts = np.flatnonzero(np.diff(keys, prepend=-1))  # where each key's run starts
    sizes = np.diff(firsts, append=len(keys))
    kept = np.array([unpack_label(key)[1] in classes for key in keys[firsts].tolist()], bool)
    if not kept.all():  # when all are kept, the sorted rows are the array: no copy
        rows = rows[np.repeat(kept, sizes)]
    bounds = [0, *np.cumsum(sizes[kept]).tolist()]
    keys = keys[firsts[kept]].tolist()
    return rows, {key: slice(lo, hi) for key, lo, hi in zip(keys, bounds, bounds[1:])}


def fresh_instance_ids(labels: LabelSet, n: int) -> range:
    """``n`` new instance IDs, consecutive above the largest instance ID in
    ``labels`` (from 1 for an empty scan); ``InvalidConfig`` past 65535."""
    start = int(labels.instance.max(initial=0)) + 1
    if start + n - 1 > 0xFFFF:
        raise InvalidConfig("instance ID space (16-bit) exhausted")
    return range(start, start + n)


def _parse_3x4(
    tokens: list[str], error: type[ScanFuseError], where: str
) -> RigidTransform:
    """A rigid transform from 12 finite row-major 3x4 values; ``error`` names ``where``."""
    if len(tokens) != 12:
        raise error(f"{where}: expected 12 values, got {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None
    m = np.array(values, dtype=np.float64).reshape(3, 4)
    if not np.isfinite(m).all():
        raise error(f"{where}: non-finite value")
    t = RigidTransform(m[:, :3], m[:, 3])
    if t.rigidity_error() > 1e-4:
        raise error(
            f"{where}: rotation not orthonormal "
            f"(error {t.rigidity_error():.3e} > 1e-4)"
        )
    return t


def _format_3x4(t: RigidTransform) -> str:
    m = np.hstack([t.rotation, t.translation.reshape(3, 1)])
    return " ".join(repr(float(v)) for v in m.reshape(-1))


def parse_poses(text: str, calib: RigidTransform) -> list[RigidTransform]:
    """Parse camera-frame pose lines into sensor-frame world poses.

    Each pose P maps camera-frame points at time t into the camera frame of
    the first scan; the sensor-frame pose is calib^-1 . P . calib. Blank and
    whitespace-only lines are skipped.
    """
    calib_inv = invert(calib)
    poses = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        cam_pose = _parse_3x4(line.split(), MalformedPose, f"pose line {line_no}")
        poses.append(compose(calib_inv, compose(cam_pose, calib)))
    return poses


def write_poses(poses: list[RigidTransform], calib: RigidTransform) -> str:
    """Serialize sensor-frame poses back to camera-frame pose lines."""
    calib_inv = invert(calib)
    lines = []
    for pose in poses:
        lines.append(_format_3x4(compose(calib, compose(pose, calib_inv))))
    return "\n".join(lines) + ("\n" if lines else "")


def parse_calib(text: str) -> RigidTransform:
    """Extract the velodyne-to-camera transform from a calib file."""
    for line in text.splitlines():
        if line.startswith("Tr:"):
            return _parse_3x4(line[3:].split(), MalformedCalib, "calib Tr line")
    raise MalformedCalib("no line starting with 'Tr:' found")


def write_calib(calib: RigidTransform) -> str:
    return "Tr: " + _format_3x4(calib) + "\n"


def parse_class_map(text: str) -> dict[int, tuple[int, str]]:
    """Parse a class-map file: ``raw_id train_id name`` per line.

    Lines starting with ``#`` and blank lines are skipped; a raw ID listed
    twice or a train ID below -1 (the ignore ID) is an error. Returns
    raw_id -> (train_id, name).
    """
    mapping: dict[int, tuple[int, str]] = {}
    seen_at: dict[int, int] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        tokens = stripped.split()
        if len(tokens) < 3:
            raise InvalidConfig(
                f"class-map line {line_no}: expected 'raw train name', got {stripped!r}"
            )
        try:
            raw_id = int(tokens[0])
            train_id = int(tokens[1])
        except ValueError as exc:
            raise InvalidConfig(f"class-map line {line_no}: {exc}") from None
        if not 0 <= raw_id <= 0xFFFF:
            raise InvalidConfig(
                f"class-map line {line_no}: raw ID {raw_id} is outside the 16-bit range"
            )
        if train_id < -1:
            raise InvalidConfig(f"class-map line {line_no}: train ID {train_id} is below -1")
        if raw_id in seen_at:
            raise InvalidConfig(
                f"class-map line {line_no}: raw ID {raw_id} already listed on line "
                f"{seen_at[raw_id]}"
            )
        seen_at[raw_id] = line_no
        mapping[raw_id] = (train_id, tokens[2])
    return mapping


def load_sequence_index(seq_dir: str | Path) -> SequenceIndex:
    """Build a SequenceIndex from a KITTI-layout sequence directory.

    Expects ``velodyne/*.bin``, optional ``labels/*.label``, ``poses.txt``
    and ``calib.txt`` under ``seq_dir``; the directory name names the
    sequence.
    """
    seq_dir = Path(seq_dir)
    velo_dir = seq_dir / "velodyne"
    if not velo_dir.is_dir():
        raise FileNotFoundError(f"no velodyne/ directory under {seq_dir}")
    scan_paths = sorted(velo_dir.glob("*.bin"))
    if not scan_paths:
        raise FileNotFoundError(f"no .bin scans under {velo_dir}")

    label_dir = seq_dir / "labels"
    label_paths: list[Path | None] = []
    for scan_path in scan_paths:
        candidate = label_dir / (scan_path.stem + ".label")
        label_paths.append(candidate if candidate.is_file() else None)

    calib_path = seq_dir / "calib.txt"
    calib = RigidTransform.identity()
    if calib_path.is_file():
        calib = read_file(calib_path, lambda data: parse_calib(str(data, "utf-8")))
    return SequenceIndex(
        scan_paths=scan_paths,
        label_paths=label_paths,
        poses=read_file(
            seq_dir / "poses.txt", lambda data: parse_poses(str(data, "utf-8"), calib)
        ),
        calib=calib,
        name=seq_dir.name,
    )


def write_sequence(data: SequenceData, out_dir: str | Path) -> SequenceIndex:
    """Persist a sequence in the KITTI directory layout, replacing each file
    (``write_file``). The returned index is named after ``out_dir``, as
    ``load_sequence_index(out_dir)`` names it, not after ``data.name``."""
    out_dir = Path(out_dir)
    velo_dir = out_dir / "velodyne"
    label_dir = out_dir / "labels"
    velo_dir.mkdir(parents=True, exist_ok=True)
    label_dir.mkdir(parents=True, exist_ok=True)

    scan_paths: list[Path] = []
    label_paths: list[Path | None] = []
    for i, (scan, labels) in enumerate(zip(data.scans, data.labels)):
        scan_path = velo_dir / f"{i:06d}.bin"
        write_file(scan_path, write_scan(scan))
        scan_paths.append(scan_path)
        label_path = label_dir / f"{i:06d}.label"
        if labels is not None:
            write_file(label_path, write_labels(labels))
            label_paths.append(label_path)
        else:
            # a label file left by an earlier write would pair with this scan
            label_path.unlink(missing_ok=True)
            label_paths.append(None)

    # numbered files left past the end by a longer sequence would be loaded
    # as its scans
    for stale_dir, suffix in ((velo_dir, ".bin"), (label_dir, ".label")):
        for path in stale_dir.glob("*" + suffix):
            if path.stem.isdigit() and int(path.stem) >= len(data):
                path.unlink()

    write_file(out_dir / "calib.txt", write_calib(data.calib).encode())
    write_file(out_dir / "poses.txt", write_poses(data.poses, data.calib).encode())
    return SequenceIndex(
        scan_paths=scan_paths,
        label_paths=label_paths,
        poses=list(data.poses),
        calib=data.calib,
        name=out_dir.name,
    )

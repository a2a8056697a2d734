"""Bit-exact readers and writers for SemanticKITTI-format sequences.

On-disk formats:
  scans    ``NNNNNN.bin``   packed little-endian float32, 4 per point (x, y, z, remission)
  labels   ``NNNNNN.label`` packed little-endian uint32, low 16 bits semantic, high 16 instance
  poses    ``poses.txt``    12 decimals per line, row-major 3x4, left-camera frame
  calib    ``calib.txt``    line starting ``Tr:`` holds the 3x4 velodyne-to-camera transform

Coordinates are widened to float64 in memory (float32 -> float64 is exact, so
byte-level round trips are preserved); writers quantize back to the 32-bit
disk format. Labels stay in the raw SemanticKITTI class-ID space; remapping to
a training space is a separate, config-driven table (see ``parse_class_map``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

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


@dataclass(eq=False)
class PointCloud:
    """Ordered 3D points with per-point remission.

    ``points`` is (N, 3) float64, ``remission`` is (N,) float64 in [0, 1].
    """

    points: np.ndarray
    remission: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.remission = np.asarray(self.remission, dtype=np.float64).reshape(-1)
        if len(self.points) != len(self.remission):
            raise ValueError(
                f"points ({len(self.points)}) and remission "
                f"({len(self.remission)}) lengths differ"
            )

    def __len__(self) -> int:
        return len(self.points)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointCloud):
            return NotImplemented
        return np.array_equal(self.points, other.points) and np.array_equal(
            self.remission, other.remission
        )

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.points).all() and np.isfinite(self.remission).all())

    def copy(self) -> "PointCloud":
        return PointCloud(self.points.copy(), self.remission.copy())


@dataclass(eq=False)
class LabelSet:
    """Per-point semantic class and instance ID, parallel to a PointCloud.

    Both fields are uint16-range values; the packed disk form is
    ``(instance << 16) | semantic`` as uint32.
    """

    semantic: np.ndarray
    instance: np.ndarray

    def __post_init__(self) -> None:
        self.semantic = np.asarray(self.semantic, dtype=np.uint16).reshape(-1)
        self.instance = np.asarray(self.instance, dtype=np.uint16).reshape(-1)
        if len(self.semantic) != len(self.instance):
            raise ValueError(
                f"semantic ({len(self.semantic)}) and instance "
                f"({len(self.instance)}) lengths differ"
            )

    def __len__(self) -> int:
        return len(self.semantic)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LabelSet):
            return NotImplemented
        return np.array_equal(self.semantic, other.semantic) and np.array_equal(
            self.instance, other.instance
        )

    def packed(self) -> np.ndarray:
        return (self.instance.astype(np.uint32) << 16) | self.semantic.astype(np.uint32)

    def copy(self) -> "LabelSet":
        return LabelSet(self.semantic.copy(), self.instance.copy())


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

    def __len__(self) -> int:
        return len(self.scans)


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
        return parse_scan(self.scan_paths[i].read_bytes())

    def load_labels(self, i: int) -> LabelSet | None:
        path = self.label_paths[i]
        if path is None:
            return None
        return parse_labels(path.read_bytes())

    def load(self) -> SequenceData:
        """Materialize every scan and label file into memory."""
        return SequenceData(
            scans=[self.load_scan(i) for i in range(len(self))],
            labels=[self.load_labels(i) for i in range(len(self))],
            poses=list(self.poses),
            calib=self.calib,
            name=self.name,
        )


def parse_scan(data: bytes) -> PointCloud:
    """Decode packed float32 scan bytes into a PointCloud."""
    if len(data) % SCAN_RECORD_BYTES != 0:
        raise MalformedScan(
            f"scan length {len(data)} is not a multiple of {SCAN_RECORD_BYTES}"
        )
    raw = np.frombuffer(data, dtype="<f4").reshape(-1, 4)
    if not np.isfinite(raw).all():
        raise MalformedScan("scan contains non-finite values")
    return PointCloud(
        points=raw[:, :3].astype(np.float64),
        remission=raw[:, 3].astype(np.float64),
    )


def write_scan(cloud: PointCloud) -> bytes:
    """Serialize a PointCloud to packed float32 bytes (quantizes to f32)."""
    raw = np.empty((len(cloud), 4), dtype="<f4")
    raw[:, :3] = cloud.points
    raw[:, 3] = cloud.remission
    return raw.tobytes()


def parse_labels(data: bytes) -> LabelSet:
    """Decode packed uint32 label bytes into a LabelSet."""
    if len(data) % LABEL_RECORD_BYTES != 0:
        raise MalformedLabel(
            f"label length {len(data)} is not a multiple of {LABEL_RECORD_BYTES}"
        )
    packed = np.frombuffer(data, dtype="<u4")
    return LabelSet(
        semantic=(packed & 0xFFFF).astype(np.uint16),
        instance=(packed >> 16).astype(np.uint16),
    )


def write_labels(labels: LabelSet) -> bytes:
    """Serialize a LabelSet to packed uint32 bytes."""
    return labels.packed().astype("<u4").tobytes()


def _parse_3x4(
    tokens: list[str], error: type[ScanFuseError], where: str
) -> RigidTransform:
    """A rigid transform from 12 row-major 3x4 values; ``error`` names ``where``."""
    if len(tokens) != 12:
        raise error(f"{where}: expected 12 values, got {len(tokens)}")
    try:
        values = [float(t) for t in tokens]
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None
    m = np.array(values, dtype=np.float64).reshape(3, 4)
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

    Lines starting with ``#`` and blank lines are skipped. Returns
    raw_id -> (train_id, name).
    """
    mapping: dict[int, tuple[int, str]] = {}
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
        mapping[raw_id] = (train_id, tokens[2])
    return mapping


def raw_to_train_table(raw_to_train: dict[int, int]) -> np.ndarray:
    """Lookup table over every 16-bit raw class ID; -1 marks unmapped IDs."""
    table = np.full(0x10000, -1, dtype=np.int64)
    for raw, train in raw_to_train.items():
        if not 0 <= raw <= 0xFFFF:
            raise InvalidConfig(f"raw class ID {raw} is outside the 16-bit range")
        table[raw] = train
    return table


def write_class_map(mapping: dict[int, tuple[int, str]]) -> str:
    lines = ["# raw_id train_id name"]
    for raw_id in sorted(mapping):
        train_id, name = mapping[raw_id]
        lines.append(f"{raw_id} {train_id} {name}")
    return "\n".join(lines) + "\n"


def scan_file_name(index: int) -> str:
    return f"{index:06d}.bin"


def label_file_name(index: int) -> str:
    return f"{index:06d}.label"


def load_sequence_index(seq_dir: str | Path, name: str | None = None) -> SequenceIndex:
    """Build a SequenceIndex from a KITTI-layout sequence directory.

    Expects ``velodyne/*.bin``, optional ``labels/*.label``, ``poses.txt``
    and ``calib.txt`` under ``seq_dir``.
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
    calib = (
        parse_calib(calib_path.read_text())
        if calib_path.is_file()
        else RigidTransform.identity()
    )
    poses_path = seq_dir / "poses.txt"
    if not poses_path.is_file():
        raise FileNotFoundError(f"no poses.txt under {seq_dir}")
    poses = parse_poses(poses_path.read_text(), calib)
    if len(poses) != len(scan_paths):
        raise MalformedPose(
            f"{len(poses)} poses in {poses_path} but {len(scan_paths)} scans"
        )
    return SequenceIndex(
        scan_paths=scan_paths,
        label_paths=label_paths,
        poses=poses,
        calib=calib,
        name=name if name is not None else seq_dir.name,
    )


def write_sequence(data: SequenceData, out_dir: str | Path) -> SequenceIndex:
    """Persist a sequence in the KITTI directory layout."""
    out_dir = Path(out_dir)
    velo_dir = out_dir / "velodyne"
    label_dir = out_dir / "labels"
    velo_dir.mkdir(parents=True, exist_ok=True)
    label_dir.mkdir(parents=True, exist_ok=True)

    scan_paths: list[Path] = []
    label_paths: list[Path | None] = []
    for i, (scan, labels) in enumerate(zip(data.scans, data.labels)):
        scan_path = velo_dir / scan_file_name(i)
        scan_path.write_bytes(write_scan(scan))
        scan_paths.append(scan_path)
        if labels is not None:
            label_path = label_dir / label_file_name(i)
            label_path.write_bytes(write_labels(labels))
            label_paths.append(label_path)
        else:
            label_paths.append(None)

    (out_dir / "calib.txt").write_text(write_calib(data.calib))
    (out_dir / "poses.txt").write_text(write_poses(data.poses, data.calib))
    return SequenceIndex(
        scan_paths=scan_paths,
        label_paths=label_paths,
        poses=list(data.poses),
        calib=data.calib,
        name=data.name,
    )

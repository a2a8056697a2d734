"""Sparse multi-scan fusion of hard-class instances.

Only instances of the configured hard classes are pulled forward from past
scans: static instances travel by the sensor pose chain alone, moving ones get
a centroid initialization plus ICP refinement onto their current-scan points.
The fused cloud keeps the current scan as an untouched prefix so student and
teacher branches stay point-aligned, and a paired instance database supports
synchronized copy-paste augmentation of both branches.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import (
    DbWriteError,
    DegenerateSource,
    EmptyDatabase,
    InstanceNotFound,
    InvalidConfig,
    MissingLabels,
    NoOverlap,
)
from .geometry import RigidTransform, apply_points, compose, invert, rotation_about_z
from .kitti_io import (
    DEFAULT_HARD_CLASSES,
    LabelSet,
    PointCloud,
    SequenceData,
    SequenceIndex,
    parse_labels,
    parse_scan,
    write_labels,
    write_scan,
)
from .registration import RegistrationConfig, centroid_align, icp_register


class Motion(Enum):
    MOVING = "moving"
    STATIC = "static"


@dataclass
class FusionConfig:
    hard_classes: frozenset[int] = DEFAULT_HARD_CLASSES
    window: int = 4  # number of past scans K
    moving_threshold: float = 0.2  # meters of centroid travel per scan
    registration: RegistrationConfig = field(default_factory=RegistrationConfig)

    def __post_init__(self) -> None:
        self.hard_classes = frozenset(int(c) for c in self.hard_classes)
        if not self.hard_classes:
            raise InvalidConfig("hard_classes must be nonempty")
        if not self.window >= 1:
            raise InvalidConfig("window must be >= 1")
        if not self.moving_threshold >= 0.0:
            raise InvalidConfig("moving_threshold must be >= 0")


@dataclass
class InstanceTrack:
    """Where one instance's points live in each scan of the window."""

    instance_id: int
    class_id: int
    scan_indices: list[int]  # ascending, ending at the current scan
    point_indices: list[np.ndarray]  # parallel to scan_indices; empty where absent
    sensor_centroids: list[np.ndarray | None]  # per scan, sensor-frame centroid


@dataclass
class PasteRecord:
    key: tuple[str, int, int]
    yaw: float
    target_xy: tuple[float, float]
    transform: RigidTransform
    new_instance_id: int


@dataclass(eq=False)
class FusedScan:
    """Current scan plus hard-class points appended from past scans.

    The first ``n_current`` cloud rows are the student's input (the raw scan,
    then any pasted single-scan instances); the rest is teacher-only density.
    Teacher row i is student row i for every i < ``n_current``.
    ``origin_index`` holds the relative scan (-1..-K) each appended point came
    from, 0 for pasted points.
    """

    cloud: PointCloud
    labels: LabelSet
    n_current: int
    origin_index: np.ndarray
    registration_warnings: list[tuple[int, int]] = field(default_factory=list)
    pastes: list[PasteRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.origin_index = np.asarray(self.origin_index, dtype=np.int64).reshape(-1)
        if self.n_current + len(self.origin_index) != len(self.cloud):
            raise ValueError("origin_index does not cover the appended region")
        if len(self.labels) != len(self.cloud):
            raise ValueError("labels and cloud lengths differ")

    @property
    def n_appended(self) -> int:
        return len(self.cloud) - self.n_current

    def current_cloud(self) -> PointCloud:
        return PointCloud(
            self.cloud.points[: self.n_current].copy(),
            self.cloud.remission[: self.n_current].copy(),
        )

    def current_labels(self) -> LabelSet:
        return LabelSet(
            self.labels.semantic[: self.n_current].copy(),
            self.labels.instance[: self.n_current].copy(),
        )


def _as_data(seq: SequenceData | SequenceIndex) -> SequenceData:
    if isinstance(seq, SequenceIndex):
        return seq.load()
    return seq


def _instance_class_at(labels: LabelSet, instance_id: int) -> int:
    """Majority semantic class of an instance (ties: lowest class ID)."""
    mask = labels.instance == instance_id
    if not mask.any():
        raise InstanceNotFound(f"instance {instance_id} has no points in this scan")
    classes, counts = np.unique(labels.semantic[mask], return_counts=True)
    return int(classes[np.argmax(counts)])


def gather_instance_track(
    seq: SequenceData | SequenceIndex,
    scan_t: int,
    instance_id: int,
    window: int,
) -> InstanceTrack:
    """Collect an instance's point indices over [t-K, t].

    The instance's class is taken from the current scan; membership in past
    scans requires both the instance ID and that class, so ID collisions
    across classes do not pollute the track.
    """
    seq = _as_data(seq)
    if not 0 <= scan_t < len(seq):
        raise IndexError(f"scan {scan_t} out of range for sequence of {len(seq)}")
    labels_t = seq.labels[scan_t]
    if labels_t is None:
        raise MissingLabels(f"scan {scan_t} has no labels")
    class_id = _instance_class_at(labels_t, instance_id)

    scan_indices = list(range(max(0, scan_t - window), scan_t + 1))
    point_indices: list[np.ndarray] = []
    centroids: list[np.ndarray | None] = []
    for s in scan_indices:
        labels_s = seq.labels[s]
        if labels_s is None:
            raise MissingLabels(f"scan {s} has no labels")
        idx = np.flatnonzero(
            (labels_s.instance == instance_id) & (labels_s.semantic == class_id)
        )
        point_indices.append(idx)
        centroids.append(
            seq.scans[s].points[idx].mean(axis=0) if len(idx) else None
        )
    return InstanceTrack(
        instance_id=int(instance_id),
        class_id=class_id,
        scan_indices=scan_indices,
        point_indices=point_indices,
        sensor_centroids=centroids,
    )


def classify_motion(
    track: InstanceTrack,
    poses: list[RigidTransform],
    moving_threshold: float,
) -> Motion:
    """Moving iff the max world-frame centroid displacement per scan step
    exceeds the threshold. Tracks seen in fewer than two scans are static by
    definition."""
    observed = [
        (s, c)
        for s, c in zip(track.scan_indices, track.sensor_centroids)
        if c is not None
    ]
    if len(observed) < 2:
        return Motion.STATIC
    world = [(s, apply_points(poses[s], c.reshape(1, 3))[0]) for s, c in observed]
    for (s_prev, c_prev), (s_next, c_next) in zip(world, world[1:]):
        step = float(np.linalg.norm(c_next - c_prev)) / (s_next - s_prev)
        if step > moving_threshold:
            return Motion.MOVING
    return Motion.STATIC


def _rows(cloud: PointCloud, labels: LabelSet, idx) -> tuple[PointCloud, LabelSet]:
    """The rows ``idx`` (indices or a slice) of a cloud and its labels."""
    return (
        PointCloud(cloud.points[idx], cloud.remission[idx]),
        LabelSet(labels.semantic[idx], labels.instance[idx]),
    )


def _concat(blocks: list[tuple[PointCloud, LabelSet]]) -> tuple[PointCloud, LabelSet]:
    """Stack (cloud, labels) row blocks in order into one cloud and labels."""
    if not blocks:
        return PointCloud(np.empty((0, 3)), np.empty(0)), LabelSet([], [])
    clouds, labels = zip(*blocks)
    return (
        PointCloud(
            np.vstack([c.points for c in clouds]),
            np.concatenate([c.remission for c in clouds]),
        ),
        LabelSet(
            np.concatenate([lab.semantic for lab in labels]),
            np.concatenate([lab.instance for lab in labels]),
        ),
    )


def _fuse_instance(
    seq: SequenceData,
    scan_t: int,
    track: InstanceTrack,
    motion: Motion,
    config: FusionConfig,
) -> tuple[PointCloud, LabelSet, np.ndarray, list[tuple[int, int]]]:
    """Past-scan points of one instance mapped into the current sensor frame.

    Returns (cloud, labels, origin, warnings); the rows cover only appended
    points, never the current scan's own.
    """
    t_inv = invert(seq.poses[scan_t])
    cur_pts = seq.scans[scan_t].points[track.point_indices[-1]]

    blocks: list[tuple[PointCloud, LabelSet]] = []
    origins: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    warnings: list[tuple[int, int]] = []

    for s, idx in zip(track.scan_indices[:-1], track.point_indices[:-1]):
        if len(idx) == 0:
            continue
        labels_s = seq.labels[s]
        assert labels_s is not None  # guaranteed by gather_instance_track
        cloud, labels = _rows(seq.scans[s], labels_s, idx)
        pts = apply_points(compose(t_inv, seq.poses[s]), cloud.points)
        if motion is Motion.MOVING and len(cur_pts) > 0:
            init = centroid_align(pts, cur_pts)
            try:
                refine = icp_register(pts, cur_pts, init, config.registration)
                align = refine.transform
            except DegenerateSource:
                align = init
            except NoOverlap:
                align = init
                warnings.append((track.instance_id, s - scan_t))
            pts = apply_points(align, pts)
        cloud.points = pts
        blocks.append((cloud, labels))
        origins.append(np.full(len(idx), s - scan_t, dtype=np.int64))

    cloud, labels = _concat(blocks)
    return cloud, labels, np.concatenate(origins), warnings


def _hard_instance_ids(labels: LabelSet, hard_classes: frozenset[int]) -> list[int]:
    mask = np.isin(labels.semantic, list(hard_classes)) & (labels.instance > 0)
    return [int(i) for i in np.unique(labels.instance[mask])]


def _fused_instances(
    seq: SequenceData, scan_t: int, config: FusionConfig
) -> Iterator[
    tuple[InstanceTrack, PointCloud, LabelSet, np.ndarray, list[tuple[int, int]]]
]:
    """The one track -> classify -> fuse loop behind ``fuse_scan`` and
    ``build_instance_db``.

    Yields, in instance-ID order, each kept hard-class instance of labelled
    scan t: its track, then its appended (cloud, labels, origin, warnings).
    """
    labels_t = seq.labels[scan_t]
    assert labels_t is not None
    for iid in _hard_instance_ids(labels_t, config.hard_classes):
        track = gather_instance_track(seq, scan_t, iid, config.window)
        if track.class_id not in config.hard_classes:
            continue
        motion = classify_motion(track, seq.poses, config.moving_threshold)
        yield track, *_fuse_instance(seq, scan_t, track, motion, config)


def fuse_scan(
    seq: SequenceData | SequenceIndex, scan_t: int, config: FusionConfig
) -> FusedScan:
    """Fuse hard-class instance points from the past window into scan t."""
    seq = _as_data(seq)
    if not 0 <= scan_t < len(seq):
        raise IndexError(f"scan {scan_t} out of range for sequence of {len(seq)}")
    for s in range(max(0, scan_t - config.window), scan_t + 1):
        if seq.labels[s] is None:
            raise MissingLabels(f"scan {s} inside the fusion window has no labels")

    current = seq.scans[scan_t]
    cur_labels = seq.labels[scan_t]
    assert cur_labels is not None

    blocks = [(current, cur_labels)]
    origins: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    warnings: list[tuple[int, int]] = []
    for _, cloud, labels, origin, warns in _fused_instances(seq, scan_t, config):
        blocks.append((cloud, labels))
        origins.append(origin)
        warnings.extend(warns)

    cloud, labels = _concat(blocks)
    return FusedScan(
        cloud=cloud,
        labels=labels,
        n_current=len(current),
        origin_index=np.concatenate(origins),
        registration_warnings=warnings,
    )


def naive_fusion_size(seq: SequenceData | SequenceIndex, scan_t: int, window: int) -> int:
    """Point count if the whole past window were fused without the class prior."""
    seq = _as_data(seq)
    return sum(
        len(seq.scans[s]) for s in range(max(0, scan_t - window), scan_t + 1)
    )


# ---------------------------------------------------------------------------
# Instance database for copy-paste augmentation
# ---------------------------------------------------------------------------


def _quantized(cloud: PointCloud) -> PointCloud:
    """Snap to the 32-bit on-disk precision so database round trips are exact."""
    return PointCloud(
        cloud.points.astype(np.float32).astype(np.float64),
        cloud.remission.astype(np.float32).astype(np.float64),
    )


@dataclass(eq=False)
class InstancePair:
    """One instance as seen in a single scan and in its fused form."""

    key: tuple[str, int, int]  # (sequence, scan, instance)
    class_id: int
    single_cloud: PointCloud
    single_labels: LabelSet
    fused_cloud: PointCloud
    fused_labels: LabelSet

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstancePair):
            return NotImplemented
        return (
            self.key == other.key
            and self.class_id == other.class_id
            and self.single_cloud == other.single_cloud
            and self.single_labels == other.single_labels
            and self.fused_cloud == other.fused_cloud
            and self.fused_labels == other.fused_labels
        )


@dataclass(eq=False)
class InstanceDatabase:
    entries: list[InstancePair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InstanceDatabase):
            return NotImplemented
        return self.entries == other.entries

    def save(self, path: str | Path) -> None:
        """Persist as one directory per entry plus a manifest of keys."""
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
            manifest_lines = []
            for entry in self.entries:
                seq_name, scan, instance = entry.key
                dirname = f"{seq_name}_{scan:06d}_{instance:06d}"
                entry_dir = path / dirname
                entry_dir.mkdir(exist_ok=True)
                (entry_dir / "single.bin").write_bytes(write_scan(entry.single_cloud))
                (entry_dir / "single.label").write_bytes(
                    write_labels(entry.single_labels)
                )
                (entry_dir / "fused.bin").write_bytes(write_scan(entry.fused_cloud))
                (entry_dir / "fused.label").write_bytes(write_labels(entry.fused_labels))
                manifest_lines.append(
                    f"{seq_name} {scan} {instance} {entry.class_id} {dirname}"
                )
            (path / "manifest.txt").write_text("\n".join(manifest_lines) + "\n")
        except OSError as exc:
            raise DbWriteError(f"failed to write instance database: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "InstanceDatabase":
        path = Path(path)
        manifest = path / "manifest.txt"
        if not manifest.is_file():
            raise FileNotFoundError(f"no manifest.txt under {path}")
        entries: list[InstancePair] = []
        for line in manifest.read_text().splitlines():
            if not line.strip():
                continue
            seq_name, scan, instance, class_id, dirname = line.split()
            entry_dir = path / dirname
            entries.append(
                InstancePair(
                    key=(seq_name, int(scan), int(instance)),
                    class_id=int(class_id),
                    single_cloud=parse_scan((entry_dir / "single.bin").read_bytes()),
                    single_labels=parse_labels(
                        (entry_dir / "single.label").read_bytes()
                    ),
                    fused_cloud=parse_scan((entry_dir / "fused.bin").read_bytes()),
                    fused_labels=parse_labels((entry_dir / "fused.label").read_bytes()),
                )
            )
        return cls(entries=entries)


def build_instance_db(
    seq: SequenceData | SequenceIndex,
    config: FusionConfig,
    out_path: str | Path | None = None,
) -> InstanceDatabase:
    """Store every hard-class instance occurrence with its fused counterpart.

    Coordinates are quantized to the on-disk 32-bit precision so that
    ``load(save(db)) == db`` holds exactly.
    """
    seq = _as_data(seq)
    entries: list[InstancePair] = []
    for scan_t in range(len(seq)):
        cur_labels = seq.labels[scan_t]
        if cur_labels is None:
            continue
        current = seq.scans[scan_t]
        for track, app_cloud, app_labels, _, _ in _fused_instances(seq, scan_t, config):
            single_cloud, single_labels = _rows(
                current, cur_labels, track.point_indices[-1]
            )
            fused_cloud, fused_labels = _concat(
                [(single_cloud, single_labels), (app_cloud, app_labels)]
            )
            entries.append(
                InstancePair(
                    key=(seq.name, scan_t, track.instance_id),
                    class_id=track.class_id,
                    single_cloud=_quantized(single_cloud),
                    single_labels=single_labels,
                    fused_cloud=_quantized(fused_cloud),
                    fused_labels=fused_labels,
                )
            )
    db = InstanceDatabase(entries=entries)
    if out_path is not None:
        db.save(out_path)
    return db


def _placed(
    cloud: PointCloud, labels: LabelSet, transform: RigidTransform, instance_id: int
) -> tuple[PointCloud, LabelSet]:
    """A database member moved by ``transform`` under a fresh instance ID."""
    return (
        PointCloud(apply_points(transform, cloud.points), cloud.remission),
        LabelSet(labels.semantic, np.full(len(labels), instance_id, dtype=np.uint16)),
    )


def sample_and_paste(
    scan: FusedScan, db: InstanceDatabase, n: int, rng_seed: int
) -> FusedScan:
    """Paste ``n`` database pairs into a fused scan, synchronized.

    Each draw picks one entry and one shared transform (random yaw about the
    instance centroid plus a planar move within the current scene bounds);
    the single-scan member lands in the student-visible region, the fused
    member in the appended region, both under the same transform and a fresh
    instance ID.
    """
    if n < 0:
        raise InvalidConfig("n must be >= 0")
    if n == 0:
        return scan
    if len(db) == 0:
        raise EmptyDatabase("cannot paste from an empty database")

    rng = np.random.default_rng(rng_seed)
    cur_pts = scan.cloud.points[: scan.n_current]
    if len(cur_pts):
        xy_min = cur_pts[:, :2].min(axis=0)
        xy_max = cur_pts[:, :2].max(axis=0)
    else:
        xy_min = np.array([-10.0, -10.0])
        xy_max = np.array([10.0, 10.0])

    next_id = int(scan.labels.instance.max()) + 1 if len(scan.labels) else 1

    singles: list[tuple[PointCloud, LabelSet]] = []
    fused: list[tuple[PointCloud, LabelSet]] = []
    records: list[PasteRecord] = []

    for _ in range(n):
        if next_id > np.iinfo(np.uint16).max:
            raise InvalidConfig("instance ID space (16-bit) exhausted")
        entry = db.entries[int(rng.integers(0, len(db)))]
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        tx = float(rng.uniform(xy_min[0], xy_max[0]))
        ty = float(rng.uniform(xy_min[1], xy_max[1]))
        pivot = entry.single_cloud.points.mean(axis=0)
        rot = rotation_about_z(yaw)
        target = np.array([tx, ty, pivot[2]])
        transform = RigidTransform(rot, target - rot @ pivot)

        singles.append(_placed(entry.single_cloud, entry.single_labels, transform, next_id))
        fused.append(_placed(entry.fused_cloud, entry.fused_labels, transform, next_id))
        records.append(
            PasteRecord(
                key=entry.key,
                yaw=yaw,
                target_xy=(tx, ty),
                transform=transform,
                new_instance_id=next_id,
            )
        )
        next_id += 1

    nc = scan.n_current
    cloud, labels = _concat(
        [_rows(scan.cloud, scan.labels, slice(None, nc))]
        + singles
        + [_rows(scan.cloud, scan.labels, slice(nc, None))]
        + fused
    )
    n_pasted_fused = sum(len(c) for c, _ in fused)
    origin = np.concatenate(
        [scan.origin_index, np.zeros(n_pasted_fused, dtype=np.int64)]
    )

    return FusedScan(
        cloud=cloud,
        labels=labels,
        n_current=nc + sum(len(c) for c, _ in singles),
        origin_index=origin,
        registration_warnings=list(scan.registration_warnings),
        pastes=list(scan.pastes) + records,
    )

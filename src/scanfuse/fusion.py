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
from scipy.spatial import cKDTree

from .errors import (
    DbWriteError,
    DegenerateSource,
    EmptyDatabase,
    InstanceNotFound,
    InvalidConfig,
    MissingLabels,
    NoOverlap,
    ScanFuseError,
)
from .geometry import (
    RigidTransform,
    apply_points,
    centroid,
    compose,
    invert,
    rotation_about_z,
)
from .kitti_io import (
    DEFAULT_HARD_CLASSES,
    LabelSet,
    PointCloud,
    SequenceData,
    SequenceIndex,
    fresh_instance_ids,
    instance_rows,
    pack_label,
    parse_labels,
    parse_scan,
    read_file,
    unpack_label,
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
        outside = sorted(c for c in self.hard_classes if not 0 <= c <= 0xFFFF)
        if outside:
            raise InvalidConfig(f"hard_classes {outside} outside 0..65535")
        if not self.window >= 1:
            raise InvalidConfig("window must be >= 1")
        if not self.moving_threshold >= 0.0:
            raise InvalidConfig("moving_threshold must be >= 0")


@dataclass
class InstanceTrack:
    """Where one instance's points live in each scan of the window."""

    label: int  # the instance's packed (instance << 16) | semantic label
    scan_indices: list[int]  # ascending, ending at the current scan
    point_indices: list[np.ndarray]  # parallel to scan_indices; empty where absent
    sensor_centroids: list[np.ndarray | None]  # per scan, sensor-frame centroid


@dataclass
class PasteRecord:
    key: tuple[str, int, int]  # the pasted InstancePair's key
    transform: RigidTransform
    new_instance_id: int


@dataclass(eq=False)
class FusedScan:
    """Current scan plus hard-class points appended from past scans.

    The first ``n_current`` cloud rows are the student's input (the raw scan,
    then any pasted single-scan instances); the rest is teacher-only density.
    Teacher row i is student row i for every i < ``n_current``.
    ``origin_index`` holds the relative scan (-1..-K) each appended point came
    from, 0 for pasted points. ``registration_warnings`` holds a
    ``(packed label, s - t)`` for each past scan s of a moving instance
    placed without ICP: its source was degenerate or had no overlap.
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


def _window(seq: SequenceData, scan_t: int, window: int) -> range:
    """Scans [t-K, t] of scan t's fusion window; each must be labelled."""
    scans = range(max(0, scan_t - window), scan_t + 1)
    for s in scans:
        if seq.labels[s] is None:
            raise MissingLabels(f"scan {s} inside the fusion window has no labels")
    return scans


# One scan's instance index: each hard-class instance's packed label ->
# (its ascending rows, the sensor-frame centroid of those rows).
InstanceIndex = dict[int, tuple[np.ndarray, np.ndarray]]


def _instance_index(
    scan: PointCloud, labels: LabelSet, hard_classes: frozenset[int]
) -> InstanceIndex:
    """The instance index of one scan (see ``kitti_io.instance_rows``).

    Built once per scan per call, so every window holding the scan shares
    its centroids."""
    return {
        label: (idx, centroid(scan.points[idx]))
        for label, idx in instance_rows(labels, hard_classes).items()
    }


def gather_instance_track(
    index: dict[int, InstanceIndex], scan_t: int, label: int, window: int
) -> InstanceTrack:
    """Collect the rows of one instance over [t-K, t].

    ``label`` is the instance's packed ``(instance << 16) | semantic`` label
    and ``index[s]`` is the instance index of each scan s of the window
    (see ``_instance_index``), so an ID shared by two classes is two
    instances.
    """
    if label not in index[scan_t]:
        raise InstanceNotFound(f"instance label {label:#x} has no points in scan {scan_t}")
    scan_indices = list(range(max(0, scan_t - window), scan_t + 1))
    absent = (np.empty(0, dtype=np.intp), None)
    point_indices, sensor_centroids = zip(*(index[s].get(label, absent) for s in scan_indices))
    return InstanceTrack(
        label=label,
        scan_indices=scan_indices,
        point_indices=list(point_indices),
        sensor_centroids=list(sensor_centroids),
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


# Rows of a cloud and its labels as plain arrays:
# (points, remission, semantic, instance).
Rows = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _take(cloud: PointCloud, labels: LabelSet, idx) -> Rows:
    """The rows ``idx`` (indices or a slice) of a cloud and its labels."""
    return cloud.points[idx], cloud.remission[idx], labels.semantic[idx], labels.instance[idx]


def _concat(blocks: list[Rows], dtype: type = np.float64) -> tuple[PointCloud, LabelSet]:
    """Stack row blocks in order into one cloud and labels.

    The coordinates pass through ``dtype``: ``np.float32`` snaps them to
    the on-disk precision.
    """
    points, remission, semantic, instance = zip(*blocks)
    return (
        PointCloud(np.vstack(points, dtype=dtype), np.concatenate(remission, dtype=dtype)),
        LabelSet(np.concatenate(semantic), np.concatenate(instance)),
    )


def _fuse_instance(
    seq: SequenceData,
    scan_t: int,
    track: InstanceTrack,
    motion: Motion,
    to_current: dict[int, RigidTransform],
    config: FusionConfig,
) -> tuple[list[Rows], list[np.ndarray], list[tuple[int, int]]]:
    """Past-scan points of one instance mapped into the current sensor frame.

    ``to_current[s]`` maps scan s's sensor frame into scan t's. Returns the
    row blocks, their origins and the warnings; the rows cover only
    appended points, never the current scan's own. A moving instance's
    registrations share one KD-tree over its current points.
    """
    tree = (
        cKDTree(seq.scans[scan_t].points[track.point_indices[-1]])
        if motion is Motion.MOVING
        else None
    )
    blocks: list[Rows] = []
    origins: list[np.ndarray] = []
    warnings: list[tuple[int, int]] = []

    for s, idx in zip(track.scan_indices[:-1], track.point_indices[:-1]):
        if len(idx) == 0:
            continue
        pts, *rest = _take(seq.scans[s], seq.labels[s], idx)
        pts = apply_points(to_current[s], pts)
        if tree is not None:
            init = centroid_align(pts, tree.data)
            try:
                align = icp_register(pts, tree, init, config.registration).transform
            except (DegenerateSource, NoOverlap):
                align = init
                warnings.append((track.label, s - scan_t))
            pts = apply_points(align, pts)
        blocks.append((pts, *rest))
        origins.append(np.full(len(idx), s - scan_t, dtype=np.int64))

    return blocks, origins, warnings


def _fused_instances(
    seq: SequenceData,
    index: dict[int, InstanceIndex],
    scan_t: int,
    config: FusionConfig,
) -> Iterator[
    tuple[InstanceTrack, list[Rows], list[np.ndarray], list[tuple[int, int]]]
]:
    """The one track -> classify -> fuse loop behind ``fuse_scan`` and
    ``build_instance_db``.

    ``index`` holds the instance index of every scan of scan t's window (see
    ``gather_instance_track``). Yields, in packed-label order, each
    hard-class instance of scan t: its track, then its appended row blocks,
    their origins and its warnings.
    """
    t_inv = invert(seq.poses[scan_t])
    to_current = {
        s: compose(t_inv, seq.poses[s]) for s in _window(seq, scan_t, config.window)[:-1]
    }
    for label in index[scan_t]:
        track = gather_instance_track(index, scan_t, label, config.window)
        motion = classify_motion(track, seq.poses, config.moving_threshold)
        yield track, *_fuse_instance(seq, scan_t, track, motion, to_current, config)


def fuse_scan(
    seq: SequenceData | SequenceIndex, scan_t: int, config: FusionConfig
) -> FusedScan:
    """Fuse hard-class instance points from the past window into scan t."""
    seq = _as_data(seq)
    if not 0 <= scan_t < len(seq):
        raise ScanFuseError(f"scan {scan_t} out of range for sequence of {len(seq)}")
    index = {
        s: _instance_index(seq.scans[s], seq.labels[s], config.hard_classes)
        for s in _window(seq, scan_t, config.window)
    }

    current = seq.scans[scan_t]
    blocks = [_take(current, seq.labels[scan_t], slice(None))]
    origins: list[np.ndarray] = [np.empty(0, dtype=np.int64)]
    warnings: list[tuple[int, int]] = []
    for _, rows, origin, warns in _fused_instances(seq, index, scan_t, config):
        blocks += rows
        origins += origin
        warnings += warns

    cloud, labels = _concat(blocks)
    return FusedScan(
        cloud=cloud,
        labels=labels,
        n_current=len(current),
        origin_index=np.concatenate(origins),
        registration_warnings=warnings,
    )


# ---------------------------------------------------------------------------
# Instance database for copy-paste augmentation
# ---------------------------------------------------------------------------


@dataclass
class InstancePair:
    """One instance in its fused form, in the ``FusedScan`` layout.

    The first ``n_single`` rows of ``fused_cloud``/``fused_labels`` are the
    instance as seen in scan ``key[1]`` alone (the student's view); the rest
    are its points appended from past scans (teacher-only density).
    ``key[2]`` is the instance's packed label, so two instances sharing an
    ID in one scan have distinct keys.
    """

    key: tuple[str, int, int]  # (sequence, scan, packed label)
    fused_cloud: PointCloud
    fused_labels: LabelSet
    n_single: int

    @property
    def class_id(self) -> int:
        return unpack_label(self.key[2])[1]

    @property
    def single_cloud(self) -> PointCloud:
        """The single-scan member: a view of the first ``n_single`` rows."""
        cloud = self.fused_cloud
        return PointCloud(cloud.points[: self.n_single], cloud.remission[: self.n_single])


@dataclass
class InstanceDatabase:
    entries: list[InstancePair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path: str | Path) -> None:
        """Persist as ``entries.bin`` and ``entries.label``, every entry's fused
        rows back to back in the scan and label formats, then ``manifest.txt``
        with one ``seq scan instance class_id n_single n_rows`` line per entry."""
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
            manifest_lines = []
            with (
                open(path / "entries.bin", "wb") as bin_file,
                open(path / "entries.label", "wb") as label_file,
            ):
                for entry in self.entries:
                    bin_file.write(write_scan(entry.fused_cloud))
                    label_file.write(write_labels(entry.fused_labels))
                    seq_name, scan, label = entry.key
                    instance, class_id = unpack_label(label)
                    manifest_lines.append(
                        f"{seq_name} {scan} {instance} {class_id} {entry.n_single} "
                        f"{len(entry.fused_cloud)}\n"
                    )
            (path / "manifest.txt").write_text("".join(manifest_lines))
        except OSError as exc:
            raise DbWriteError(f"failed to write instance database: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "InstanceDatabase":
        """Read what ``save`` wrote; entries are row views of one parsed file pair."""
        manifest = Path(path) / "manifest.txt"
        lines = read_file(manifest, bytes.decode).splitlines()
        cloud = read_file(manifest.parent / "entries.bin", parse_scan)
        labels = read_file(manifest.parent / "entries.label", parse_labels)
        entries: list[InstancePair] = []
        start = 0
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"{manifest} line {line_no} {line!r}"
            fields = line.split()
            if len(fields) != 6:
                raise ScanFuseError(f"{where}: expected 6 fields, got {len(fields)}")
            try:
                scan, instance, class_id, n_single, n_rows = (int(v) for v in fields[1:])
            except ValueError:
                raise ScanFuseError(f"{where}: non-integer field") from None
            if not (0 <= instance <= 0xFFFF and 0 <= class_id <= 0xFFFF):
                raise ScanFuseError(f"{where}: instance or class_id outside 0..65535")
            if not 1 <= n_single <= n_rows:
                raise ScanFuseError(f"{where}: n_single outside 1..{n_rows}")
            rows = slice(start, start + n_rows)
            start += n_rows
            cloud_rows = PointCloud(cloud.points[rows], cloud.remission[rows])
            label_rows = LabelSet(labels.semantic[rows], labels.instance[rows])
            key = (fields[0], scan, pack_label(instance, class_id))
            entries.append(InstancePair(key, cloud_rows, label_rows, n_single))
        if not start == len(cloud) == len(labels):
            sizes = f"entries.bin holds {len(cloud)}, entries.label {len(labels)}"
            raise ScanFuseError(f"{manifest}: {start} rows listed; {sizes}")
        return cls(entries=entries)


def build_instance_db(
    seq: SequenceData | SequenceIndex, config: FusionConfig
) -> InstanceDatabase:
    """Store every hard-class instance occurrence with its fused counterpart.

    Each labelled scan is indexed once and every window holding it shares
    that index; a labelled scan whose window holds an unlabelled one raises
    ``MissingLabels``, as in ``fuse_scan``. Coordinates are stored in
    float32, the on-disk precision, so that ``load(save(db)) == db`` holds
    exactly.
    """
    seq = _as_data(seq)
    index = {
        s: _instance_index(scan, lab, config.hard_classes)
        for s, (scan, lab) in enumerate(zip(seq.scans, seq.labels))
        if lab is not None
    }
    entries: list[InstancePair] = []
    for scan_t in index:
        current, cur_labels = seq.scans[scan_t], seq.labels[scan_t]
        for track, rows, _, _ in _fused_instances(seq, index, scan_t, config):
            single = track.point_indices[-1]
            # float32 snaps to the on-disk precision, so round trips are exact
            cloud, labels = _concat([_take(current, cur_labels, single), *rows], np.float32)
            entries.append(
                InstancePair(
                    key=(seq.name, scan_t, track.label),
                    fused_cloud=cloud,
                    fused_labels=labels,
                    n_single=len(single),
                )
            )
    return InstanceDatabase(entries=entries)


def sample_and_paste(
    scan: FusedScan, db: InstanceDatabase, n: int, rng_seed: int
) -> FusedScan:
    """Paste ``n`` database pairs into a fused scan, synchronized.

    Each draw picks one entry and one transform (random yaw about the
    single-scan centroid plus a planar move within the current scene bounds)
    and moves the entry's fused rows under a fresh instance ID (see
    ``kitti_io.fresh_instance_ids``). The first ``n_single`` of them land in
    the student-visible region, the rest in the appended region, so the
    teacher sees each pasted row once, as it does for the real instances of
    ``fuse_scan``.
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
        # One 1-D reduction per column: an axis-0 reduction over the (N, 2)
        # slice walks it row by row, some 30 times slower; both are exact.
        x, y = cur_pts[:, 0], cur_pts[:, 1]
        xy_min = np.array([x.min(), y.min()])
        xy_max = np.array([x.max(), y.max()])
    else:
        xy_min = np.array([-10.0, -10.0])
        xy_max = np.array([10.0, 10.0])

    singles: list[Rows] = []
    appended: list[Rows] = []
    records: list[PasteRecord] = []

    for new_id in fresh_instance_ids(scan.labels, n):
        entry = db.entries[int(rng.integers(0, len(db)))]
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        tx = float(rng.uniform(xy_min[0], xy_max[0]))
        ty = float(rng.uniform(xy_min[1], xy_max[1]))
        pivot = centroid(entry.single_cloud.points)
        rot = rotation_about_z(yaw)
        target = np.array([tx, ty, pivot[2]])
        transform = RigidTransform(rot, target - rot @ pivot)

        cloud, k = entry.fused_cloud, entry.n_single
        points = apply_points(transform, cloud.points)
        semantic = entry.fused_labels.semantic
        instance = np.full(len(cloud), new_id, dtype=np.uint16)
        singles.append((points[:k], cloud.remission[:k], semantic[:k], instance[:k]))
        appended.append((points[k:], cloud.remission[k:], semantic[k:], instance[k:]))
        records.append(
            PasteRecord(key=entry.key, transform=transform, new_instance_id=new_id)
        )

    nc = scan.n_current
    cloud, labels = _concat(
        [_take(scan.cloud, scan.labels, slice(None, nc))]
        + singles
        + [_take(scan.cloud, scan.labels, slice(nc, None))]
        + appended
    )
    n_pasted_appended = sum(len(rows[0]) for rows in appended)
    origin = np.concatenate(
        [scan.origin_index, np.zeros(n_pasted_appended, dtype=np.int64)]
    )

    return FusedScan(
        cloud=cloud,
        labels=labels,
        n_current=nc + sum(len(rows[0]) for rows in singles),
        origin_index=origin,
        registration_warnings=list(scan.registration_warnings),
        pastes=list(scan.pastes) + records,
    )

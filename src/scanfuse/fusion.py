"""Sparse multi-scan fusion of hard-class instances.

Only instances of the configured hard classes are pulled forward from past
scans: static instances travel by the sensor pose chain alone, moving ones get
a centroid initialization plus ICP refinement onto their current-scan points.
The fused cloud keeps the current scan as an untouched prefix so student and
teacher branches stay point-aligned, and a paired instance database supports
synchronized copy-paste augmentation of both branches.

Each scan's hard-class rows are gathered once, into its instance index (see
``_instance_index``), and each instance's records (its ``PointCloud`` and
``LabelSet``) are row slices of that gather; a window moves each past scan's
gather by one transform, and an instance's points are its slice of the result.
An instance's entry is its one record: its track holds that entry for every
scan of the window, and classification, registration and the database read it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple

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
    write_file,
    write_labels,
    write_scan,
)
from .registration import RegistrationConfig, icp_register


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


# Rows as columns: points, remission and the labels parallel to them.
Block = tuple[np.ndarray, np.ndarray, LabelSet]


class IndexedInstance(NamedTuple):
    """One hard-class instance of a scan, as its instance index holds it: its
    rows in ascending scan order, points widened to float64, and their slice."""

    centroid: np.ndarray  # sensor-frame centroid of its rows
    cloud: PointCloud
    labels: LabelSet
    rows: slice  # of the scan's gathered hard rows (see ``_instance_index``)


# One scan's instance index: each hard-class instance's packed label -> its
# IndexedInstance.
InstanceIndex = dict[int, IndexedInstance]


@dataclass
class InstanceTrack:
    """One instance's index entry in each scan of the window.

    ``members[i]`` is the ``IndexedInstance`` of scan ``scan_indices[i]``
    itself, not a copy, and None where the instance has no points there;
    the last member, the current scan's, is never None.
    """

    label: int  # the instance's packed (instance << 16) | semantic label
    scan_indices: list[int]  # ascending, ending at the current scan
    members: list[IndexedInstance | None]  # parallel to scan_indices


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
    ``origin_runs`` is an (R, 2) int64 array of (origin, count) rows: the
    appended points come, in order, in runs of ``count`` points from the
    relative scan ``origin`` (-1..-K), 0 for pasted points, as fusion
    produces them; ``origin_index`` expands the runs to one origin per
    appended point. ``registration_warnings`` holds a
    ``(packed label, s - t, reason)`` for each past scan s of a moving
    instance placed by its centroid without ICP; ``reason`` is the text of
    the ``DegenerateSource`` or ``NoOverlap`` that ICP raised.
    """

    cloud: PointCloud
    labels: LabelSet
    n_current: int
    origin_runs: np.ndarray
    registration_warnings: list[tuple[int, int, str]] = field(default_factory=list)
    pastes: list[PasteRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.origin_runs = np.asarray(self.origin_runs, dtype=np.int64).reshape(-1, 2)
        counts = self.origin_runs[:, 1]
        if (counts < 0).any():
            raise ValueError("origin_runs holds a negative count")
        if self.n_current + int(counts.sum()) != len(self.cloud):
            raise ValueError("origin_runs does not cover the appended region")
        if len(self.labels) != len(self.cloud):
            raise ValueError("labels and cloud lengths differ")

    @property
    def origin_index(self) -> np.ndarray:
        """The relative scan of each appended point (read-only)."""
        index = np.repeat(self.origin_runs[:, 0], self.origin_runs[:, 1])
        index.flags.writeable = False
        return index

    @property
    def n_appended(self) -> int:
        return len(self.cloud) - self.n_current

    def current_cloud(self) -> PointCloud:
        return self.cloud[: self.n_current].copy()

    def current_labels(self) -> LabelSet:
        return self.labels[: self.n_current].copy()


def _window(index: dict[int, InstanceIndex], scan_t: int, window: int) -> range:
    """Scans [t-K, t] of scan t's fusion window; each must be labelled, that
    is, have its instance index in ``index``."""
    scans = range(max(0, scan_t - window), scan_t + 1)
    for s in scans:
        if s not in index:
            raise MissingLabels(f"scan {s} inside the fusion window has no labels")
    return scans


def _instance_index(
    scan: PointCloud, labels: LabelSet, hard_classes: frozenset[int]
) -> tuple[InstanceIndex, PointCloud]:
    """The instance index of one scan, and the gather it slices.

    The only place fusion gathers a scan's hard-class rows: one gather of
    the records takes the grouped rows of ``kitti_io.instance_rows`` at
    once, the points widened to float64 once, and each instance's records
    are its ``rows`` slice of that gather. Built once per scan per call, so
    every window holding the scan shares it. Each centroid is taken from its
    own rows: one reduction over the whole gather would change its bits."""
    rows, groups = instance_rows(labels, hard_classes)
    gathered = scan[rows]
    cloud = PointCloud(np.asarray(gathered.points, dtype=np.float64), gathered.remission)
    labels = labels[rows]
    index: InstanceIndex = {}
    for label, part in groups.items():
        member = cloud[part]
        index[label] = IndexedInstance(centroid(member.points), member, labels[part], part)
    return index, cloud


def gather_instance_track(
    index: dict[int, InstanceIndex], scan_t: int, label: int, window: int
) -> InstanceTrack:
    """The index entries of one instance over [t-K, t].

    ``label`` is the instance's packed ``(instance << 16) | semantic`` label
    and ``index[s]`` is the instance index of each scan s of the window
    (see ``_instance_index``), so an ID shared by two classes is two
    instances.
    """
    if label not in index[scan_t]:
        raise InstanceNotFound(f"instance label {label:#x} has no points in scan {scan_t}")
    scan_indices = list(range(max(0, scan_t - window), scan_t + 1))
    return InstanceTrack(label, scan_indices, [index[s].get(label) for s in scan_indices])


def classify_motion(
    track: InstanceTrack,
    poses: list[RigidTransform],
    moving_threshold: float,
) -> Motion:
    """Moving iff the max world-frame centroid displacement per scan step
    exceeds the threshold. Tracks seen in fewer than two scans are static by
    definition."""
    observed = [
        (s, member.centroid)
        for s, member in zip(track.scan_indices, track.members)
        if member is not None
    ]
    if len(observed) < 2:
        return Motion.STATIC
    world = [(s, apply_points(poses[s], c.reshape(1, 3))[0]) for s, c in observed]
    for (s_prev, c_prev), (s_next, c_next) in zip(world, world[1:]):
        step = float(np.linalg.norm(c_next - c_prev)) / (s_next - s_prev)
        if step > moving_threshold:
            return Motion.MOVING
    return Motion.STATIC


def _concat(blocks: list[Block], dtype: type = np.float64) -> tuple[PointCloud, LabelSet]:
    """Stack row blocks in order into one cloud and labels.

    The coordinates pass through ``dtype``: ``np.float32`` snaps them to
    the on-disk precision.
    """
    points, remission, labels = zip(*blocks)
    semantic, instance = zip(*((lab.semantic, lab.instance) for lab in labels))
    return (
        PointCloud(np.vstack(points, dtype=dtype), np.concatenate(remission, dtype=dtype)),
        LabelSet(np.concatenate(semantic), np.concatenate(instance)),
    )


def _fuse_instance(
    track: InstanceTrack,
    motion: Motion,
    to_current: dict[int, tuple[RigidTransform, np.ndarray]],
    config: FusionConfig,
) -> tuple[list[Block], list[tuple[int, int]], list[tuple[int, int, str]]]:
    """Past-scan points of one instance mapped into the current sensor frame.

    ``to_current[s]`` is the transform from scan s's sensor frame into scan
    t's and scan s's gather moved by it; a member's points are its ``rows``
    of that array, but a one-row member is moved alone, since NumPy takes a
    (1, 3) array by a path whose bits may differ. Returns the row blocks,
    their origins ``(s - t, rows)`` and the warnings; the rows cover only
    appended points. A moving instance's registrations share one KD-tree
    over its current member's points, and each starts from the translation
    that moves the block's centroid onto the current member's centroid.
    """
    scan_t = track.scan_indices[-1]
    current = track.members[-1]
    tree = cKDTree(current.cloud.points) if motion is Motion.MOVING else None
    blocks: list[Block] = []
    origins: list[tuple[int, int]] = []
    warnings: list[tuple[int, int, str]] = []

    for s, member in zip(track.scan_indices[:-1], track.members[:-1]):
        if member is None:
            continue
        transform, moved = to_current[s]
        pts = moved[member.rows]
        if len(pts) == 1:
            pts = apply_points(transform, member.cloud.points)
        if tree is not None:
            init = RigidTransform(np.eye(3), current.centroid - centroid(pts))
            try:
                align = icp_register(pts, tree, init, config.registration).transform
            except (DegenerateSource, NoOverlap) as exc:
                align = init
                warnings.append((track.label, s - scan_t, str(exc)))
            pts = apply_points(align, pts)
        blocks.append((pts, member.cloud.remission, member.labels))
        origins.append((s - scan_t, len(pts)))

    return blocks, origins, warnings


def _fused_instances(
    poses: list[RigidTransform],
    index: dict[int, InstanceIndex],
    gathered: dict[int, PointCloud],
    scan_t: int,
    config: FusionConfig,
) -> Iterator[
    tuple[InstanceTrack, list[Block], list[tuple[int, int]], list[tuple[int, int, str]]]
]:
    """The one track -> classify -> fuse loop behind ``fuse_scan`` and
    ``build_instance_db``.

    ``index`` holds the instance index of every scan of scan t's window (see
    ``gather_instance_track``) and ``gathered`` the gather each slices. Yields,
    in packed-label order, each hard-class instance of scan t: its track,
    then its appended row blocks, their ``(s - t, rows)`` origins and its
    warnings.
    """
    t_inv = invert(poses[scan_t])
    to_current = {}
    for s in _window(index, scan_t, config.window)[:-1]:
        transform = compose(t_inv, poses[s])
        to_current[s] = transform, apply_points(transform, gathered[s].points)
    for label in index[scan_t]:
        track = gather_instance_track(index, scan_t, label, config.window)
        motion = classify_motion(track, poses, config.moving_threshold)
        yield track, *_fuse_instance(track, motion, to_current, config)


def fuse_scan(
    seq: SequenceData | SequenceIndex, scan_t: int, config: FusionConfig
) -> FusedScan:
    """Fuse hard-class instance points from the past window into scan t.

    Every scan of ``seq`` is read, so a malformed file anywhere in it is an
    error, but only the window's scans are indexed, and of the scans read
    only scan t is kept: from a ``SequenceIndex``, the others' mappings go
    as the next is read."""
    if not 0 <= scan_t < len(seq):
        raise ScanFuseError(f"scan {scan_t} out of range for sequence of {len(seq)}")
    window = range(max(0, scan_t - config.window), scan_t + 1)
    index: dict[int, InstanceIndex] = {}
    gathered: dict[int, PointCloud] = {}
    for s, (scan, lab) in enumerate(seq.iter_scans()):
        if s == scan_t:
            current = scan.points, scan.remission, lab
        if s in window and lab is not None:
            index[s], gathered[s] = _instance_index(scan, lab, config.hard_classes)

    blocks: list[Block] = []
    origins: list[tuple[int, int]] = []
    warnings: list[tuple[int, int, str]] = []
    for _, rows, origin, warns in _fused_instances(seq.poses, index, gathered, scan_t, config):
        blocks += rows
        origins += origin
        warnings += warns

    cloud, labels = _concat([current, *blocks])
    return FusedScan(cloud, labels, len(current[0]), origins, registration_warnings=warnings)


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
        return self.fused_cloud[: self.n_single]


@dataclass
class InstanceDatabase:
    entries: list[InstancePair] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def save(self, path: str | Path) -> None:
        """Persist as ``entries.bin`` and ``entries.label``, every entry's fused
        rows back to back in the scan and label formats, then ``manifest.txt``
        with one ``seq scan instance class_id n_single n_rows`` line per entry.

        A sequence name the manifest cannot carry (empty, with leading or
        trailing whitespace, or with a character that is not printable, such
        as a line break) is a ``DbWriteError`` raised before any file is
        opened. Each file is replaced whole (``kitti_io.write_file``), so a
        database loaded from ``path`` keeps its entries when it is saved
        there again.

        An existing ``manifest.txt`` is deleted before the entry files are
        replaced, and the new one is written last. So a save that fails
        partway (a ``DbWriteError``) leaves no manifest, which ``load``
        refuses, rather than entry files of one save under the manifest of
        another: a failed save also loses the database it was replacing."""
        for seq_name in {entry.key[0] for entry in self.entries}:
            if not seq_name or seq_name != seq_name.strip() or not seq_name.isprintable():
                raise DbWriteError(f"sequence name {seq_name!r} cannot be stored in a manifest")
        manifest_lines = []
        for entry in self.entries:
            seq_name, scan, label = entry.key
            instance, class_id = unpack_label(label)
            manifest_lines.append(
                f"{seq_name} {scan} {instance} {class_id} {entry.n_single} "
                f"{len(entry.fused_cloud)}\n"
            )
        path = Path(path)
        try:
            path.mkdir(parents=True, exist_ok=True)
            (path / "manifest.txt").unlink(missing_ok=True)
            write_file(path / "entries.bin", (write_scan(e.fused_cloud) for e in self.entries))
            write_file(
                path / "entries.label", (write_labels(e.fused_labels) for e in self.entries)
            )
            write_file(path / "manifest.txt", "".join(manifest_lines).encode("utf-8"))
        except OSError as exc:
            raise DbWriteError(f"failed to write instance database: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "InstanceDatabase":
        """Read what ``save`` wrote; entries are row views of one parsed file
        pair, read-only views of ``entries.bin``'s mapping for the clouds."""
        manifest = Path(path) / "manifest.txt"
        lines = read_file(manifest, lambda data: str(data, "utf-8")).splitlines()
        cloud = read_file(manifest.parent / "entries.bin", parse_scan)
        labels = read_file(manifest.parent / "entries.label", parse_labels)
        entries: list[InstancePair] = []
        start = 0
        for line_no, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            where = f"{manifest} line {line_no} {line!r}"
            # the name may hold spaces; the five integer fields end the line
            fields = line.rsplit(maxsplit=5)
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
            key = (fields[0], scan, pack_label(instance, class_id))
            entries.append(InstancePair(key, cloud[rows], labels[rows], n_single))
        if not start == len(cloud) == len(labels):
            sizes = f"entries.bin holds {len(cloud)}, entries.label {len(labels)}"
            raise ScanFuseError(f"{manifest}: {start} rows listed; {sizes}")
        return cls(entries=entries)


def build_instance_db(
    seq: SequenceData | SequenceIndex, config: FusionConfig
) -> InstanceDatabase:
    """Store every hard-class instance occurrence with its fused counterpart.

    One pass over the sequence: each labelled scan is indexed once as it is
    read, every window holding it shares that index, and the index is
    dropped when the scan leaves the window. Only the index is kept, so a
    ``SequenceIndex`` is read with at most two scans mapped at a time. A
    labelled scan whose window holds an unlabelled one raises
    ``MissingLabels`` when it is reached, as in ``fuse_scan``. Coordinates
    are stored in float32, the on-disk precision, so that
    ``load(save(db)) == db`` holds exactly.
    """
    index: dict[int, InstanceIndex] = {}
    gathered: dict[int, PointCloud] = {}
    entries: list[InstancePair] = []
    for scan_t, (scan, lab) in enumerate(seq.iter_scans()):
        index.pop(scan_t - config.window - 1, None)
        gathered.pop(scan_t - config.window - 1, None)
        if lab is None:
            continue
        index[scan_t], gathered[scan_t] = _instance_index(scan, lab, config.hard_classes)
        for track, rows, _, _ in _fused_instances(seq.poses, index, gathered, scan_t, config):
            single = track.members[-1]
            block = single.cloud.points, single.cloud.remission, single.labels
            # float32 snaps to the on-disk precision, so round trips are exact
            cloud, labels = _concat([block, *rows], np.float32)
            key = (seq.name, scan_t, track.label)
            entries.append(InstancePair(key, cloud, labels, len(single.cloud)))
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

    singles: list[Block] = []
    appended: list[Block] = []
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
        moved = apply_points(transform, cloud.points)
        instance = np.full(len(cloud), new_id, dtype=np.uint16)
        relabelled = LabelSet(entry.fused_labels.semantic, instance)
        singles.append((moved[:k], cloud.remission[:k], relabelled[:k]))
        appended.append((moved[k:], cloud.remission[k:], relabelled[k:]))
        records.append(PasteRecord(entry.key, transform, new_id))

    nc, current = scan.n_current, scan.cloud
    cloud, labels = _concat(
        [(current.points[:nc], current.remission[:nc], scan.labels[:nc]), *singles]
        + [(current.points[nc:], current.remission[nc:], scan.labels[nc:]), *appended]
    )
    n_pasted_appended = sum(len(rows[0]) for rows in appended)

    return FusedScan(
        cloud=cloud,
        labels=labels,
        n_current=nc + sum(len(rows[0]) for rows in singles),
        origin_runs=np.concatenate([scan.origin_runs, [(0, n_pasted_appended)]]),
        registration_warnings=list(scan.registration_warnings),
        pastes=list(scan.pastes) + records,
    )

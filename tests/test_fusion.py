import dataclasses
import shutil

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from scanfuse import fusion
from scanfuse.errors import (
    DbWriteError,
    EmptyDatabase,
    InstanceNotFound,
    MissingLabels,
    ScanFuseError,
)
from scanfuse.fusion import (
    FusionConfig,
    InstanceDatabase,
    InstancePair,
    Motion,
    _instance_index,
    build_instance_db,
    classify_motion,
    fuse_scan,
    gather_instance_track,
    sample_and_paste,
)
from scanfuse.geometry import apply_points, centroid, compose, invert
from scanfuse.kitti_io import (
    LabelSet,
    PointCloud,
    SequenceData,
    instance_rows,
    pack_label,
    parse_scan,
    write_scan,
)
from scanfuse.registration import RegistrationConfig, icp_register
from scanfuse.synthetic import (
    ObjectSpec,
    SyntheticConfig,
    default_scene,
    make_synthetic_sequence,
)

from scenes import centroid_init, mixed_scene, random_rigid_transform, shared_id_scene


@pytest.fixture(scope="module")
def scene():
    return make_synthetic_sequence(mixed_scene(), seed=11)


@pytest.fixture(scope="module")
def rows(scene):
    """The instance index of every scan of ``scene``."""
    data, hard = scene.data, FusionConfig().hard_classes
    return {
        s: _instance_index(*scan, hard)[0] for s, scan in enumerate(zip(data.scans, data.labels))
    }


def packed(obj) -> int:
    """The packed (instance, class) label of a synthetic object."""
    return (obj.instance_id << 16) | obj.class_id


# --- _instance_index ------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.sampled_from([0, 1, 2, 0xFFFF]), st.sampled_from([18, 40, 81]))),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
@example([], 0, True)  # empty scan
@example([(0, 18), (1, 40), (2, 40)], 1, True)  # no hard instance (40 is not hard)
@example([(0, 40), (2, 18), (0, 40)], 2, True)  # a 1-point instance
@example([(1, 18), (1, 81), (1, 18), (0, 81)], 3, False)  # ID 1 shared by two classes
def test_instance_index_slices_one_gather_of_each_instance(rows, seed, from_disk):
    rng = np.random.default_rng(seed)
    scan = PointCloud(rng.normal(scale=20.0, size=(len(rows), 3)), rng.uniform(size=len(rows)))
    if from_disk:  # read-only float32 views, as parsed
        scan = parse_scan(write_scan(scan))
    labels = LabelSet([sem for _, sem in rows], [inst for inst, _ in rows])
    hard = FusionConfig().hard_classes
    grouped, groups = instance_rows(labels, hard)
    index, gathered = _instance_index(scan, labels, hard)
    assert list(index) == list(groups)
    assert gathered.points.dtype == np.float64 and len(gathered) == len(grouped)
    for label, entry in index.items():
        idx = grouped[groups[label]]
        expected = (
            scan.points[idx].astype(np.float64),
            scan.remission[idx],
            labels.semantic[idx],
            labels.instance[idx],
        )
        c, lab = entry.cloud, entry.labels
        columns = (c.points, c.remission, lab.semantic, lab.instance)
        for got, want in zip(columns, expected, strict=True):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert entry.centroid.tobytes() == centroid(scan.points[idx]).tobytes()
        assert entry.rows == groups[label] and entry.cloud == gathered[entry.rows]


# The in-memory float64 scenes that the bit guards of the fast path run on.
FLOAT64_SCENES = [
    pytest.param(default_scene(n_scans=8), 7, id="default_scene(n_scans=8) at seed 7"),
    pytest.param(default_scene(n_scans=8), 461, id="default_scene(n_scans=8) at seed 461"),
    pytest.param(mixed_scene(yaw_rate=0.3), 11, id="turning mixed_scene at seed 11"),
]


@pytest.mark.parametrize("config, seed", FLOAT64_SCENES)
def test_each_indexed_centroid_is_the_centroid_of_its_own_rows_by_bytes(config, seed):
    data, hard = make_synthetic_sequence(config, seed).data, FusionConfig().hard_classes
    for scan, labels in zip(data.scans, data.labels, strict=True):
        assert scan.points.dtype == np.float64
        rows, groups = instance_rows(labels, hard)
        index, _ = _instance_index(scan, labels, hard)
        assert list(index) == list(groups)
        for label, entry in index.items():
            want = centroid(scan.points[rows[groups[label]]])
            assert entry.centroid.tobytes() == want.tobytes()


@pytest.mark.parametrize("config, seed", FLOAT64_SCENES)
def test_a_member_of_two_or_more_rows_is_its_slice_of_its_scans_transform(config, seed):
    data, hard = make_synthetic_sequence(config, seed).data, FusionConfig().hard_classes
    indexed = [_instance_index(*scan, hard) for scan in zip(data.scans, data.labels)]
    checked = 0
    for t in range(len(data)):
        for s in range(max(0, t - 4), t):
            transform = compose(invert(data.poses[t]), data.poses[s])
            index, gathered = indexed[s]
            moved = apply_points(transform, gathered.points)
            for member in index.values():
                if len(member.cloud) < 2:
                    continue
                alone = apply_points(transform, member.cloud.points)
                assert moved[member.rows].tobytes() == alone.tobytes()
                checked += 1
    assert checked


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(2, 60), min_size=1, max_size=12),
    st.integers(0, 2**32 - 1),
    st.booleans(),
)
def test_any_group_of_two_or_more_rows_moves_as_its_slice_of_the_whole(sizes, seed, snap):
    rng = np.random.default_rng(seed)
    points = rng.normal(scale=30.0, size=(sum(sizes), 3))
    if snap:  # float32 values widened, as a parsed scan's rows are
        points = points.astype(np.float32).astype(np.float64)
    transform = random_rigid_transform(rng, max_translation=50.0)
    moved = apply_points(transform, points)
    bounds = np.cumsum([0, *sizes]).tolist()
    for lo, hi in zip(bounds, bounds[1:]):
        assert moved[lo:hi].tobytes() == apply_points(transform, points[lo:hi]).tobytes()


def per_instance_fusion(data: SequenceData, scan_t: int, config: FusionConfig) -> list:
    """The columns ``fuse_scan`` gives a scene whose instances are all static,
    with each past member moved by its own ``apply_points`` call."""
    window = range(max(0, scan_t - config.window), scan_t + 1)
    hard = config.hard_classes
    index = {s: _instance_index(data.scans[s], data.labels[s], hard)[0] for s in window}
    scan, labels = data.scans[scan_t], data.labels[scan_t]
    columns = [[scan.points], [scan.remission], [labels.semantic], [labels.instance]]
    for label in index[scan_t]:
        for s in window[:-1]:
            member = index[s].get(label)
            if member is not None:
                transform = compose(invert(data.poses[scan_t]), data.poses[s])
                moved = apply_points(transform, member.cloud.points)
                rows = (moved, member.cloud.remission, *vars(member.labels).values())
                for column, part in zip(columns, rows, strict=True):
                    column.append(part)
    return [np.concatenate(parts) for parts in columns]


def test_a_one_point_member_fuses_as_its_own_transform_moves_it():
    # Scan 5 keeps one row of the sign at a time. Moved within the whole
    # gather of scan 5, some of those rows take other bits than alone, so
    # the fused scan matches only if a one-row member is moved by itself.
    seq = make_synthetic_sequence(default_scene(n_scans=8), 7)
    config = FusionConfig(moving_threshold=float("inf"))  # all static: no ICP
    sign = seq.truth.objects[0].indices()
    transform = compose(invert(seq.data.poses[7]), seq.data.poses[5])
    whole_differs = []
    for kept in sign[:4]:
        labels = list(seq.data.labels)
        labels[5] = labels[5].copy()
        labels[5].instance[sign[sign != kept]] = 0
        data = dataclasses.replace(seq.data, labels=labels)
        index, gathered = _instance_index(data.scans[5], labels[5], config.hard_classes)
        (member,) = (entry for entry in index.values() if len(entry.cloud) == 1)
        whole = apply_points(transform, gathered.points)[member.rows]
        alone = apply_points(transform, member.cloud.points)
        whole_differs.append(whole.tobytes() != alone.tobytes())
        fused = fuse_scan(data, 7, config)
        got = (fused.cloud.points, fused.cloud.remission, *vars(fused.labels).values())
        for column, want in zip(got, per_instance_fusion(data, 7, config), strict=True):
            assert column.dtype == want.dtype and column.tobytes() == want.tobytes()
    assert any(whole_differs)


# --- gather_instance_track -------------------------------------------------------


def test_gather_full_track(scene, rows):
    truck = scene.truth.objects[1]
    track = gather_instance_track(rows, 4, packed(truck), window=4)
    assert track.scan_indices == [0, 1, 2, 3, 4]
    assert all(len(member.cloud) == 50 for member in track.members)
    assert track.label == (truck.instance_id << 16) | 18


def test_gather_instance_only_in_current_scan(scene, rows):
    track = gather_instance_track(rows, 0, packed(scene.truth.objects[0]), 4)
    assert track.scan_indices == [0]
    assert len(track.members[0].cloud) == 50


def test_gather_holds_the_index_entries_and_none_where_absent():
    # The truck has no rows in scans 1 and 3: its track holds the index's
    # own entries for scans 0, 2 and 4 and None for the other two.
    seq = make_synthetic_sequence(mixed_scene(), seed=11)
    data, truck = seq.data, packed(seq.truth.objects[1])
    for s in (1, 3):
        data.labels[s].instance[seq.truth.objects[1].indices()] = 0
    hard = FusionConfig().hard_classes
    index = {
        s: _instance_index(*scan, hard)[0] for s, scan in enumerate(zip(data.scans, data.labels))
    }
    track = gather_instance_track(index, 4, truck, window=4)
    assert track.scan_indices == [0, 1, 2, 3, 4]
    for s, member in zip(track.scan_indices, track.members, strict=True):
        if s in (1, 3):
            assert member is None and truck not in index[s]
        else:
            assert member is index[s][truck]


def test_gather_unknown_instance(scene, rows):
    truck = scene.truth.objects[1]
    with pytest.raises(InstanceNotFound):
        gather_instance_track(rows, 4, (999 << 16) | 18, window=4)
    # the truck's ID under another class is another (absent) instance
    with pytest.raises(InstanceNotFound):
        gather_instance_track(rows, 4, (truck.instance_id << 16) | 81, window=4)


# --- classify_motion -------------------------------------------------------


def test_moving_box_is_classified_moving(scene, rows):
    truck = scene.truth.objects[1]
    track = gather_instance_track(rows, 4, packed(truck), 4)
    assert classify_motion(track, scene.data.poses, 0.2) is Motion.MOVING


def test_static_sign_is_classified_static(scene, rows):
    sign = scene.truth.objects[0]
    track = gather_instance_track(rows, 4, packed(sign), 4)
    assert classify_motion(track, scene.data.poses, 0.2) is Motion.STATIC


def test_single_scan_track_is_static(scene, rows):
    truck = scene.truth.objects[1]
    track = gather_instance_track(rows, 0, packed(truck), 4)
    assert classify_motion(track, scene.data.poses, 0.2) is Motion.STATIC


def test_motion_displacement_is_normalized_over_scan_gaps():
    # Present at scans 0 and 3 only: 0.45 m over 3 steps is 0.15 m/scan,
    # below a 0.2 threshold even though the raw displacement exceeds it.
    from scanfuse.fusion import IndexedInstance, InstanceTrack
    from scanfuse.geometry import RigidTransform

    def member(x: float) -> IndexedInstance:
        point = np.array([[x, 0.0, 0.0]])
        cloud = PointCloud(point, [0.0])
        return IndexedInstance(point[0], cloud, LabelSet([18], [1]), slice(0, 1))

    poses = [RigidTransform.identity() for _ in range(4)]
    track = InstanceTrack(
        label=(1 << 16) | 18,
        scan_indices=[0, 1, 2, 3],
        members=[member(0.0), None, None, member(0.45)],
    )
    assert classify_motion(track, poses, 0.2) is Motion.STATIC
    assert classify_motion(track, poses, 0.1) is Motion.MOVING


# --- fuse_scan -------------------------------------------------------


def test_fuse_first_scan_has_nothing_to_append(scene):
    fused = fuse_scan(scene.data, 0, FusionConfig(window=1))
    assert fused.n_appended == 0
    assert fused.cloud == scene.data.scans[0]
    assert fused.labels == scene.data.labels[0]


def test_fuse_prefix_is_bit_identical(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    current = scene.data.scans[4]
    assert np.array_equal(fused.cloud.points[: fused.n_current], current.points)
    assert np.array_equal(fused.cloud.remission[: fused.n_current], current.remission)


def test_fuse_static_points_land_on_current_geometry(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    sign = scene.truth.objects[0]
    appended = fused.cloud.points[fused.n_current :]
    appended_sign = appended[fused.labels.semantic[fused.n_current :] == 81]
    assert len(appended_sign) == 4 * 50
    current_sign = scene.data.scans[4].points[sign.indices()]
    dists, _ = cKDTree(current_sign).query(appended_sign)
    assert dists.max() < 1e-6


def test_fuse_moving_points_beat_pose_only_fusion(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    truck = scene.truth.objects[1]
    current_truck = scene.data.scans[4].points[truck.indices()]
    tree = cKDTree(current_truck)

    appended_mask = fused.labels.semantic[fused.n_current :] == 18
    registered = fused.cloud.points[fused.n_current :][appended_mask]
    dists, _ = tree.query(registered)
    assert dists.max() < 1e-3

    # pose-only counterpart: the same physical points stay k * 0.5 m short of
    # their true current positions (point identity is known by construction)
    t_inv = invert(scene.data.poses[4])
    for s in range(0, 4):
        rel = compose(t_inv, scene.data.poses[s])
        naive = apply_points(rel, scene.data.scans[s].points[truck.indices()])
        identity_err = np.linalg.norm(naive - current_truck, axis=1)
        assert identity_err.min() >= 0.49 * (4 - s)


def test_fuse_appends_only_hard_classes(scene):
    config = FusionConfig()
    fused = fuse_scan(scene.data, 4, config)
    appended_classes = set(fused.labels.semantic[fused.n_current :].tolist())
    assert appended_classes <= config.hard_classes
    assert fused.n_appended > 0


def test_fused_size_below_naive_full_fusion(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    assert len(fused.cloud) < sum(len(scene.data.scans[s]) for s in range(5))


def test_fuse_is_deterministic(scene):
    config = FusionConfig()
    a = fuse_scan(scene.data, 4, config)
    b = fuse_scan(scene.data, 4, config)
    assert a.cloud == b.cloud
    assert a.labels == b.labels
    assert np.array_equal(a.origin_index, b.origin_index)


def test_fuse_origin_indices_are_relative_scans(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig(window=3))
    assert set(fused.origin_index.tolist()) <= {-1, -2, -3}


def origins_point_by_point(data: SequenceData, scan_t: int, config: FusionConfig) -> bytes:
    """The origin of every appended point, one point at a time: each hard
    instance of scan t in packed-label order, then each past scan s of the
    window in order, gives ``s - t`` once per row it has in scan s."""
    def packed_rows(labels):
        hard = np.isin(labels.semantic, list(config.hard_classes)) & (labels.instance != 0)
        return pack_label(labels.instance.astype(np.uint32), labels.semantic)[hard].tolist()

    origins = []
    for label in sorted(set(packed_rows(data.labels[scan_t]))):
        for s in range(max(0, scan_t - config.window), scan_t):
            for row_label in packed_rows(data.labels[s]):
                if row_label == label:
                    origins.append(s - scan_t)
    return np.array(origins, dtype=np.int64).tobytes()


def sparse_hard_scene():
    """``mixed_scene`` with the truck unlabelled in scans 1 and 3, and no
    hard instance at all in scan 2."""
    seq = make_synthetic_sequence(mixed_scene(n_scans=6), seed=11)
    truck = seq.truth.objects[1]
    for s in (1, 3):
        seq.data.labels[s].instance[truck.indices()] = 0
    seq.data.labels[2].instance[:] = 0
    return seq.data


@pytest.mark.parametrize("window", [1, 2, 4])
@pytest.mark.parametrize("variant", ["moving", "rotating", "sparse"])
def test_origin_index_matches_a_point_by_point_construction(variant, window):
    data = {
        "moving": lambda: make_synthetic_sequence(mixed_scene(n_scans=6), seed=11).data,
        "rotating": lambda: make_synthetic_sequence(mixed_scene(6, yaw_rate=0.3), seed=12).data,
        "sparse": sparse_hard_scene,
    }[variant]()
    config = FusionConfig(window=window)
    for scan_t in range(len(data)):  # t = 0 has an empty window
        fused = fuse_scan(data, scan_t, config)
        assert fused.origin_index.dtype == np.int64
        assert fused.origin_index.tobytes() == origins_point_by_point(data, scan_t, config)
        if variant == "sparse" and scan_t == 2:  # no hard instance to append to
            assert fused.n_appended == 0


@pytest.mark.parametrize("yaw_rate", [0.0, 0.3])
def test_icp_starts_from_the_centroid_alignment_onto_the_current_view(monkeypatch, yaw_rate):
    # The start is built from the current member's indexed centroid; it must
    # equal, bit for bit, the alignment computed from the KD-tree's points.
    starts = []

    def recording_icp(source, tree, init, config):
        starts.append((init, centroid_init(source, tree.data)))
        return icp_register(source, tree, init, config)

    monkeypatch.setattr(fusion, "icp_register", recording_icp)
    seq = make_synthetic_sequence(mixed_scene(yaw_rate=yaw_rate), seed=12)
    fuse_scan(seq.data, 4, FusionConfig())
    assert len(starts) == 4  # the moving truck in each past scan
    for init, want in starts:
        assert init.rotation.tobytes() == want.rotation.tobytes()
        assert init.translation.tobytes() == want.translation.tobytes()


def test_fuse_missing_labels(scene):
    data = make_synthetic_sequence(mixed_scene(), seed=11).data
    data.labels[2] = None
    with pytest.raises(MissingLabels):
        fuse_scan(data, 4, FusionConfig())
    # build_instance_db keeps the same window rule for every labelled scan,
    # also one without hard instances
    with pytest.raises(MissingLabels):
        build_instance_db(data, FusionConfig())
    data.labels[3] = LabelSet(np.zeros(len(data.scans[3])), np.zeros(len(data.scans[3])))
    with pytest.raises(MissingLabels, match="scan 2"):
        build_instance_db(data, FusionConfig(window=1))


def test_fuse_no_overlap_falls_back_with_warning():
    # Rotating object + a correspondence gate far below the rotation residual
    # forces NoOverlap inside ICP; fusion keeps the centroid alignment.
    seq = make_synthetic_sequence(mixed_scene(yaw_rate=0.3), seed=12)
    config = FusionConfig(
        registration=RegistrationConfig(max_correspondence_dist=1e-9)
    )
    fused = fuse_scan(seq.data, 4, config)
    assert fused.n_appended > 0
    truck = packed(seq.truth.objects[1])
    reason = "no correspondences within 1e-09 m at initialization"
    assert (truck, -1, reason) in fused.registration_warnings
    assert all(warning[0] == truck for warning in fused.registration_warnings)


def test_fuse_degenerate_past_view_falls_back_with_warning():
    # The truck keeps 2 of its rows in scan 2: too few for ICP to fit
    # (DegenerateSource), so fusion places them by the centroid
    # initialization and records the scan, as it does for NoOverlap.
    seq = make_synthetic_sequence(mixed_scene(), seed=11)
    truck = seq.truth.objects[1]
    seq.data.labels[2].instance[truck.indices()[2:]] = 0
    fused = fuse_scan(seq.data, 4, FusionConfig())
    assert (packed(truck), -2, "need >= 3 source points, got 2") in fused.registration_warnings
    appended = fused.labels.instance[fused.n_current :]
    assert np.count_nonzero((fused.origin_index == -2) & (appended == truck.instance_id)) == 2


def test_fuse_degenerate_current_view_falls_back_with_warning():
    # The truck keeps 2 of its rows in the current scan: ICP would fit every
    # past view onto 2 points and turn it freely about their line, so each
    # view is placed by its centroid initialization, with a warning.
    seq = make_synthetic_sequence(mixed_scene(), seed=11)
    truck = seq.truth.objects[1]
    seq.data.labels[4].instance[truck.indices()[2:]] = 0
    fused = fuse_scan(seq.data, 4, FusionConfig())
    reason = "matched target points are (near-)collinear"
    assert fused.registration_warnings == [(packed(truck), s, reason) for s in (-4, -3, -2, -1)]
    current = seq.data.scans[4].points[truck.indices()[:2]]
    appended = fused.labels.instance[fused.n_current :] == truck.instance_id
    for s in (-4, -3, -2, -1):
        view = fused.cloud.points[fused.n_current :][appended & (fused.origin_index == s)]
        assert len(view) == 50
        assert np.allclose(centroid(view), centroid(current), atol=1e-9)


def test_registration_warning_names_the_packed_label_of_a_shared_id():
    # The sign and the truck both carry ID 5; only the truck's scan-2 view
    # (cut to 2 rows) falls back, so the one warning names the truck's
    # packed label and none names the sign's.
    seq = shared_id_scene()
    truck = seq.truth.objects[1]
    seq.data.labels[2].instance[truck.indices()[2:]] = 0
    fused = fuse_scan(seq.data, 4, FusionConfig())
    assert fused.registration_warnings == [(packed(truck), -2, "need >= 3 source points, got 2")]


def test_fuse_accepts_sequence_index(tmp_path, scene):
    from scanfuse.kitti_io import write_sequence

    index = write_sequence(scene.data, tmp_path / "seq")
    fused = fuse_scan(index, 4, FusionConfig())
    assert fused.n_appended > 0


def test_fused_cloud_serialization_roundtrips(scene):
    # any fused cloud: cloud -> bytes -> cloud -> bytes is byte-stable, and
    # the reparsed cloud round-trips exactly (it is float32-clean)
    from scanfuse.kitti_io import parse_scan, write_scan

    fused = fuse_scan(scene.data, 4, FusionConfig())
    data = write_scan(fused.cloud)
    reparsed = parse_scan(data)
    assert write_scan(reparsed) == data
    assert parse_scan(write_scan(reparsed)) == reparsed


# --- instance database -------------------------------------------------------


def test_build_db_counts_every_occurrence(scene):
    db = build_instance_db(scene.data, FusionConfig())
    # 2 hard instances visible in all 5 scans
    assert len(db) == 10
    keys = {entry.key for entry in db.entries}
    assert len(keys) == 10


def test_build_db_empty_without_hard_points():
    config = SyntheticConfig(
        n_scans=3,
        ground_points=30,
        points_per_object=10,
        objects=[ObjectSpec(shape="box", class_id=50, center=(5.0, 0.0, 1.0))],
    )
    seq = make_synthetic_sequence(config, seed=13)
    db = build_instance_db(seq.data, FusionConfig())
    assert len(db) == 0


def test_db_roundtrips_through_disk(scene, tmp_path):
    db = build_instance_db(scene.data, FusionConfig())
    db.save(tmp_path / "augdb")
    assert InstanceDatabase.load(tmp_path / "augdb") == db


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda fields, rows: fields[:-1], "expected 6 fields, got 5"),
        # a name may hold spaces, so a seventh token is read as part of it
        pytest.param(
            lambda fields, rows: fields + ["extra"],
            "non-integer field",
            id="<lambda>-seven tokens, non-integer field",
        ),
        (lambda fields, rows: fields[:3] + ["81.0"] + fields[4:], "non-integer field"),
        (lambda fields, rows: fields[:4] + ["x"] + fields[5:], "non-integer field"),
        (lambda fields, rows: fields[:4] + ["0"] + fields[5:], "n_single outside"),
        (lambda fields, rows: fields[:4] + [str(rows + 1)] + fields[5:], "n_single outside"),
        (lambda fields, rows: fields[:2] + ["65536"] + fields[3:], "outside 0..65535"),
        (lambda fields, rows: fields[:3] + ["-1"] + fields[4:], "outside 0..65535"),
    ],
)
def test_db_load_rejects_a_bad_manifest_line(scene, tmp_path, edit, message):
    db = build_instance_db(scene.data, FusionConfig())
    db.save(tmp_path / "augdb")
    manifest = tmp_path / "augdb" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[1] = " ".join(edit(lines[1].split(), len(db.entries[1].fused_cloud)))
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScanFuseError, match=f"line 2 .*{message}"):
        InstanceDatabase.load(tmp_path / "augdb")


@pytest.mark.parametrize(
    "name, cut, message",
    [
        ("entries.bin", 16, "rows listed; entries.bin holds {n}, entries.label {n1}"),
        ("entries.bin", 4, r"augdb/entries.bin: scan length \d+ is not a multiple of 16"),
        ("entries.label", 4, "rows listed; entries.bin holds {n1}, entries.label {n}"),
        ("entries.label", 1, r"augdb/entries.label: label length \d+ is not a multiple of 4"),
    ],
    ids=["bin-record", "bin-partial-record", "label-record", "label-partial-record"],
)
def test_db_load_rejects_a_truncated_entry_file(scene, tmp_path, name, cut, message):
    db = build_instance_db(scene.data, FusionConfig())
    db.save(tmp_path / "augdb")
    entry_file = tmp_path / "augdb" / name
    entry_file.write_bytes(entry_file.read_bytes()[:-cut])
    n1 = sum(len(entry.fused_cloud) for entry in db.entries)
    with pytest.raises(ScanFuseError, match=message.format(n=n1 - 1, n1=n1)):
        InstanceDatabase.load(tmp_path / "augdb")


def test_db_load_rejects_a_manifest_that_is_not_utf8(scene, tmp_path):
    build_instance_db(scene.data, FusionConfig()).save(tmp_path / "augdb")
    manifest = tmp_path / "augdb" / "manifest.txt"
    manifest.write_bytes(manifest.read_bytes().replace(b" ", b"\xff", 1))
    with pytest.raises(ScanFuseError, match="augdb/manifest.txt: not UTF-8 text"):
        InstanceDatabase.load(tmp_path / "augdb")


@pytest.mark.parametrize("delta", [1, -1])
def test_db_load_rejects_a_manifest_listing_other_row_counts(scene, tmp_path, delta):
    db = build_instance_db(scene.data, FusionConfig())
    assert db.entries[-1].n_single < len(db.entries[-1].fused_cloud)
    db.save(tmp_path / "augdb")
    manifest = tmp_path / "augdb" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    *fields, n_rows = lines[-1].split()
    lines[-1] = " ".join(fields + [str(int(n_rows) + delta)])
    manifest.write_text("\n".join(lines) + "\n")
    n = sum(len(entry.fused_cloud) for entry in db.entries)
    with pytest.raises(ScanFuseError, match=f"{n + delta} rows listed; entries.bin holds {n},"):
        InstanceDatabase.load(tmp_path / "augdb")


def test_db_load_rejects_the_manifest_of_another_save(scene, tmp_path):
    build_instance_db(scene.data, FusionConfig()).save(tmp_path / "augdb")
    build_instance_db(shared_id_scene().data, FusionConfig(window=4)).save(tmp_path / "other")
    shutil.copy(tmp_path / "other" / "manifest.txt", tmp_path / "augdb" / "manifest.txt")
    with pytest.raises(ScanFuseError, match="rows listed"):
        InstanceDatabase.load(tmp_path / "augdb")


@pytest.mark.parametrize("name", ["my seq", "a  b", "7 1 2", "séq"])
def test_db_with_spaces_in_its_sequence_name_roundtrips(scene, tmp_path, name):
    db = build_instance_db(dataclasses.replace(scene.data, name=name), FusionConfig())
    assert {entry.key[0] for entry in db.entries} == {name}
    db.save(tmp_path / "augdb")
    assert InstanceDatabase.load(tmp_path / "augdb") == db


@pytest.mark.parametrize(
    "name", ["", " lead", "trail ", "a\nb", "a\rb", "a\tb", "a\x0cb", "a\u2028b", "\udcff"]
)
def test_db_save_rejects_a_name_the_manifest_cannot_carry(scene, tmp_path, name):
    db = build_instance_db(dataclasses.replace(scene.data, name=name), FusionConfig())
    with pytest.raises(DbWriteError, match="sequence name"):
        db.save(tmp_path / "augdb")
    assert not (tmp_path / "augdb").exists()


def test_empty_db_roundtrips_through_disk(tmp_path):
    InstanceDatabase().save(tmp_path / "augdb")
    assert sorted(p.name for p in (tmp_path / "augdb").iterdir()) == [
        "entries.bin",
        "entries.label",
        "manifest.txt",
    ]
    assert InstanceDatabase.load(tmp_path / "augdb") == InstanceDatabase()


def test_db_load_parses_each_file_once_and_entries_are_views(scene, tmp_path, monkeypatch):
    parsed = []

    def recording(parse):
        def wrapper(data):
            parsed.append(parse(data))
            return parsed[-1]

        return wrapper

    monkeypatch.setattr(fusion, "parse_scan", recording(fusion.parse_scan))
    monkeypatch.setattr(fusion, "parse_labels", recording(fusion.parse_labels))
    db = build_instance_db(scene.data, FusionConfig())
    db.save(tmp_path / "augdb")
    loaded = InstanceDatabase.load(tmp_path / "augdb")
    assert loaded == db
    cloud, labels = parsed  # one call each
    assert isinstance(cloud, PointCloud) and isinstance(labels, LabelSet)
    for entry in loaded.entries:
        assert np.shares_memory(entry.fused_cloud.points, cloud.points)
        assert np.shares_memory(entry.fused_cloud.remission, cloud.remission)
        assert np.shares_memory(entry.fused_labels.semantic, labels.semantic)
        assert np.shares_memory(entry.fused_labels.instance, labels.instance)


_ID = st.one_of(st.sampled_from([0, 1, 0xFFFE, 0xFFFF]), st.integers(0, 0xFFFF))
_F32 = st.floats(width=32, allow_nan=False, allow_infinity=False)


@st.composite
def _db_entries(draw):
    """One entry of 1 to 20 float32-exact rows; IDs often at the 16-bit ends."""
    n_rows = draw(st.integers(1, 20))
    n_single = draw(st.one_of(st.just(n_rows), st.integers(1, n_rows)))
    records = draw(st.lists(_F32, min_size=4 * n_rows, max_size=4 * n_rows))
    records = np.array(records, dtype=np.float32).reshape(n_rows, 4)
    ids = draw(st.lists(_ID, min_size=2 * n_rows, max_size=2 * n_rows))
    semantic, instance = np.array(ids, dtype=np.uint16).reshape(2, n_rows)
    seq_name = draw(st.text("0123456789abz_", min_size=1, max_size=4))
    key = (seq_name, draw(st.integers(0, 4540)), (draw(_ID) << 16) | draw(_ID))
    cloud = PointCloud(records[:, :3], records[:, 3])
    return InstancePair(key, cloud, LabelSet(semantic, instance), n_single)


@settings(max_examples=60, deadline=None)
@given(entries=st.lists(_db_entries(), max_size=6))
def test_db_roundtrip_property(entries, tmp_path_factory):
    db = InstanceDatabase(entries=entries)
    out = tmp_path_factory.mktemp("augdb")
    db.save(out)
    assert InstanceDatabase.load(out) == db


def test_an_id_shared_by_two_classes_is_two_instances(tmp_path):
    """A sign (81) and a truck (18) both carry ID 5: each is fused and stored
    on its own."""
    seq = shared_id_scene()
    config = FusionConfig(window=4)
    fused = fuse_scan(seq.data, 4, config)
    appended = fused.labels.semantic[fused.n_current :]
    assert (appended == 81).sum() == 4 * 30
    assert (appended == 18).sum() == 4 * 30
    sign = seq.truth.objects[0]
    appended_sign = fused.cloud.points[fused.n_current :][appended == 81]
    dists, _ = cKDTree(seq.data.scans[4].points[sign.indices()]).query(appended_sign)
    assert dists.max() < 1e-6

    db = build_instance_db(seq.data, config)
    assert sorted((e.key[1], e.class_id) for e in db.entries) == [
        (t, c) for t in range(5) for c in (18, 81)
    ]
    for entry in db.entries:
        assert set(entry.fused_labels.semantic.tolist()) == {entry.class_id}
        assert entry.n_single == 30
    db.save(tmp_path / "augdb")
    assert InstanceDatabase.load(tmp_path / "augdb") == db


def test_db_key_names_one_entry_when_an_id_is_shared():
    """Keys carry the packed label, so on the shared-ID scene the 10 entries
    have 10 keys and each paste record names the entry it pasted."""
    seq = shared_id_scene()
    config = FusionConfig(window=4)
    db = build_instance_db(seq.data, config)
    assert len({e.key for e in db.entries}) == len(db) == 10
    for entry in db.entries:
        assert entry.key[2] == (5 << 16) | entry.class_id

    out = sample_and_paste(fuse_scan(seq.data, 4, config), db, 12, rng_seed=3)
    pasted_classes = set()
    for record in out.pastes:
        (entry,) = [e for e in db.entries if e.key == record.key]
        rows = out.labels.instance == record.new_instance_id
        assert set(out.labels.semantic[rows].tolist()) == {entry.class_id}
        pasted_classes.add(entry.class_id)
    assert pasted_classes == {18, 81}


def test_db_fused_member_is_denser_than_single(scene):
    db = build_instance_db(scene.data, FusionConfig())
    latest = [e for e in db.entries if e.key[1] == 4]
    for entry in latest:
        assert len(entry.fused_cloud) > len(entry.single_cloud)


def shuffled_rows(seq: SequenceData, seed: int) -> SequenceData:
    """The same sequence with each scan's rows in a fresh order, so an
    instance's past-scan rows do not line up with its current-scan rows."""
    rng = np.random.default_rng(seed)
    scans, labels = [], []
    for cloud, lab in zip(seq.scans, seq.labels):
        order = rng.permutation(len(cloud))
        scans.append(cloud[order])
        labels.append(lab[order])
    return SequenceData(scans, labels, seq.poses, seq.calib, seq.name)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), window=st.integers(1, 4))
def test_db_entries_are_fuse_scan_rows_of_their_instance(seed, window):
    """Each pair is fuse_scan(t) restricted to its instance, in row order:
    current-prefix rows of (iid, class), then appended rows of iid."""
    seq = shuffled_rows(make_synthetic_sequence(default_scene(), seed).data, seed)
    config = FusionConfig(window=window)
    db = build_instance_db(seq, config)
    assert db.entries
    fused = {t: fuse_scan(seq, t, config) for t in range(len(seq))}
    appended_in_db = dict.fromkeys(fused, 0)
    for entry in db.entries:
        _, t, label = entry.key
        iid = label >> 16
        f, nc = fused[t], fused[t].n_current
        single = np.flatnonzero(
            (f.labels.instance[:nc] == iid) & (f.labels.semantic[:nc] == entry.class_id)
        )
        rows = np.concatenate([single, nc + np.flatnonzero(f.labels.instance[nc:] == iid)])
        head = slice(None, entry.n_single)
        single_labels = entry.fused_labels[head]
        for pair_cloud, pair_labels, idx in (
            (entry.single_cloud, single_labels, single),
            (entry.fused_cloud, entry.fused_labels, rows),
        ):
            assert np.array_equal(pair_cloud.points, f.cloud.points[idx].astype(np.float32))
            assert np.array_equal(
                pair_cloud.remission, f.cloud.remission[idx].astype(np.float32)
            )
            assert np.array_equal(pair_labels.semantic, f.labels.semantic[idx])
            assert np.array_equal(pair_labels.instance, f.labels.instance[idx])
        appended_in_db[t] += len(rows) - len(single)
    assert appended_in_db == {t: f.n_appended for t, f in fused.items()}


# --- sample_and_paste -------------------------------------------------------


def test_paste_zero_is_noop(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    db = build_instance_db(scene.data, FusionConfig())
    out = sample_and_paste(fused, db, 0, rng_seed=1)
    assert out.cloud == fused.cloud
    assert out.labels == fused.labels


def test_paste_requires_nonempty_db(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    with pytest.raises(EmptyDatabase):
        sample_and_paste(fused, InstanceDatabase(), 1, rng_seed=1)


def test_paste_members_share_one_transform(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    db = build_instance_db(scene.data, FusionConfig())
    out = sample_and_paste(fused, db, 1, rng_seed=7)
    assert len(out.pastes) == 1
    record = out.pastes[0]
    entry = next(e for e in db.entries if e.key == record.key)

    moved = apply_points(record.transform, entry.fused_cloud.points)
    pasted_single = out.cloud.points[fused.n_current : out.n_current]
    assert np.array_equal(pasted_single, moved[: entry.n_single])

    pasted_appended = out.cloud.points[out.n_current + fused.n_appended :]
    assert np.array_equal(pasted_appended, moved[entry.n_single :])


def test_each_pasted_instance_adds_its_fused_rows_once(scene):
    """A pasted pair contributes len(fused_cloud) rows, as a real instance of
    fuse_scan does: n_single to the student prefix, the rest after the old
    appended region, all moved by the record's transform."""
    fused = fuse_scan(scene.data, 4, FusionConfig())
    db = build_instance_db(scene.data, FusionConfig())
    out = sample_and_paste(fused, db, 6, rng_seed=11)
    entries = {e.key: e for e in db.entries}
    pasted = [entries[r.key] for r in out.pastes]
    assert any(len(e.fused_cloud) > e.n_single for e in pasted)
    assert len(out.cloud) == len(fused.cloud) + sum(len(e.fused_cloud) for e in pasted)
    assert out.n_current == fused.n_current + sum(e.n_single for e in pasted)

    tail_start = out.n_current + fused.n_appended
    for record, entry in zip(out.pastes, pasted):
        rows = np.flatnonzero(out.labels.instance == record.new_instance_id)
        head, tail = rows[: entry.n_single], rows[entry.n_single :]
        assert len(rows) == len(entry.fused_cloud)
        assert fused.n_current <= head.min() and head.max() < out.n_current
        assert len(tail) == 0 or tail.min() >= tail_start
        moved = apply_points(record.transform, entry.fused_cloud.points)
        assert np.array_equal(out.cloud.points[head], moved[: entry.n_single])
        assert np.array_equal(out.cloud.points[tail], moved[entry.n_single :])
        assert np.array_equal(out.cloud.remission[rows], entry.fused_cloud.remission)
        assert np.array_equal(out.labels.semantic[rows], entry.fused_labels.semantic)
    assert not out.origin_index[tail_start - out.n_current :].any()


def test_paste_is_deterministic(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    db = build_instance_db(scene.data, FusionConfig())
    a = sample_and_paste(fused, db, 3, rng_seed=5)
    b = sample_and_paste(fused, db, 3, rng_seed=5)
    assert a.cloud == b.cloud
    assert a.labels == b.labels
    assert np.array_equal(a.origin_index, b.origin_index)


def test_paste_assigns_fresh_instance_ids(scene):
    fused = fuse_scan(scene.data, 4, FusionConfig())
    db = build_instance_db(scene.data, FusionConfig())
    out = sample_and_paste(fused, db, 2, rng_seed=9)
    old_max = int(fused.labels.instance.max())
    new_ids = {r.new_instance_id for r in out.pastes}
    assert new_ids == {old_max + 1, old_max + 2}
    for record in out.pastes:
        assert (out.labels.instance == record.new_instance_id).sum() > 0


def test_paste_preserves_raw_scan_prefix(scene):
    current = scene.data.scans[4]
    fused = fuse_scan(scene.data, 4, FusionConfig())
    db = build_instance_db(scene.data, FusionConfig())
    out = sample_and_paste(fused, db, 2, rng_seed=3)
    assert np.array_equal(out.cloud.points[: len(current)], current.points)
    # appended region stays hard-class only
    config = FusionConfig()
    assert set(out.labels.semantic[out.n_current :].tolist()) <= config.hard_classes

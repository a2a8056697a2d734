import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from scanfuse.errors import EmptyDatabase, InstanceNotFound, MissingLabels, ScanFuseError
from scanfuse.fusion import (
    FusionConfig,
    InstanceDatabase,
    Motion,
    build_instance_db,
    classify_motion,
    fuse_scan,
    gather_instance_track,
    naive_fusion_size,
    sample_and_paste,
)
from scanfuse.geometry import apply_points, compose, invert
from scanfuse.kitti_io import LabelSet, PointCloud, SequenceData
from scanfuse.registration import RegistrationConfig
from scanfuse.synthetic import (
    ObjectSpec,
    SyntheticConfig,
    default_scene,
    make_synthetic_sequence,
)


def mixed_scene(n_scans=5, yaw_rate=0.0):
    """Static traffic sign + moving truck + road plane."""
    return SyntheticConfig(
        n_scans=n_scans,
        ground_points=80,
        points_per_object=50,
        objects=[
            ObjectSpec(
                shape="cylinder", class_id=81, center=(8.0, 3.0, 1.0), size=(0.4, 1.2)
            ),
            ObjectSpec(
                shape="box",
                class_id=18,
                center=(6.0, -4.0, 1.2),
                size=(3.0, 2.0, 1.8),
                velocity=(0.5, 0.0, 0.0),
                yaw_rate=yaw_rate,
            ),
        ],
    )


@pytest.fixture(scope="module")
def scene():
    return make_synthetic_sequence(mixed_scene(), seed=11)


# --- gather_instance_track -------------------------------------------------------


def test_gather_full_track(scene):
    truck = scene.truth.objects[1]
    track = gather_instance_track(scene.data, 4, truck.instance_id, window=4)
    assert track.scan_indices == [0, 1, 2, 3, 4]
    assert all(len(idx) == 50 for idx in track.point_indices)
    assert track.class_id == 18


def test_gather_instance_only_in_current_scan(scene):
    track = gather_instance_track(scene.data, 0, scene.truth.objects[0].instance_id, 4)
    assert track.scan_indices == [0]
    assert len(track.point_indices[0]) == 50


def test_gather_unknown_instance(scene):
    with pytest.raises(InstanceNotFound):
        gather_instance_track(scene.data, 4, 999, window=4)


# --- classify_motion -------------------------------------------------------


def test_moving_box_is_classified_moving(scene):
    truck = scene.truth.objects[1]
    track = gather_instance_track(scene.data, 4, truck.instance_id, 4)
    assert classify_motion(track, scene.data.poses, 0.2) is Motion.MOVING


def test_static_sign_is_classified_static(scene):
    sign = scene.truth.objects[0]
    track = gather_instance_track(scene.data, 4, sign.instance_id, 4)
    assert classify_motion(track, scene.data.poses, 0.2) is Motion.STATIC


def test_single_scan_track_is_static(scene):
    truck = scene.truth.objects[1]
    track = gather_instance_track(scene.data, 0, truck.instance_id, 4)
    assert classify_motion(track, scene.data.poses, 0.2) is Motion.STATIC


def test_motion_displacement_is_normalized_over_scan_gaps():
    # Present at scans 0 and 3 only: 0.45 m over 3 steps is 0.15 m/scan,
    # below a 0.2 threshold even though the raw displacement exceeds it.
    from scanfuse.fusion import InstanceTrack
    from scanfuse.geometry import RigidTransform

    poses = [RigidTransform.identity() for _ in range(4)]
    track = InstanceTrack(
        instance_id=1,
        class_id=18,
        scan_indices=[0, 1, 2, 3],
        point_indices=[np.array([0]), np.array([]), np.array([]), np.array([0])],
        sensor_centroids=[np.zeros(3), None, None, np.array([0.45, 0.0, 0.0])],
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
    assert len(fused.cloud) < naive_fusion_size(scene.data, 4, 4)


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


def test_fuse_missing_labels(scene):
    data = make_synthetic_sequence(mixed_scene(), seed=11).data
    data.labels[2] = None
    with pytest.raises(MissingLabels):
        fuse_scan(data, 4, FusionConfig())


def test_fuse_no_overlap_falls_back_with_warning():
    # Rotating object + a correspondence gate far below the rotation residual
    # forces NoOverlap inside ICP; fusion keeps the centroid alignment.
    seq = make_synthetic_sequence(mixed_scene(yaw_rate=0.3), seed=12)
    config = FusionConfig(
        registration=RegistrationConfig(max_correspondence_dist=1e-9)
    )
    fused = fuse_scan(seq.data, 4, config)
    truck_id = seq.truth.objects[1].instance_id
    assert fused.n_appended > 0
    assert any(iid == truck_id for iid, _ in fused.registration_warnings)


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
    db = build_instance_db(scene.data, FusionConfig(), tmp_path / "augdb")
    assert InstanceDatabase.load(tmp_path / "augdb") == db


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda fields, rows: fields[:-1], "expected 6 fields, got 5"),
        (lambda fields, rows: fields + ["extra"], "expected 6 fields, got 7"),
        (lambda fields, rows: fields[:3] + ["81.0"] + fields[4:], "non-integer field"),
        (lambda fields, rows: fields[:4] + ["x"] + fields[5:], "non-integer field"),
        (lambda fields, rows: fields[:4] + ["0"] + fields[5:], "n_single outside"),
        (lambda fields, rows: fields[:4] + [str(rows + 1)] + fields[5:], "n_single outside"),
    ],
)
def test_db_load_rejects_a_bad_manifest_line(scene, tmp_path, edit, message):
    db = build_instance_db(scene.data, FusionConfig(), tmp_path / "augdb")
    manifest = tmp_path / "augdb" / "manifest.txt"
    lines = manifest.read_text().splitlines()
    lines[1] = " ".join(edit(lines[1].split(), len(db.entries[1].fused_cloud)))
    manifest.write_text("\n".join(lines) + "\n")
    with pytest.raises(ScanFuseError, match=f"line 2 .*{message}"):
        InstanceDatabase.load(tmp_path / "augdb")


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
        scans.append(PointCloud(cloud.points[order], cloud.remission[order]))
        labels.append(LabelSet(lab.semantic[order], lab.instance[order]))
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
        _, t, iid = entry.key
        f, nc = fused[t], fused[t].n_current
        single = np.flatnonzero(
            (f.labels.instance[:nc] == iid) & (f.labels.semantic[:nc] == entry.class_id)
        )
        rows = np.concatenate([single, nc + np.flatnonzero(f.labels.instance[nc:] == iid)])
        for pair_cloud, pair_labels, idx in (
            (entry.single_cloud, entry.single_labels, single),
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

import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanfuse.errors import (
    InvalidConfig,
    MalformedCalib,
    MalformedLabel,
    MalformedPose,
    MalformedScan,
    MissingLabels,
)
from scanfuse.fusion import (
    FusedScan,
    FusionConfig,
    InstanceDatabase,
    InstancePair,
    fuse_scan,
    sample_and_paste,
)
from scanfuse.geometry import RigidTransform, rotation_about_z
from scanfuse.instance_gen import InstanceGenConfig, generate_instance_ids
from scanfuse.kitti_io import (
    LabelSet,
    PointCloud,
    fresh_instance_ids,
    instance_rows,
    load_sequence_index,
    parse_calib,
    parse_class_map,
    parse_labels,
    parse_poses,
    parse_scan,
    write_calib,
    write_labels,
    write_poses,
    write_scan,
    write_sequence,
)
from scanfuse.synthetic import (
    ObjectSpec,
    SyntheticConfig,
    default_scene,
    make_synthetic_sequence,
)

from scenes import random_rigid_transform


def random_scan_bytes(rng, n_points):
    values = rng.uniform(-80, 80, size=(n_points, 4)).astype("<f4")
    values[:, 3] = np.abs(values[:, 3]) / 80.0
    return values.tobytes()


# --- scans ---------------------------------------------------------------


def test_parse_scan_single_point():
    data = struct.pack("<4f", 1.0, 2.0, 3.0, 0.5)
    cloud = parse_scan(data)
    assert len(cloud) == 1
    assert np.array_equal(cloud.points, [[1.0, 2.0, 3.0]])
    assert np.array_equal(cloud.remission, [0.5])


def test_parse_scan_empty():
    assert len(parse_scan(b"")) == 0


def test_parse_scan_bad_length():
    with pytest.raises(MalformedScan):
        parse_scan(b"\x00" * 17)


def test_parse_scan_rejects_non_finite():
    data = struct.pack("<4f", 1.0, float("nan"), 3.0, 0.5)
    with pytest.raises(MalformedScan):
        parse_scan(data)
    data = struct.pack("<4f", 1.0, 2.0, float("inf"), 0.5)
    with pytest.raises(MalformedScan):
        parse_scan(data)


def test_scan_bytes_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        data = random_scan_bytes(rng, int(rng.integers(0, 50)))
        assert write_scan(parse_scan(data)) == data


def test_parse_scan_keeps_each_float32_column_bit_exactly():
    f32 = np.finfo(np.float32)
    special = np.array(
        [
            [0.0, -0.0, f32.smallest_subnormal, -f32.smallest_subnormal],
            [f32.tiny / 3, -f32.tiny / 3, f32.max, -f32.max],
            [-f32.max, f32.max, -0.0, 0.0],
        ],
        dtype="<f4",
    )
    bits = np.random.default_rng(13).integers(0, 2**32, size=(500, 4), dtype=np.uint32)
    records = bits.view("<f4")
    records[~np.isfinite(records)] = -0.0
    raw = np.vstack([special, records])
    data = raw.tobytes()

    cloud = parse_scan(data)
    # tobytes compares every bit, the sign of zero and subnormals included
    assert cloud.points.dtype == cloud.remission.dtype == np.float32
    assert cloud.points.tobytes() == raw[:, :3].tobytes()
    assert cloud.remission.tobytes() == raw[:, 3].tobytes()
    # the widening that computations apply is exact
    wide = raw.astype(np.float64)
    assert cloud.points.astype(np.float64).tobytes() == wide[:, :3].tobytes()
    assert cloud.remission.astype(np.float64).tobytes() == wide[:, 3].tobytes()
    assert PointCloud(wide[:, :3], wide[:, 3]) == cloud
    assert write_scan(cloud) == data

    # the parsed arrays are views of the caller's bytes, so they are read-only
    with pytest.raises(ValueError):
        cloud.points[0, 0] = 7.0
    with pytest.raises(ValueError):
        cloud.remission[0] = 7.0

    copy = cloud.copy()
    copy.points[:] = 7.0
    assert copy.remission.tobytes() == raw[:, 3].tobytes()
    copy.remission[:] = 0.5
    assert (copy.points == 7.0).all()
    assert cloud.points.tobytes() == raw[:, :3].tobytes()
    assert cloud.remission.tobytes() == raw[:, 3].tobytes()


def test_parse_scan_allocates_no_copy_of_the_scan():
    n = 100_000
    data = random_scan_bytes(np.random.default_rng(14), n)
    parse_scan(data)  # warm up, so one-time allocations are not counted
    tracemalloc.start()
    try:
        cloud = parse_scan(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cloud) == n
    # the non-finite check's mask takes 4 bytes per point; widening the
    # scan to float64 would take 32
    assert peak <= 5 * n


def test_scan_cloud_roundtrip_for_f32_clean_clouds():
    rng = np.random.default_rng(11)
    points = rng.uniform(-40, 40, size=(25, 3)).astype(np.float32).astype(np.float64)
    remission = rng.uniform(0, 1, 25).astype(np.float32).astype(np.float64)
    cloud = PointCloud(points, remission)
    assert parse_scan(write_scan(cloud)) == cloud


def test_write_scan_empty_cloud():
    cloud = PointCloud(np.empty((0, 3)), np.empty(0))
    assert write_scan(cloud) == b""
    assert parse_scan(write_scan(cloud)) == cloud


# --- labels ---------------------------------------------------------------


def test_parse_labels_bit_decomposition():
    data = struct.pack("<I", 0x0001000A)
    labels = parse_labels(data)
    assert labels.semantic[0] == 10
    assert labels.instance[0] == 1


def test_parse_labels_zero():
    labels = parse_labels(struct.pack("<I", 0))
    assert labels.semantic[0] == 0
    assert labels.instance[0] == 0


def test_parse_labels_bad_length():
    with pytest.raises(MalformedLabel):
        parse_labels(b"\x00" * 5)


def test_label_bytes_roundtrip_random():
    rng = np.random.default_rng(12)
    for _ in range(200):
        data = rng.bytes(4 * int(rng.integers(0, 64)))
        assert write_labels(parse_labels(data)) == data


def test_labelset_packing_invariant():
    labels = LabelSet(np.array([10, 81]), np.array([1, 7]))
    packed = labels.packed()
    assert packed[0] == (1 << 16) | 10
    assert packed[1] == (7 << 16) | 81


ids_16bit = st.sampled_from([0, 1, 2, 5, 0xFFFF])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ids_16bit, ids_16bit), max_size=40), st.frozensets(ids_16bit))
@example([], frozenset({0}))  # empty scan
@example([(0, 40), (0, 81), (0, 0xFFFF)], frozenset({40, 81}))  # no row in an instance
@example([(0xFFFF, 0xFFFF), (1, 81), (1, 18), (0, 81)], frozenset({81, 18, 0xFFFF}))
@example([(1, 81), (1, 18), (2, 18)], frozenset({18}))  # ID 1 of class 81 is not kept
def test_instance_rows_groups_rows_by_packed_label(rows, classes):
    labels = LabelSet([sem for _, sem in rows], [inst for inst, _ in rows])
    packed = labels.packed()
    in_instance = np.flatnonzero(
        (labels.instance != 0) & np.isin(labels.semantic, list(classes))
    )
    groups = instance_rows(labels, classes)
    assert list(groups) == sorted(set(packed[in_instance].tolist()))
    for key, idx in groups.items():
        assert np.array_equal(idx, np.flatnonzero(packed == key))
        assert np.all(np.diff(idx) > 0)
    covered = np.concatenate([np.empty(0, dtype=np.intp), *groups.values()])
    assert np.array_equal(np.sort(covered), in_instance)


def test_parallel_arrays_must_agree_in_length():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        LabelSet(np.zeros(3, dtype=np.uint16), np.zeros(4, dtype=np.uint16))


# --- fresh instance IDs ------------------------------------------------------


def test_fresh_instance_ids_start_at_1_in_an_empty_scan():
    assert fresh_instance_ids(LabelSet([], []), 2) == range(1, 3)


def two_blobs_with_largest_id(largest):
    """Blobs of 20 and 10 class-81 points without instance IDs, 10 m apart,
    and one road point carrying instance ID ``largest``."""
    rng = np.random.default_rng(0)
    points = np.vstack(
        [
            rng.normal(scale=0.2, size=(20, 3)),
            rng.normal(scale=0.2, size=(10, 3)) + [10.0, 0.0, 0.0],
            [[0.0, 30.0, 0.0]],
        ]
    )
    semantic = np.array([81] * 30 + [40], dtype=np.uint16)
    instance = np.array([0] * 30 + [largest], dtype=np.uint16)
    return PointCloud(points, np.zeros(31)), LabelSet(semantic, instance)


def generated_ids(cloud, labels, n):
    """The IDs ``generate_instance_ids`` gives the blobs: both blobs are
    clusters for n = 2, only the 20-point one for n = 1, neither for n = 0."""
    config = InstanceGenConfig(target_class=81, min_cluster_points={2: 5, 1: 15, 0: 25}[n])
    out = generate_instance_ids(cloud, labels, config)
    return sorted(set(out.instance[:30].tolist()) - {0})


def pasted_ids(cloud, labels, n):
    """The IDs of ``n`` pastes of the blobs into their own scan."""
    scan = FusedScan(cloud, labels, n_current=len(cloud), origin_index=[])
    entry = InstancePair(("00", 0, (1 << 16) | 81), cloud, labels, n_single=len(cloud))
    out = sample_and_paste(scan, InstanceDatabase([entry]), n, rng_seed=0)
    return [record.new_instance_id for record in out.pastes]


@pytest.mark.parametrize("new_ids", [generated_ids, pasted_ids])
@pytest.mark.parametrize(
    ("largest", "n", "expected"),
    [
        (65533, 2, [65534, 65535]),
        (65534, 1, [65535]),
        (65534, 2, None),
        (65535, 1, None),
        (65535, 0, []),
    ],
    ids=["65533+2", "65534+1", "65534+2-exhausted", "65535+1-exhausted", "65535+0"],
)
def test_new_instance_ids_stop_at_the_16_bit_bound(new_ids, largest, n, expected):
    cloud, labels = two_blobs_with_largest_id(largest)
    if expected is None:
        with pytest.raises(InvalidConfig, match="instance ID space"):
            new_ids(cloud, labels, n)
    else:
        assert new_ids(cloud, labels, n) == expected


# --- poses and calib --------------------------------------------------------


def test_parse_poses_identity_line():
    poses = parse_poses("1 0 0 0 0 1 0 0 0 0 1 0\n", RigidTransform.identity())
    assert len(poses) == 1
    assert poses[0].allclose(RigidTransform.identity(), tol=0.0)


def test_parse_poses_pure_translation():
    poses = parse_poses("1 0 0 4.5 0 1 0 -2 0 0 1 0.25\n", RigidTransform.identity())
    assert np.array_equal(poses[0].rotation, np.eye(3))
    assert np.array_equal(poses[0].translation, [4.5, -2.0, 0.25])


def test_parse_poses_skips_blank_lines():
    text = "\n1 0 0 0 0 1 0 0 0 0 1 0\n   \n1 0 0 1 0 1 0 0 0 0 1 0\n\n"
    poses = parse_poses(text, RigidTransform.identity())
    assert len(poses) == 2


def test_parse_poses_wrong_token_count():
    with pytest.raises(MalformedPose):
        parse_poses("1 0 0 0 0 1 0 0 0 0 1\n", RigidTransform.identity())


def test_parse_poses_rejects_non_orthonormal():
    with pytest.raises(MalformedPose):
        parse_poses("1 0.01 0 0 0 1 0 0 0 0 1 0\n", RigidTransform.identity())


def test_parse_poses_calib_conjugation_matches_matrix_oracle():
    # Independent oracle: 4x4 homogeneous products, calib^-1 @ pose @ calib.
    calib_rot = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
    calib = RigidTransform(calib_rot, np.array([0.27, -0.08, -0.06]))
    cam_pose = RigidTransform(rotation_about_z(0.3), np.array([1.5, -0.5, 2.0]))
    m = np.hstack([cam_pose.rotation, cam_pose.translation.reshape(3, 1)])
    line = " ".join(repr(float(v)) for v in m.reshape(-1))
    (pose,) = parse_poses(line + "\n", calib)
    expected = np.linalg.inv(calib.matrix()) @ cam_pose.matrix() @ calib.matrix()
    assert np.allclose(pose.matrix(), expected, atol=1e-12)


def test_pose_text_roundtrip_identity_calib():
    rng = np.random.default_rng(13)
    calib = RigidTransform.identity()
    poses = [random_rigid_transform(rng) for _ in range(20)]
    text = write_poses(poses, calib)
    reparsed = parse_poses(text, calib)
    assert write_poses(reparsed, calib) == text


def test_pose_roundtrip_nontrivial_calib_is_close():
    rng = np.random.default_rng(14)
    calib = RigidTransform(
        np.array([[0.0, -1.0, 0.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]),
        np.array([0.27, -0.08, -0.06]),
    )
    poses = [random_rigid_transform(rng, max_translation=50.0) for _ in range(10)]
    reparsed = parse_poses(write_poses(poses, calib), calib)
    for a, b in zip(poses, reparsed):
        assert a.allclose(b, tol=1e-12)


def test_parse_calib():
    text = "P0: 1 0 0 0 0 1 0 0 0 0 1 0\nTr: 1 0 0 0.5 0 1 0 0 0 0 1 -0.1\n"
    calib = parse_calib(text)
    assert np.array_equal(calib.translation, [0.5, 0.0, -0.1])


def test_parse_calib_missing_tr_line():
    with pytest.raises(MalformedCalib):
        parse_calib("P0: 1 0 0 0 0 1 0 0 0 0 1 0\n")


@pytest.mark.parametrize(
    "tr, message",
    [
        ("1 0 0 0.5 0 1 0 0 0 0 1", "expected 12 values, got 11"),
        ("1 0 0 0.5 0 1 0 0 0 0 1 x", "could not convert"),
        ("1 0.01 0 0.5 0 1 0 0 0 0 1 0", "not orthonormal"),
    ],
)
def test_parse_calib_malformed_tr_line(tr, message):
    with pytest.raises(MalformedCalib, match=message):
        parse_calib(f"Tr: {tr}\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [5, 7], ids=["rotation", "translation"])
def test_parse_poses_and_calib_reject_non_finite_values(value, column):
    # a NaN on the rotation's diagonal would pass the rigidity check, since
    # every comparison with NaN is false
    tokens = "1 0 0 0.5 0 1 0 0 0 0 1 -0.1".split()
    tokens[column] = value
    line = " ".join(tokens)
    identity = "1 0 0 0 0 1 0 0 0 0 1 0"
    with pytest.raises(MalformedPose, match="pose line 2: non-finite value"):
        parse_poses(f"{identity}\n{line}\n", RigidTransform.identity())
    with pytest.raises(MalformedCalib, match="calib Tr line: non-finite value"):
        parse_calib(f"P0: {identity}\nTr: {line}\n")


def test_calib_text_roundtrip():
    calib = RigidTransform(rotation_about_z(0.1), np.array([0.1, 0.2, 0.3]))
    assert write_calib(parse_calib(write_calib(calib))) == write_calib(calib)


# --- class map ---------------------------------------------------------------


def test_class_map_roundtrip():
    mapping = {0: (-1, "unlabeled"), 40: (0, "road"), 81: (1, "traffic-sign")}
    text = "# raw_id train_id name\n0 -1 unlabeled\n40 0 road\n81 1 traffic-sign\n"
    assert parse_class_map(text) == mapping


def test_class_map_rejects_short_lines():
    with pytest.raises(InvalidConfig):
        parse_class_map("40 0\n")


def test_class_map_rejects_a_raw_id_listed_twice_naming_both_lines():
    with pytest.raises(InvalidConfig, match=r"line 3: raw ID 10 already listed on line 1"):
        parse_class_map("10 1 car\n# the same raw ID again\n10 2 bus\n")


def test_class_map_rejects_a_train_id_below_minus_one_at_its_line():
    with pytest.raises(InvalidConfig, match=r"class-map line 2: train ID -2 is below -1"):
        parse_class_map("0 -1 unlabeled\n10 -2 car\n")


@pytest.mark.parametrize("raw_id", [-1, 70000])
def test_class_map_rejects_raw_ids_outside_16_bits(raw_id):
    with pytest.raises(InvalidConfig):
        parse_class_map(f"40 0 road\n{raw_id} 1 other\n")


# --- synthetic sequences ------------------------------------------------------


def moving_box_config(n_scans=5):
    return SyntheticConfig(
        n_scans=n_scans,
        ground_points=40,
        objects=[
            ObjectSpec(
                shape="box",
                class_id=18,
                center=(5.0, 0.0, 1.0),
                size=(2.0, 1.5, 1.5),
                velocity=(0.5, 0.0, 0.0),
            )
        ],
    )


def test_synthetic_centroids_follow_configured_velocity():
    seq = make_synthetic_sequence(moving_box_config(), seed=1)
    box = seq.truth.objects[0]
    steps = np.diff(box.world_centroids, axis=0)
    assert np.abs(steps - [0.5, 0.0, 0.0]).max() < 1e-12


def test_synthetic_is_deterministic():
    a = make_synthetic_sequence(moving_box_config(), seed=1)
    b = make_synthetic_sequence(moving_box_config(), seed=1)
    for sa, sb in zip(a.data.scans, b.data.scans):
        assert sa == sb
    for la, lb in zip(a.data.labels, b.data.labels):
        assert la == lb
    for pa, pb in zip(a.data.poses, b.data.poses):
        assert pa.allclose(pb, tol=0.0)


def test_synthetic_rejects_zero_scans():
    config = moving_box_config(n_scans=0)
    with pytest.raises(InvalidConfig):
        make_synthetic_sequence(config, seed=1)


def test_synthetic_rejects_zero_objects():
    config = SyntheticConfig(n_scans=3, objects=[])
    with pytest.raises(InvalidConfig):
        make_synthetic_sequence(config, seed=1)


def test_synthetic_rejects_nonpositive_points():
    config = moving_box_config()
    config.points_per_object = 0
    with pytest.raises(InvalidConfig):
        make_synthetic_sequence(config, seed=1)


def test_synthetic_auto_ids_come_above_the_explicit_ones():
    # An explicit ID 1 and an auto-assigned box of the same class 10 m away
    # are two instances: the auto box takes the fresh ID 2, not a second 1.
    truck = {"shape": "box", "class_id": 18, "size": (2.0, 1.5, 1.5)}
    config = SyntheticConfig(
        n_scans=1,
        ground_points=40,
        objects=[
            ObjectSpec(center=(5.0, 0.0, 1.0), instance_id=1, **truck),
            ObjectSpec(center=(5.0, 10.0, 1.0), **truck),
        ],
    )
    seq = make_synthetic_sequence(config, seed=1)
    assert [obj.instance_id for obj in seq.truth.objects] == [1, 2]
    rows = instance_rows(seq.data.labels[0], {18})
    assert [idx.tolist() for idx in rows.values()] == [
        obj.indices().tolist() for obj in seq.truth.objects
    ]


def test_write_sequence_roundtrips_through_disk(tmp_path):
    seq = make_synthetic_sequence(moving_box_config(n_scans=3), seed=2)
    index = write_sequence(seq.data, tmp_path / "seq")
    reloaded = load_sequence_index(tmp_path / "seq").load()
    assert len(reloaded) == 3
    for orig, disk in zip(seq.data.scans, reloaded.scans):
        # disk quantizes to float32
        assert np.abs(orig.points - disk.points).max() < 1e-4
    for orig, disk in zip(seq.data.labels, reloaded.labels):
        assert orig == disk
    for orig, disk in zip(seq.data.poses, reloaded.poses):
        assert orig.allclose(disk, tol=1e-9)
    assert index.calib.allclose(reloaded.calib, tol=0.0)


def test_rewriting_a_scan_without_labels_removes_its_old_label_file(tmp_path):
    seq = make_synthetic_sequence(default_scene(n_scans=5), seed=2).data
    write_sequence(seq, tmp_path / "seq")
    labels = list(seq.labels)
    labels[3] = None
    index = write_sequence(dataclasses.replace(seq, labels=labels), tmp_path / "seq")
    reloaded = load_sequence_index(tmp_path / "seq")
    assert index.label_paths[3] is None
    assert reloaded.label_paths == index.label_paths
    for written in (index, reloaded):
        with pytest.raises(MissingLabels):
            fuse_scan(written, 4, FusionConfig())


def test_writing_a_shorter_sequence_removes_the_scans_past_its_end(tmp_path):
    seq = make_synthetic_sequence(default_scene(n_scans=5), seed=2).data
    write_sequence(seq, tmp_path / "seq")
    short = dataclasses.replace(
        seq, scans=seq.scans[:3], labels=seq.labels[:3], poses=seq.poses[:3]
    )
    index = write_sequence(short, tmp_path / "seq")
    reloaded = load_sequence_index(tmp_path / "seq")
    assert len(index) == 3
    assert reloaded.scan_paths == index.scan_paths
    assert reloaded.label_paths == index.label_paths
    assert all(a.allclose(b, tol=1e-9) for a, b in zip(reloaded.poses, index.poses))
    data = reloaded.load()
    assert data.labels == list(short.labels)
    assert data.scans == [parse_scan(write_scan(scan)) for scan in short.scans]


def test_pose_count_must_match_scan_count(tmp_path):
    seq = make_synthetic_sequence(moving_box_config(n_scans=3), seed=2)
    write_sequence(seq.data, tmp_path / "seq")
    poses = tmp_path / "seq" / "poses.txt"
    poses.write_text("".join(poses.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(MalformedPose, match="2 poses for 3 scans"):
        load_sequence_index(tmp_path / "seq")

import struct

import numpy as np
import pytest

from scanfuse.errors import (
    InvalidConfig,
    MalformedCalib,
    MalformedLabel,
    MalformedPose,
    MalformedScan,
)
from scanfuse.geometry import RigidTransform, rotation_about_z
from scanfuse.kitti_io import (
    LabelSet,
    PointCloud,
    load_sequence_index,
    parse_calib,
    parse_class_map,
    parse_labels,
    parse_poses,
    parse_scan,
    raw_to_train_table,
    write_calib,
    write_class_map,
    write_labels,
    write_poses,
    write_scan,
    write_sequence,
)
from scanfuse.synthetic import ObjectSpec, SyntheticConfig, make_synthetic_sequence


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


def test_parallel_arrays_must_agree_in_length():
    with pytest.raises(ValueError):
        PointCloud(np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError):
        LabelSet(np.zeros(3, dtype=np.uint16), np.zeros(4, dtype=np.uint16))


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
    from scanfuse.geometry import random_rigid_transform

    calib = RigidTransform.identity()
    poses = [random_rigid_transform(rng) for _ in range(20)]
    text = write_poses(poses, calib)
    reparsed = parse_poses(text, calib)
    assert write_poses(reparsed, calib) == text


def test_pose_roundtrip_nontrivial_calib_is_close():
    rng = np.random.default_rng(14)
    from scanfuse.geometry import random_rigid_transform

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


def test_calib_text_roundtrip():
    calib = RigidTransform(rotation_about_z(0.1), np.array([0.1, 0.2, 0.3]))
    assert write_calib(parse_calib(write_calib(calib))) == write_calib(calib)


# --- class map ---------------------------------------------------------------


def test_class_map_roundtrip():
    mapping = {0: (-1, "unlabeled"), 40: (0, "road"), 81: (1, "traffic-sign")}
    text = write_class_map(mapping)
    assert parse_class_map(text) == mapping


def test_class_map_rejects_short_lines():
    with pytest.raises(InvalidConfig):
        parse_class_map("40 0\n")


@pytest.mark.parametrize("raw_id", [-1, 70000])
def test_class_map_rejects_raw_ids_outside_16_bits(raw_id):
    with pytest.raises(InvalidConfig):
        parse_class_map(f"40 0 road\n{raw_id} 1 other\n")


@pytest.mark.parametrize("raw_id", [-1, 0x10000])
def test_raw_to_train_table_rejects_raw_ids_outside_16_bits(raw_id):
    with pytest.raises(InvalidConfig):
        raw_to_train_table({40: 0, raw_id: 1})


def test_raw_to_train_table_marks_unmapped_ids():
    table = raw_to_train_table({0: 2, 40: 0, 0xFFFF: 1})
    assert table.shape == (0x10000,)
    assert (table[0], table[40], table[0xFFFF]) == (2, 0, 1)
    assert (table == -1).sum() == 0x10000 - 3


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

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
    build_instance_db,
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
    pack_label,
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
    GROUND_CLASS,
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


def scan_records(cloud: PointCloud) -> bytes:
    """The packed float32 records of ``cloud``, copied into ``bytes``."""
    raw = np.empty((len(cloud), 4), dtype="<f4")
    raw[:, :3] = cloud.points
    raw[:, 3] = cloud.remission
    return raw.tobytes()


def label_records(labels: LabelSet) -> bytes:
    """The packed uint32 records of ``labels``, copied into ``bytes``."""
    raw = np.empty((len(labels), 2), dtype="<u2")
    raw[:, 0] = labels.semantic
    raw[:, 1] = labels.instance
    return raw.tobytes()


@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_write_scan_views_the_records_that_tobytes_would_copy(n, dtype):
    rng = np.random.default_rng(n)
    points = rng.normal(scale=50.0, size=(n, 3))
    if n:  # the sign of zero, a float32 subnormal, near the float32 maximum
        points[0] = (-0.0, 1e-40, 3.4e38)
    cloud = PointCloud(points.astype(dtype), rng.uniform(size=n).astype(dtype))
    got, want = write_scan(cloud), scan_records(cloud)
    assert bytes(got) == want
    assert got == want
    assert len(got) == len(want) == 16 * n


@pytest.mark.parametrize("n", [0, 1, 300])
def test_write_labels_views_the_records_that_tobytes_would_copy(n):
    rng = np.random.default_rng(n)
    values = rng.integers(0, 0x10000, size=(2, n))
    if n:
        values[:, 0] = (0xFFFF, 0)
    labels = LabelSet(values[0], values[1])
    got, want = write_labels(labels), label_records(labels)
    assert bytes(got) == want
    assert got == want
    assert len(got) == len(want) == 4 * n


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


def test_label_columns_roundtrip_every_bit_pattern():
    rng = np.random.default_rng(23)
    values = np.concatenate(
        [
            np.array([0, 0xFFFF, 0xFFFF0000, 0xFFFFFFFF], dtype=np.uint32),
            rng.integers(0, 2**32, size=500, dtype=np.uint32),
        ]
    )
    data = values.astype("<u4").tobytes()
    labels = parse_labels(data)
    assert np.array_equal(labels.semantic, values & 0xFFFF)
    assert np.array_equal(labels.instance, values >> 16)
    assert write_labels(labels) == data


def test_parsed_label_columns_are_contiguous_and_independent():
    # a writable buffer, so a column that viewed it would write through
    data = bytearray(np.arange(1, 9, dtype="<u4").tobytes())
    labels = parse_labels(data)
    for column in (labels.semantic, labels.instance):
        assert column.flags.c_contiguous and column.flags.writeable
    before = bytes(data)
    labels.semantic[:] = 0xABCD
    assert np.array_equal(labels.instance, np.zeros(8))
    assert bytes(data) == before
    labels.instance[:] = 0x1234
    assert np.array_equal(labels.semantic, np.full(8, 0xABCD))
    assert write_labels(labels) == np.full(8, 0x1234ABCD, dtype="<u4").tobytes()


def test_labelset_packing_invariant():
    labels = LabelSet(np.array([10, 81]), np.array([1, 7]))
    packed = pack_label(labels.instance.astype(np.uint32), labels.semantic)
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
    packed = pack_label(labels.instance.astype(np.uint32), labels.semantic)
    in_instance = np.flatnonzero(
        (labels.instance != 0) & np.isin(labels.semantic, list(classes))
    )
    grouped, groups = instance_rows(labels, classes)
    assert list(groups) == sorted(set(packed[in_instance].tolist()))
    for key, part in groups.items():
        idx = grouped[part]
        assert np.array_equal(idx, np.flatnonzero(packed == key))
        assert np.all(np.diff(idx) > 0)
    covered = np.concatenate([np.empty(0, dtype=np.intp), *(grouped[p] for p in groups.values())])
    assert np.array_equal(np.sort(covered), in_instance)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ids_16bit, ids_16bit), max_size=40), st.frozensets(ids_16bit))
@example([], frozenset({0}))  # empty scan
@example([(1, 81), (1, 18), (2, 18), (2, 81), (1, 18)], frozenset({18}))  # a group dropped
def test_instance_rows_slices_cover_the_grouped_rows_once_in_key_order(rows, classes):
    labels = LabelSet([sem for _, sem in rows], [inst for inst, _ in rows])
    grouped, groups = instance_rows(labels, classes)
    keys, parts = list(groups), list(groups.values())
    assert keys == sorted(keys)
    edges = [0] + [part.stop for part in parts]
    assert [part.start for part in parts] == edges[:-1]
    assert edges[-1] == len(grouped)
    for part in parts:
        assert part.step is None and part.stop - part.start >= 1
        assert np.all(np.diff(grouped[part]) > 0)


def test_parallel_arrays_must_agree_in_length():
    with pytest.raises(ValueError, match=r"^points \(3\) and remission \(2\) lengths differ$"):
        PointCloud(np.zeros((3, 3)), np.zeros(2))
    with pytest.raises(ValueError, match=r"^semantic \(3\) and instance \(4\) lengths differ$"):
        LabelSet(np.zeros(3, dtype=np.uint16), np.zeros(4, dtype=np.uint16))


# --- row records -------------------------------------------------------------


def draw_rows(data, kind: str, n: int):
    """A row selection of ``kind`` for a record of ``n`` rows."""
    if kind == "slice with a step":
        ends = st.none() | st.integers(-n - 2, n + 2)
        step = st.sampled_from([-3, -2, -1, 2, 3])
        return slice(data.draw(ends), data.draw(ends), data.draw(step))
    if kind == "index array with repeats":
        picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
        return np.array(picks + picks[:1], dtype=np.intp)
    if kind == "mask":
        return np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), bool)
    return np.empty(0, dtype=np.intp)  # an empty selection


@pytest.mark.parametrize(
    "kind", ["slice with a step", "index array with repeats", "mask", "empty selection"]
)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), n=st.integers(1, 12), from_disk=st.booleans())
def test_record_rows_are_the_rows_of_each_column(kind, data, n, from_disk):
    rng = np.random.default_rng(n)
    cloud = PointCloud(rng.normal(size=(n, 3)), rng.uniform(size=n))
    labels = LabelSet(rng.integers(0, 0x10000, n), rng.integers(0, 0x10000, n))
    if from_disk:  # read-only float32 views of the bytes, as parsed
        cloud, labels = parse_scan(write_scan(cloud)), parse_labels(write_labels(labels))
    rows = draw_rows(data, kind, n)
    for record, columns in (
        (cloud, ("points", "remission")),
        (labels, ("semantic", "instance")),
    ):
        picked = record[rows]
        assert type(picked) is type(record)
        for name in columns:
            got, want = getattr(picked, name), getattr(record, name)[rows]
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        assert len(picked) == len(getattr(record, columns[0])[rows])
    # an integer picks a one-row record, not a column
    assert len(cloud[0]) == len(labels[n - 1]) == 1


@pytest.mark.parametrize("record", ["cloud", "labels"])
def test_a_record_copy_is_writable_and_independent(record):
    rng = np.random.default_rng(4)
    if record == "cloud":
        original = parse_scan(write_scan(PointCloud(rng.normal(size=(5, 3)), np.ones(5))))
    else:
        original = parse_labels(write_labels(LabelSet(np.arange(5), np.arange(5, 10))))
    before = {name: column.copy() for name, column in vars(original).items()}
    copy = original.copy()
    assert copy == original and copy is not original
    for name, column in vars(copy).items():
        assert column.flags.writeable
        assert not np.shares_memory(column, getattr(original, name))
        column[...] = 3
    for name, column in vars(original).items():
        assert column.tobytes() == before[name].tobytes()


def test_a_point_cloud_never_equals_a_label_set():
    cloud = PointCloud(np.zeros((2, 3)), np.zeros(2))
    labels = LabelSet(np.zeros(2), np.zeros(2))
    assert (cloud == labels) is False and (labels == cloud) is False
    assert cloud != labels and labels != cloud
    assert cloud == cloud[:] and labels == labels[:]


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
    scan = FusedScan(cloud, labels, n_current=len(cloud), origin_runs=[])
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
    rows, groups = instance_rows(seq.data.labels[0], {18})
    assert [rows[part].tolist() for part in groups.values()] == [
        obj.indices().tolist() for obj in seq.truth.objects
    ]


@pytest.mark.parametrize(
    ("change", "message"),
    [
        ({"class_id": 70000}, "class_id 70000"),
        ({"class_id": -1}, "class_id -1"),
        ({"instance_id": 70000}, "instance_id 70000"),
        ({"instance_id": -3}, "instance_id -3"),
        ({"shape": "box", "size": (2.0, 1.5)}, "a box needs 3 size values"),
        ({"shape": "cylinder", "size": (0.4,)}, "a cylinder needs 2 size values"),
        ({"n_points": 0}, "n_points must be >= 1"),
    ],
)
def test_synthetic_rejects_an_object_the_labels_or_its_shape_cannot_hold(change, message):
    # The second object is the bad one, and the error names it.
    config = moving_box_config()
    config.objects.append(dataclasses.replace(config.objects[0], **change))
    with pytest.raises(InvalidConfig, match=f"^object 1: {message}"):
        make_synthetic_sequence(config, seed=1)


def test_writing_into_one_synthetic_scan_leaves_the_others_unchanged():
    seq = make_synthetic_sequence(default_scene(n_scans=3), seed=1).data
    fresh = make_synthetic_sequence(default_scene(n_scans=3), seed=1).data
    seq.labels[1].semantic[:] = 7
    seq.labels[1].instance[:] = 9
    seq.scans[1].remission[:] = 0.5
    seq.scans[1].points[:] = 1.0
    for s in (0, 2):
        assert seq.labels[s] == fresh.labels[s]
        assert seq.scans[s] == fresh.scans[s]


def test_synthetic_truth_bounds_tile_the_object_rows_in_object_order():
    truck = {"shape": "box", "class_id": 18, "size": (2.0, 1.5, 1.5)}
    sign = {"shape": "cylinder", "class_id": 81, "size": (0.4, 1.2)}
    config = SyntheticConfig(
        n_scans=2,
        ground_points=30,
        points_per_object=20,
        objects=[
            ObjectSpec(center=(5.0, 0.0, 1.0), **truck),
            ObjectSpec(center=(8.0, 3.0, 1.0), n_points=7, instance_id=4, **sign),
            ObjectSpec(center=(5.0, 9.0, 1.0), n_points=45, instance_id=0, **truck),
            ObjectSpec(center=(8.0, -3.0, 1.0), n_points=1, **sign),
        ],
    )
    seq = make_synthetic_sequence(config, seed=3)
    objects = seq.truth.objects
    assert [(obj.start, obj.stop) for obj in objects] == [(30, 50), (50, 57), (57, 102), (102, 103)]
    ids = [(obj.class_id, obj.instance_id) for obj in objects]
    assert ids == [(18, 5), (81, 4), (18, 0), (81, 6)]
    for labels in seq.data.labels:
        assert len(labels) == 103
        assert not labels.instance[:30].any() and (labels.semantic[:30] == GROUND_CLASS).all()
        for obj in objects:
            assert (labels.semantic[obj.start : obj.stop] == obj.class_id).all()
            assert (labels.instance[obj.start : obj.stop] == obj.instance_id).all()


@pytest.mark.parametrize(
    ("runs", "message"),
    [
        ([(-1, 3), (-2, -1)], "negative count"),
        ([(-1, 3)], "does not cover"),
        ([(-1, 2), (-2, 1)], "does not cover"),
    ],
)
def test_fused_scan_rejects_origin_runs_that_do_not_count_the_appended_points(runs, message):
    cloud = PointCloud(np.zeros((5, 3)), np.zeros(5))
    labels = LabelSet(np.zeros(5, dtype=np.uint16), np.zeros(5, dtype=np.uint16))
    with pytest.raises(ValueError, match=message):
        FusedScan(cloud, labels, n_current=3, origin_runs=runs)
    fused = FusedScan(cloud, labels, n_current=3, origin_runs=[(-1, 1), (-1, 0), (-2, 1)])
    assert fused.origin_index.tolist() == [-1, -2]
    assert not fused.origin_index.flags.writeable


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


def test_a_written_sequence_is_named_after_its_directory_as_when_loaded(tmp_path):
    # A database built from the index write_sequence returns keys its
    # entries as one built from the loaded directory does.
    data = make_synthetic_sequence(default_scene(n_scans=3), seed=2).data
    index = write_sequence(data, tmp_path / "seq")
    loaded = load_sequence_index(tmp_path / "seq")
    config = FusionConfig()
    keys = [entry.key for entry in build_instance_db(index, config).entries]
    assert keys == [entry.key for entry in build_instance_db(loaded, config).entries]
    assert keys and data.name != "seq" == index.name == loaded.name


def test_pose_count_must_match_scan_count(tmp_path):
    seq = make_synthetic_sequence(moving_box_config(n_scans=3), seed=2)
    write_sequence(seq.data, tmp_path / "seq")
    poses = tmp_path / "seq" / "poses.txt"
    poses.write_text("".join(poses.read_text().splitlines(keepends=True)[:-1]))
    with pytest.raises(MalformedPose, match="2 poses for 3 scans"):
        load_sequence_index(tmp_path / "seq")

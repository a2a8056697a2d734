import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanfuse import instance_gen
from scanfuse.errors import EmptyInput, InvalidConfig, ShapeError
from scanfuse.geometry import centroid
from scanfuse.instance_gen import (
    InstanceGenConfig,
    _distances,
    cluster_by_keypoints,
    farthest_point_sample,
    filter_by_class,
    generate_instance_ids,
)
from scanfuse.kitti_io import LabelSet, PointCloud, fresh_instance_ids
from scanfuse.synthetic import ObjectSpec, SyntheticConfig, make_synthetic_sequence


def small_cloud(points, classes, instances=None):
    points = np.asarray(points, dtype=np.float64)
    n = len(points)
    cloud = PointCloud(points, np.zeros(n))
    labels = LabelSet(
        np.asarray(classes, dtype=np.uint16),
        np.zeros(n, dtype=np.uint16) if instances is None else np.asarray(instances),
    )
    return cloud, labels


# --- filter_by_class ---------------------------------------------------------


def test_filter_all_points_match():
    cloud, labels = small_cloud([[0, 0, 0], [1, 0, 0]], [81, 81])
    assert np.array_equal(filter_by_class(cloud, labels, 81), [0, 1])


def test_filter_no_points_match():
    cloud, labels = small_cloud([[0, 0, 0], [1, 0, 0]], [40, 40])
    assert len(filter_by_class(cloud, labels, 81)) == 0


def test_filter_matches_linear_scan_oracle():
    rng = np.random.default_rng(20)
    classes = rng.choice([10, 40, 81], size=100)
    cloud, labels = small_cloud(rng.normal(size=(100, 3)), classes)
    got = filter_by_class(cloud, labels, 81)
    expected = [i for i in range(100) if classes[i] == 81]
    assert got.tolist() == expected


def test_generate_rejects_labels_not_covering_the_scan():
    cloud, _ = small_cloud([[0, 0, 0], [1, 0, 0]], [81, 81])
    labels = LabelSet([81], [0])
    with pytest.raises(ShapeError, match="scan has 2 points but labels cover 1"):
        generate_instance_ids(cloud, labels, InstanceGenConfig(target_class=81))


# --- farthest_point_sample ----------------------------------------------------


def test_fps_three_point_example():
    # Brute-force enumeration: centroid (11/3, 0, 0); farthest is (10,0,0);
    # next candidate (0,0,0) at min-dist 10 >= 2; last has min-dist 1 < 2.
    points = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    keypoints = farthest_point_sample(points, stop_distance=2.0)
    assert keypoints.tolist() == [2, 0]


def test_fps_single_point():
    assert farthest_point_sample(np.array([[1.0, 2, 3]]), 1.0).tolist() == [0]


def test_fps_coincident_points():
    points = np.array([[1.0, 1, 1], [1.0, 1, 1]])
    assert len(farthest_point_sample(points, 1.0)) == 1


def test_fps_empty_input():
    with pytest.raises(EmptyInput):
        farthest_point_sample(np.empty((0, 3)), 1.0)


@pytest.mark.parametrize("stop_distance", [0.0, -1.0, float("nan")])
def test_fps_rejects_stop_distance_not_above_zero(stop_distance):
    points = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    with pytest.raises(InvalidConfig):
        farthest_point_sample(points, stop_distance)


def test_fps_pairwise_distances_at_least_stop_distance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        points = rng.uniform(-10, 10, size=(rng.integers(1, 200), 3))
        stop = float(rng.uniform(0.5, 5.0))
        kp = farthest_point_sample(points, stop)
        chosen = points[kp]
        for i in range(len(chosen)):
            for j in range(i + 1, len(chosen)):
                assert np.linalg.norm(chosen[i] - chosen[j]) >= stop


# Read as (-1, 3), the three 2-D points were once two 3-D points, and a
# (4, 2) array raised a bare ValueError.
not_n_by_3 = pytest.mark.parametrize(
    "points",
    [[[0.0, 0], [5.0, 0], [10.0, 0]], np.zeros((4, 2)), [1.0, 2, 3], np.zeros((2, 3, 1))],
    ids=["3x2", "4x2", "1-d", "3-d"],
)


@not_n_by_3
def test_fps_rejects_points_not_shaped_n_by_3(points):
    with pytest.raises(ShapeError, match=re.escape(f"got {np.shape(points)}")):
        farthest_point_sample(points, 2.0)


# --- cluster_by_keypoints -------------------------------------------------------


def test_cluster_continues_fps_example():
    points = np.array([[0.0, 0, 0], [1.0, 0, 0], [10.0, 0, 0]])
    keypoints = farthest_point_sample(points, stop_distance=2.0)
    assignment = cluster_by_keypoints(points, keypoints)
    # point (1,0,0): distance 1 to keypoint (0,0,0) vs 9 to (10,0,0)
    assert assignment.tolist() == [1, 1, 0]


def test_cluster_single_keypoint():
    points = np.random.default_rng(22).normal(size=(30, 3))
    assignment = cluster_by_keypoints(points, np.array([4]))
    assert np.array_equal(assignment, np.zeros(30))


def test_cluster_tie_goes_to_lower_keypoint_index():
    points = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0]])
    assignment = cluster_by_keypoints(points, np.array([0, 1]))
    assert assignment[2] == 0  # equidistant between keypoints 0 and 1


@not_n_by_3
def test_cluster_rejects_points_not_shaped_n_by_3(points):
    with pytest.raises(ShapeError, match=re.escape(f"got {np.shape(points)}")):
        cluster_by_keypoints(points, np.array([0]))


def test_cluster_empty_keypoints():
    with pytest.raises(EmptyInput):
        cluster_by_keypoints(np.zeros((3, 3)), np.array([], dtype=np.int64))


@pytest.mark.parametrize(
    "n_points, keypoints",
    [(3, [0, 3]), (3, [-1]), (0, [0])],
    ids=["past-end", "negative", "no-points"],
)
def test_cluster_keypoint_out_of_range_is_shape_error(n_points, keypoints):
    with pytest.raises(ShapeError):
        cluster_by_keypoints(np.zeros((n_points, 3)), np.array(keypoints))


def test_cluster_matches_brute_force():
    rng = np.random.default_rng(23)
    points = rng.uniform(-10, 10, size=(1000, 3))
    keypoints = farthest_point_sample(points, 4.0)
    assignment = cluster_by_keypoints(points, keypoints)
    kp_points = points[keypoints]
    for i in range(len(points)):
        dists = [np.linalg.norm(points[i] - k) for k in kp_points]
        best = min(range(len(dists)), key=lambda j: (dists[j], j))
        assert assignment[i] == best


def test_cluster_memory_follows_points_not_points_times_keypoints():
    rng = np.random.default_rng(25)
    points = rng.uniform(-50, 50, size=(20_000, 3))
    keypoints = rng.choice(len(points), size=200, replace=False)
    cluster_by_keypoints(points[:10], np.array([0, 1]))  # warm every lazy load

    tracemalloc.start()
    try:
        cluster_by_keypoints(points, keypoints)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # an (N, K) float64 matrix alone would be 32 MB; the columns, the running
    # distance and label and one keypoint's temporaries are about 1.5 MB
    assert peak < 8 * 2**20


# --- column forms against the norm forms, by bytes ---------------------------------
#
# The references are the row forms that the column forms replaced.


def reference_fps(points, stop_distance):
    points = np.asarray(points, dtype=np.float64)
    first = int(np.argmax(np.linalg.norm(points - centroid(points), axis=1)))
    chosen = [first]
    min_dist = np.linalg.norm(points - points[first], axis=1)
    while True:
        candidate = int(np.argmax(min_dist))
        if min_dist[candidate] < stop_distance:
            break
        chosen.append(candidate)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[candidate], axis=1))
    return np.asarray(chosen, dtype=np.int64)


def reference_cluster(points, keypoints):
    points = np.asarray(points, dtype=np.float64)
    diffs = points[:, None, :] - points[keypoints][None, :, :]
    return np.argmin(np.linalg.norm(diffs, axis=2), axis=1).astype(np.int64)


def random_points(seed, n, exponent, float32, grid):
    """n points at magnitude 10**exponent: float32 if asked, as a parsed scan
    holds them, snapped to a coarse grid (so distances tie exactly) if asked,
    with repeats on odd seeds."""
    rng = np.random.default_rng(seed)
    scale = 10.0**exponent
    points = rng.normal(scale=scale, size=(n, 3))
    if grid:
        points = np.round(points / scale * 2) * (scale / 2)
    points = points[rng.integers(0, n, size=n)] if n > 2 and seed % 2 else points
    return points.astype(np.float32) if float32 else points


point_sets = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 120),
    exponent=st.floats(-3.0, 4.0),
    float32=st.booleans(),
    grid=st.booleans(),
)


@settings(max_examples=200, deadline=None)
@given(**point_sets)
@example(seed=1, n=5, exponent=-3.0, float32=True, grid=True)
@example(seed=2, n=40, exponent=4.0, float32=False, grid=False)
def test_distances_have_the_bits_of_norm(seed, n, exponent, float32, grid):
    points = random_points(seed, n, exponent, float32, grid).astype(np.float64)
    columns = np.ascontiguousarray(points.T)
    for point in (centroid(points), points[0], points[-1]):
        got = _distances(columns, point)
        assert got.tobytes() == np.linalg.norm(points - point, axis=1).tobytes()


@settings(max_examples=200, deadline=None)
@given(**point_sets, stop=st.floats(0.05, 3.0))
@example(seed=3, n=1, exponent=0.0, float32=False, grid=False, stop=1.0)
@example(seed=5, n=60, exponent=0.0, float32=True, grid=True, stop=0.5)
def test_fps_matches_the_norm_loop(seed, n, exponent, float32, grid, stop):
    points = random_points(seed, n, exponent, float32, grid)
    stop_distance = stop * 10.0**exponent
    got = farthest_point_sample(points, stop_distance)
    assert got.tobytes() == reference_fps(points, stop_distance).tobytes()


@settings(max_examples=200, deadline=None)
@given(**point_sets, k=st.integers(1, 12), keypoint_seed=st.integers(0, 2**32 - 1))
@example(seed=0, n=7, exponent=0.0, float32=False, grid=True, k=1, keypoint_seed=0)
@example(seed=1, n=30, exponent=0.0, float32=False, grid=True, k=12, keypoint_seed=1)
def test_cluster_matches_argmin_of_norms(seed, n, exponent, float32, grid, k, keypoint_seed):
    # keypoints drawn with replacement repeat; on the grid, and with repeated
    # points, distances tie exactly
    points = random_points(seed, n, exponent, float32, grid)
    keypoints = np.random.default_rng(keypoint_seed).integers(0, n, size=k)
    got = cluster_by_keypoints(points, keypoints)
    assert got.tobytes() == reference_cluster(points, keypoints).tobytes()


def test_cluster_exact_tie_and_repeated_keypoint_keep_the_lowest_index():
    points = np.array([[0.0, 0, 0], [2.0, 0, 0], [1.0, 0, 0], [0.0, 0, 0]])
    # keypoints 0 and 2 are the same point; (1,0,0) ties 0 and 1
    keypoints = np.array([0, 1, 0, 3])
    got = cluster_by_keypoints(points, keypoints)
    assert got.tolist() == reference_cluster(points, keypoints).tolist() == [0, 1, 0, 0]


@settings(max_examples=200, deadline=None)
@given(
    assignment=st.lists(st.integers(0, 5), min_size=1, max_size=60),
    extra=st.integers(0, 2),
    min_cluster_points=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example(assignment=[0, 2, 2, 0, 2], extra=1, min_cluster_points=1, seed=0)  # 1 and 3 empty
def test_one_pass_ids_match_one_mask_per_cluster(assignment, extra, min_cluster_points, seed):
    # the clustering is stubbed, so any assignment, with empty clusters, reaches
    # the ID assignment; the reference splits the clusters by one mask each
    rng = np.random.default_rng(seed)
    n = len(assignment) + 10
    semantic = np.full(n, 40, dtype=np.uint16)
    target = np.sort(rng.choice(n, size=len(assignment), replace=False))
    semantic[target] = 81
    instance = rng.integers(0, 4, size=n).astype(np.uint16)
    cloud = PointCloud(rng.normal(size=(n, 3)), np.zeros(n))
    labels = LabelSet(semantic, instance)
    assignment = np.asarray(assignment, dtype=np.int64)
    keypoints = np.arange(assignment.max() + 1 + extra)
    config = InstanceGenConfig(target_class=81, min_cluster_points=min_cluster_points)

    expected = labels.copy()
    clusters = [target[assignment == cluster] for cluster in range(len(keypoints))]
    clusters = [members for members in clusters if len(members) >= min_cluster_points]
    for members, new_id in zip(clusters, fresh_instance_ids(labels, len(clusters))):
        expected.instance[members] = new_id

    with (
        mock.patch.object(instance_gen, "farthest_point_sample", return_value=keypoints),
        mock.patch.object(instance_gen, "cluster_by_keypoints", return_value=assignment),
    ):
        got = generate_instance_ids(cloud, labels, config)
    assert got.instance.tobytes() == expected.instance.tobytes()
    assert got.semantic.tobytes() == labels.semantic.tobytes()


# --- generate_instance_ids ------------------------------------------------------


def two_blob_scene(seed=0, instance_zero=True):
    config = SyntheticConfig(
        n_scans=1,
        ground_points=50,
        points_per_object=30,
        objects=[
            ObjectSpec(
                shape="cylinder",
                class_id=81,
                center=(6.0, 0.0, 0.8),
                size=(0.4, 1.2),
                instance_id=0 if instance_zero else None,
            ),
            ObjectSpec(
                shape="cylinder",
                class_id=81,
                center=(-6.0, 4.0, 0.8),
                size=(0.4, 1.2),
                instance_id=0 if instance_zero else None,
            ),
        ],
    )
    return make_synthetic_sequence(config, seed)


def test_generate_assigns_two_instances_to_two_blobs():
    seq = two_blob_scene()
    cloud = seq.data.scans[0]
    labels = seq.data.labels[0]
    out = generate_instance_ids(cloud, labels, InstanceGenConfig(target_class=81))
    ids = set(np.unique(out.instance[labels.semantic == 81]).tolist())
    assert ids == {1, 2}
    # per-object partition matches construction
    for obj in seq.truth.objects:
        got = out.instance[obj.indices()]
        assert len(set(got.tolist())) == 1
        assert got[0] != 0


def test_generate_no_target_points_is_noop():
    seq = two_blob_scene()
    labels = seq.data.labels[0]
    out = generate_instance_ids(
        seq.data.scans[0], labels, InstanceGenConfig(target_class=99)
    )
    assert out == labels


def test_generate_single_blob_single_id():
    config = SyntheticConfig(
        n_scans=1,
        ground_points=20,
        points_per_object=40,
        objects=[
            ObjectSpec(
                shape="box",
                class_id=81,
                center=(4.0, 2.0, 0.5),
                size=(0.8, 0.8, 0.8),
                instance_id=0,
            )
        ],
    )
    seq = make_synthetic_sequence(config, seed=4)
    labels = seq.data.labels[0]
    out = generate_instance_ids(
        seq.data.scans[0], labels, InstanceGenConfig(target_class=81)
    )
    obj = seq.truth.objects[0]
    assert set(np.unique(out.instance[obj.indices()]).tolist()) == {1}


def test_generate_never_touches_other_classes_or_semantics():
    seq = two_blob_scene()
    cloud = seq.data.scans[0]
    labels = seq.data.labels[0]
    out = generate_instance_ids(cloud, labels, InstanceGenConfig(target_class=81))
    assert np.array_equal(out.semantic, labels.semantic)
    other = labels.semantic != 81
    assert np.array_equal(out.instance[other], labels.instance[other])


def test_generate_ids_start_above_current_max():
    seq = two_blob_scene()
    cloud = seq.data.scans[0]
    labels = seq.data.labels[0].copy()
    labels.instance[0] = 7  # existing instance elsewhere in the scan
    out = generate_instance_ids(cloud, labels, InstanceGenConfig(target_class=81))
    new_ids = set(np.unique(out.instance[labels.semantic == 81]).tolist()) - {0}
    assert new_ids == {8, 9}


def test_generate_small_clusters_keep_zero():
    # one dense blob plus a lone far-away point of the same class
    points = np.vstack(
        [np.random.default_rng(24).normal(scale=0.2, size=(20, 3)), [[30.0, 0, 0]]]
    )
    cloud, labels = (
        PointCloud(points, np.zeros(21)),
        LabelSet(np.full(21, 81, dtype=np.uint16), np.zeros(21, dtype=np.uint16)),
    )
    out = generate_instance_ids(
        cloud, labels, InstanceGenConfig(target_class=81, min_cluster_points=5)
    )
    assert out.instance[20] == 0
    assert set(np.unique(out.instance[:20]).tolist()) == {1}


def test_generate_is_deterministic():
    seq = two_blob_scene()
    cloud, labels = seq.data.scans[0], seq.data.labels[0]
    config = InstanceGenConfig(target_class=81)
    assert generate_instance_ids(cloud, labels, config) == generate_instance_ids(
        cloud, labels, config
    )


def test_config_validation():
    with pytest.raises(InvalidConfig):
        InstanceGenConfig(target_class=81, stop_distance=0.0)
    with pytest.raises(InvalidConfig):
        InstanceGenConfig(target_class=81, min_cluster_points=0)

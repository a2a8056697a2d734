import numpy as np
import pytest

from scanfuse.errors import EmptyInput, InvalidConfig, ShapeError
from scanfuse.instance_gen import (
    InstanceGenConfig,
    cluster_by_keypoints,
    farthest_point_sample,
    filter_by_class,
    generate_instance_ids,
)
from scanfuse.kitti_io import LabelSet, PointCloud
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

"""Instance-ID generation for classes annotated without instances.

Pipeline: keep only points of the target class, run farthest point sampling
until the next sample would fall closer than ``stop_distance`` to the chosen
set, cluster every kept point to its nearest keypoint, then hand each big
enough cluster a fresh instance ID. Everything here is deterministic; ties
resolve to the lowest index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidConfig, ShapeError
from .geometry import centroid
from .kitti_io import LabelSet, PointCloud, fresh_instance_ids


@dataclass
class InstanceGenConfig:
    target_class: int
    stop_distance: float = 2.0
    min_cluster_points: int = 5

    def __post_init__(self) -> None:
        if not 0 <= self.target_class <= 0xFFFF:
            raise InvalidConfig(f"target_class {self.target_class} outside 0..65535")
        if not self.stop_distance > 0.0:
            raise InvalidConfig("stop_distance must be > 0")
        if not self.min_cluster_points >= 1:
            raise InvalidConfig("min_cluster_points must be >= 1")


def filter_by_class(cloud: PointCloud, labels: LabelSet, class_id: int) -> np.ndarray:
    """Ascending indices of points whose semantic label equals class_id."""
    if len(cloud) != len(labels):
        raise ShapeError(
            f"scan has {len(cloud)} points but labels cover {len(labels)}"
        )
    return np.flatnonzero(labels.semantic == class_id)


def farthest_point_sample(points: np.ndarray, stop_distance: float) -> np.ndarray:
    """Greedy max-min sampling with a distance stop.

    The seed is the point farthest from the set centroid; each later keypoint
    maximizes its minimum distance to the chosen set. Sampling stops once
    that max-min distance drops below ``stop_distance``, so any two returned
    keypoints are at least ``stop_distance`` apart.
    """
    if not stop_distance > 0.0:
        raise InvalidConfig("stop_distance must be > 0")
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    if len(points) == 0:
        raise EmptyInput("farthest_point_sample needs at least one point")

    first = int(np.argmax(np.linalg.norm(points - centroid(points), axis=1)))
    chosen = [first]
    min_dist = np.linalg.norm(points - points[first], axis=1)
    while True:
        candidate = int(np.argmax(min_dist))
        if min_dist[candidate] < stop_distance:
            break
        chosen.append(candidate)
        min_dist = np.minimum(
            min_dist, np.linalg.norm(points - points[candidate], axis=1)
        )
    return np.asarray(chosen, dtype=np.int64)


def cluster_by_keypoints(points: np.ndarray, keypoints: np.ndarray) -> np.ndarray:
    """Assign every point to its nearest keypoint (ties: lowest keypoint index).

    Returns a cluster label per point; labels are positions in ``keypoints``.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    keypoints = np.asarray(keypoints, dtype=np.int64).reshape(-1)
    if len(keypoints) == 0:
        raise EmptyInput("cluster_by_keypoints needs at least one keypoint")
    if keypoints.min() < 0 or keypoints.max() >= len(points):
        raise ShapeError("keypoint index out of range")
    # (N, K) distance matrix; argmin picks the first (lowest) index on ties.
    diffs = points[:, None, :] - points[keypoints][None, :, :]
    dists = np.linalg.norm(diffs, axis=2)
    return np.argmin(dists, axis=1).astype(np.int64)


def generate_instance_ids(
    cloud: PointCloud, labels: LabelSet, config: InstanceGenConfig
) -> LabelSet:
    """Assign fresh instance IDs to clusters of the target class.

    Only target-class points change; the new IDs come from
    ``kitti_io.fresh_instance_ids``, one per cluster in keypoint order.
    Clusters smaller than ``min_cluster_points`` are left untouched.
    """
    indices = filter_by_class(cloud, labels, config.target_class)
    out = labels.copy()
    if len(indices) == 0:
        return out

    class_points = cloud.points[indices]
    keypoints = farthest_point_sample(class_points, config.stop_distance)
    assignment = cluster_by_keypoints(class_points, keypoints)

    clusters = [indices[assignment == cluster] for cluster in range(len(keypoints))]
    clusters = [members for members in clusters if len(members) >= config.min_cluster_points]
    for members, new_id in zip(clusters, fresh_instance_ids(labels, len(clusters))):
        out.instance[members] = new_id
    return out

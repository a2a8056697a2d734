"""Instance-ID generation for classes annotated without instances.

Pipeline: keep only points of the target class, run farthest point sampling
until the next sample would fall closer than ``stop_distance`` to the chosen
set, cluster every kept point to its nearest keypoint, then hand each big
enough cluster a fresh instance ID. Everything here is deterministic; ties
resolve to the lowest index.

Distances sum x², then y², then z² over the (3, N) coordinate columns, as
``np.linalg.norm(..., axis=1)`` sums a row, so each has norm's bits; memory
is O(N) per keypoint, never an (N, K) matrix.
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


def _columns(points: np.ndarray) -> np.ndarray:
    """The float64 (3, N) coordinate columns of (N, 3) ``points``; ShapeError
    for any other shape."""
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != 3:
        raise ShapeError(f"points must be shaped (N, 3), got {points.shape}")
    return np.ascontiguousarray(points.T, dtype=np.float64)


def _distances(columns: np.ndarray, point: np.ndarray) -> np.ndarray:
    """Distance from each point of the (3, N) ``columns`` to ``point``, with
    the bits of ``np.linalg.norm(points - point, axis=1)``."""
    delta = columns - point[:, None]
    delta *= delta
    dist, dy, dz = delta
    dist += dy
    dist += dz
    return np.sqrt(dist, out=dist)


def farthest_point_sample(points: np.ndarray, stop_distance: float) -> np.ndarray:
    """Greedy max-min sampling with a distance stop.

    The seed is the point farthest from the set centroid; each later keypoint
    maximizes its minimum distance to the chosen set. Sampling stops once
    that max-min distance drops below ``stop_distance``, so any two returned
    keypoints are at least ``stop_distance`` apart.
    """
    if not stop_distance > 0.0:
        raise InvalidConfig("stop_distance must be > 0")
    columns = _columns(points)
    if columns.shape[1] == 0:
        raise EmptyInput("farthest_point_sample needs at least one point")

    first = int(np.argmax(_distances(columns, centroid(points))))
    chosen = [first]
    min_dist = _distances(columns, columns[:, first])
    while True:
        candidate = int(np.argmax(min_dist))
        if min_dist[candidate] < stop_distance:
            break
        chosen.append(candidate)
        np.minimum(min_dist, _distances(columns, columns[:, candidate]), out=min_dist)
    return np.asarray(chosen, dtype=np.int64)


def cluster_by_keypoints(points: np.ndarray, keypoints: np.ndarray) -> np.ndarray:
    """Assign every point to its nearest keypoint (ties: lowest keypoint index).

    Returns a cluster label per point; labels are positions in ``keypoints``.
    Keeps a running nearest distance and label, so memory is O(N).
    """
    columns = _columns(points)
    keypoints = np.asarray(keypoints, dtype=np.int64).reshape(-1)
    if len(keypoints) == 0:
        raise EmptyInput("cluster_by_keypoints needs at least one keypoint")
    if keypoints.min() < 0 or keypoints.max() >= columns.shape[1]:
        raise ShapeError("keypoint index out of range")
    nearest = _distances(columns, columns[:, keypoints[0]])
    label = np.zeros(columns.shape[1], dtype=np.int64)
    for i in range(1, len(keypoints)):
        dist = _distances(columns, columns[:, keypoints[i]])
        # strict <: a tie keeps the lower keypoint, as argmin would
        label[dist < nearest] = i
        np.minimum(nearest, dist, out=nearest)
    return label


def generate_instance_ids(
    cloud: PointCloud, labels: LabelSet, config: InstanceGenConfig
) -> LabelSet:
    """Assign fresh instance IDs to clusters of the target class.

    Only target-class points change; the new IDs come from
    ``kitti_io.fresh_instance_ids``, one per cluster in keypoint order.
    Clusters smaller than ``min_cluster_points`` are left untouched. One
    lookup from cluster to new ID assigns every cluster at once.
    """
    indices = filter_by_class(cloud, labels, config.target_class)
    out = labels.copy()
    if len(indices) == 0:
        return out

    class_points = cloud.points[indices]
    keypoints = farthest_point_sample(class_points, config.stop_distance)
    assignment = cluster_by_keypoints(class_points, keypoints)

    kept = np.bincount(assignment, minlength=len(keypoints)) >= config.min_cluster_points
    new_ids = np.zeros(len(keypoints), dtype=np.int64)
    new_ids[kept] = fresh_instance_ids(labels, int(kept.sum()))
    members = kept[assignment]
    out.instance[indices[members]] = new_ids[assignment[members]]
    return out

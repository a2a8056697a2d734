"""Shared synthetic scene builders for the test suite."""

from __future__ import annotations

import numpy as np

from scanfuse.fusion import FusedScan
from scanfuse.geometry import RigidTransform
from scanfuse.kitti_io import LabelSet, PointCloud
from scanfuse.synthetic import ObjectSpec, SyntheticConfig, make_synthetic_sequence


def sparse_hard_instance_scene(
    seed: int,
    n_ground: int = 200,
    n_hard: int = 50,
    n_cur_hard: int = 5,
    hard_class: int = 30,
    ground_class: int = 40,
):
    """A current scan seeing 5 points of a hard instance whose fused form has 50.

    Returns (current_scan, current_labels, fused_scan, eval_cloud, eval_labels)
    where the eval pair is a fresh, denser sample of the same scene geometry.
    """
    rng = np.random.default_rng(seed)
    ground = np.column_stack(
        [rng.uniform(-12, 12, size=(n_ground, 2)), np.zeros(n_ground)]
    )
    g_rem = rng.uniform(0.0, 1.0, n_ground)
    center = np.array([6.0, -3.0, 0.9])
    half_size = np.array([0.8, 0.8, 1.6])
    hard = center + rng.uniform(-0.5, 0.5, size=(n_hard, 3)) * half_size
    h_rem = rng.uniform(0.0, 1.0, n_hard)

    cur_pts = np.vstack([ground, hard[:n_cur_hard]])
    cur_rem = np.concatenate([g_rem, h_rem[:n_cur_hard]])
    cur_sem = np.concatenate(
        [np.full(n_ground, ground_class), np.full(n_cur_hard, hard_class)]
    ).astype(np.uint16)
    cur_inst = np.concatenate(
        [np.zeros(n_ground), np.ones(n_cur_hard)]
    ).astype(np.uint16)
    current = PointCloud(cur_pts, cur_rem)
    labels = LabelSet(cur_sem, cur_inst)

    n_app = n_hard - n_cur_hard
    fused = FusedScan(
        cloud=PointCloud(
            np.vstack([cur_pts, hard[n_cur_hard:]]),
            np.concatenate([cur_rem, h_rem[n_cur_hard:]]),
        ),
        labels=LabelSet(
            np.concatenate([cur_sem, np.full(n_app, hard_class, dtype=np.uint16)]),
            np.concatenate([cur_inst, np.ones(n_app, dtype=np.uint16)]),
        ),
        n_current=len(cur_pts),
        origin_index=np.full(n_app, -1, dtype=np.int64),
    )

    rng_eval = np.random.default_rng(seed + 10_000)
    eval_ground = np.column_stack(
        [rng_eval.uniform(-12, 12, size=(n_ground, 2)), np.zeros(n_ground)]
    )
    eval_hard = center + rng_eval.uniform(-0.5, 0.5, size=(100, 3)) * half_size
    eval_cloud = PointCloud(
        np.vstack([eval_ground, eval_hard]),
        rng_eval.uniform(0.0, 1.0, n_ground + 100),
    )
    eval_labels = LabelSet(
        np.concatenate(
            [np.full(n_ground, ground_class), np.full(100, hard_class)]
        ).astype(np.uint16),
        np.zeros(n_ground + 100, dtype=np.uint16),
    )
    return current, labels, fused, eval_cloud, eval_labels


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


def shared_id_scene(seed: int = 3):
    """5 scans of a static sign (81) and a moving truck (18), 30 points each,
    both carrying instance ID 5."""
    config = SyntheticConfig(
        n_scans=5,
        ground_points=80,
        points_per_object=30,
        objects=[
            ObjectSpec(
                shape="cylinder",
                class_id=81,
                center=(8.0, 3.0, 1.0),
                size=(0.4, 1.2),
                instance_id=5,
            ),
            ObjectSpec(
                shape="box",
                class_id=18,
                center=(6.0, -4.0, 1.2),
                size=(3.0, 2.0, 1.8),
                velocity=(0.5, 0.0, 0.0),
                instance_id=5,
            ),
        ],
    )
    return make_synthetic_sequence(config, seed)


def balanced_two_class_scene(seed: int, n: int = 200):
    """Exactly balanced labels spatially interleaved in one blob: no predictor
    can beat chance, so untrained-net mIoU stays near 1/3."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-5, 5, size=(n, 3))
    semantic = np.zeros(n, dtype=np.uint16)
    semantic[rng.permutation(n)[: n // 2]] = 1
    return (
        PointCloud(points, rng.uniform(0.0, 1.0, n)),
        LabelSet(semantic, np.zeros(n, dtype=np.uint16)),
    )


def separable_two_class_scene(seed: int, n_per_class: int = 60):
    """Two well-separated blobs; linearly separable for convergence checks."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n_per_class, 3)) + np.array([-4.0, 0.0, 0.0])
    b = rng.uniform(-1, 1, size=(n_per_class, 3)) + np.array([4.0, 0.0, 0.0])
    cloud = PointCloud(
        np.vstack([a, b]), rng.uniform(0.0, 1.0, 2 * n_per_class)
    )
    labels = LabelSet(
        np.concatenate(
            [np.zeros(n_per_class), np.ones(n_per_class)]
        ).astype(np.uint16),
        np.zeros(2 * n_per_class, dtype=np.uint16),
    )
    return cloud, labels


def trivial_fused(scan: PointCloud, labels: LabelSet) -> FusedScan:
    """A FusedScan with nothing appended (teacher sees the current scan)."""
    return FusedScan(
        cloud=scan.copy(),
        labels=labels.copy(),
        n_current=len(scan),
        origin_index=np.empty(0, dtype=np.int64),
    )


def rotation_from_axis_angle(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = float(np.linalg.norm(axis))
    if norm == 0.0:
        return np.eye(3)
    k = axis / norm
    kx = np.array(
        [[0.0, -k[2], k[1]], [k[2], 0.0, -k[0]], [-k[1], k[0], 0.0]]
    )
    return np.eye(3) + np.sin(angle) * kx + (1.0 - np.cos(angle)) * (kx @ kx)


def random_rigid_transform(
    rng: np.random.Generator,
    max_angle: float = np.pi,
    max_translation: float = 10.0,
) -> RigidTransform:
    """Uniform-ish random transform for tests: random axis, bounded angle."""
    axis = rng.normal(size=3)
    while np.linalg.norm(axis) < 1e-12:
        axis = rng.normal(size=3)
    angle = rng.uniform(0.0, max_angle)
    direction = rng.normal(size=3)
    nrm = float(np.linalg.norm(direction))
    if nrm < 1e-12:
        direction = np.array([1.0, 0.0, 0.0])
        nrm = 1.0
    radius = max_translation * rng.uniform(0.0, 1.0) ** (1.0 / 3.0)
    translation = direction / nrm * radius
    return RigidTransform(rotation_from_axis_angle(axis, angle), translation)

"""Desk-scale synthetic LiDAR sequences with exact ground truth.

Scenes are a flat ground patch plus rigid boxes/cylinders, each sampled once
and then moved with constant velocity (and optional yaw rate) across scans.
The same physical points appear in every scan, so fusion, registration and
motion-classification oracles are exact: a static object's points map between
scans purely by the sensor pose chain, and a moving object's per-scan centroid
displacement equals its configured velocity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfig
from .geometry import RigidTransform, apply_points, centroid, invert, rotation_about_z
from .kitti_io import LabelSet, PointCloud, SequenceData, fresh_instance_ids

# The sensor moves this far per scan (m) and turns this much (rad).
SENSOR_VELOCITY = (0.8, 0.0, 0.0)
SENSOR_YAW_RATE = 0.02
# The semantic class of every ground point.
GROUND_CLASS = 40
# How many ``ObjectSpec.size`` values each shape reads.
SIZE_VALUES = {"box": 3, "cylinder": 2}


@dataclass
class ObjectSpec:
    """One rigid object in the scene.

    ``size`` is (sx, sy, sz) for boxes and (radius, height) for cylinders.
    ``instance_id`` None means auto-assign: ``kitti_io.fresh_instance_ids``
    above the explicit IDs, in object order. An explicit 0 leaves the object
    without an instance ID (the input condition for instance generation).
    """

    shape: str  # "box" or "cylinder"
    class_id: int
    center: tuple[float, float, float]
    size: tuple[float, ...] = (1.0, 1.0, 1.0)
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)
    yaw_rate: float = 0.0
    n_points: int | None = None
    instance_id: int | None = None


@dataclass
class SyntheticConfig:
    n_scans: int = 5
    objects: list[ObjectSpec] = field(default_factory=list)
    points_per_object: int = 50
    ground_points: int = 200
    ground_extent: float = 15.0
    name: str = "synth"


@dataclass
class ObjectTruth:
    """Ground truth for one object across the sequence."""

    instance_id: int
    class_id: int
    start: int  # index of the object's first point in every scan
    stop: int
    world_centroids: np.ndarray  # (n_scans, 3)

    def indices(self) -> np.ndarray:
        return np.arange(self.start, self.stop)


@dataclass
class SceneTruth:
    objects: list[ObjectTruth]


@dataclass
class SyntheticSequence:
    data: SequenceData
    truth: SceneTruth


def _sample_body_offsets(spec: ObjectSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    if spec.shape == "box":
        size = np.asarray(spec.size[:3], dtype=np.float64)
        return rng.uniform(-0.5, 0.5, size=(n, 3)) * size
    if spec.shape == "cylinder":
        radius, height = spec.size[0], spec.size[1]
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n))
        theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
        z = rng.uniform(-0.5, 0.5, size=n) * height
        return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])
    raise InvalidConfig(f"unknown object shape {spec.shape!r}")


def make_synthetic_sequence(config: SyntheticConfig, seed: int) -> SyntheticSequence:
    """Generate a deterministic sequence with full ground truth.

    The returned scans are in each scan's sensor frame at float64 precision;
    ``write_sequence`` quantizes to the disk format when persistence is
    needed.
    """
    if config.n_scans < 1:
        raise InvalidConfig("n_scans must be >= 1")
    if not config.objects:
        raise InvalidConfig("at least one object is required")
    if config.points_per_object < 1:
        raise InvalidConfig("points_per_object must be >= 1")
    if config.ground_points < 0:
        raise InvalidConfig("ground_points must be >= 0")

    rng = np.random.default_rng(seed)

    ground_xy = rng.uniform(
        -config.ground_extent, config.ground_extent, size=(config.ground_points, 2)
    )
    ground_world = np.column_stack([ground_xy, np.zeros(config.ground_points)])
    ground_remission = rng.uniform(0.0, 1.0, size=config.ground_points)

    # Row counts: the ground, then each object in order.
    sizes = [config.ground_points]
    offsets: list[np.ndarray] = []
    remissions = [ground_remission]
    for j, spec in enumerate(config.objects):
        n = spec.n_points if spec.n_points is not None else config.points_per_object
        if n < 1:
            raise InvalidConfig(f"object {j}: n_points must be >= 1")
        if not 0 <= spec.class_id <= 0xFFFF:
            raise InvalidConfig(f"object {j}: class_id {spec.class_id} is outside 0..65535")
        if spec.instance_id is not None and not 0 <= spec.instance_id <= 0xFFFF:
            raise InvalidConfig(
                f"object {j}: instance_id {spec.instance_id} is outside 0..65535"
            )
        need = SIZE_VALUES.get(spec.shape, 0)
        if len(spec.size) < need:
            raise InvalidConfig(f"object {j}: a {spec.shape} needs {need} size values")
        offsets.append(_sample_body_offsets(spec, n, rng))
        remissions.append(rng.uniform(0.0, 1.0, size=n))
        sizes.append(n)

    explicit = [spec.instance_id for spec in config.objects if spec.instance_id is not None]
    taken = LabelSet(semantic=np.zeros(len(explicit)), instance=explicit)
    fresh = iter(fresh_instance_ids(taken, len(config.objects) - len(explicit)))
    instance_ids = [
        next(fresh) if spec.instance_id is None else spec.instance_id for spec in config.objects
    ]

    class_ids = [GROUND_CLASS] + [spec.class_id for spec in config.objects]
    semantic = np.repeat(np.array(class_ids, dtype=np.uint16), sizes)
    instance = np.repeat(np.array([0] + instance_ids, dtype=np.uint16), sizes)
    remission = np.concatenate(remissions)

    sensor_velocity = np.asarray(SENSOR_VELOCITY, dtype=np.float64)
    poses = [
        RigidTransform(rotation_about_z(SENSOR_YAW_RATE * s), sensor_velocity * s)
        for s in range(config.n_scans)
    ]

    scans: list[PointCloud] = []
    labels: list[LabelSet] = []
    centroids = np.zeros((len(config.objects), config.n_scans, 3))
    for s in range(config.n_scans):
        parts = [ground_world]
        for j, spec in enumerate(config.objects):
            center_s = np.asarray(spec.center, dtype=np.float64) + np.asarray(
                spec.velocity, dtype=np.float64
            ) * s
            rot = rotation_about_z(spec.yaw_rate * s)
            world_pts = offsets[j] @ rot.T + center_s
            centroids[j, s] = centroid(world_pts)
            parts.append(world_pts)
        sensor_pts = apply_points(invert(poses[s]), np.vstack(parts))
        scans.append(PointCloud(sensor_pts, remission.copy()))
        labels.append(LabelSet(semantic.copy(), instance.copy()))

    bounds = np.cumsum(sizes).tolist()
    truths = [
        ObjectTruth(iid, spec.class_id, start, stop, world_centroids)
        for spec, iid, start, stop, world_centroids in zip(
            config.objects, instance_ids, bounds, bounds[1:], centroids
        )
    ]

    data = SequenceData(
        scans=scans,
        labels=labels,
        poses=poses,
        calib=RigidTransform.identity(),
        name=config.name,
    )
    truth = SceneTruth(objects=truths)
    return SyntheticSequence(data=data, truth=truth)


def default_scene(n_scans: int = 5, points_per_object: int = 60) -> SyntheticConfig:
    """A small mixed scene: static traffic sign, moving truck, road plane."""
    return SyntheticConfig(
        n_scans=n_scans,
        points_per_object=points_per_object,
        objects=[
            ObjectSpec(
                shape="cylinder",
                class_id=81,  # traffic-sign
                center=(8.0, 3.0, 1.0),
                size=(0.4, 1.2),
            ),
            ObjectSpec(
                shape="box",
                class_id=18,  # truck
                center=(6.0, -4.0, 1.2),
                size=(3.5, 2.0, 2.0),
                velocity=(0.5, 0.0, 0.0),
            ),
        ],
    )

"""A scene read back from disk computes exactly as the same scene in float64.

Parsed scans keep the file's float32 records, and every function that
computes on coordinates widens the rows it gathers. A function that computed
in float32 instead would still give plausible numbers; these tests compare
bytes, so they catch it.
"""

import dataclasses

import numpy as np
import pytest

from scanfuse import cli
from scanfuse.fusion import (
    FusionConfig,
    InstanceDatabase,
    InstancePair,
    build_instance_db,
    fuse_scan,
    sample_and_paste,
)
from scanfuse.geometry import centroid
from scanfuse.instance_gen import InstanceGenConfig, generate_instance_ids
from scanfuse.kitti_io import PointCloud, instance_rows, load_sequence_index, write_sequence
from scanfuse.synthetic import ObjectSpec, SyntheticConfig, make_synthetic_sequence
from scanfuse.toynet import ToyNetParams, evaluate, forward, predict

WINDOW = 3


def scene_config() -> SyntheticConfig:
    """A static sign, a moving and turning truck (so ICP iterates) and a road."""
    return SyntheticConfig(
        n_scans=6,
        ground_points=300,
        points_per_object=80,
        objects=[
            ObjectSpec(shape="cylinder", class_id=81, center=(8.0, 3.0, 1.0), size=(0.4, 1.2)),
            ObjectSpec(
                shape="box",
                class_id=18,
                center=(6.0, -4.0, 1.2),
                size=(3.5, 2.0, 2.0),
                velocity=(0.5, 0.1, 0.0),
                yaw_rate=0.05,
            ),
        ],
    )


def widened(cloud: PointCloud) -> PointCloud:
    return PointCloud(cloud.points.astype(np.float64), cloud.remission.astype(np.float64))


def assert_same_cloud(a: PointCloud, b: PointCloud) -> None:
    assert a.points.dtype == b.points.dtype and a.remission.dtype == b.remission.dtype
    assert a.points.tobytes() == b.points.tobytes()
    assert a.remission.tobytes() == b.remission.tobytes()


def assert_same_fused(a, b) -> None:
    assert_same_cloud(a.cloud, b.cloud)
    assert a.labels == b.labels
    assert a.n_current == b.n_current
    assert a.origin_index.tobytes() == b.origin_index.tobytes()
    assert a.registration_warnings == b.registration_warnings
    assert len(a.pastes) == len(b.pastes)
    for p, q in zip(a.pastes, b.pastes):
        assert (p.key, p.new_instance_id) == (q.key, q.new_instance_id)
        assert p.transform.rotation.tobytes() == q.transform.rotation.tobytes()
        assert p.transform.translation.tobytes() == q.transform.translation.tobytes()


@pytest.fixture(scope="module", params=[5, 29])
def scene(request, tmp_path_factory):
    """``(sequence directory, the sequence read from it, the same in float64)``."""
    seq_dir = tmp_path_factory.mktemp("seq") / "00"
    write_sequence(make_synthetic_sequence(scene_config(), request.param).data, seq_dir)
    disk = load_sequence_index(seq_dir).load()
    for scan in disk.scans:
        assert scan.points.dtype == scan.remission.dtype == np.float32
        assert not scan.points.flags.writeable
    wide = dataclasses.replace(disk, scans=[widened(scan) for scan in disk.scans])
    return seq_dir, disk, wide


def test_centroid(scene):
    _, disk, wide = scene
    for scan, scan64, labels in zip(disk.scans, wide.scans, disk.labels):
        every_class = set(labels.semantic.tolist())
        grouped, groups = instance_rows(labels, every_class)
        rows = [slice(None), *(grouped[part] for part in groups.values())]
        for idx in rows:
            c = centroid(scan.points[idx])
            assert c.dtype == np.float64
            assert c.tobytes() == centroid(scan64.points[idx]).tobytes()


def test_fuse_scan(scene):
    _, disk, wide = scene
    config = FusionConfig(window=WINDOW)
    for t in range(len(disk)):
        fused = fuse_scan(disk, t, config)
        assert fused.cloud.points.dtype == np.float64
        assert_same_fused(fused, fuse_scan(wide, t, config))


def test_build_instance_db(scene):
    _, disk, wide = scene
    config = FusionConfig(window=WINDOW)
    db, db64 = build_instance_db(disk, config), build_instance_db(wide, config)
    assert len(db) == len(db64) > 0
    for e, e64 in zip(db.entries, db64.entries):
        assert (e.key, e.n_single) == (e64.key, e64.n_single)
        assert_same_cloud(e.fused_cloud, e64.fused_cloud)
        assert e.fused_labels == e64.fused_labels


@pytest.mark.parametrize("target_class", [81, 18, 40])
def test_generate_instance_ids(scene, target_class):
    _, disk, wide = scene
    config = InstanceGenConfig(target_class=target_class)
    for scan, scan64, labels in zip(disk.scans, wide.scans, disk.labels):
        assert generate_instance_ids(scan, labels, config) == generate_instance_ids(
            scan64, labels, config
        )


def test_sample_and_paste_from_a_database_on_disk(scene, tmp_path):
    _, disk, _ = scene
    config = FusionConfig(window=WINDOW)
    build_instance_db(disk, config).save(tmp_path / "db")
    db = InstanceDatabase.load(tmp_path / "db")
    assert db.entries[0].fused_cloud.points.dtype == np.float32
    db64 = InstanceDatabase(
        [
            InstancePair(e.key, widened(e.fused_cloud), e.fused_labels, e.n_single)
            for e in db.entries
        ]
    )
    fused = fuse_scan(disk, len(disk) - 1, config)
    for seed in range(4):
        assert_same_fused(
            sample_and_paste(fused, db, 3, seed), sample_and_paste(fused, db64, 3, seed)
        )


def test_forward_predict_and_evaluate(scene):
    _, disk, wide = scene
    classes = sorted({int(c) for lab in disk.labels for c in np.unique(lab.semantic)})
    class_to_index = {raw: i for i, raw in enumerate(classes)}
    params = ToyNetParams.init(3, 16, len(classes))
    for scan, scan64 in zip(disk.scans, wide.scans):
        out, out64 = forward(params, scan), forward(params, scan64)
        for name, value in vars(out).items():
            assert value.tobytes() == getattr(out64, name).tobytes(), name
        assert predict(params, scan).tobytes() == predict(params, scan64).tobytes()
    per_class, mean = evaluate(params, disk.scans, disk.labels, class_to_index)
    per_class64, mean64 = evaluate(params, wide.scans, wide.labels, class_to_index)
    assert per_class.tobytes() == per_class64.tobytes()
    assert mean.hex() == mean64.hex()


def test_cli_fuse_writes_the_same_bytes(scene, tmp_path, monkeypatch):
    seq_dir, _, wide = scene
    suffixes = (".bin", ".label", ".origins.txt")

    def fuse_all(out_dir):
        written = []
        for t in range(1, len(wide)):
            prefix = out_dir / f"{t:06d}"
            args = ["fuse", "--seq", str(seq_dir), "--scan", str(t), "--window", str(WINDOW)]
            assert cli.main([*args, "--out", str(prefix)]) == 0
            written += [(prefix.parent / (prefix.name + s)).read_bytes() for s in suffixes]
        return written

    from_disk = fuse_all(tmp_path / "disk")
    # the same command on the float64 sequence
    monkeypatch.setattr(cli, "load_sequence_index", lambda _: wide)
    assert fuse_all(tmp_path / "wide") == from_disk

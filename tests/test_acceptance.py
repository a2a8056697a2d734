"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the whole suite stays well under the ten-minute budget.
"""

import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

from scanfuse.distill import (
    DistillConfig,
    feature_distill_loss,
    iaad_loss,
    soft_logits_kl_loss,
    verify_gradients,
)
from scanfuse.errors import MalformedLabel, MalformedPose, MalformedScan
from scanfuse.fusion import FusionConfig, fuse_scan
from scanfuse.geometry import (
    RigidTransform,
    apply_points,
    compose,
    invert,
)
from scanfuse.instance_gen import InstanceGenConfig, generate_instance_ids
from scanfuse.kitti_io import (
    parse_labels,
    parse_poses,
    parse_scan,
    write_labels,
    write_poses,
    write_scan,
)
from scanfuse.metrics import accumulate_confusion, format_iou_table, miou
from scanfuse.registration import RegistrationConfig, icp_register
from scanfuse.synthetic import ObjectSpec, SyntheticConfig, make_synthetic_sequence
from scanfuse.toynet import (
    ToyNetParams,
    TrainState,
    evaluate,
    supervised_step,
    train_step,
)

from scenes import (
    centroid_init,
    random_rigid_transform,
    rotation_from_axis_angle,
    sparse_hard_instance_scene,
)


def report(criterion: int, text: str) -> None:
    print(f"PASS criterion {criterion}: {text}")


# -------------------------------------------------------------------------
# 1. Format fidelity
# -------------------------------------------------------------------------


def test_criterion_1_format_fidelity():
    rng = np.random.default_rng(1001)

    for _ in range(1000):
        n = int(rng.integers(0, 40))
        values = rng.uniform(-80, 80, size=(n, 4)).astype("<f4")
        data = values.tobytes()
        assert write_scan(parse_scan(data)) == data

    for _ in range(1000):
        data = rng.bytes(4 * int(rng.integers(0, 60)))
        assert write_labels(parse_labels(data)) == data

    calib = RigidTransform.identity()
    for _ in range(1000):
        poses = [random_rigid_transform(rng) for _ in range(int(rng.integers(1, 6)))]
        text = write_poses(poses, calib)
        assert write_poses(parse_poses(text, calib), calib) == text

    with pytest.raises(MalformedScan):
        parse_scan(b"\x00" * 17)
    with pytest.raises(MalformedScan):
        parse_scan(np.array([[1.0, np.nan, 0.0, 0.0]], dtype="<f4").tobytes())
    with pytest.raises(MalformedLabel):
        parse_labels(b"\x00" * 6)
    with pytest.raises(MalformedPose):
        parse_poses("1 0 0 0 0 1 0 0 0 0 1\n", calib)
    with pytest.raises(MalformedPose):
        parse_poses("1 0.01 0 0 0 1 0 0 0 0 1 0\n", calib)

    report(1, "scan/label/pose round trips bit-exact on 1000 random files each")


# -------------------------------------------------------------------------
# 2. Geometry identities
# -------------------------------------------------------------------------


def test_criterion_2_geometry_identities():
    rng = np.random.default_rng(1002)
    identity = RigidTransform.identity()
    for _ in range(1000):
        a, b, c = (random_rigid_transform(rng) for _ in range(3))
        assert compose(compose(a, b), c).allclose(compose(a, compose(b, c)), tol=1e-9)
        assert compose(a, invert(a)).allclose(identity, tol=1e-9)
        assert compose(invert(a), a).allclose(identity, tol=1e-9)
    report(2, "1000 random triples satisfy associativity and inverse identities at 1e-9")


# -------------------------------------------------------------------------
# 3. Instance generation
# -------------------------------------------------------------------------


def _separated_objects_scene(seed: int):
    rng = np.random.default_rng(seed)
    n_objects = int(rng.integers(2, 7))
    slots = [(8.0 * i, 8.0 * j) for i in (-1, 0, 1) for j in (-1, 0, 1)]
    picks = rng.choice(len(slots), size=n_objects, replace=False)
    objects = []
    for k in picks:
        x, y = slots[k]
        jitter = rng.uniform(-1.0, 1.0, size=2)
        objects.append(
            ObjectSpec(
                shape="box",
                class_id=81,
                center=(x + jitter[0], y + jitter[1], 0.4),
                size=(0.8, 0.8, 0.8),
                instance_id=0,
            )
        )
    config = SyntheticConfig(
        n_scans=1, ground_points=60, points_per_object=30, objects=objects
    )
    return make_synthetic_sequence(config, seed), n_objects


def test_criterion_3_instance_generation():
    for seed in range(50):
        seq, n_objects = _separated_objects_scene(seed)
        cloud = seq.data.scans[0]
        labels = seq.data.labels[0]
        out = generate_instance_ids(
            cloud, labels, InstanceGenConfig(target_class=81, stop_distance=2.0)
        )
        target_ids = out.instance[labels.semantic == 81]
        assert len(set(target_ids.tolist())) == n_objects
        assert (target_ids > 0).all()
        seen = set()
        for obj in seq.truth.objects:
            ids = set(out.instance[obj.indices()].tolist())
            assert len(ids) == 1  # one ID covers the whole object
            seen |= ids
        assert len(seen) == n_objects  # and IDs separate objects
    report(3, "50/50 scenes recover exact object counts and partitions")


# -------------------------------------------------------------------------
# 4. Registration recovery
# -------------------------------------------------------------------------


def test_criterion_4_registration_recovery():
    successes = 0
    config = RegistrationConfig(
        max_iterations=100, convergence_tol=1e-9, max_correspondence_dist=10.0
    )
    for seed in range(100):
        rng = np.random.default_rng(seed)
        source = rng.uniform(-1, 1, size=(200, 3)) * np.array([1.5, 1.0, 0.6])
        axis = rng.normal(size=3)
        angle = rng.uniform(0.0, np.deg2rad(30))
        translation = rng.uniform(-1, 1, size=3)
        translation *= rng.uniform(0.0, 2.0) / max(np.linalg.norm(translation), 1e-12)
        true = RigidTransform(rotation_from_axis_angle(axis, angle), translation)
        target = apply_points(true, source)
        result = icp_register(source, cKDTree(target), centroid_init(source, target), config)
        rot_err = np.linalg.norm(result.transform.rotation - true.rotation)
        tr_err = np.linalg.norm(result.transform.translation - true.translation)
        if rot_err < 1e-5 and tr_err < 1e-5:
            successes += 1
        history = result.rms_history
        assert all(b <= a for a, b in zip(history, history[1:]))
    assert successes >= 95
    report(4, f"{successes}/100 noiseless transforms recovered below 1e-5; RMS monotone")


# -------------------------------------------------------------------------
# 5. Fusion correctness
# -------------------------------------------------------------------------


def _mixed_scene(seed: int):
    config = SyntheticConfig(
        n_scans=5,
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
            ),
        ],
    )
    return make_synthetic_sequence(config, seed)


def test_criterion_5_fusion_correctness():
    config = FusionConfig()
    for seed in range(10):
        seq = _mixed_scene(seed)
        fused = fuse_scan(seq.data, 4, config)
        appended_sem = fused.labels.semantic[fused.n_current :]
        appended_pts = fused.cloud.points[fused.n_current :]

        # static: appended sign points coincide with current sign geometry
        sign = seq.truth.objects[0]
        current_sign = seq.data.scans[4].points[sign.indices()]
        dists, _ = cKDTree(current_sign).query(appended_pts[appended_sem == 81])
        assert dists.max() < 1e-6

        # moving: registration brings points onto the current surface, while
        # pose-only mapping leaves each physical point k*0.5 m short
        truck = seq.truth.objects[1]
        current_truck = seq.data.scans[4].points[truck.indices()]
        dists, _ = cKDTree(current_truck).query(appended_pts[appended_sem == 18])
        assert dists.max() < 1e-3
        t_inv = invert(seq.data.poses[4])
        for s in range(4):
            rel = compose(t_inv, seq.data.poses[s])
            naive = apply_points(rel, seq.data.scans[s].points[truck.indices()])
            err = np.linalg.norm(naive - current_truck, axis=1)
            assert err.min() >= 0.49 * (4 - s)

        # every appended point is hard-class; sparse fusion stays below naive
        assert set(appended_sem.tolist()) <= config.hard_classes
        assert fused.n_appended > 0
        naive = sum(len(seq.data.scans[s]) for s in range(4 - config.window, 5))
        assert len(fused.cloud) < naive
    report(
        5,
        "static fusion within 1e-6, registration beats pose-only, appended "
        "points all hard-class, fused size below naive on 10 scenes",
    )


# -------------------------------------------------------------------------
# 6. Loss correctness
# -------------------------------------------------------------------------


def test_criterion_6_loss_correctness():
    rng = np.random.default_rng(1006)

    for _ in range(1000):
        n, w = int(rng.integers(2, 7)), int(rng.integers(2, 6))
        t = rng.normal(size=(n, w))
        s = rng.normal(size=(n, w))
        assert feature_distill_loss(t, t.copy(), 1.0)[0] == 0.0
        assert soft_logits_kl_loss(t, t.copy(), 1.0)[0] == 0.0
        assert iaad_loss(t, t.copy(), [np.arange(n)])[0] == 0.0
        assert feature_distill_loss(t, s, 1.0)[0] >= 0.0
        assert soft_logits_kl_loss(t, s, 1.0)[0] >= 0.0
        assert iaad_loss(t, s, [np.arange(n)])[0] >= 0.0

    rows = verify_gradients(cases=100, seed=6)
    for name, err, passed in rows:
        assert passed, f"{name} gradient error {err:.3e} exceeds 1e-4"

    threshold = 1.3
    quadratic = threshold**2 / (2.0 * threshold)
    linear = threshold - threshold / 2.0
    assert abs(quadratic - linear) < 1e-12

    loss, _ = soft_logits_kl_loss(
        np.array([[math.log(2.0), 0.0]]), np.array([[0.0, 0.0]]), 1.0
    )
    hand = ((2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)) / 2
    assert abs(loss - hand) < 1e-10

    def cosines(rows):
        norms = np.linalg.norm(rows, axis=1)
        n = len(rows)
        return [[rows[i] @ rows[j] / (norms[i] * norms[j]) for j in range(n)] for i in range(n)]

    for _ in range(1000):
        n, w = int(rng.integers(2, 10)), int(rng.integers(1, 7))
        t = rng.normal(size=(n, w))
        s = rng.normal(size=(n, w))
        c_t, c_s = cosines(t), cosines(s)
        expected = sum((c_s[i][j] - c_t[i][j]) ** 2 for i in range(n) for j in range(n)) / n**2
        assert abs(iaad_loss(t, s, [np.arange(n)])[0] - expected) < 1e-12

    report(
        6,
        "losses zero at equality and nonnegative (1000 pairs), gradients < 1e-4 "
        "(100 cases each), branch continuity, KL hand value, IAAD equals its "
        "double-loop definition within 1e-12 (1000 sets)",
    )


# -------------------------------------------------------------------------
# 7. End-to-end toy distillation
# -------------------------------------------------------------------------


def _default_training_scene():
    config = SyntheticConfig(
        n_scans=5,
        points_per_object=60,
        objects=[
            ObjectSpec(
                shape="cylinder", class_id=81, center=(8.0, 3.0, 1.0), size=(0.4, 1.2)
            ),
            ObjectSpec(
                shape="box",
                class_id=18,
                center=(6.0, -4.0, 1.2),
                size=(3.5, 2.0, 2.0),
                velocity=(0.5, 0.0, 0.0),
            ),
        ],
    )
    seq = make_synthetic_sequence(config, seed=1)
    fused = fuse_scan(seq.data, 4, FusionConfig())
    return seq.data.scans[4], seq.data.labels[4], fused


def test_criterion_7_loss_halving():
    # Frozen calibration: H=16, lr=0.1, teacher/student seeds (1, 2).
    current, labels, fused = _default_training_scene()
    class_to_index = {40: 0, 81: 1, 18: 2}
    state = TrainState(
        teacher=ToyNetParams.init(1, 16, 3),
        student=ToyNetParams.init(2, 16, 3),
        step=0,
        learning_rate=0.1,
        distill=DistillConfig(),
        class_to_index=class_to_index,
    )
    first = last = None
    for i in range(200):
        state, losses = train_step(state, current, fused, labels)
        if i == 0:
            first = losses.total
        last = losses.total
    assert last < 0.5 * first
    report(7, f"200 training steps shrink total loss {first:.3f} -> {last:.3f} (< 0.5x)")


def test_criterion_7_betas_zero_bit_identity():
    current, labels, fused = _default_training_scene()
    class_to_index = {40: 0, 81: 1, 18: 2}
    state = TrainState(
        teacher=ToyNetParams.init(1, 16, 3),
        student=ToyNetParams.init(2, 16, 3),
        step=0,
        learning_rate=0.1,
        distill=DistillConfig(betas=(0.0, 0.0, 0.0, 0.0)),
        class_to_index=class_to_index,
    )
    baseline = state.student.copy()
    for _ in range(20):
        state, _ = train_step(state, current, fused, labels)
        baseline, _ = supervised_step(
            baseline, current, labels, class_to_index, state.learning_rate
        )
    assert state.student.equals(baseline)
    report(7, "betas-zero training is bit-identical to the supervised baseline")


def test_criterion_7_distillation_efficacy():
    # Frozen calibration: 1000 steps, lr=0.1, H=16, seeds 0..9.
    class_to_index = {40: 0, 30: 1}
    steps, lr = 1000, 0.1
    distilled_scores = []
    plain_scores = []
    for seed in range(10):
        current, labels, fused, eval_cloud, eval_labels = sparse_hard_instance_scene(seed)

        student = ToyNetParams.init(seed * 3 + 1, 16, 2)
        state = TrainState(
            teacher=ToyNetParams.init(seed * 3 + 2, 16, 2),
            student=student.copy(),
            step=0,
            learning_rate=lr,
            distill=DistillConfig(),
            class_to_index=class_to_index,
            hard_classes=frozenset({30}),
        )
        for _ in range(steps):
            state, _ = train_step(state, current, fused, labels)
        per_class, _ = evaluate(state.student, [eval_cloud], [eval_labels], class_to_index)
        distilled_scores.append(per_class[1])

        plain = student.copy()
        for _ in range(steps):
            plain, _ = supervised_step(plain, current, labels, class_to_index, lr)
        per_class, _ = evaluate(plain, [eval_cloud], [eval_labels], class_to_index)
        plain_scores.append(per_class[1])

    mean_distilled = float(np.mean(distilled_scores))
    mean_plain = float(np.mean(plain_scores))
    assert mean_distilled >= mean_plain
    report(
        7,
        f"sparse-hard-instance hard-class IoU: distilled {mean_distilled:.3f} "
        f">= plain {mean_plain:.3f} (mean of 10 seeds)",
    )


# -------------------------------------------------------------------------
# 8. Metrics
# -------------------------------------------------------------------------


def test_criterion_8_metrics():
    cm = accumulate_confusion([0, 1, 1, 1], [0, 0, 1, 1], 2)
    per_class, mean = miou(cm)
    assert per_class[0] == 0.5
    assert per_class[1] == 2.0 / 3.0
    assert abs(mean - 7.0 / 12.0) <= math.ulp(7.0 / 12.0)

    rng = np.random.default_rng(1008)
    for _ in range(20):
        n = int(rng.integers(50, 500))
        gt = rng.integers(0, 6, size=n)
        pred = rng.integers(0, 6, size=n)
        whole = accumulate_confusion(pred, gt, 6)
        cuts = np.sort(rng.integers(0, n, size=3))
        merged = np.zeros((6, 6), dtype=np.int64)
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            merged += accumulate_confusion(pred[lo:hi], gt[lo:hi], 6)
        assert np.array_equal(whole, merged)

    table = format_iou_table(["car", "pole"], np.array([0.5, 1.0]), 0.75)
    header = table.splitlines()[0].split()
    assert header[1:] == ["car", "pole", "mIoU"]

    report(8, "mIoU 7/12 exact, shard merges match single pass, table layout per-class then mean")

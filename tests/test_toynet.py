import threading

import numpy as np
import pytest

from scanfuse import toynet
from scanfuse.distill import (
    DistillConfig,
    feature_distill_loss,
    finite_difference_gradient,
    gradient_scale_error,
    iaad_loss,
    soft_logits_kl_loss,
)
from scanfuse.errors import InvalidConfig, NumericError, ShapeError
from scanfuse.fusion import FusionConfig, fuse_scan
from scanfuse.kitti_io import LabelSet, PointCloud
from scanfuse.synthetic import default_scene, make_synthetic_sequence
from scanfuse.toynet import (
    COORD_SCALE,
    ToyNetParams,
    TrainState,
    _backward,
    compute_gradients,
    cross_entropy,
    distill_rows,
    evaluate,
    forward,
    remap_semantic,
    supervised_step,
    train_step,
)

from scenes import (
    balanced_two_class_scene,
    separable_two_class_scene,
    shared_id_scene,
    trivial_fused,
)


def tiny_state(teacher_seed, student_seed, class_to_index, hard, lr=0.05, hidden=8):
    n_classes = len(set(class_to_index.values()))
    return TrainState(
        teacher=ToyNetParams.init(teacher_seed, hidden, n_classes),
        student=ToyNetParams.init(student_seed, hidden, n_classes),
        step=0,
        learning_rate=lr,
        distill=DistillConfig(),
        class_to_index=class_to_index,
        hard_classes=hard,
    )


# --- forward -------------------------------------------------------


def test_forward_zero_weights_zero_logits():
    params = ToyNetParams.zeros(hidden=8, n_classes=3)
    rng = np.random.default_rng(0)
    cloud = PointCloud(rng.uniform(-10, 10, size=(13, 3)), rng.uniform(0, 1, 13))
    out = forward(params, cloud)
    assert np.array_equal(out.logits, np.zeros((13, 3)))


def test_forward_hand_computed_tiny_net():
    # hidden width 1, 2 classes; manual weight values
    params = ToyNetParams(
        w1=np.array([[0.5], [0.25], [-0.5], [1.0]]),
        b1=np.array([0.1]),
        w2=np.array([[2.0]]),
        b2=np.array([-0.2]),
        w3=np.array([[1.5]]),
        b3=np.array([0.05]),
        w4=np.array([[1.0, -1.0]]),
        b4=np.array([0.0, 0.3]),
    )
    cloud = PointCloud(np.array([[1.0, 2.0, 3.0]]), np.array([0.5]))
    x = np.array([1.0 * COORD_SCALE, 2.0 * COORD_SCALE, 3.0 * COORD_SCALE, 0.5])
    h1 = np.tanh(x @ params.w1 + 0.1)
    h2 = np.tanh(h1 * 2.0 - 0.2)
    h3 = np.tanh(h2 * 1.5 + 0.05)
    expected = np.array([h3[0] * 1.0 + 0.0, h3[0] * -1.0 + 0.3])
    out = forward(params, cloud)
    assert np.abs(out.logits[0] - expected).max() < 1e-15
    assert np.abs(out.encoder[0] - h2).max() < 1e-15
    assert np.abs(out.head[0] - h3).max() < 1e-15


def test_forward_is_permutation_equivariant():
    rng = np.random.default_rng(1)
    params = ToyNetParams.init(5, 8, 3)
    cloud = PointCloud(rng.uniform(-5, 5, size=(20, 3)), rng.uniform(0, 1, 20))
    perm = rng.permutation(20)
    permuted = PointCloud(cloud.points[perm], cloud.remission[perm])
    out = forward(params, cloud)
    out_p = forward(params, permuted)
    assert np.array_equal(out.logits[perm], out_p.logits)
    assert np.array_equal(out.head[perm], out_p.head)


# --- train_step -------------------------------------------------------


def test_betas_zero_reduces_to_supervised_and_converges():
    cloud, labels = separable_two_class_scene(seed=2)
    fused = trivial_fused(cloud, labels)
    c2i = {0: 0, 1: 1}
    state = tiny_state(3, 4, c2i, frozenset({1}))
    state.distill = DistillConfig(betas=(0.0, 0.0, 0.0, 0.0))
    losses = []
    for _ in range(50):
        state, bd = train_step(state, cloud, fused, labels)
        losses.append(bd.seg_student)
    assert losses[-1] < losses[0]
    assert losses[-1] < 0.25


def test_betas_zero_step_is_bit_identical_to_supervised():
    cloud, labels = separable_two_class_scene(seed=5)
    fused = trivial_fused(cloud, labels)
    c2i = {0: 0, 1: 1}
    state = tiny_state(6, 7, c2i, frozenset({1}))
    state.distill = DistillConfig(betas=(0.0, 0.0, 0.0, 0.0))
    teacher_before = state.teacher.copy()
    student_before = state.student.copy()

    new_state, bd = train_step(state, cloud, fused, labels)
    supervised, ce = supervised_step(student_before, cloud, labels, c2i, state.learning_rate)
    assert new_state.student.equals(supervised)
    assert new_state.teacher.equals(teacher_before)
    assert bd.seg_student == ce
    assert bd.total == ce


def test_identical_branches_have_zero_distillation_terms():
    seq = make_synthetic_sequence(default_scene(n_scans=3, points_per_object=20), seed=8)
    fused = fuse_scan(seq.data, 2, FusionConfig(window=2))
    current = seq.data.scans[2]
    labels = seq.data.labels[2]
    c2i = {40: 0, 81: 1, 18: 2}
    state = tiny_state(9, 9, c2i, frozenset({81, 18}))
    state.student = state.teacher.copy()
    breakdown, _, _ = compute_gradients(state, current, fused, labels)
    assert breakdown.feature == 0.0
    assert breakdown.logits == 0.0
    assert breakdown.affinity == 0.0


def test_end_to_end_student_gradients_match_finite_differences():
    config = default_scene(n_scans=3, points_per_object=8)
    config.ground_points = 20
    seq = make_synthetic_sequence(config, seed=10)
    fused = fuse_scan(seq.data, 2, FusionConfig(window=2))
    current = seq.data.scans[2]
    labels = seq.data.labels[2]
    assert len(current) <= 50
    c2i = {40: 0, 81: 1, 18: 2}
    state = tiny_state(11, 12, c2i, frozenset({81, 18}), hidden=6)

    breakdown, student_grads, _ = compute_gradients(state, current, fused, labels)

    def total_with(student: ToyNetParams) -> float:
        probe = TrainState(
            teacher=state.teacher,
            student=student,
            step=0,
            learning_rate=state.learning_rate,
            distill=state.distill,
            class_to_index=c2i,
            hard_classes=state.hard_classes,
        )
        return compute_gradients(probe, current, fused, labels)[0].total

    step = 1e-5
    for analytic, array in zip(student_grads.arrays(), state.student.arrays()):
        fd = np.zeros_like(array)
        flat_fd, flat = fd.ravel(), array.ravel()
        for i in range(array.size):
            orig = flat[i]
            flat[i] = orig + step
            hi = total_with(state.student)
            flat[i] = orig - step
            lo = total_with(state.student)
            flat[i] = orig
            flat_fd[i] = (hi - lo) / (2 * step)
        assert gradient_scale_error(analytic, fd) < 1e-3


def test_end_to_end_teacher_gradients_match_finite_differences():
    config = default_scene(n_scans=3, points_per_object=8)
    config.ground_points = 20
    seq = make_synthetic_sequence(config, seed=10)
    fused = fuse_scan(seq.data, 2, FusionConfig(window=2))
    current = seq.data.scans[2]
    labels = seq.data.labels[2]
    assert fused.n_appended > 0 and len(fused.cloud) <= 80
    c2i = {40: 0, 81: 1, 18: 2}
    state = tiny_state(13, 14, c2i, frozenset({81, 18}), hidden=6)
    assert all(b != 0.0 for b in state.distill.betas)
    b1 = state.distill.betas[0]

    _, _, teacher_grads = compute_gradients(state, current, fused, labels)

    # The distillation terms hold the teacher constant, so the teacher's
    # gradient is that of its weighted segmentation loss alone. The finite
    # differences perturb each parameter array in place, inside ``state``.
    def weighted_teacher_loss(_) -> float:
        return b1 * compute_gradients(state, current, fused, labels)[0].seg_teacher

    for analytic, array in zip(teacher_grads.arrays(), state.teacher.arrays()):
        fd = finite_difference_gradient(weighted_teacher_loss, array)
        assert gradient_scale_error(analytic, fd) < 1e-3


def sign_and_truck_step():
    """A state with every beta nonzero and a fused scan with appended rows."""
    seq = make_synthetic_sequence(default_scene(n_scans=3, points_per_object=20), seed=8)
    fused = fuse_scan(seq.data, 2, FusionConfig(window=2))
    assert fused.n_appended > 0
    state = tiny_state(9, 10, {40: 0, 81: 1, 18: 2}, frozenset({81, 18}))
    assert all(b != 0.0 for b in state.distill.betas)
    return state, seq.data.scans[2], fused, seq.data.labels[2]


def test_steps_leave_their_inputs_unchanged():
    state, current, fused, labels = sign_and_truck_step()
    inputs = [
        *state.teacher.arrays(),
        *state.student.arrays(),
        fused.cloud.points,
        fused.cloud.remission,
        fused.labels.semantic,
        fused.labels.instance,
        current.points,
        current.remission,
        labels.semantic,
        labels.instance,
    ]
    before = [a.tobytes() for a in inputs]

    compute_gradients(state, current, fused, labels)
    train_step(state, current, fused, labels)
    supervised_step(
        state.student, current, labels, state.class_to_index, state.learning_rate
    )
    assert [a.tobytes() for a in inputs] == before


def test_overlapped_step_matches_a_serial_composition():
    state, current, fused, labels = sign_and_truck_step()
    cfg = state.distill
    b1, b2, b3, b4 = cfg.betas
    c2i = state.class_to_index

    t_out = forward(state.teacher, fused.cloud)
    _, d_t = cross_entropy(t_out.logits, remap_semantic(fused.labels.semantic, c2i))
    expected_teacher = _backward(state.teacher, t_out, b1 * d_t)

    s_out = forward(state.student, current)
    _, d_s = cross_entropy(s_out.logits, remap_semantic(labels.semantic, c2i))
    hard, instances = distill_rows(labels, state.hard_classes)
    n = len(current)
    _, g_enc = feature_distill_loss(t_out.encoder[hard], s_out.encoder[hard], cfg.smooth_l1_T)
    _, g_head = feature_distill_loss(t_out.head[hard], s_out.head[hard], cfg.smooth_l1_T)
    _, g_sld = soft_logits_kl_loss(t_out.logits[hard], s_out.logits[hard], cfg.temperature_P)
    _, g_iaad = iaad_loss(t_out.head[:n], s_out.head, instances)
    d_s[hard] += b3 * g_sld
    d_h2 = np.zeros_like(s_out.encoder)
    d_h2[hard] = b2 * g_enc
    d_h3 = np.zeros_like(s_out.head)
    d_h3[hard] = b2 * g_head
    d_h3 += b4 * g_iaad
    assert len(hard) and instances
    expected_student = _backward(state.student, s_out, d_s, d_h2, d_h3)

    _, student_grads, teacher_grads = compute_gradients(state, current, fused, labels)
    assert student_grads.equals(expected_student)
    assert teacher_grads.equals(expected_teacher)


def _break_teacher_input(state, fused):
    state.teacher.w1[0, 0] = np.nan


def _unmap_an_appended_class(state, fused):
    fused.labels.semantic[fused.n_current] = 99


@pytest.mark.parametrize(
    "breakage, error",
    [(_break_teacher_input, NumericError), (_unmap_an_appended_class, InvalidConfig)],
)
def test_teacher_branch_errors_raise_after_the_worker_ends(breakage, error):
    state, current, fused, labels = sign_and_truck_step()
    breakage(state, fused)
    threads_before = set(threading.enumerate())
    with pytest.raises(error):
        compute_gradients(state, current, fused, labels)
    assert set(threading.enumerate()) == threads_before


def test_blas_thread_count_is_held_during_the_step_and_restored(monkeypatch):
    calls = toynet._openblas_thread_calls()
    if calls is None:
        pytest.skip("NumPy carries no OpenBLAS whose thread count can be set")
    get, set_ = calls
    state, current, fused, labels = sign_and_truck_step()
    seen = []

    def distill_rows_seeing_blas(*args):
        seen.append(get())
        return distill_rows(*args)

    monkeypatch.setattr(toynet, "distill_rows", distill_rows_seeing_blas)
    original = get()
    try:
        set_(2)
        compute_gradients(state, current, fused, labels)
        assert get() == 2
        state.teacher.w1[0, 0] = np.nan
        with pytest.raises(NumericError):
            compute_gradients(state, current, fused, labels)
        assert get() == 2
    finally:
        set_(original)
    assert seen == [1, 1]


@pytest.mark.parametrize("learning_rate", [np.nan, np.inf, 0.0, -1.0])
def test_train_state_rejects_a_bad_learning_rate(learning_rate):
    with pytest.raises(InvalidConfig, match="learning_rate"):
        tiny_state(1, 2, {0: 0, 1: 1}, frozenset({1}), lr=learning_rate)


def test_distill_rows_splits_an_id_shared_by_two_classes():
    seq = shared_id_scene()
    labels = seq.data.labels[4]
    hard_idx, instances = distill_rows(labels, frozenset({18, 81}))
    assert len(hard_idx) == 60
    assert [len(rows) for rows in instances] == [30, 30]
    assert [set(labels.semantic[rows].tolist()) for rows in instances] == [{18}, {81}]


def test_train_step_rejects_misaligned_map():
    cloud, labels = separable_two_class_scene(seed=13)
    fused = trivial_fused(cloud, labels)
    state = tiny_state(14, 15, {0: 0, 1: 1}, frozenset({1}))
    short = PointCloud(cloud.points[:-1], cloud.remission[:-1])
    with pytest.raises(ShapeError):
        train_step(state, short, fused, labels)


def test_train_step_increments_step_counter():
    cloud, labels = separable_two_class_scene(seed=16)
    fused = trivial_fused(cloud, labels)
    state = tiny_state(17, 18, {0: 0, 1: 1}, frozenset({1}))
    state, _ = train_step(state, cloud, fused, labels)
    state, _ = train_step(state, cloud, fused, labels)
    assert state.step == 2


# --- evaluate -------------------------------------------------------


def test_evaluate_perfect_memorization_single_point():
    params = ToyNetParams.zeros(hidden=4, n_classes=2)
    params.b4[1] = 5.0  # always predict class 1
    cloud = PointCloud(np.array([[1.0, 2.0, 0.5]]), np.array([0.3]))
    labels = LabelSet(np.array([7], dtype=np.uint16), np.array([0], dtype=np.uint16))
    per_class, mean = evaluate(params, [cloud], [labels], {7: 1})
    assert mean == 1.0
    assert per_class[1] == 1.0


def test_evaluate_untrained_params_near_chance():
    c2i = {0: 0, 1: 1}
    for seed in range(20):
        cloud, labels = balanced_two_class_scene(seed)
        params = ToyNetParams.init(seed + 100, 16, 2)
        _, mean = evaluate(params, [cloud], [labels], c2i)
        assert 0.15 <= mean <= 0.55


def test_evaluate_is_deterministic():
    cloud, labels = balanced_two_class_scene(3)
    params = ToyNetParams.init(21, 8, 2)
    a = evaluate(params, [cloud], [labels], {0: 0, 1: 1})
    b = evaluate(params, [cloud], [labels], {0: 0, 1: 1})
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]

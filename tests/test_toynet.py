import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

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
from scanfuse.fusion import FusedScan, FusionConfig, fuse_scan
from scanfuse.kitti_io import LabelSet, PointCloud, instance_rows
from scanfuse.metrics import accumulate_confusion, miou
from scanfuse.synthetic import default_scene, make_synthetic_sequence
from scanfuse.toynet import (
    BLOCK_ROWS,
    COORD_SCALE,
    ToyNetParams,
    TrainState,
    _backward,
    compute_gradients,
    cross_entropy,
    distill_rows,
    evaluate,
    forward,
    predict,
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


# Rows per block that split every oracle scene below into several blocks
# with a ragged last one: 36/68 (finite differences), 120 (two classes) and
# 240/320 (sign and truck) rows.
SMALL_BLOCK = 7


@pytest.fixture
def several_blocks(monkeypatch):
    monkeypatch.setattr(toynet, "BLOCK_ROWS", SMALL_BLOCK)


@pytest.fixture
def pool_events(monkeypatch):
    """What the step's pool runs, in order: ``("returned", result)`` or
    ``("raised", error)`` as each task ends, recorded on its worker, plus
    whatever a test's own hooks append."""
    events = []

    class RecordingPool(ThreadPoolExecutor):
        def submit(self, fn, /, *args, **kwargs):
            def recorded():
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    events.append(("raised", exc))
                    raise
                events.append(("returned", result))
                return result

            return super().submit(recorded)

    monkeypatch.setattr(toynet, "ThreadPoolExecutor", RecordingPool)
    return events


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
    permuted = cloud[perm]
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


@pytest.mark.usefixtures("several_blocks")
def test_betas_zero_step_is_bit_identical_to_supervised_in_several_blocks():
    test_betas_zero_step_is_bit_identical_to_supervised()


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


@pytest.mark.usefixtures("several_blocks")
def test_end_to_end_student_gradients_match_finite_differences_in_several_blocks():
    test_end_to_end_student_gradients_match_finite_differences()


@pytest.mark.usefixtures("several_blocks")
def test_end_to_end_teacher_gradients_match_finite_differences_in_several_blocks():
    test_end_to_end_teacher_gradients_match_finite_differences()


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


def full_array_step(state, current, fused, labels):
    """The student and teacher gradients of one step, composed serially on
    whole (N, .) arrays: the step before it ran in blocks."""
    cfg = state.distill
    b1, b2, b3, b4 = cfg.betas
    c2i = state.class_to_index

    t_out = forward(state.teacher, fused.cloud)
    _, d_t = cross_entropy(t_out.logits, remap_semantic(fused.labels.semantic, c2i))
    teacher = _backward(state.teacher, t_out, b1 * d_t)

    s_out = forward(state.student, current)
    _, d_s = cross_entropy(s_out.logits, remap_semantic(labels.semantic, c2i))
    hard, instances = distill_rows(labels, state.hard_classes)
    n = len(current)
    _, g_enc = feature_distill_loss(t_out.encoder[hard], s_out.encoder[hard], cfg.smooth_l1_T)
    _, g_head = feature_distill_loss(t_out.head[hard], s_out.head[hard], cfg.smooth_l1_T)
    _, g_sld = soft_logits_kl_loss(t_out.logits[hard], s_out.logits[hard], cfg.temperature_P)
    _, g_iaad = iaad_loss(t_out.head[:n], s_out.head, [hard[pos] for pos in instances])
    d_s[hard] += b3 * g_sld
    d_h2 = np.zeros_like(s_out.encoder)
    d_h2[hard] = b2 * g_enc
    d_h3 = np.zeros_like(s_out.head)
    d_h3[hard] = b2 * g_head
    d_h3 += b4 * g_iaad
    return _backward(state.student, s_out, d_s, d_h2, d_h3), teacher


def blocked_serial_step(state, current, fused, labels):
    """The same gradients composed serially from the blocked pass: each
    branch's segmentation pass over all its blocks in row order, then the
    distillation terms on the hard-row copies, back-propagated through the
    student's copies alone."""
    cfg = state.distill
    b1, b2, b3, b4 = cfg.betas
    c2i = state.class_to_index
    hard, instances = distill_rows(labels, state.hard_classes)

    def branch(params, cloud, semantic, weight):
        targets = remap_semantic(semantic, c2i)
        blocks = toynet._all_blocks(cloud)
        parts, kept = toynet._pass(params, cloud, targets, weight, hard, blocks)
        return toynet._summed(parts)[1], kept

    teacher, t = branch(state.teacher, fused.cloud, fused.labels.semantic, b1)
    student, s = branch(state.student, current, labels.semantic, 1.0)
    _, g_enc = feature_distill_loss(t.encoder, s.encoder, cfg.smooth_l1_T)
    _, g_head = feature_distill_loss(t.head, s.head, cfg.smooth_l1_T)
    _, g_sld = soft_logits_kl_loss(t.logits, s.logits, cfg.temperature_P)
    _, g_iaad = iaad_loss(t.head, s.head, instances)
    d_h3 = b2 * g_head
    d_h3 += b4 * g_iaad
    distilled = _backward(state.student, s, b3 * g_sld, b2 * g_enc, d_h3)
    for a, g in zip(student.arrays(), distilled.arrays()):
        a += g
    return student, teacher


def assert_close(params, oracle, rel=1e-12):
    for a, b in zip(params.arrays(), oracle.arrays()):
        assert np.abs(a - b).max() <= rel * np.abs(b).max()


def test_overlapped_step_matches_a_serial_composition():
    state, current, fused, labels = sign_and_truck_step()
    hard, instances = distill_rows(labels, state.hard_classes)
    assert len(hard) and instances

    _, student_grads, teacher_grads = compute_gradients(state, current, fused, labels)
    expected_student, expected_teacher = blocked_serial_step(state, current, fused, labels)
    assert student_grads.equals(expected_student)
    assert teacher_grads.equals(expected_teacher)

    oracle_student, oracle_teacher = full_array_step(state, current, fused, labels)
    assert_close(student_grads, oracle_student)
    assert_close(teacher_grads, oracle_teacher)


@pytest.mark.usefixtures("several_blocks")
def test_overlapped_step_matches_a_serial_composition_in_several_blocks():
    test_overlapped_step_matches_a_serial_composition()


@pytest.mark.usefixtures("several_blocks")
def test_hard_row_hand_off_holds_under_frequent_thread_switches():
    # The teacher hands its hard-row copies to the caller through its first
    # block task's future and goes on with the other blocks; with the
    # interpreter switching threads every microsecond, the caller must still
    # read only finished rows.
    state, current, fused, labels = sign_and_truck_step()
    expected_student, expected_teacher = blocked_serial_step(state, current, fused, labels)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            _, student_grads, teacher_grads = compute_gradients(state, current, fused, labels)
            assert student_grads.equals(expected_student)
            assert teacher_grads.equals(expected_teacher)
    finally:
        sys.setswitchinterval(interval)


def in_order_blocked_pass(params, cloud, targets, weight, rows):
    """A branch's blocked pass visiting its blocks in row order and adding
    each block's loss share and gradients as it goes."""
    hidden, n_classes = params.w4.shape
    kept = [np.empty((len(rows), w)) for w in (4, hidden, hidden, hidden, n_classes)]
    loss, grads = 0.0, None
    for k in toynet._all_blocks(cloud):
        lo, hi, block = toynet._block(cloud, k)
        out = forward(params, block)
        seg, d_logits = cross_entropy(out.logits, targets[lo:hi])
        share = (hi - lo) / max(len(cloud), 1)
        loss += seg * share
        if weight != 0.0:
            d_logits *= weight * share
            part = _backward(params, out, d_logits)
            if grads is None:
                grads = part
            else:
                toynet._add_into(grads, part)
        a, b = np.searchsorted(rows, (lo, hi))
        for dst, src in zip(kept, vars(out).values()):
            dst[a:b] = src[rows[a:b] - lo]
    return loss, grads, kept


@pytest.mark.usefixtures("several_blocks")
@pytest.mark.parametrize("hard_classes", [frozenset({81, 18}), frozenset()], ids=["hard", "none"])
def test_teacher_publishes_after_exactly_its_hard_row_blocks(
    hard_classes, monkeypatch, pool_events
):
    state, current, fused, labels = sign_and_truck_step()
    state = replace(state, hard_classes=hard_classes)
    hard, _ = distill_rows(labels, hard_classes)
    n_blocks = -(-len(fused.cloud) // SMALL_BLOCK)
    holding = sorted(set((hard // SMALL_BLOCK).tolist()))
    if hard_classes:
        # Blocks of ground rows come before the hard rows, appended rows after.
        assert 0 < holding[0] and holding[-1] < n_blocks - 1
    rest = [k for k in range(n_blocks) if k not in holding]

    # The teacher's blocks are views into the fused cloud; the student's are not.
    base = fused.cloud.points

    def recording_forward(params, block):
        if np.shares_memory(block.points, base):
            offset = block.points.ctypes.data - base.ctypes.data
            pool_events.append(offset // base.strides[0] // SMALL_BLOCK)
        return forward(params, block)

    monkeypatch.setattr(toynet, "forward", recording_forward)
    compute_gradients(state, current, fused, labels)
    # The teacher's targets, its blocks holding hard rows (handing their
    # copies over as the task returns), then its other blocks.
    steps = [e if isinstance(e, int) else e[0] for e in pool_events]
    assert steps == ["returned", *holding, "returned", *rest, "returned"]
    copies = pool_events[len(holding) + 1][1][1]
    assert len(copies.head) == len(hard)


@pytest.mark.usefixtures("several_blocks")
@pytest.mark.parametrize("weight", [0.5, 0.0])
def test_blocked_pass_is_bit_identical_to_visiting_blocks_in_row_order(weight, pool_events):
    # The teacher's pass runs its blocks holding hard rows first, as one
    # task, and the others as a second.
    state, current, fused, labels = sign_and_truck_step()
    betas = (weight, *state.distill.betas[1:])
    state = replace(state, distill=replace(state.distill, betas=betas))
    hard, _ = distill_rows(labels, state.hard_classes)
    targets = remap_semantic(fused.labels.semantic, state.class_to_index)
    losses, _, grads = compute_gradients(state, current, fused, labels)
    expected_loss, expected_grads, expected_kept = in_order_blocked_pass(
        state.teacher, fused.cloud, targets, weight, hard
    )
    assert losses.seg_teacher == expected_loss
    if weight == 0.0:
        assert grads is None and expected_grads is None
    else:
        assert grads.equals(expected_grads)
    kept = pool_events[1][1][1]  # the copies the hard-row task returned
    for got, expected in zip(vars(kept).values(), expected_kept):
        assert got.tobytes() == expected.tobytes()


def _with_specials(a, rng):
    """``a`` with +-0, +-inf and NaN written over a few random entries of its
    first columns; the last column stays finite."""
    a = a.copy()
    for value in (0.0, -0.0, np.inf, -np.inf, np.nan) if len(a) else ():
        rows = rng.integers(0, len(a), size=3)
        cols = rng.integers(0, max(a.shape[1] - 1, 1), size=3)
        a[rows, cols] = value
    return a


@pytest.mark.parametrize(
    "shape", [(4096, 16), (4096, 9), (2500, 16), (7, 16), (1, 9), (400, 3), (0, 16)]
)
def test_einsum_column_sums_are_bit_identical_to_sum_over_rows(shape):
    # _backward's bias gradients and geometry.centroid rely on this; a
    # NumPy that changes either reduction's order fails here.
    rng = np.random.default_rng(sum(shape))
    plain = rng.normal(size=shape) * 10.0 ** rng.integers(-8, 9, size=shape)
    arrays = [plain, _with_specials(plain, rng), np.full(shape, -0.0)]
    if shape[1] == 3:
        wide = rng.normal(size=(shape[0], 4))
        arrays += [wide[:, :3], _with_specials(wide, rng)[:, :3]]
    with np.errstate(invalid="ignore"):  # inf + -inf
        for a in arrays:
            assert np.einsum("ij->j", a).tobytes() == a.sum(axis=0).tobytes()


@pytest.mark.parametrize("width", [16, 9])
@pytest.mark.parametrize("n", [BLOCK_ROWS, 1136, 37, 2, 0])
def test_products_with_contiguous_transposes_are_bit_identical_to_transposed_views(
    n, width
):
    # _backward multiplies by np.ascontiguousarray(w.T), which OpenBLAS runs
    # on its plain path, in place of the .T view, which it runs on its
    # transposed path; a BLAS whose two paths round differently fails here.
    # (In iaad_loss, unit @ unit.T on the two paths does differ.)
    rng = np.random.default_rng(n + width)
    d = rng.normal(size=(n, width)) * 10.0 ** rng.integers(-8, 9, size=(n, width))
    w = rng.normal(size=(16, width))
    same = (d @ w.T).tobytes() == (d @ np.ascontiguousarray(w.T)).tobytes()
    with toynet._blas_held_to_one_thread():  # as in compute_gradients
        same_held = (d @ w.T).tobytes() == (d @ np.ascontiguousarray(w.T)).tobytes()
    assert same and same_held


def test_block_products_stay_on_the_small_matrix_kernel():
    # OpenBLAS multiplies a product of at most 10^6 multiply-adds with its
    # small-matrix kernel, 2-3 times faster per row at H = 16 than the
    # kernel a larger product takes.
    assert BLOCK_ROWS * 16 * 16 <= 10**6


@pytest.mark.usefixtures("several_blocks")
def test_distillation_terms_are_bit_identical_under_row_permutation_in_several_blocks():
    # Shuffling the current scan's rows (and the fused prefix with them) and
    # the appended rows moves every row to another block and position.
    state, current, fused, labels = sign_and_truck_step()
    n = len(current)
    rng = np.random.default_rng(31)
    order = np.concatenate([rng.permutation(n), n + rng.permutation(fused.n_appended)])
    cur = order[:n]
    shuffled_fused = FusedScan(
        cloud=fused.cloud[order],
        labels=fused.labels[order],
        n_current=n,
        origin_runs=[(origin, 1) for origin in fused.origin_index[order[n:] - n].tolist()],
    )
    shuffled = (current[cur], labels[cur])
    base = compute_gradients(state, current, fused, labels)[0]
    moved = compute_gradients(state, shuffled[0], shuffled_fused, shuffled[1])[0]
    assert min(base.feature, base.logits, base.affinity) > 0.0
    assert (moved.feature, moved.logits, moved.affinity) == (
        base.feature,
        base.logits,
        base.affinity,
    )
    assert abs(moved.seg_student - base.seg_student) <= 1e-12 * base.seg_student
    assert abs(moved.seg_teacher - base.seg_teacher) <= 1e-12 * base.seg_teacher


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


def _nan_in_the_last_appended_row(state, fused):
    fused.cloud.points[-1, 0] = np.nan


@pytest.mark.usefixtures("several_blocks")
@pytest.mark.parametrize(
    "breakage, published",
    [(_break_teacher_input, "error"), (_nan_in_the_last_appended_row, "rows")],
)
def test_teacher_failure_before_or_after_its_hard_rows_raises_in_several_blocks(
    breakage, published, pool_events
):
    state, current, fused, labels = sign_and_truck_step()
    hard, _ = distill_rows(labels, state.hard_classes)
    # The last block holds appended rows only, after the last hard row's.
    assert hard[-1] // SMALL_BLOCK < (len(fused.cloud) - 1) // SMALL_BLOCK
    breakage(state, fused)
    calls = toynet._openblas_thread_calls()
    before = calls[0]() if calls else None
    threads_before = set(threading.enumerate())
    raised = []

    def step():
        with pytest.raises(NumericError):
            compute_gradients(state, current, fused, labels)
        raised.append(True)

    # A caller left waiting for copies that never come would hang: bound it.
    caller = threading.Thread(target=step, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive() and raised == [True]
    assert set(threading.enumerate()) == threads_before
    # The targets, then the hard-row blocks' copies or their error, then the
    # other blocks' error, or nothing from them once the hard-row blocks failed.
    handed_over, others = {"rows": ("returned", "raised"), "error": ("raised", "returned")}[
        published
    ]
    assert [outcome for outcome, _ in pool_events] == ["returned", handed_over, others]
    if calls:
        assert calls[0]() == before


@pytest.mark.usefixtures("several_blocks")
def test_teacher_failure_runs_no_block_after_the_failing_one(monkeypatch):
    state, current, fused, labels = sign_and_truck_step()
    hard, _ = distill_rows(labels, state.hard_classes)
    fused.cloud.points[hard[0], 0] = np.nan  # the teacher's input only
    caller = threading.get_ident()
    base = fused.cloud.points
    worker_blocks = []

    def recording_forward(params, block):
        if threading.get_ident() != caller:
            offset = block.points.ctypes.data - base.ctypes.data
            worker_blocks.append(offset // base.strides[0] // SMALL_BLOCK)
        return forward(params, block)

    monkeypatch.setattr(toynet, "forward", recording_forward)
    with pytest.raises(NumericError):
        compute_gradients(state, current, fused, labels)
    # The first hard-row block fails; no other teacher block runs after it.
    assert worker_blocks == [hard[0] // SMALL_BLOCK]


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


def test_step_memory_follows_the_block_and_hard_rows_not_the_scan():
    # 9.5 blocks of current scan with 20 hard instances of 150 rows, plus
    # one block of appended rows; H = 16 as in the benchmark.
    rng = np.random.default_rng(41)
    hidden, per = 16, 150
    n_cur = 9 * BLOCK_ROWS + BLOCK_ROWS // 2
    n = n_cur + BLOCK_ROWS
    semantic = np.full(n, 40, dtype=np.uint16)
    instance = np.zeros(n, dtype=np.uint16)
    for k, start in enumerate(rng.choice(n_cur // per, 20, replace=False) * per):
        semantic[start : start + per] = (18, 81)[k % 2]
        instance[start : start + per] = k + 1
    semantic[n_cur:], instance[n_cur:] = 18, 1
    cloud = PointCloud(rng.uniform(-20.0, 20.0, size=(n, 3)), rng.uniform(0.0, 1.0, n))
    fused = FusedScan(
        cloud=cloud,
        labels=LabelSet(semantic, instance),
        n_current=n_cur,
        origin_runs=[(-1, n - n_cur)],
    )
    current = cloud[:n_cur]
    labels = fused.labels[:n_cur]
    state = tiny_state(1, 2, {40: 0, 81: 1, 18: 2}, frozenset({81, 18}), hidden=hidden)
    hard, _ = distill_rows(labels, state.hard_classes)
    compute_gradients(state, current, fused, labels)  # warm every lazy load

    tracemalloc.start()
    try:
        compute_gradients(state, current, fused, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Each branch's block (activations, cross-entropy and backward buffers)
    # stays under 8H + 16 float64 values a row; the two branches' hard-row
    # copies and the distillation temporaries under 16H a hard row; the
    # per-row label arrays (class lookups, masks) under 32 bytes a row.
    bound = (
        2 * BLOCK_ROWS * 8 * (8 * hidden + 16)
        + len(hard) * 8 * 16 * hidden
        + 32 * (len(current) + len(cloud))
    )
    assert peak < bound


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
    assert [set(labels.semantic[hard_idx[pos]].tolist()) for pos in instances] == [{18}, {81}]


def test_distill_rows_positions_pick_each_instance_out_of_the_hard_rows():
    # A one-row truck, hard rows outside any instance, an instance of a class
    # that is not hard, and ID 2 shared by a truck and a sign.
    labels = LabelSet(
        [40, 18, 81, 18, 40, 81, 18, 81, 18, 40],
        [1, 2, 2, 0, 1, 3, 2, 3, 5, 0],
    )
    hard = frozenset({18, 81})
    hard_idx, instances = distill_rows(labels, hard)
    rows, groups = instance_rows(labels, hard)
    assert len(instances) == len(groups) == 4
    for positions, part in zip(instances, groups.values(), strict=True):
        assert np.array_equal(hard_idx[positions], rows[part])


# --- remap_semantic ----------------------------------------------------


@pytest.mark.parametrize("raw_id", [-1, 0x10000])
def test_remap_semantic_rejects_raw_ids_outside_16_bits(raw_id):
    with pytest.raises(InvalidConfig, match=f"raw class ID {raw_id} is outside the 16-bit"):
        remap_semantic(np.array([40], dtype=np.uint16), {40: 0, raw_id: 1})


def test_remap_semantic_keeps_ignored_ids_and_names_every_missing_one():
    raw_to_train = {0: 2, 40: 0, 0xFFFF: 1, 7: -1}
    out = remap_semantic(np.array([0, 40, 0xFFFF, 7, 40], dtype=np.uint16), raw_to_train)
    assert out.dtype == np.int64
    assert out.tolist() == [2, 0, 1, -1, 0]
    semantic = np.array([5, 40, 9, 5, 0xFFFE, 7], dtype=np.uint16)
    with pytest.raises(InvalidConfig, match=r"classes \[5, 9, 65534\] missing from the class map"):
        remap_semantic(semantic, raw_to_train)


def test_train_step_rejects_misaligned_map():
    cloud, labels = separable_two_class_scene(seed=13)
    fused = trivial_fused(cloud, labels)
    state = tiny_state(14, 15, {0: 0, 1: 1}, frozenset({1}))
    short = cloud[:-1]
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


@pytest.mark.usefixtures("several_blocks")
def test_predict_and_evaluate_in_several_blocks_match_one_forward_pass():
    cloud, labels = balanced_two_class_scene(3)
    assert len(cloud) % SMALL_BLOCK
    params = ToyNetParams.init(21, 8, 2)
    pred = np.argmax(forward(params, cloud).logits, axis=1)
    assert np.array_equal(predict(params, cloud), pred)
    c2i = {0: 0, 1: 1}
    cm = accumulate_confusion(pred, remap_semantic(labels.semantic, c2i), 2)
    per_class, mean = evaluate(params, [cloud], [labels], c2i)
    expected = miou(cm)
    assert np.array_equal(per_class, expected[0]) and mean == expected[1]


def test_evaluate_is_deterministic():
    cloud, labels = balanced_two_class_scene(3)
    params = ToyNetParams.init(21, 8, 2)
    a = evaluate(params, [cloud], [labels], {0: 0, 1: 1})
    b = evaluate(params, [cloud], [labels], {0: 0, 1: 1})
    assert np.array_equal(a[0], b[0]) and a[1] == b[1]

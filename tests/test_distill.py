import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_softmax

from scanfuse import distill
from scanfuse.distill import (
    DistillConfig,
    feature_distill_loss,
    finite_difference_gradient,
    gradient_scale_error,
    iaad_loss,
    soft_logits_kl_loss,
    total_loss,
    verify_gradients,
)
from scanfuse.errors import InvalidConfig, NumericError, ShapeError

# Frozen from the independent hand computation
# ((2/3)ln(4/3) + (1/3)ln(2/3)) / 2 at 20 significant digits.
KL_TWO_CLASS_EXPECTED = 0.028316506132566245483


# --- feature distillation -------------------------------------------------------


def test_feature_loss_zero_at_equality():
    rng = np.random.default_rng(0)
    t = rng.normal(size=(8, 5))
    loss, grad = feature_distill_loss(t, t.copy(), 1.0)
    assert loss == 0.0
    assert np.array_equal(grad, np.zeros_like(t))


def test_feature_loss_quadratic_branch():
    loss, _ = feature_distill_loss(np.array([[0.5]]), np.array([[0.0]]), 1.0)
    assert loss == 0.125


def test_feature_loss_linear_branch_and_gradient():
    teacher = np.array([[2.0]])
    student = np.array([[0.0]])
    loss, grad = feature_distill_loss(teacher, student, 1.0)
    assert loss == 1.5
    fd = finite_difference_gradient(
        lambda x: feature_distill_loss(teacher, x, 1.0)[0], student.copy()
    )
    assert gradient_scale_error(grad, fd) < 1e-6


def test_feature_loss_branch_continuity():
    threshold = 0.7
    quadratic = threshold**2 / (2 * threshold)
    linear = threshold - threshold / 2
    assert abs(quadratic - linear) < 1e-12
    # and numerically just around the boundary
    below, _ = feature_distill_loss(
        np.array([[threshold - 1e-9]]), np.array([[0.0]]), threshold
    )
    above, _ = feature_distill_loss(
        np.array([[threshold + 1e-9]]), np.array([[0.0]]), threshold
    )
    assert abs(above - below) < 1e-8


def test_feature_loss_shape_mismatch():
    with pytest.raises(ShapeError):
        feature_distill_loss(np.zeros((2, 3)), np.zeros((3, 2)), 1.0)


def test_feature_loss_rejects_non_finite():
    bad = np.array([[np.nan]])
    with pytest.raises(NumericError):
        feature_distill_loss(bad, np.zeros((1, 1)), 1.0)


# --- soft logits KL -------------------------------------------------------


@pytest.mark.parametrize("loss", [feature_distill_loss, soft_logits_kl_loss])
def test_nan_loss_parameter_is_invalid_config(loss):
    rows = np.ones((2, 3))
    with pytest.raises(InvalidConfig):
        loss(rows, rows, float("nan"))


@pytest.mark.parametrize("n_classes", [2, 7])
def test_log_softmax_is_bit_equal_to_the_row_max_form(n_classes):
    z = np.random.default_rng(n_classes).normal(0.0, 4.0, size=(1000, n_classes))
    z[::7] = z[::7, :1]  # rows of ties
    out = z - z.max(axis=1, keepdims=True)
    out -= np.log(np.exp(out).sum(axis=1, keepdims=True))
    assert np.array_equal(distill.log_softmax(z), out)


def test_kl_zero_at_equality():
    rng = np.random.default_rng(1)
    z = rng.normal(size=(6, 4))
    loss, grad = soft_logits_kl_loss(z, z.copy(), 2.0)
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_kl_two_class_hand_value():
    loss, _ = soft_logits_kl_loss(
        np.array([[math.log(2.0), 0.0]]), np.array([[0.0, 0.0]]), 1.0
    )
    expected = ((2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)) / 2
    assert abs(loss - expected) < 1e-10
    assert abs(loss - KL_TWO_CLASS_EXPECTED) < 1e-10


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 6))
        t = rng.normal(scale=3.0, size=(n, c))
        s = rng.normal(scale=3.0, size=(n, c))
        loss, _ = soft_logits_kl_loss(t, s, float(rng.uniform(0.25, 4.0)))
        assert loss >= 0.0


def test_kl_shape_mismatch():
    with pytest.raises(ShapeError):
        soft_logits_kl_loss(np.zeros((2, 3)), np.zeros((2, 4)), 1.0)


def test_kl_temperature_softens():
    t = np.array([[4.0, 0.0]])
    s = np.array([[0.0, 4.0]])
    hot, _ = soft_logits_kl_loss(t, s, 8.0)
    cold, _ = soft_logits_kl_loss(t, s, 1.0)
    assert hot < cold


# --- instance-aware affinity distillation -----------------------------------


def _iaad_brute_force(teacher, student, instances):
    """IAAD by its definition: per instance, the mean over member pairs (i, j)
    of the squared difference of the two cosines, summed over instances."""
    def cosine(rows, i, j):
        return rows[i] @ rows[j] / (np.linalg.norm(rows[i]) * np.linalg.norm(rows[j]))

    total = 0.0
    for idx in instances:
        if len(idx) < 2:
            continue
        squares = [
            (cosine(student, i, j) - cosine(teacher, i, j)) ** 2 for i in idx for j in idx
        ]
        total += sum(squares) / len(idx) ** 2
    return total


def test_iaad_matches_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n, w = int(rng.integers(2, 30)), int(rng.integers(1, 8))
        teacher = rng.normal(size=(n, w))
        student = rng.normal(size=(n, w))
        members = rng.permutation(n)
        cuts = np.sort(rng.choice(np.arange(1, n), size=min(2, n - 1), replace=False))
        instances = np.split(members, cuts)
        expected = _iaad_brute_force(teacher, student, instances)
        assert abs(iaad_loss(teacher, student, instances)[0] - expected) < 1e-12
    # identical rows (cosine 1) against orthogonal rows (cosine 0)
    identical = np.tile([1.0, 2.0, 3.0], (3, 1))
    orthogonal = np.diag([1.0, 2.0, 0.5])
    expected = _iaad_brute_force(identical, orthogonal, [np.arange(3)])
    assert abs(iaad_loss(identical, orthogonal, [np.arange(3)])[0] - expected) < 1e-12


def test_affinity_zero_norm_row():
    rows = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(NumericError):
        iaad_loss(np.ones((2, 2)), rows, [np.arange(2)])


def test_iaad_zero_at_equality():
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(9, 4))
    instances = [np.array([0, 1, 2]), np.array([4, 5, 6, 7])]
    loss, grad = iaad_loss(feats, feats.copy(), instances)
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def test_iaad_two_point_example():
    teacher = np.array([[1.0, 0.0], [1.0, 0.0]])
    student = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss, _ = iaad_loss(teacher, student, [np.arange(2)])
    assert loss == 0.5


def test_iaad_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    teacher = rng.normal(size=(7, 4)) + 0.3
    student = rng.normal(size=(7, 4)) + 0.3
    instances = [np.array([0, 1, 2]), np.array([3, 4, 5, 6])]
    _, grad = iaad_loss(teacher, student, instances)
    fd = finite_difference_gradient(
        lambda x: iaad_loss(teacher, x, instances)[0], student.copy()
    )
    assert gradient_scale_error(grad, fd) < 1e-5


def test_iaad_skips_tiny_instances():
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(4, 3))
    other = rng.normal(size=(4, 3))
    loss, grad = iaad_loss(feats, other, [np.array([2])])
    assert loss == 0.0
    assert np.abs(grad).max() == 0.0


def _iaad_per_instance(teacher, student, instances):
    """IAAD computed instance by instance, each on its own gathered rows,
    with the gradient scattered by ``np.add.at``: the implementation before
    the members were gathered at once, kept as a bitwise oracle."""
    grad = np.zeros_like(student)
    terms = []
    for instance in instances:
        idx = np.asarray(instance, dtype=np.int64).reshape(-1)
        if len(idx) < 2:
            continue
        pairs = np.hstack([teacher[idx], student[idx]])
        idx = idx[np.argsort(pairs.view(f"V{pairs[0].nbytes}").ravel(), kind="stable")]
        units = []
        for rows in (teacher[idx], student[idx]):
            norms = np.linalg.norm(rows, axis=1)
            unit = rows / norms[:, None]
            units.append((unit @ unit.T, unit, norms))
        (a_teacher, _, _), (a_student, unit, norms) = units
        diff = a_student - a_teacher
        n = len(idx)
        terms.append(float((diff * diff).sum()) / (n * n))
        g_unit = (4.0 / (n * n)) * diff @ unit
        g_rows = (g_unit - (np.sum(g_unit * unit, axis=1, keepdims=True)) * unit) / norms[
            :, None
        ]
        np.add.at(grad, idx, g_rows)
    terms = np.sort(np.array(terms))
    return float(terms.sum()), grad


@st.composite
def iaad_partitions(draw):
    """Features of up to 600 rows and 1 to 20 columns, and a random partition
    of a random subset of the rows into instances (1-member ones included);
    every other draw rounds the features so members tie in their first
    bytes."""
    n = draw(st.integers(1, 600))
    width = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    teacher = rng.normal(size=(n, width)) + 0.05
    student = rng.normal(size=(n, width)) + 0.05
    if draw(st.booleans()):
        teacher, student = np.round(teacher, 1) + 0.05, np.round(student, 1) + 0.05
    members = rng.permutation(n)[: draw(st.integers(1, n))]
    n_cuts = draw(st.integers(0, len(members) - 1))
    cuts = np.sort(rng.choice(np.arange(1, len(members)), size=n_cuts, replace=False))
    instances = np.split(members, cuts)
    if draw(st.booleans()):
        instances = [np.sort(idx) for idx in instances]
    return teacher, student, instances


@settings(max_examples=120, deadline=None)
@given(iaad_partitions())
def test_iaad_is_bit_identical_to_the_per_instance_oracle(case):
    teacher, student, instances = case
    loss, grad = iaad_loss(teacher, student, instances)
    expected_loss, expected_grad = _iaad_per_instance(teacher, student, instances)
    assert loss == expected_loss
    assert grad.tobytes() == expected_grad.tobytes()


@pytest.mark.parametrize(
    "instances",
    [
        [np.array([0, 1, 2]), np.array([2, 3])],
        [np.array([0, 1, 1])],
        [np.array([0, 5])],
        [np.array([-1, 0])],
    ],
    ids=["overlap", "repeat", "past-end", "negative"],
)
def test_iaad_overlapping_repeated_or_out_of_range_members_are_shape_errors(instances):
    rng = np.random.default_rng(12)
    teacher, student = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    with pytest.raises(ShapeError):
        iaad_loss(teacher, student, instances)


def test_iaad_ignores_one_member_instances_when_checking_members():
    rng = np.random.default_rng(13)
    teacher, student = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
    pair = [np.array([0, 1])]
    expected = iaad_loss(teacher, student, pair)
    for extra in ([np.array([1])], [np.array([9])]):
        loss, grad = iaad_loss(teacher, student, pair + extra)
        assert loss == expected[0] and np.array_equal(grad, expected[1])


@pytest.mark.parametrize("side", ["teacher", "student"])
def test_iaad_zero_norm_member_of_a_later_instance_is_numeric_error(side):
    rng = np.random.default_rng(14)
    features = {"teacher": rng.normal(size=(6, 3)), "student": rng.normal(size=(6, 3))}
    features[side][4] = 0.0
    with pytest.raises(NumericError):
        iaad_loss(features["teacher"], features["student"], [np.arange(3), np.arange(3, 6)])


# --- combined objective -------------------------------------------------------


def test_total_loss_default_weights():
    assert abs(total_loss(1, 1, 1, 1, 1, (0.5, 0.01, 0.1, 0.1)) - 1.71) < 1e-12


def test_total_loss_zero_betas():
    assert total_loss(3.5, 9.0, 9.0, 9.0, 9.0, (0.0, 0.0, 0.0, 0.0)) == 3.5


def test_total_loss_matches_weighted_sum_oracle():
    rng = np.random.default_rng(9)
    for _ in range(100):
        vals = rng.normal(size=5)
        betas = tuple(rng.normal(size=4))
        expected = vals[0] + sum(b * v for b, v in zip(betas, vals[1:]))
        assert abs(total_loss(*vals, betas) - expected) < 1e-12


def test_total_loss_rejects_non_finite():
    with pytest.raises(NumericError):
        total_loss(float("nan"), 0, 0, 0, 0, (0.5, 0.01, 0.1, 0.1))


def test_distill_config_defaults_and_validation():
    config = DistillConfig()
    assert config.betas == (0.5, 0.01, 0.1, 0.1)
    with pytest.raises(InvalidConfig):
        DistillConfig(smooth_l1_T=0.0)
    with pytest.raises(InvalidConfig):
        DistillConfig(temperature_P=-1.0)


# --- shared properties -------------------------------------------------------


def test_losses_zero_iff_equal_and_nonnegative():
    rng = np.random.default_rng(10)
    for _ in range(50):
        n, w = int(rng.integers(2, 8)), int(rng.integers(2, 6))
        t = rng.normal(size=(n, w))
        s = rng.normal(size=(n, w))
        assert feature_distill_loss(t, t.copy(), 1.0)[0] == 0.0
        assert soft_logits_kl_loss(t, t.copy(), 1.0)[0] == 0.0
        assert iaad_loss(t, t.copy(), [np.arange(n)])[0] == 0.0
        assert feature_distill_loss(t, s, 1.0)[0] >= 0.0
        assert soft_logits_kl_loss(t, s, 1.0)[0] >= 0.0
        assert iaad_loss(t, s, [np.arange(n)])[0] >= 0.0


def test_losses_invariant_under_row_permutation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n, w = int(rng.integers(3, 9)), int(rng.integers(2, 5))
        t = rng.normal(size=(n, w))
        s = rng.normal(size=(n, w))
        perm = rng.permutation(n)
        instances = [np.arange(n)]
        perm_instances = [np.argsort(perm)[np.arange(n)]]  # same set, remapped

        fd0 = feature_distill_loss(t, s, 1.0)[0]
        fd1 = feature_distill_loss(t[perm], s[perm], 1.0)[0]
        assert fd0 == fd1

        kl0 = soft_logits_kl_loss(t, s, 1.0)[0]
        kl1 = soft_logits_kl_loss(t[perm], s[perm], 1.0)[0]
        assert kl0 == kl1

        ia0 = iaad_loss(t, s, instances)[0]
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        ia1 = iaad_loss(t[perm], s[perm], [inverse[np.arange(n)]])[0]
        assert ia0 == ia1


def _fsum_losses(t, s, instances):
    """math.fsum references of the three losses, each with the sum of the
    magnitudes of the values it reduces."""
    d = t - s
    contrib = np.where(np.abs(d) < 1.0, d * d / 2.0, np.abs(d) - 0.5).ravel()
    log_p, log_q = log_softmax(t, axis=1), log_softmax(s, axis=1)
    cells = (np.exp(log_p) * (log_p - log_q)).ravel()
    terms = []
    for idx in instances:
        u_t = t[idx] / np.linalg.norm(t[idx], axis=1, keepdims=True)
        u_s = s[idx] / np.linalg.norm(s[idx], axis=1, keepdims=True)
        diff = (u_s @ u_s.T - u_t @ u_t.T).ravel()
        terms.append(math.fsum(diff * diff) / len(idx) ** 2)
    return [
        (math.fsum(contrib) / contrib.size, math.fsum(np.abs(contrib)) / contrib.size),
        (math.fsum(cells) / cells.size, math.fsum(np.abs(cells)) / cells.size),
        (math.fsum(terms), math.fsum(terms)),
    ]


def test_losses_invariant_under_row_permutation_at_benchmark_sizes():
    """A 3600x16 feature/logit pair and IAAD on 10 instances of 150 rows, as
    in one train-distill step: shuffling the rows (instance members kept in
    ascending row order, as ``instance_rows`` gives them) and the order of
    the instance list leaves every loss bit-identical, and each is within
    1e-12 of the sum of magnitudes of its math.fsum reference."""
    rng = np.random.default_rng(23)
    n, w = 3600, 16
    t = rng.normal(size=(n, w))
    s = t + 0.7 * rng.normal(size=(n, w))
    instances = list(rng.permutation(n)[:1500].reshape(10, 150))
    instances = [np.sort(idx) for idx in instances]

    losses = [
        feature_distill_loss(t, s, 1.0)[0],
        soft_logits_kl_loss(t, s, 1.0)[0],
        iaad_loss(t, s, instances)[0],
    ]
    for _ in range(4):
        perm = rng.permutation(n)
        inverse = np.empty(n, dtype=np.int64)
        inverse[perm] = np.arange(n)
        perm_instances = [np.sort(inverse[instances[k]]) for k in rng.permutation(10)]
        assert feature_distill_loss(t[perm], s[perm], 1.0)[0] == losses[0]
        assert soft_logits_kl_loss(t[perm], s[perm], 1.0)[0] == losses[1]
        assert iaad_loss(t[perm], s[perm], perm_instances)[0] == losses[2]

    for loss, (reference, magnitude) in zip(losses, _fsum_losses(t, s, instances)):
        assert abs(loss - reference) <= 1e-12 * magnitude


def test_gradient_verification_suite():
    rows = verify_gradients(cases=30, seed=1)
    assert {name for name, _, _ in rows} == {"feature", "logits", "affinity"}
    for name, err, passed in rows:
        assert passed, f"{name} gradient error {err}"

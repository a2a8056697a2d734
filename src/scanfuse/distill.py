"""Teacher-to-student distillation losses with analytic gradients.

Three losses: smooth-L1 feature matching, temperature-softened KL on logits,
and instance-aware affinity matching on per-instance cosine-similarity
matrices. Each returns (loss, gradient wrt the student input); the teacher
side is treated as constant.

Every loss is bit-identical under any row permutation of both inputs. The
feature and KL losses, and IAAD's total over its per-instance terms, sum
their values in ascending order: a row permutation permutes the summed
values but not their sorted order. Each IAAD instance instead takes its
members in the byte order of their (teacher, student) rows, so its affinity
matrices, and a plain sum over one of them, do not depend on the input row
order. IAAD gathers the (teacher, student) rows of all instances' members
once, orders, normalizes and back-projects them in one pass each, and forms
only each instance's affinity matrices on its own. No sum is exactly
rounded: NumPy's pairwise summation errs by at most about log2(n) rounding
units of the sum of magnitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, NumericError, ShapeError


@dataclass
class DistillConfig:
    smooth_l1_T: float = 1.0
    temperature_P: float = 1.0
    betas: tuple[float, float, float, float] = (0.5, 0.01, 0.1, 0.1)

    def __post_init__(self) -> None:
        if not self.smooth_l1_T > 0.0:
            raise InvalidConfig("smooth_l1_T must be > 0")
        if not self.temperature_P > 0.0:
            raise InvalidConfig("temperature_P must be > 0")
        if len(self.betas) != 4 or not all(math.isfinite(b) for b in self.betas):
            raise InvalidConfig("betas must be four finite values")


def _float_pair(teacher, student) -> tuple[np.ndarray, np.ndarray]:
    """``teacher`` and ``student`` as float64 arrays, checked to have one
    shape and only finite values."""
    teacher = np.asarray(teacher, dtype=np.float64)
    student = np.asarray(student, dtype=np.float64)
    if teacher.shape != student.shape:
        raise ShapeError(
            f"teacher shape {teacher.shape} != student shape {student.shape}"
        )
    if not np.isfinite(teacher).all() or not np.isfinite(student).all():
        raise NumericError("non-finite values in loss inputs")
    return teacher, student


def _sorted_sum(values: np.ndarray) -> float:
    """Sum of ``values`` in ascending order, the same bits for any input order.

    Sorts ``values`` in place; every caller passes a temporary.
    """
    flat = values.ravel()
    flat.sort()
    return float(flat.sum())


def feature_distill_loss(teacher, student, threshold: float) -> tuple[float, np.ndarray]:
    """Smooth-L1 feature matching, averaged over all N*f_c elements.

    Per element d = teacher - student: d^2/(2T) inside the threshold,
    |d| - T/2 outside (the continuous completion). The gradient is taken
    with respect to the student features.
    """
    if not threshold > 0.0:
        raise InvalidConfig("threshold must be > 0")
    f_teacher, f_student = _float_pair(teacher, student)
    if f_teacher.size == 0:
        return 0.0, np.zeros_like(f_student)

    diff = f_teacher - f_student
    inside = np.abs(diff) < threshold
    contrib = np.where(
        inside, diff * diff / (2.0 * threshold), np.abs(diff) - threshold / 2.0
    )
    count = f_teacher.size
    loss = _sorted_sum(contrib) / count
    grad = np.where(inside, -diff / threshold, -np.sign(diff)) / count
    return loss, grad


def log_softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, shifted by each row's max for stability."""
    # The max runs down the few class columns: ``z.max(axis=1)`` reduces each
    # short row on its own, several times slower, to the same bits.
    row_max = z[:, :1].copy()
    for j in range(1, z.shape[1]):
        np.maximum(row_max, z[:, j : j + 1], out=row_max)
    out = z - row_max
    lse = np.exp(out).sum(axis=1, keepdims=True)
    out -= np.log(lse, out=lse)
    return out


def soft_logits_kl_loss(teacher, student, temperature: float) -> tuple[float, np.ndarray]:
    """KL(p || q) between temperature-softened class distributions.

    p = softmax(teacher / P), q = softmax(student / P); the sum of
    p * log(p / q) is averaged over all N*C cells. Gradient is analytic
    through the student softmax: (q - p) / (P * N * C).
    """
    if not temperature > 0.0:
        raise InvalidConfig("temperature must be > 0")
    z_teacher, z_student = _float_pair(teacher, student)
    if z_teacher.size == 0:
        return 0.0, np.zeros_like(z_student)

    log_p = log_softmax(z_teacher / temperature)
    log_q = log_softmax(z_student / temperature)
    p = np.exp(log_p)
    count = z_teacher.size
    loss = _sorted_sum(p * (log_p - log_q)) / count
    grad = (np.exp(log_q) - p) / (temperature * count)
    return loss, grad


def _unit_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows scaled to unit length, plus their norms."""
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0.0):
        raise NumericError("zero-norm feature row in instance set")
    return rows / norms[:, None], norms


def iaad_loss(
    teacher, student, instances: list[np.ndarray]
) -> tuple[float, np.ndarray]:
    """Instance-aware affinity distillation.

    Sum over instances of the mean squared difference between teacher and
    student cosine-affinity matrices (1/|S_k|^2 normalization). Instances
    with fewer than two points contribute nothing; the others must be
    disjoint sets of row indices, or ``ShapeError`` is raised. Gradient is
    analytic through the row normalization, with respect to the student
    features.

    All members' (teacher, student) rows are gathered once, side by side,
    ordered and normalized at once, and their gradients go back through the
    normalization at once; only each instance's affinity matrices and their
    product with its unit rows are formed per instance, on contiguous
    slices. Every value is the one an instance's own rows would give.
    """
    f_teacher, f_student = _float_pair(teacher, student)

    grad = np.zeros_like(f_student)
    sets = [np.asarray(instance, dtype=np.int64).reshape(-1) for instance in instances]
    sets = [idx for idx in sets if len(idx) >= 2]
    if not sets:
        return 0.0, grad
    members = np.concatenate(sets)
    if members.min() < 0 or members.max() >= len(f_student):
        raise ShapeError("instance point index out of range")
    if np.bincount(members).max() > 1:
        raise ShapeError("instance sets overlap or repeat a row")
    bounds = np.cumsum([0] + [len(idx) for idx in sets]).tolist()
    # Each instance's members in the byte order of their (teacher, student)
    # rows, not in row order: BLAS may round U U^T differently for permuted
    # rows. A stable sort by instance keeps that order within each one.
    # (Zero-width rows have no bytes to order and fail the norm check.)
    pairs = np.hstack([f_teacher[members], f_student[members]])
    if pairs.size:
        order = np.argsort(pairs.view(f"V{pairs[0].nbytes}").ravel(), kind="stable")
        owner = np.repeat(np.arange(len(sets)), np.diff(bounds))
        order = order[np.argsort(owner[order], kind="stable")]
        members, pairs = members[order], pairs[order]
    width = f_teacher.shape[1]
    u_teacher, _ = _unit_rows(pairs[:, :width])
    u_student, norms = _unit_rows(pairs[:, width:])

    g_unit = np.empty_like(u_student)
    terms: list[float] = []
    for lo, hi in zip(bounds, bounds[1:]):
        unit = u_student[lo:hi]
        teacher_unit = u_teacher[lo:hi]
        diff = unit @ unit.T
        diff -= teacher_unit @ teacher_unit.T
        n = hi - lo
        terms.append(float((diff * diff).sum()) / (n * n))
        # d(loss)/d(A_s) = 2 D / n^2; A_s = U U^T with symmetric D gives
        # d(loss)/d(U) = 4 D U / n^2.
        np.matmul((4.0 / (n * n)) * diff, unit, out=g_unit[lo:hi])
    # Back through the normalization, every member at once.
    g_rows = g_unit - np.sum(g_unit * u_student, axis=1, keepdims=True) * u_student
    g_rows /= norms[:, None]
    grad[members] = g_rows
    return _sorted_sum(np.array(terms)), grad


def total_loss(
    seg_student: float,
    seg_teacher: float,
    feature_term: float,
    logits_term: float,
    affinity_term: float,
    betas: tuple[float, float, float, float],
) -> float:
    """Combined objective: student segmentation plus weighted auxiliary terms."""
    values = (seg_student, seg_teacher, feature_term, logits_term, affinity_term)
    if not all(math.isfinite(v) for v in values):
        raise NumericError("non-finite loss component")
    if not all(math.isfinite(b) for b in betas):
        raise NumericError("non-finite beta")
    b1, b2, b3, b4 = betas
    return (
        seg_student
        + b1 * seg_teacher
        + b2 * feature_term
        + b3 * logits_term
        + b4 * affinity_term
    )


# ---------------------------------------------------------------------------
# Gradient verification (used by tests and the `loss-check` CLI command)
# ---------------------------------------------------------------------------

FD_STEP = 1e-5  # central-difference step


def finite_difference_gradient(fn, x: np.ndarray) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise, with
    step ``FD_STEP``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = grad.ravel()
    x_flat = x.ravel()
    for i in range(x.size):
        orig = x_flat[i]
        x_flat[i] = orig + FD_STEP
        hi = fn(x)
        x_flat[i] = orig - FD_STEP
        lo = fn(x)
        x_flat[i] = orig
        flat[i] = (hi - lo) / (2.0 * FD_STEP)
    return grad


def gradient_scale_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Max elementwise deviation relative to the gradient scale."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    scale = max(
        float(np.abs(analytic).max(initial=0.0)),
        float(np.abs(numeric).max(initial=0.0)),
        1e-12,
    )
    return float(np.abs(analytic - numeric).max(initial=0.0)) / scale


def verify_gradients(cases: int, seed: int) -> list[tuple[str, float, bool]]:
    """Check each loss's analytic gradient against central differences.

    Returns (loss name, max scale-relative error over all cases, passed)
    rows with a 1e-4 pass threshold.
    """
    if cases < 1:
        raise InvalidConfig(f"cases must be >= 1, got {cases}")
    rng = np.random.default_rng(seed)
    # (name, loss, shift of both inputs, draw of the third argument for n rows)
    checks = [
        ("feature", feature_distill_loss, 0.0, lambda n: float(rng.uniform(0.3, 2.0))),
        ("logits", soft_logits_kl_loss, 0.0, lambda n: float(rng.uniform(0.5, 4.0))),
        ("affinity", iaad_loss, 0.5, lambda n: [np.arange(n)]),
    ]
    worst = {name: 0.0 for name, *_ in checks}

    for _ in range(cases):
        n = int(rng.integers(2, 7))
        width = int(rng.integers(2, 6))
        for name, loss, shift, draw in checks:
            teacher = rng.normal(size=(n, width)) + shift
            student = rng.normal(size=(n, width)) + shift
            arg = draw(n)
            _, grad = loss(teacher, student, arg)
            fd = finite_difference_gradient(lambda x: loss(teacher, x, arg)[0], student.copy())
            worst[name] = max(worst[name], gradient_scale_error(grad, fd))

    return [(name, err, err < 1e-4) for name, err in worst.items()]

"""Independent float reference for the train-distill loss.

Recomputes the combined objective of one teacher/student step from the
parameters and the pasted pair with plain NumPy reductions, without calling
into ``scanfuse.toynet`` or ``scanfuse.distill``. It is the value the
benchmark records for a seed's last step; the program's own total must agree
within ``REL_TOL``, which leaves room for reduction-order changes such as
replacing ``math.fsum`` with a sorted sum.
"""

from __future__ import annotations

import numpy as np

REL_TOL = 1e-6
COORD_SCALE = 0.1  # toynet's input scaling of coordinates


def _forward(params, points: np.ndarray, remission: np.ndarray):
    x = np.column_stack([points * COORD_SCALE, remission])
    h1 = np.tanh(x @ params.w1 + params.b1)
    h2 = np.tanh(h1 @ params.w2 + params.b2)
    h3 = np.tanh(h2 @ params.w3 + params.b3)
    return h2, h3, h3 @ params.w4 + params.b4


def _log_softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def _cross_entropy(logits: np.ndarray, targets: np.ndarray) -> float:
    return float(-_log_softmax(logits)[np.arange(len(targets)), targets].mean())


def _smooth_l1(teacher: np.ndarray, student: np.ndarray, t: float) -> float:
    if teacher.size == 0:
        return 0.0
    d = np.abs(teacher - student)
    return float(np.where(d < t, d * d / (2.0 * t), d - t / 2.0).mean())


def _kl(teacher: np.ndarray, student: np.ndarray, temperature: float) -> float:
    if teacher.size == 0:
        return 0.0
    log_p = _log_softmax(teacher / temperature)
    log_q = _log_softmax(student / temperature)
    return float((np.exp(log_p) * (log_p - log_q)).mean())


def _cosine(rows: np.ndarray) -> np.ndarray:
    unit = rows / np.linalg.norm(rows, axis=1, keepdims=True)
    return unit @ unit.T


def _targets(semantic: np.ndarray, class_to_index: dict[int, int]) -> np.ndarray:
    return np.array([class_to_index[int(c)] for c in semantic], dtype=np.int64)


def total_loss(state, fused, labels) -> float:
    """Combined objective of ``train_step(state, current, fused, labels)``.

    ``fused`` is the pasted FusedScan; its first ``n_current`` rows are the
    student's input, so teacher row i pairs with student row i.
    """
    n = fused.n_current
    cloud = fused.cloud
    t_enc, t_head, t_logits = _forward(state.teacher, cloud.points, cloud.remission)
    s_enc, s_head, s_logits = _forward(
        state.student, cloud.points[:n], cloud.remission[:n]
    )
    seg_s = _cross_entropy(s_logits, _targets(labels.semantic, state.class_to_index))
    seg_t = _cross_entropy(
        t_logits, _targets(fused.labels.semantic, state.class_to_index)
    )

    hard = np.isin(labels.semantic, sorted(state.hard_classes))
    cfg = state.distill
    feature = _smooth_l1(t_enc[:n][hard], s_enc[hard], cfg.smooth_l1_T) + _smooth_l1(
        t_head[:n][hard], s_head[hard], cfg.smooth_l1_T
    )
    logits = _kl(t_logits[:n][hard], s_logits[hard], cfg.temperature_P)
    affinity = 0.0
    for iid in np.unique(labels.instance[hard]):
        members = np.flatnonzero(hard & (labels.instance == iid))
        if iid == 0 or len(members) < 2:
            continue
        diff = _cosine(s_head[members]) - _cosine(t_head[members])
        affinity += float((diff * diff).mean())

    b1, b2, b3, b4 = cfg.betas
    return seg_s + b1 * seg_t + b2 * feature + b3 * logits + b4 * affinity

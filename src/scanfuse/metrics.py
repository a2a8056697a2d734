"""Confusion-matrix accumulation and mean intersection-over-union.

IoU per class is TP / (TP + FP + FN); classes absent from both prediction and
ground truth are excluded from the mean (the standard evaluation convention
for this benchmark family). Matrices from parallel shards merge by addition.
Ignored classes never reach this module: callers drop their points first.
"""

from __future__ import annotations

import numpy as np

from .errors import ClassRangeError, NoValidClasses


def accumulate_confusion(pred, gt, n_classes: int) -> np.ndarray:
    """The n_classes x n_classes matrix of (gt, pred) counts.

    Every class ID must lie in [0, n_classes), else ClassRangeError; callers
    drop ignored points first (a class map's ``train_id -1``).
    """
    pred = np.asarray(pred, dtype=np.int64).reshape(-1)
    gt = np.asarray(gt, dtype=np.int64).reshape(-1)
    if pred.shape != gt.shape:
        raise ValueError(f"pred ({pred.shape}) and gt ({gt.shape}) lengths differ")
    if len(gt):
        if gt.min() < 0 or gt.max() >= n_classes:
            raise ClassRangeError(f"ground-truth class outside [0, {n_classes})")
        if pred.min() < 0 or pred.max() >= n_classes:
            raise ClassRangeError(f"predicted class outside [0, {n_classes})")
    flat = gt * n_classes + pred
    return np.bincount(flat, minlength=n_classes * n_classes).reshape(
        n_classes, n_classes
    )


def miou(cm: np.ndarray) -> tuple[np.ndarray, float]:
    """Per-class IoU (NaN where undefined) and their mean.

    A class with an empty union (absent from both prediction and ground
    truth) is excluded from the mean; if every class is excluded the metric
    is undefined and NoValidClasses is raised.
    """
    cm = np.asarray(cm, dtype=np.float64)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got {cm.shape}")
    tp = np.diag(cm)
    fp = cm.sum(axis=0) - tp
    fn = cm.sum(axis=1) - tp
    union = tp + fp + fn
    per_class = np.full(len(tp), np.nan)
    valid = union > 0
    per_class[valid] = tp[valid] / union[valid]
    if not valid.any():
        raise NoValidClasses("every class has an empty union")
    return per_class, float(per_class[valid].mean())


def format_iou_table(
    class_names: list[str], per_class: np.ndarray, mean: float, label: str = "ours"
) -> str:
    """Two-line table: per-class columns first, mIoU last."""
    if len(class_names) != len(per_class):
        raise ValueError("one name per class required")
    headers = list(class_names) + ["mIoU"]
    cells = [
        "-" if np.isnan(v) else f"{100.0 * v:.1f}" for v in per_class
    ] + [f"{100.0 * mean:.1f}"]
    widths = [max(len(h), len(c)) for h, c in zip(headers, cells)]
    name_w = max(len(label), len("method"))
    head = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
    row = "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    return (
        f"{'method'.ljust(name_w)}  {head}\n{label.ljust(name_w)}  {row}"
    )

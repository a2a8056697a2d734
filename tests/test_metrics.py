import numpy as np
import pytest

from scanfuse.errors import ClassRangeError, NoValidClasses
from scanfuse.metrics import accumulate_confusion, format_iou_table, miou


def test_perfect_predictions_are_diagonal():
    gt = np.array([0, 1, 2, 2, 1])
    cm = accumulate_confusion(gt, gt, 3)
    assert np.array_equal(cm, np.diag([1, 2, 2]))


def test_confusion_matches_brute_force():
    rng = np.random.default_rng(0)
    gt = rng.integers(0, 5, size=500)
    pred = rng.integers(0, 5, size=500)
    keep = gt != 0
    cm = accumulate_confusion(pred[keep], gt[keep], 5)
    expected = np.zeros((5, 5), dtype=np.int64)
    for g, p in zip(gt, pred):
        if g != 0:
            expected[g, p] += 1
    assert np.array_equal(cm, expected)


def test_confusion_rejects_out_of_range():
    with pytest.raises(ClassRangeError):
        accumulate_confusion([0], [7], 3)
    with pytest.raises(ClassRangeError):
        accumulate_confusion([7], [0], 3)


def test_confusion_order_independent():
    rng = np.random.default_rng(1)
    gt = rng.integers(0, 4, size=300)
    pred = rng.integers(0, 4, size=300)
    perm = rng.permutation(300)
    a = accumulate_confusion(pred, gt, 4)
    b = accumulate_confusion(pred[perm], gt[perm], 4)
    assert np.array_equal(a, b)


def test_miou_perfect():
    cm = np.diag([10, 3, 7])
    per_class, mean = miou(cm)
    assert np.array_equal(per_class, [1.0, 1.0, 1.0])
    assert mean == 1.0


def test_miou_hand_computed_example():
    # gt [0,0,1,1], pred [0,1,1,1]: IoU0 = 1/2, IoU1 = 2/3, mean = 7/12
    cm = accumulate_confusion([0, 1, 1, 1], [0, 0, 1, 1], 2)
    per_class, mean = miou(cm)
    assert per_class[0] == 0.5
    assert abs(per_class[1] - 2 / 3) < 1e-15
    assert abs(mean - 7 / 12) < 1e-15


def test_miou_excludes_absent_classes():
    cm = np.zeros((3, 3), dtype=np.int64)
    cm[0, 0] = 5
    cm[1, 1] = 5
    per_class, mean = miou(cm)
    assert np.isnan(per_class[2])
    assert mean == 1.0


def test_miou_all_degenerate():
    with pytest.raises(NoValidClasses):
        miou(np.zeros((4, 4)))


def test_miou_bounds_and_mean_position():
    rng = np.random.default_rng(2)
    for _ in range(100):
        cm = rng.integers(0, 30, size=(5, 5))
        per_class, mean = miou(cm)
        valid = per_class[~np.isnan(per_class)]
        assert ((valid >= 0.0) & (valid <= 1.0)).all()
        assert valid.min() - 1e-12 <= mean <= valid.max() + 1e-12


def test_miou_invariant_under_class_permutation():
    rng = np.random.default_rng(3)
    gt = rng.integers(0, 4, size=400)
    pred = rng.integers(0, 4, size=400)
    perm = rng.permutation(4)
    cm = accumulate_confusion(pred, gt, 4)
    cm_perm = accumulate_confusion(perm[pred], perm[gt], 4)
    per_class, mean = miou(cm)
    per_class_perm, mean_perm = miou(cm_perm)
    assert mean == mean_perm
    for c in range(4):
        assert per_class[c] == per_class_perm[perm[c]]


def test_shard_merge_equals_single_pass():
    rng = np.random.default_rng(4)
    gt = rng.integers(0, 6, size=1000)
    pred = rng.integers(0, 6, size=1000)
    whole = accumulate_confusion(pred, gt, 6)
    merged = np.zeros((6, 6), dtype=np.int64)
    for lo, hi in [(0, 130), (130, 512), (512, 1000)]:
        merged += accumulate_confusion(pred[lo:hi], gt[lo:hi], 6)
    assert np.array_equal(whole, merged)


def test_format_iou_table_layout():
    per_class = np.array([0.5, 2 / 3, np.nan])
    text = format_iou_table(["car", "bicycle", "pole"], per_class, 7 / 12)
    header, row = text.splitlines()
    columns = header.split()
    assert columns[0] == "method"
    assert columns[1:] == ["car", "bicycle", "pole", "mIoU"]
    values = row.split()
    assert values[0] == "ours"
    assert values[1] == "50.0"
    assert values[2] == "66.7"
    assert values[3] == "-"
    assert values[4] == "58.3"


BENCHMARK_CLASSES = [
    "car", "bicycle", "motorcycle", "truck", "other-vehicle", "person",
    "bicyclist", "motorcyclist", "road", "parking", "sidewalk",
    "other-ground", "building", "fence", "vegetation", "trunk", "terrain",
    "pole", "traffic-sign",
]


def test_format_iou_table_19_class_row():
    # the standard benchmark row shape: 19 per-class values, then the mean
    rng = np.random.default_rng(5)
    per_class = rng.uniform(0, 1, 19)
    text = format_iou_table(BENCHMARK_CLASSES, per_class, float(per_class.mean()))
    header, row = text.splitlines()
    assert header.split()[1:] == BENCHMARK_CLASSES + ["mIoU"]
    assert len(row.split()) == 1 + 19 + 1
    assert header.split()[-1] == "mIoU"

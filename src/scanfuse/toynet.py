"""Tiny per-point teacher/student network with hand-rolled backprop.

Both branches share one architecture: an encoder of two dense+tanh layers and
a head of one dense+tanh layer followed by a linear logits layer. The two
feature tap points used for distillation are the encoder output and the
pre-logits activation. Training is plain fixed-rate gradient descent; the
teacher sees the fused cloud, the student the current scan, and teacher row
i is student row i throughout the fused cloud's current-scan prefix. Teacher
outputs are constants inside the distillation terms; the teacher itself
trains through its own (weighted) segmentation loss.

Each branch's segmentation pass (forward, cross-entropy, backward) runs over
blocks of ``BLOCK_ROWS`` rows, and no (N, H) array outlives its block. Each
block's cross-entropy gradient is scaled by the block's share of the rows,
and the blocks' parameter gradients are summed. Each block's loss share and
gradients are kept and summed in row order after the last block, so the
order the blocks ran in changes no bit. The bias gradients are
``np.einsum("ij->j", d)``, which sums the rows of ``d`` one after another,
as ``d.sum(axis=0)`` does on a C-ordered array, in a third of its time. The
distillation terms read only the hard-class rows of the current-scan
prefix, so the pass also copies the activations of those rows into compact
arrays. The losses run on these copies; their gradients go back through the
student's copies alone, since backprop is linear in the upstream gradient,
and add to the pass's. A step's working memory so follows the block size
and the hard-row count, not the scan: block-sized arrays can come from
memory the allocator keeps, where whole-scan ones (tens of MB on a 64k-row
step) go back to the kernel after each step and are faulted in again on the
next. ``supervised_step``, ``predict`` and ``evaluate`` run over the same
blocks, and the betas-zero step stays bit-identical to ``supervised_step``.
``forward`` and the backward pass never write into an array a caller passed
or still holds.

Sums over blocks round differently from one sum, so the segmentation terms
and the gradients agree with a whole-array step to about 1e-15 relative. The
block size can also move a logit by an ulp: OpenBLAS multiplies a product of
at most 10^6 multiply-adds with a separate small-matrix kernel, which rounds
the edge columns of a narrow layer differently. That kernel is also 2-3
times faster per row, so ``BLOCK_ROWS`` keeps every product of a block with
H = 16 under the bound.

A step runs on two threads. The teacher branch shares nothing with the
student branch until the distillation terms, which read only its hard-row
copies; so a one-worker pool runs it while the calling thread runs the
student's pass. The pool's tasks run in order: the teacher's targets, its
blocks holding hard rows, then its other blocks. The caller reads the
teacher's copies (or the error that came first) from the second task's
future, computes the distillation terms while the worker runs the third,
and then sums both tasks' blocks in row order. NumPy releases the
interpreter lock inside each large array operation, so the two overlap on
two cores. While they do, OpenBLAS is held to one thread, and its own
worker threads stop competing with the two branches for the cores. Each
branch runs the same operations in the same order as a serial composition of
the blocked passes, so every result is bit-identical to one.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .distill import (
    DistillConfig,
    feature_distill_loss,
    iaad_loss,
    log_softmax,
    soft_logits_kl_loss,
    total_loss,
)
from .errors import InvalidConfig, NumericError, ShapeError
from .fusion import FusedScan
from .kitti_io import (
    DEFAULT_HARD_CLASSES,
    LabelSet,
    PointCloud,
    instance_rows,
)
from .metrics import accumulate_confusion, miou

# Inputs are meters at scene scale; shrink coordinates so tanh units start in
# their sensitive range. Remission is already in [0, 1].
COORD_SCALE = 0.1

# Rows per block of a step's, a prediction's and an evaluation's passes.
# At H = 16 a block's layer products take 3840 * 16 * 16 = 983,040
# multiply-adds, under the 10^6 up to which OpenBLAS uses its small-matrix
# kernel, 2-3 times faster per row than the kernel of larger products; 3840
# is a multiple of 256 and read best in a sweep of the train-distill
# benchmark over sizes up to 3906 rows (CHANGES.md).
BLOCK_ROWS = 3840


@dataclass(eq=False)
class ToyNetParams:
    """Weights for the 4-layer per-point network (4 -> H -> H -> H -> C)."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray
    w4: np.ndarray
    b4: np.ndarray

    @classmethod
    def init(cls, seed: int, hidden: int, n_classes: int) -> "ToyNetParams":
        if hidden < 1 or n_classes < 2:
            raise InvalidConfig("hidden >= 1 and n_classes >= 2 required")
        rng = np.random.default_rng(seed)

        def dense(n_in: int, n_out: int) -> np.ndarray:
            return rng.normal(0.0, 1.0 / math.sqrt(n_in), size=(n_in, n_out))

        return cls(
            w1=dense(4, hidden),
            b1=np.zeros(hidden),
            w2=dense(hidden, hidden),
            b2=np.zeros(hidden),
            w3=dense(hidden, hidden),
            b3=np.zeros(hidden),
            w4=dense(hidden, n_classes),
            b4=np.zeros(n_classes),
        )

    @classmethod
    def zeros(cls, hidden: int, n_classes: int) -> "ToyNetParams":
        return cls(*[np.zeros_like(a) for a in cls.init(0, hidden, n_classes).arrays()])

    def arrays(self) -> list[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2, self.w3, self.b3, self.w4, self.b4]

    def copy(self) -> "ToyNetParams":
        return ToyNetParams(*[a.copy() for a in self.arrays()])

    def equals(self, other: "ToyNetParams") -> bool:
        return all(np.array_equal(a, b) for a, b in zip(self.arrays(), other.arrays()))

    @property
    def n_classes(self) -> int:
        return self.w4.shape[1]


@dataclass
class ForwardResult:
    """Per-point activations of one forward pass, rows parallel to the cloud."""

    x: np.ndarray  # network input
    h1: np.ndarray
    encoder: np.ndarray  # feature tap after the encoder stage
    head: np.ndarray  # feature tap before the logits layer
    logits: np.ndarray


@dataclass
class LossBreakdown:
    seg_student: float
    seg_teacher: float
    feature: float
    logits: float
    affinity: float
    total: float


@dataclass
class TrainState:
    teacher: ToyNetParams
    student: ToyNetParams
    step: int
    learning_rate: float
    distill: DistillConfig
    class_to_index: dict[int, int]
    hard_classes: frozenset[int] = DEFAULT_HARD_CLASSES
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0.0):
            raise InvalidConfig(
                f"learning_rate must be finite and > 0, got {self.learning_rate}"
            )


def _dense_tanh(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = h @ w
    a += b
    return np.tanh(a, out=a)


def forward(params: ToyNetParams, cloud: PointCloud) -> ForwardResult:
    """Deterministic per-point evaluation, keeping what backprop needs."""
    x = np.empty((len(cloud), 4))
    # dtype: a float32 cloud is scaled in float64, as a float64 one is
    np.multiply(cloud.points, COORD_SCALE, out=x[:, :3], dtype=np.float64)
    x[:, 3] = cloud.remission
    h1 = _dense_tanh(x, params.w1, params.b1)
    h2 = _dense_tanh(h1, params.w2, params.b2)
    h3 = _dense_tanh(h2, params.w3, params.b3)
    z = h3 @ params.w4
    z += params.b4
    if not np.isfinite(z).all():
        raise NumericError("non-finite activations in forward pass")
    return ForwardResult(x=x, h1=h1, encoder=h2, head=h3, logits=z)


def _tanh_grad(d_h: np.ndarray, h: np.ndarray, t: np.ndarray) -> None:
    """Back through h = tanh(a): scales d_h by 1 - h^2 in place, with t (shaped
    like h) as scratch."""
    np.multiply(h, h, out=t)
    np.subtract(1.0, t, out=t)
    d_h *= t


def _backward(
    params: ToyNetParams,
    out: ForwardResult,
    d_logits: np.ndarray,
    d_h2_extra: np.ndarray | None = None,
    d_h3_extra: np.ndarray | None = None,
) -> ToyNetParams:
    """Backprop upstream gradients (on logits and, optionally, the two feature
    taps) into parameter gradients. Reads but never writes its arguments."""
    x, h1, h2, h3 = out.x, out.h1, out.encoder, out.head
    # Each d_k holds d(loss)/d(h_k) until _tanh_grad turns it, in place, into
    # the gradient wrt that layer's pre-activation. Three (N, H) buffers
    # serve all layers: d1 reuses d3's. The weights go in as contiguous
    # transposes: OpenBLAS multiplies by a ``.T`` view on its slower
    # transposed path, with the same bits.
    t = np.empty_like(h3)

    gw4 = h3.T @ d_logits
    gb4 = np.einsum("ij->j", d_logits)
    d3 = d_logits @ np.ascontiguousarray(params.w4.T)
    if d_h3_extra is not None:
        d3 += d_h3_extra
    _tanh_grad(d3, h3, t)

    gw3 = h2.T @ d3
    gb3 = np.einsum("ij->j", d3)
    d2 = d3 @ np.ascontiguousarray(params.w3.T)
    if d_h2_extra is not None:
        d2 += d_h2_extra
    _tanh_grad(d2, h2, t)

    gw2 = h1.T @ d2
    gb2 = np.einsum("ij->j", d2)
    d1 = np.matmul(d2, np.ascontiguousarray(params.w2.T), out=d3)
    _tanh_grad(d1, h1, t)

    gw1 = x.T @ d1
    gb1 = np.einsum("ij->j", d1)
    return ToyNetParams(gw1, gb1, gw2, gb2, gw3, gb3, gw4, gb4)


def cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and its gradient wrt the logits."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if len(logits) != len(targets):
        raise ShapeError(f"{len(logits)} logit rows vs {len(targets)} targets")
    if len(targets) == 0:
        return 0.0, np.zeros_like(logits)
    if targets.min() < 0 or targets.max() >= logits.shape[1]:
        raise InvalidConfig("target class outside the logits range")
    n = len(targets)
    rows = np.arange(n)
    grad = log_softmax(logits)
    loss = float(-grad[rows, targets].mean())
    np.exp(grad, out=grad)
    grad[rows, targets] -= 1.0
    grad /= n
    return loss, grad


def _sgd(params: ToyNetParams, grads: ToyNetParams, lr: float) -> ToyNetParams:
    return ToyNetParams(
        *[p - lr * g for p, g in zip(params.arrays(), grads.arrays())]
    )


def remap_semantic(semantic: np.ndarray, raw_to_train: dict[int, int]) -> np.ndarray:
    """Train IDs of raw class IDs: the one raw->train lookup.

    A raw ID mapped to -1 stays -1 (ignored; only eval-miou drops such
    points). InvalidConfig names every raw ID in ``semantic`` (a ``LabelSet``
    column) the map lacks; a map entry outside raw 0..65535 or below train
    ID -1 raises it too. The table reaches the largest raw ID present only.
    """
    semantic = np.asarray(semantic)
    table = np.full(int(semantic.max(initial=0)) + 1, -2, np.int64)  # -2: missing
    for raw, train in raw_to_train.items():
        if not 0 <= raw <= 0xFFFF:
            raise InvalidConfig(f"raw class ID {raw} is outside the 16-bit range")
        if train < -1:
            raise InvalidConfig(f"raw class ID {raw} has train ID {train} below -1")
        if raw < len(table):
            table[raw] = train
    out = table[semantic]
    missing = out == -2
    if missing.any():
        ids = sorted(set(semantic[missing].tolist()))
        raise InvalidConfig(f"classes {ids} missing from the class map")
    return out


def distill_rows(
    labels: LabelSet, hard_classes: frozenset[int]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Hard-class row indices plus the affinity sets: ``instance_rows`` of
    the hard rows themselves, so each set holds an instance's positions among
    them (``hard_idx[positions]`` are its rows), as IAAD reads them."""
    hard_idx = np.flatnonzero(np.isin(labels.semantic, list(hard_classes)))
    positions, groups = instance_rows(labels[hard_idx], hard_classes)
    return hard_idx, [positions[part] for part in groups.values()]


@functools.cache
def _openblas_thread_calls() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """The get/set thread-count entry points of the OpenBLAS that NumPy's
    wheel bundles (already loaded, so ``CDLL`` returns the same library), or
    None where NumPy carries no such library."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextmanager
def _blas_held_to_one_thread() -> Iterator[None]:
    """Run the block with OpenBLAS on one thread; restore its count on exit."""
    calls = _openblas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _add_into(total: ToyNetParams, part: ToyNetParams) -> None:
    for a, b in zip(total.arrays(), part.arrays()):
        a += b


def _all_blocks(cloud: PointCloud) -> range:
    """Indices of the blocks of ``BLOCK_ROWS`` rows tiling ``cloud`` (one if empty)."""
    return range(max(-(-len(cloud) // BLOCK_ROWS), 1))


def _block(cloud: PointCloud, k: int) -> tuple[int, int, PointCloud]:
    """``(lo, hi, rows lo:hi of cloud)`` of block ``k``."""
    lo = k * BLOCK_ROWS
    hi = min(lo + BLOCK_ROWS, len(cloud))
    return lo, hi, cloud[lo:hi]


_BlockPart = tuple[int, float, ToyNetParams | None]


def _pass(
    params: ToyNetParams,
    cloud: PointCloud,
    targets: np.ndarray,
    weight: float,
    rows: np.ndarray,
    ks: Iterable[int],
) -> tuple[list[_BlockPart], ForwardResult]:
    """A branch's segmentation pass over the blocks ``ks`` of ``cloud``.

    Each block's forward, cross-entropy and, unless ``weight`` is 0,
    backward give its part: ``(k, loss share, gradients or None)``. A
    block's gradient is its cross-entropy gradient scaled by ``weight`` and
    its share of the rows, so the parts of all blocks sum (``_summed``) to
    the gradient of ``weight`` times the whole mean. Also returns the
    activations of the ascending row indices ``rows``, which must lie in
    the blocks ``ks``, copied into compact (len(rows), .) arrays.
    """
    n = len(cloud)
    hidden, n_classes = params.w4.shape
    kept = ForwardResult(
        *(np.empty((len(rows), width)) for width in (4, hidden, hidden, hidden, n_classes))
    )
    parts: list[_BlockPart] = []
    for k in ks:
        lo, hi, block = _block(cloud, k)
        out = forward(params, block)
        seg, d_logits = cross_entropy(out.logits, targets[lo:hi])
        share = (hi - lo) / max(n, 1)
        grads = None
        if weight != 0.0:
            d_logits *= weight * share
            grads = _backward(params, out, d_logits)
        parts.append((k, seg * share, grads))
        a, b = np.searchsorted(rows, (lo, hi))
        for dst, src in zip(vars(kept).values(), vars(out).values()):
            dst[a:b] = src[rows[a:b] - lo]
        del out, d_logits  # before the next block allocates its own
    return parts, kept


def _summed(parts: list[_BlockPart]) -> tuple[float, ToyNetParams | None]:
    """The loss shares and the gradients of ``parts``, summed in row order
    whatever order the blocks ran in."""
    loss, grads = 0.0, None
    for _, share, part in sorted(parts, key=lambda p: p[0]):
        loss += share  # not sum(), which compensates on Python >= 3.12
        if grads is None:
            grads = part
        else:
            _add_into(grads, part)
    return loss, grads


def compute_gradients(
    state: TrainState,
    current_scan: PointCloud,
    fused_scan: FusedScan,
    labels: LabelSet,
) -> tuple[LossBreakdown, ToyNetParams, ToyNetParams | None]:
    """One joint forward/backward pass.

    Returns the loss breakdown, student parameter gradients, and teacher
    parameter gradients (None when the teacher's segmentation weight is 0).
    Distillation terms treat teacher outputs as constants. The teacher
    branch runs on a worker thread that ends before this returns or raises.
    """
    n_cur = len(current_scan)
    if fused_scan.n_current != n_cur or len(labels) != n_cur:
        raise ShapeError(
            f"current scan ({n_cur}), labels ({len(labels)}) and fused prefix "
            f"({fused_scan.n_current}) must agree"
        )

    cfg = state.distill
    b1, b2, b3, b4 = cfg.betas

    with _blas_held_to_one_thread(), ThreadPoolExecutor(max_workers=1) as pool:
        hard_idx, instances = distill_rows(labels, state.hard_classes)
        # The pool's one worker runs its tasks in order: the teacher's
        # targets, its blocks holding hard rows, then its other blocks.
        teacher_targets = pool.submit(
            remap_semantic, fused_scan.labels.semantic, state.class_to_index
        )

        def teacher_pass(ks: list[int], rows: np.ndarray):
            targets = teacher_targets.result()
            return _pass(state.teacher, fused_scan.cloud, targets, b1, rows, ks)

        holding = np.unique(hard_idx // BLOCK_ROWS).tolist()
        others = [k for k in _all_blocks(fused_scan.cloud) if k not in holding]
        first = pool.submit(teacher_pass, holding, hard_idx)

        def rest_pass():
            # ``first`` is done when this starts. Once it has failed, the
            # step raises its error, so the other blocks are not run.
            if first.exception() is not None:
                return [], None
            return teacher_pass(others, hard_idx[:0])

        rest = pool.submit(rest_pass)

        targets_cur = remap_semantic(labels.semantic, state.class_to_index)
        student_parts, s = _pass(
            state.student, current_scan, targets_cur, 1.0, hard_idx, _all_blocks(current_scan)
        )
        seg_s, student_grads = _summed(student_parts)
        # The fused cloud's first n_cur rows are the current scan, row for
        # row, so the teacher's hard rows are the student's.
        teacher_parts, t = first.result()

        fd_enc, g_enc = feature_distill_loss(t.encoder, s.encoder, cfg.smooth_l1_T)
        fd_head, g_head = feature_distill_loss(t.head, s.head, cfg.smooth_l1_T)
        fd = fd_enc + fd_head
        sld, g_sld = soft_logits_kl_loss(t.logits, s.logits, cfg.temperature_P)
        iaad, g_iaad = iaad_loss(t.head, s.head, instances)

        # Backprop is linear in the upstream gradient, so the distillation
        # terms go back through the hard rows alone and add to the pass's.
        # A zero beta adds zeros, which leaves every gradient's value as is.
        d_h3_extra = b2 * g_head
        d_h3_extra += b4 * g_iaad
        _add_into(
            student_grads,
            _backward(state.student, s, b3 * g_sld, b2 * g_enc, d_h3_extra),
        )
        seg_t, teacher_grads = _summed(teacher_parts + rest.result()[0])

    breakdown = LossBreakdown(
        seg_student=seg_s,
        seg_teacher=seg_t,
        feature=fd,
        logits=sld,
        affinity=iaad,
        total=total_loss(seg_s, seg_t, fd, sld, iaad, cfg.betas),
    )
    return breakdown, student_grads, teacher_grads


def train_step(
    state: TrainState,
    current_scan: PointCloud,
    fused_scan: FusedScan,
    labels: LabelSet,
) -> tuple[TrainState, LossBreakdown]:
    """Gradient-descent update of both branches under the combined objective."""
    breakdown, student_grads, teacher_grads = compute_gradients(
        state, current_scan, fused_scan, labels
    )
    new_student = _sgd(state.student, student_grads, state.learning_rate)
    new_teacher = (
        _sgd(state.teacher, teacher_grads, state.learning_rate)
        if teacher_grads is not None
        else state.teacher.copy()
    )
    new_state = replace(
        state, teacher=new_teacher, student=new_student, step=state.step + 1
    )
    return new_state, breakdown


def supervised_step(
    params: ToyNetParams,
    scan: PointCloud,
    labels: LabelSet,
    class_to_index: dict[int, int],
    learning_rate: float,
) -> tuple[ToyNetParams, float]:
    """Distillation-free baseline: one cross-entropy step on a single scan."""
    targets = remap_semantic(labels.semantic, class_to_index)
    parts, _ = _pass(params, scan, targets, 1.0, np.empty(0, dtype=np.intp), _all_blocks(scan))
    loss, grads = _summed(parts)
    return _sgd(params, grads, learning_rate), loss


def predict(params: ToyNetParams, cloud: PointCloud) -> np.ndarray:
    """Per-point argmax class indices."""
    pred = np.empty(len(cloud), dtype=np.intp)
    for k in _all_blocks(cloud):
        lo, hi, block = _block(cloud, k)
        pred[lo:hi] = np.argmax(forward(params, block).logits, axis=1)
    return pred


def evaluate(
    params: ToyNetParams,
    scans: list[PointCloud],
    labels: list[LabelSet],
    class_to_index: dict[int, int],
) -> tuple[np.ndarray, float]:
    """Per-class IoU and mIoU of the net's predictions over given scans."""
    n_classes = params.n_classes
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for scan, lab in zip(scans, labels):
        pred = predict(params, scan)
        gt = remap_semantic(lab.semantic, class_to_index)
        cm += accumulate_confusion(pred, gt, n_classes)
    return miou(cm)

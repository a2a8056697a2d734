"""The benchmark's hooks into ``src/`` and its numeric gate still hold.

``perfbench/tracing.py`` wraps each ``scanfuse`` function named in its
``TARGETS``; a renamed or deleted one would leave its per-layer metrics
silently at 0. The train-distill workload fails a run whose last step's
total loss strays from ``perfbench/reference.py`` by more than its
``REL_TOL``. The full benchmark tests (``python3 -m pytest -q
perfbench/tests``) catch both too, but run for many seconds.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import reference  # noqa: E402
import tracing  # noqa: E402

from scanfuse import toynet  # noqa: E402
from scanfuse.distill import DistillConfig  # noqa: E402
from scanfuse.fusion import (  # noqa: E402
    FusionConfig,
    build_instance_db,
    fuse_scan,
    sample_and_paste,
)
from scanfuse.synthetic import default_scene, make_synthetic_sequence  # noqa: E402
from scanfuse.toynet import ToyNetParams, TrainState, train_step  # noqa: E402


def test_every_traced_target_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def pasted_step():
    seq = make_synthetic_sequence(default_scene(n_scans=5, points_per_object=30), seed=3)
    config = FusionConfig(window=2)
    db = build_instance_db(seq.data, config)
    pasted = sample_and_paste(fuse_scan(seq.data, 4, config), db, 3, rng_seed=4)
    state = TrainState(
        teacher=ToyNetParams.init(5, 8, 3),
        student=ToyNetParams.init(6, 8, 3),
        step=0,
        learning_rate=1e-2,
        distill=DistillConfig(),
        class_to_index={40: 0, 81: 1, 18: 2},
        hard_classes=frozenset({81, 18}),
    )
    return state, pasted


def test_train_step_total_matches_the_benchmark_reference():
    state, pasted = pasted_step()
    labels = pasted.current_labels()
    assert all(b != 0.0 for b in state.distill.betas)

    _, losses = train_step(state, pasted.current_cloud(), pasted, labels)
    assert min(losses.feature, losses.logits, losses.affinity) > 0.0
    expected = reference.total_loss(state, pasted, labels)
    assert abs(losses.total - expected) <= reference.REL_TOL * abs(expected)


def test_train_step_on_two_threads_closes_every_traced_span():
    # The teacher branch's forward, remap and cross-entropy run on a worker
    # thread while the student's run on the caller's, both through the
    # tracer's one span stack.
    state, pasted = pasted_step()
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        for _ in range(2):
            state, _ = toynet.train_step(
                state, pasted.current_cloud(), pasted, pasted.current_labels()
            )
    finally:
        tracer.uninstall()
    assert tracer._stack == []
    assert all(math.isfinite(end) for end in tracer.ends)
    per_step = {"toynet.train_step": 1, "toynet.forward": 2, "toynet.cross_entropy": 2}
    for name, calls in per_step.items():
        assert tracer.names.count(name) == 2 * calls

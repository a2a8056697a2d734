"""The benchmark's hooks into ``src/`` and its numeric gate still hold.

``perfbench/tracing.py`` wraps each ``scanfuse`` function named in its
``TARGETS``; a renamed or deleted one would leave its per-layer metrics
silently at 0. The train-distill workload fails a run whose last step's
total loss strays from ``perfbench/reference.py`` by more than its
``REL_TOL``. The full benchmark tests (``python3 -m pytest -q
perfbench/tests``) catch both too, but run for many seconds.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402
import tracing  # noqa: E402

from scipy.spatial import cKDTree  # noqa: E402

from scanfuse import fusion, registration, toynet  # noqa: E402
from scanfuse.distill import DistillConfig  # noqa: E402
from scanfuse.fusion import (  # noqa: E402
    FusionConfig,
    build_instance_db,
    fuse_scan,
    sample_and_paste,
)
from scanfuse.kitti_io import instance_rows, unpack_label  # noqa: E402
from scanfuse.synthetic import default_scene, make_synthetic_sequence  # noqa: E402
from scanfuse.toynet import ToyNetParams, TrainState, train_step  # noqa: E402


def test_every_traced_target_exists():
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        assert tracer.missing == []
    finally:
        tracer.uninstall()


# What the benchmark worker does before its traced run, in a fresh
# interpreter: ``install`` patches only the ``scanfuse`` modules imported
# before it, so whichever modules other tests imported cannot hide one that
# the worker leaves unimported.
WORKER_INSTALL = """
import importlib
import tracing
from workloads import WORKLOADS

tracer = tracing.Tracer()
tracer.install(tracing.TARGETS)
wrapper = tracer.wrap("probe", len).__code__
for target in tracing.TARGETS:
    owner = importlib.import_module("scanfuse." + target.module)
    for part in target.attr.split("."):
        owner = getattr(owner, part)
    assert owner.__code__ is wrapper, target.name
print(len(tracing.TARGETS))
"""


def test_the_worker_wraps_every_traced_target_where_it_is_defined():
    path = os.pathsep.join(str(ROOT / d) for d in ("perfbench", "src"))
    done = subprocess.run(
        [sys.executable, "-c", WORKER_INSTALL],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(len(tracing.TARGETS))]


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


def test_iaad_counter_counts_the_hard_instances_of_at_least_two_rows():
    # ``toynet.distill_rows`` hands ``iaad_loss`` every hard instance, one-row
    # ones included; the benchmark's counter skips those, as the loss does.
    state, pasted = pasted_step()
    rows, _ = instance_rows(pasted.current_labels(), state.hard_classes)
    pasted.labels.instance[rows[0]] = pasted.labels.instance.max() + 1  # a one-row instance
    labels = pasted.current_labels()
    rows, groups = instance_rows(labels, state.hard_classes)
    sizes = [part.stop - part.start for part in groups.values()]
    assert 1 in sizes and max(sizes) >= 2
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        train_step(state, pasted.current_cloud(), pasted, labels)
    finally:
        tracer.uninstall()
    counted = tracer.counts[tracing.OUTSIDE_OPS]["distill.iaad.affinity_entries"]
    assert counted == sum(n * n for n in sizes if n >= 2)


def test_train_step_on_two_threads_closes_every_traced_span():
    # The teacher branch's forward, remap and cross-entropy run on a worker
    # thread while the student's run on the caller's, both through the
    # tracer's one span stack; each branch remaps its labels once and calls
    # forward and cross-entropy once per block of rows.
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
    blocks = sum(-(-n // toynet.BLOCK_ROWS) for n in (pasted.n_current, len(pasted.cloud)))
    per_step = {
        "toynet.train_step": 1,
        "toynet.remap_semantic": 2,
        "toynet.forward": blocks,
        "toynet.cross_entropy": blocks,
    }
    for name, calls in per_step.items():
        assert tracer.names.count(name) == 2 * calls


def test_train_step_in_several_blocks_closes_every_traced_span(monkeypatch):
    monkeypatch.setattr(toynet, "BLOCK_ROWS", 7)
    test_train_step_on_two_threads_closes_every_traced_span()


def test_fuse_scan_passes_each_instance_through_the_traced_layers(monkeypatch):
    # The benchmark counts these spans per op; fusion shares one transform
    # per past scan and one KD-tree per moving instance behind them.
    seq = make_synthetic_sequence(default_scene(n_scans=5), seed=3).data
    config = FusionConfig(window=4)
    rows = [instance_rows(labels, config.hard_classes)[1] for labels in seq.labels]
    hard = list(rows[4])
    assert len(hard) == 2  # the static sign and the moving truck

    trees = []

    class CountedTree(cKDTree):
        def __init__(self, data, *args, **kwargs):
            trees.append(len(data))
            super().__init__(data, *args, **kwargs)

    monkeypatch.setattr(fusion, "cKDTree", CountedTree)
    monkeypatch.setattr(registration, "cKDTree", CountedTree)
    tracer = tracing.Tracer()
    try:
        tracer.install(tracing.TARGETS)
        fuse_scan(seq, 4, config)
    finally:
        tracer.uninstall()

    assert tracer.names.count("fusion.gather_instance_track") == len(hard)
    assert tracer.names.count("fusion.classify_motion") == len(hard)
    assert tracer.counts[tracing.OUTSIDE_OPS]["fusion.moving"] == 1
    (truck,) = [obj for obj in default_scene().objects if obj.velocity != (0.0, 0.0, 0.0)]
    mover = next(label for label in hard if unpack_label(label)[1] == truck.class_id)
    holding = [s for s in range(4) if mover in rows[s]]
    assert tracer.names.count("registration.icp_register") == len(holding) == 4
    part = rows[4][mover]
    assert trees == [part.stop - part.start]

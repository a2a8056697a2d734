"""The benchmark's three workloads: input generation, one op, and its check.

Each workload has a ``setup(data_dir, seed)`` that generates and writes its
inputs plus an oracle (a small JSON of expected outcomes, derived from the
synthetic ground truth), and a runner class that the worker process builds
from those files. ``runner.op(k)`` is the timed unit of work; ``check(k, out)``
verifies its outputs outside the timed region and returns an error message or
None. Every ``scanfuse`` call goes through a module attribute
(``fusion.fuse_scan``) so the traced run sees it.

All inputs derive from the seed; ``src/`` only ever sees the generated files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from scanfuse import cli, fusion, instance_gen, kitti_io, synthetic, toynet
from scanfuse.distill import DistillConfig

import reference

WINDOW = 4  # past scans fused, K
HARD = sorted(kitti_io.DEFAULT_HARD_CLASSES)
SIGN = 81  # traffic-sign: annotated without instance IDs in augdb-build
MOVING_SPEED = 0.6  # meters per scan
ORACLE = "oracle.json"


def _sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _heading_velocity(rng: np.random.Generator) -> tuple[float, float, float]:
    heading = rng.uniform(0.0, 2.0 * np.pi)
    return (MOVING_SPEED * np.cos(heading), MOVING_SPEED * np.sin(heading), 0.0)


def _hard_points(seq: synthetic.SyntheticSequence) -> int:
    return sum(o.stop - o.start for o in seq.truth.objects if o.class_id in HARD)


def _write_oracle(data_dir: Path, oracle: dict) -> None:
    (data_dir / ORACLE).write_text(json.dumps(oracle))


class Runner:
    """Worker-side half of a workload; ``count_ops`` ops form one full cycle."""

    count_ops: int

    def persist(self, k: int, out) -> None:
        """Untimed work that belongs to op k; traced with it."""

    def finish(self):
        """Timed work after the last op; its result goes to ``final_check``."""
        return None

    def final_check(self, result) -> str | None:
        return None


# ---------------------------------------------------------------------------
# fuse-seq: the read path of `scanfuse fuse`
# ---------------------------------------------------------------------------


FUSE_SCANS = 16


def fuse_seq_scene(seed: int) -> synthetic.SyntheticConfig:
    """16 scans of 100k ground points plus 40 hard boxes of 400 points; every
    second box moves at 0.6 m/scan."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(40):
        radius = rng.uniform(6.0, 30.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        size = tuple(rng.uniform(1.2, 3.5, size=3))
        objects.append(
            synthetic.ObjectSpec(
                shape="box",
                class_id=HARD[i % len(HARD)],
                center=(radius * np.cos(angle), radius * np.sin(angle), size[2] / 2),
                size=size,
                velocity=_heading_velocity(rng) if i % 2 else (0.0, 0.0, 0.0),
                n_points=400,
            )
        )
    return synthetic.SyntheticConfig(
        n_scans=FUSE_SCANS, objects=objects, ground_points=100_000, ground_extent=35.0,
        name="fs",
    )


def setup_fuse_seq(data_dir: Path, seed: int) -> None:
    seq = synthetic.make_synthetic_sequence(fuse_seq_scene(seed), seed)
    kitti_io.write_sequence(seq.data, data_dir / "seq")
    # Every hard instance is visible in every scan, so each of the K past
    # scans contributes all of its hard points.
    _write_oracle(
        data_dir, {"n_scans": len(seq.data), "appended": WINDOW * _hard_points(seq)}
    )


class FuseSeq(Runner):
    """One op: `scanfuse fuse --scan t` for t >= K, cycling over the sequence."""

    count_ops = FUSE_SCANS - WINDOW  # one pass over t = K..15

    def __init__(self, data_dir: Path, seed: int) -> None:
        oracle = json.loads((data_dir / ORACLE).read_text())
        self.seq = data_dir / "seq"
        self.out = data_dir / "out" / "fused"
        self.scans = list(range(WINDOW, oracle["n_scans"]))
        self.appended = oracle["appended"]

    def op(self, k: int) -> int:
        t = self.scans[k % len(self.scans)]
        argv = ["fuse", "--seq", str(self.seq), "--scan", str(t), "--window", str(WINDOW)]
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main(argv + ["--out", str(self.out)])
        if code != 0:
            raise RuntimeError(f"scanfuse fuse exited {code}: {err.getvalue().strip()}")
        return t

    def check(self, k: int, t: int) -> str | None:
        name = f"{t:06d}"
        scan_in = (self.seq / "velodyne" / f"{name}.bin").read_bytes()
        labels_in = (self.seq / "labels" / f"{name}.label").read_bytes()
        scan_out = self.out.with_suffix(".bin").read_bytes()
        labels_out = self.out.with_suffix(".label").read_bytes()
        origins = self.out.with_suffix(".origins.txt").read_text().split()
        if scan_out[: len(scan_in)] != scan_in or labels_out[: len(labels_in)] != labels_in:
            return f"scan {t}: fused prefix differs from the current scan"
        appended = (len(scan_out) - len(scan_in)) // 16
        if appended != self.appended or len(labels_out) // 4 != len(scan_out) // 16:
            return f"scan {t}: {appended} points appended, oracle {self.appended}"
        if len(origins) != appended:
            return f"scan {t}: {len(origins)} origins for {appended} appended points"
        return None


# ---------------------------------------------------------------------------
# augdb-build: building the copy-paste instance database
# ---------------------------------------------------------------------------

AUGDB_SEQUENCES = 4
AUGDB_SIGNS = 3  # class-81 objects per sequence, stored without instance IDs
AUGDB_OTHERS = 5  # hard objects with instance IDs; the first one moves


def augdb_scene(seed: int, name: str) -> synthetic.SyntheticConfig:
    """8 scans of 100k ground points plus 8 small hard instances of 400 points.

    Objects sit on a 6 m grid, so the sign cylinders (under 1.2 m across)
    are each one cluster for instance generation's 2 m stop distance.
    """
    rng = np.random.default_rng(seed)
    slots = rng.permutation(9)[: AUGDB_SIGNS + AUGDB_OTHERS]
    objects = []
    for j, slot in enumerate(slots):
        center = (
            6.0 * (slot % 3 - 1) + 8.0 + rng.uniform(-0.5, 0.5),
            6.0 * (slot // 3 - 1) + rng.uniform(-0.5, 0.5),
            0.6,
        )
        if j < AUGDB_SIGNS:
            spec = synthetic.ObjectSpec(
                shape="cylinder", class_id=SIGN, center=center, size=(0.3, 1.0),
                n_points=400, instance_id=0,
            )
        else:
            spec = synthetic.ObjectSpec(
                shape="box", class_id=HARD[j % (len(HARD) - 1)], center=center,
                size=(0.8, 0.8, 0.8), n_points=400,
                velocity=_heading_velocity(rng) if j == AUGDB_SIGNS else (0.0, 0.0, 0.0),
            )
        objects.append(spec)
    return synthetic.SyntheticConfig(
        n_scans=8, objects=objects, ground_points=100_000, ground_extent=30.0, name=name
    )


def setup_augdb_build(data_dir: Path, seed: int) -> None:
    oracle = []
    for i, sub in enumerate(_sub_seeds(seed, AUGDB_SEQUENCES)):
        seq = synthetic.make_synthetic_sequence(augdb_scene(sub, f"s{i}"), sub)
        kitti_io.write_sequence(seq.data, data_dir / f"seq{i}")
        oracle.append(
            {"signs": AUGDB_SIGNS, "pairs": len(seq.data) * len(seq.truth.objects)}
        )
    _write_oracle(data_dir, {"sequences": oracle})


class AugdbBuild(Runner):
    """One op: load one sequence, generate class-81 instance IDs in every
    scan, then build its instance database.

    Writing the database is not timed: creating its small files on the
    repository's disk varies threefold from minute to minute, which would
    swamp the rest of the op. The first pass over the sequences saves each
    database in ``persist`` (traced, so the write layers are still counted)
    and checks that it reads back equal; every later op must build a
    database equal to that read-back copy.
    """

    count_ops = AUGDB_SEQUENCES

    def __init__(self, data_dir: Path, seed: int) -> None:
        self.oracle = json.loads((data_dir / ORACLE).read_text())["sequences"]
        self.seqs = [data_dir / f"seq{i}" for i in range(len(self.oracle))]
        self.out = data_dir / "db"
        self.gen = instance_gen.InstanceGenConfig(target_class=SIGN)
        self.config = fusion.FusionConfig(window=WINDOW)
        self.saved: dict[int, fusion.InstanceDatabase] = {}

    def op(self, k: int):
        data = kitti_io.load_sequence_index(self.seqs[k % len(self.seqs)]).load()
        labels = [
            instance_gen.generate_instance_ids(scan, lab, self.gen)
            for scan, lab in zip(data.scans, data.labels)
        ]
        data = dataclasses.replace(data, labels=labels)
        return labels, fusion.build_instance_db(data, self.config)

    def persist(self, k: int, out) -> None:
        if k < self.count_ops:
            out[1].save(self.out)

    def check(self, k: int, out) -> str | None:
        labels, db = out
        i = k % len(self.oracle)
        oracle = self.oracle[i]
        for s, lab in enumerate(labels):
            ids = lab.instance[lab.semantic == SIGN]
            found = len(np.unique(ids))
            if (ids == 0).any() or found != oracle["signs"]:
                return f"scan {s}: {found} sign instances, oracle {oracle['signs']}"
        if len(db) != oracle["pairs"]:
            return f"{len(db)} database pairs, oracle {oracle['pairs']}"
        if k < self.count_ops:
            try:
                self.saved[i] = fusion.InstanceDatabase.load(self.out)
            finally:
                shutil.rmtree(self.out, ignore_errors=True)
        if self.saved.get(i) != db:
            return "database differs from the one saved and read back from disk"
        return None


# ---------------------------------------------------------------------------
# train-distill: the teacher/student training step
# ---------------------------------------------------------------------------

TRAIN_SCAN = WINDOW  # the first scan with a full fusion window
PASTES = 4


def train_scene(seed: int) -> synthetic.SyntheticConfig:
    """8 scans of 20k ground points plus 24 hard boxes of 150 points; every
    fourth box moves at 0.6 m/scan."""
    rng = np.random.default_rng(seed)
    objects = []
    for i in range(24):
        radius = rng.uniform(5.0, 16.0)
        angle = rng.uniform(0.0, 2.0 * np.pi)
        size = tuple(rng.uniform(0.8, 2.5, size=3))
        objects.append(
            synthetic.ObjectSpec(
                shape="box",
                class_id=HARD[i % len(HARD)],
                center=(radius * np.cos(angle), radius * np.sin(angle), size[2] / 2),
                size=size,
                velocity=_heading_velocity(rng) if i % 4 == 0 else (0.0, 0.0, 0.0),
                n_points=150,
            )
        )
    return synthetic.SyntheticConfig(
        n_scans=8, objects=objects, ground_points=20_000, ground_extent=20.0, name="td"
    )


def _fused_and_db(index: kitti_io.SequenceIndex, config: fusion.FusionConfig):
    return fusion.fuse_scan(index, TRAIN_SCAN, config), fusion.build_instance_db(index, config)


def setup_train_distill(data_dir: Path, seed: int) -> None:
    """Writes the sequence and builds the fused scan and instance database.

    The database stays in memory: saving its 768 small files would make the
    set-up time follow this disk's noise (see AugdbBuild). The worker builds
    both again from the written sequence before its timed phase.
    """
    seq = synthetic.make_synthetic_sequence(train_scene(seed), seed)
    index = kitti_io.write_sequence(seq.data, data_dir / "seq")
    _fused_and_db(index, fusion.FusionConfig(window=WINDOW))
    classes = sorted({o.class_id for o in seq.truth.objects} | {40})
    _write_oracle(data_dir, {"n_scans": len(seq.data), "classes": classes})


class TrainDistill(Runner):
    """One op: paste 4 database pairs into the fused scan (seed = step), then
    one teacher/student step. The run ends with an evaluation on the
    held-out scans after the training scan."""

    count_ops = 16  # steps paste different pairs, so any fixed prefix will do

    def __init__(self, data_dir: Path, seed: int) -> None:
        oracle = json.loads((data_dir / ORACLE).read_text())
        index = kitti_io.load_sequence_index(data_dir / "seq")
        config = fusion.FusionConfig(window=WINDOW)
        self.fused, self.db = _fused_and_db(index, config)
        held_out = range(TRAIN_SCAN + 1, oracle["n_scans"])
        self.eval_scans = [index.load_scan(i) for i in held_out]
        self.eval_labels = [index.load_labels(i) for i in held_out]
        classes = oracle["classes"]
        self.state = toynet.TrainState(
            teacher=toynet.ToyNetParams.init(seed, 16, len(classes)),
            student=toynet.ToyNetParams.init(seed + 1, 16, len(classes)),
            step=0,
            learning_rate=1e-2,
            distill=DistillConfig(),
            class_to_index={raw: i for i, raw in enumerate(classes)},
            hard_classes=config.hard_classes,
            rng_seed=seed,
        )
        self.last = None

    def op(self, k: int):
        pasted = fusion.sample_and_paste(self.fused, self.db, PASTES, k)
        labels = pasted.current_labels()
        before = self.state
        self.state, losses = toynet.train_step(before, pasted.current_cloud(), pasted, labels)
        return before, pasted, labels, losses

    def check(self, k: int, out) -> str | None:
        self.last = out
        losses = out[3]
        bad = {name: v for name, v in vars(losses).items() if not math.isfinite(v)}
        return f"step {k}: non-finite loss terms {bad}" if bad else None

    def finish(self) -> float:
        _, mean = toynet.evaluate(
            self.state.student, self.eval_scans, self.eval_labels, self.state.class_to_index
        )
        return mean

    def final_check(self, miou: float) -> str | None:
        if not 0.0 <= miou <= 1.0:
            return f"evaluation mIoU {miou} outside [0, 1]"
        if self.last is None:
            return "no training step completed"
        before, pasted, labels, losses = self.last
        expected = reference.total_loss(before, pasted, labels)
        if abs(losses.total - expected) > reference.REL_TOL * abs(expected):
            return f"last step total loss {losses.total!r}, reference {expected!r}"
        return None


WORKLOADS = {
    "fuse-seq": (setup_fuse_seq, FuseSeq),
    "augdb-build": (setup_augdb_build, AugdbBuild),
    "train-distill": (setup_train_distill, TrainDistill),
}

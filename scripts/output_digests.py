"""SHA-256 digests of everything a fixed run of ``scanfuse`` commands writes.

    python3 scripts/output_digests.py [--src SRC] [--seeds 7 461 1515] [--scans 8]

For each seed, in a new temporary directory, runs ``make-synthetic --seed S
--scans N``, then ``fuse --scan t`` for t = 0..N-1 and ``build-augdb`` on
that sequence, ``loss-check --cases 20 --seed S`` and ``train-toy --seed S
--steps 3 --scans N``, with ``scanfuse`` imported from SRC (default: this
checkout's ``src/``). Prints one ``sha256  name`` line per command's stdout
and one per its stderr, in command order, and three for in-memory runs:
the scene ``make_synthetic_sequence(default_scene(n_scans=N), S)`` (its
float64 points, remission, labels and poses, and its truth bounds and
centroids); ``verify_gradients(20, S)`` as ``name float.hex passed`` lines;
and a paste-and-train run (see ``pipeline_digest``); then one per file written,
sorted by path relative to the directory. Losses and gradient errors are
digested by their full bits, not as the commands print them. A command that
exits nonzero stops the run with exit code 1.

Two trees give the same listing exactly when these commands write the same
bytes and report the same text, so one command compares a change with its
parent:

    diff <(python3 scripts/output_digests.py --src PARENT/src) \\
         <(python3 scripts/output_digests.py)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(main, argv: list[str]) -> dict[str, str]:
    """``scanfuse argv`` in this process; its stdout and stderr, or
    SystemExit if it fails."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"scanfuse {' '.join(argv)} exited {code}: {err.getvalue()}")
    return {"stdout": out.getvalue(), "stderr": err.getvalue()}


def update(digest, arrays) -> None:
    """Feed each array's dtype and bytes to ``digest``."""
    for array in arrays:
        digest.update(array.dtype.str.encode() + array.tobytes())


def scene_digest(scene) -> str:
    """One digest of a ``SyntheticSequence``: every scan's arrays and pose,
    then every object's truth."""
    digest = hashlib.sha256()
    data = scene.data
    for scan, labels, pose in zip(data.scans, data.labels, data.poses):
        arrays = (scan.points, scan.remission, labels.semantic, labels.instance)
        update(digest, arrays + (pose.rotation, pose.translation))
    for obj in scene.truth.objects:
        digest.update(f"{obj.instance_id} {obj.class_id} {obj.start} {obj.stop}".encode())
        digest.update(obj.world_centroids.tobytes())
    return digest.hexdigest()


def pipeline_digest(seq, seed: int) -> str:
    """One digest of an in-memory run on the sequence ``seq``:
    ``build_instance_db`` with window 2, saved to a temporary directory and
    loaded back (each entry's key, ``n_single``, ``single_cloud`` and fused
    rows); ``sample_and_paste(fuse_scan(seq, last scan), db, 3, seed)`` (its
    rows, ``n_current``, ``origin_runs`` and ``current_cloud``/
    ``current_labels``); then 3 ``train_step``s on the pasted scan (each
    ``LossBreakdown`` as ``float.hex``, then both branches' parameters)."""
    from scanfuse import distill, fusion, toynet

    config = fusion.FusionConfig(window=2)
    with tempfile.TemporaryDirectory(prefix="output-digests-db-") as path:
        fusion.build_instance_db(seq, config).save(path)
        db = fusion.InstanceDatabase.load(path)
    digest = hashlib.sha256()
    for entry in db.entries:
        digest.update(f"{entry.key} {entry.n_single}".encode())
        single, cloud, labels = entry.single_cloud, entry.fused_cloud, entry.fused_labels
        update(digest, (single.points, single.remission, cloud.points, cloud.remission))
        update(digest, (labels.semantic, labels.instance))
    pasted = fusion.sample_and_paste(fusion.fuse_scan(seq, len(seq) - 1, config), db, 3, seed)
    current, labels = pasted.current_cloud(), pasted.current_labels()
    digest.update(f"{pasted.n_current}".encode())
    update(digest, (pasted.cloud.points, pasted.cloud.remission, pasted.origin_runs))
    update(digest, (pasted.labels.semantic, pasted.labels.instance))
    update(digest, (current.points, current.remission, labels.semantic, labels.instance))

    classes = sorted(set(pasted.labels.semantic.tolist()))
    state = toynet.TrainState(
        teacher=toynet.ToyNetParams.init(seed, 16, len(classes)),
        student=toynet.ToyNetParams.init(seed + 1, 16, len(classes)),
        step=0,
        learning_rate=1e-2,
        distill=distill.DistillConfig(),
        class_to_index={raw: i for i, raw in enumerate(classes)},
        hard_classes=config.hard_classes,
    )
    for _ in range(3):
        state, losses = toynet.train_step(state, current, pasted, labels)
        digest.update(" ".join(float(v).hex() for v in vars(losses).values()).encode())
    update(digest, state.teacher.arrays() + state.student.arrays())
    return digest.hexdigest()


def digests(seeds: list[int], scans: int) -> list[str]:
    """The listing, for commands run in the current directory."""
    from scanfuse import cli, distill, synthetic

    lines = []
    for seed in seeds:
        seq = f"s{seed}/seq"
        commands = [["make-synthetic", "--seed", str(seed), "--scans", str(scans), "--out", seq]]
        commands += [
            ["fuse", "--seq", seq, "--scan", str(t), "--out", f"s{seed}/fused/{t:06d}"]
            for t in range(scans)
        ]
        commands += [
            ["build-augdb", "--seq", seq, "--out", f"s{seed}/augdb"],
            ["loss-check", "--cases", "20", "--seed", str(seed)],
            ["train-toy", "--seed", str(seed), "--steps", "3", "--scans", str(scans)],
        ]
        for argv in commands:
            for stream, text in run(cli.main, argv).items():
                lines.append(f"{sha256(text.encode())}  {stream} of scanfuse {' '.join(argv)}")
        scene = synthetic.make_synthetic_sequence(synthetic.default_scene(n_scans=scans), seed)
        name = f"default_scene(n_scans={scans}) at seed {seed}"
        lines.append(f"{scene_digest(scene)}  {name}")
        checks = distill.verify_gradients(20, seed)
        text = "".join(f"{loss} {err.hex()} {passed}\n" for loss, err, passed in checks)
        lines.append(f"{sha256(text.encode())}  verify_gradients(20, {seed})")
        lines.append(f"{pipeline_digest(scene.data, seed)}  paste and train on {name}")
    files = sorted(path for path in Path().rglob("*") if path.is_file())
    lines += [f"{sha256(path.read_bytes())}  {path.as_posix()}" for path in files]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="tree to import")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 461, 1515])
    parser.add_argument("--scans", type=int, default=8)
    args = parser.parse_args()
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    import scanfuse

    if not Path(scanfuse.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"scanfuse was imported from {scanfuse.__file__}, not from {src}")

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        os.chdir(work)
        try:
            lines = digests(args.seeds, args.scans)
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

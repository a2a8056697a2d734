"""SHA-256 digests of everything a fixed run of ``scanfuse`` commands writes.

    python3 scripts/output_digests.py [--src SRC] [--seeds 7 461 1515] [--scans 8]

For each seed, in a new temporary directory, runs ``make-synthetic --seed S
--scans N``, then ``fuse --scan t`` for t = 0..N-1 and ``build-augdb`` on
that sequence, ``loss-check --cases 20 --seed S`` and ``train-toy --seed S
--steps 3 --scans N``, with ``scanfuse`` imported from SRC (default: this
checkout's ``src/``). Prints one ``sha256  name`` line per command's stdout
and one per its stderr, in command order, and one for the in-memory scene
``make_synthetic_sequence(default_scene(n_scans=N), S)`` (its float64
points, remission, labels and poses, and its truth bounds and centroids);
then one per file written, sorted by path relative to the directory. A
command that exits nonzero stops the run with exit code 1.

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


def scene_digest(scene) -> str:
    """One digest of a ``SyntheticSequence``: every scan's arrays and pose,
    then every object's truth."""
    digest = hashlib.sha256()
    data = scene.data
    for scan, labels, pose in zip(data.scans, data.labels, data.poses):
        arrays = (scan.points, scan.remission, labels.semantic, labels.instance)
        for array in arrays + (pose.rotation, pose.translation):
            digest.update(array.dtype.str.encode() + array.tobytes())
    for obj in scene.truth.objects:
        digest.update(f"{obj.instance_id} {obj.class_id} {obj.start} {obj.stop}".encode())
        digest.update(obj.world_centroids.tobytes())
    return digest.hexdigest()


def digests(cli, synthetic, seeds: list[int], scans: int) -> list[str]:
    """The listing, for commands run in the current directory."""
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
        lines.append(f"{scene_digest(scene)}  default_scene(n_scans={scans}) at seed {seed}")
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
    from scanfuse import cli, synthetic

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"scanfuse was imported from {cli.__file__}, not from {src}")

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output-digests-") as work:
        os.chdir(work)
        try:
            lines = digests(cli, synthetic, args.seeds, args.scans)
        finally:
            os.chdir(home)
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())

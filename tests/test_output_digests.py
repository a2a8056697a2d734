"""``scripts/output_digests.py``: the listing that compares two trees' outputs."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def listing(*args: str) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "output_digests.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_two_runs_on_one_tree_list_the_same_digests():
    first = listing("--seeds", "3", "--scans", "2")
    assert first == listing("--seeds", "3", "--scans", "2")
    # 8 commands' stdout and stderr; the in-memory scene, its fusion at every
    # scan, gradient check and paste-and-train run; 2 generated label files,
    # 6 sequence files, 3 per fused scan and 3 database files
    assert len(first) == 2 * 8 + 4 + 2 + 6 + 2 * 3 + 3
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in first)
    assert first[0].endswith("  stdout of scanfuse make-synthetic --seed 3 --scans 2 --out s3/seq")
    assert first[-1].endswith("  s3/seq/velodyne/000001.bin")

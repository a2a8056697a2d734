"""Files are read through one read-only mapping and written by atomic replace.

``kitti_io.read_file`` hands each parser a mapping of its file, so a loaded
scan is a view of the page cache; ``kitti_io.write_file`` replaces a file
through a temporary sibling, so rewriting a loaded file leaves the loaded
arrays as they were. Tests whose regression would be a SIGBUS run in a
fresh interpreter, so that such a regression fails one test.
"""

import contextlib
import errno
import io
import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scanfuse import kitti_io
from scanfuse.cli import main
from scanfuse.errors import DbWriteError, MalformedLabel, MalformedScan
from scanfuse.fusion import FusionConfig, InstanceDatabase, build_instance_db, fuse_scan
from scanfuse.geometry import RigidTransform
from scanfuse.kitti_io import (
    SequenceIndex,
    load_sequence_index,
    parse_scan,
    write_file,
    write_labels,
    write_scan,
    write_sequence,
)
from scanfuse.synthetic import default_scene, make_synthetic_sequence

ROOT = Path(__file__).resolve().parent.parent


def run_fresh(code: str, *args) -> subprocess.CompletedProcess:
    """Run ``code`` with ``args`` in a new interpreter that finds the package."""
    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )


def written_sequence(directory: Path, seed: int = 2, points_per_object: int = 60):
    data = make_synthetic_sequence(default_scene(points_per_object=points_per_object), seed).data
    write_sequence(data, directory)
    return data


def on_disk(data) -> list:
    """``data``'s scans as they read back from disk (float32)."""
    return [parse_scan(write_scan(scan)) for scan in data.scans]


# --- edge inputs through the mapped reader --------------------------------

NAN_RECORD = struct.pack("<4f", 1.0, float("nan"), 0.0, 0.5)


def expected_error(suffix: str, data: bytes):
    """The error class and message a ``suffix`` file of ``data`` raises, or None."""
    if suffix == ".bin":
        if len(data) % kitti_io.SCAN_RECORD_BYTES:
            return MalformedScan, "is not a multiple of 16"
        if not np.isfinite(np.frombuffer(data, "<f4")).all():
            return MalformedScan, "non-finite"
        return None
    if len(data) % kitti_io.LABEL_RECORD_BYTES:
        return MalformedLabel, "is not a multiple of 4"
    return None


def load_one(path: Path, suffix: str) -> bytes:
    """The file read as one scan (``load_scan``) or labels (``load_labels``),
    serialized back."""
    identity = RigidTransform.identity()
    labels = path if suffix == ".label" else None
    index = SequenceIndex([path.with_suffix(".bin")], [labels], [identity], identity)
    if suffix == ".bin":
        return write_scan(index.load_scan(0))
    return write_labels(index.load_labels(0))


def load_database(path: Path, suffix: str) -> bytes:
    """The file read as a database's ``entries.bin`` or ``entries.label``, the
    other file and the manifest matching its record count; the one entry's
    rows serialized back."""
    directory = path.parent
    records = len(path.read_bytes()) // (16 if suffix == ".bin" else 4)
    other = "entries.label" if suffix == ".bin" else "entries.bin"
    write_file(directory / other, bytes((4 if suffix == ".bin" else 16) * records))
    write_file(directory / "manifest.txt", f"s 0 1 18 1 {records}\n".encode() if records else b"")
    db = InstanceDatabase.load(directory)
    assert len(db) == (1 if records else 0)
    if not records:
        return b""
    (entry,) = db.entries
    return write_scan(entry.fused_cloud) if suffix == ".bin" else write_labels(entry.fused_labels)


@pytest.mark.parametrize("reader", ["load", "database", "inspect"])
@settings(max_examples=100, deadline=None)
@given(suffix=st.sampled_from([".bin", ".label"]), data=st.binary(max_size=64))
@example(suffix=".bin", data=b"")
@example(suffix=".label", data=b"")
@example(suffix=".bin", data=bytes(17))
@example(suffix=".label", data=bytes(3))
@example(suffix=".bin", data=NAN_RECORD)
@example(suffix=".bin", data=bytes(16) + struct.pack("<4f", 0.0, 0.0, float("inf"), 0.0))
def test_any_short_file_loads_or_is_a_data_error_naming_it(
    tmp_path_factory, reader, suffix, data
):
    directory = tmp_path_factory.mktemp("edge")
    path = directory / (("entries" if reader == "database" else "000000") + suffix)
    write_file(path, data)
    error = expected_error(suffix, data)
    if reader == "inspect":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["inspect", str(path)])
        if error is None:
            noun = "points" if suffix == ".bin" else "labels"
            records = len(data) // (16 if suffix == ".bin" else 4)
            assert code == 0 and out.getvalue().startswith(f"{path}: {records} {noun}\n")
        else:
            assert code == 2
            assert f"{path}: " in err.getvalue() and error[1] in err.getvalue()
        return
    read = load_one if reader == "load" else load_database
    if error is None:
        assert read(path, suffix) == data
    else:
        with pytest.raises(error[0], match=f"{re.escape(str(path))}: .*{error[1]}"):
            read(path, suffix)


def fed_fifo(path: Path, data: bytes) -> threading.Thread:
    """A FIFO at ``path`` that a thread feeds ``data`` once a reader opens it."""
    os.mkfifo(path)

    def feed():
        with open(path, "wb") as fifo:
            fifo.write(data)

    thread = threading.Thread(target=feed, daemon=True)
    thread.start()
    return thread


def test_a_config_given_as_a_pipe_is_read_whole(tmp_path):
    data = written_sequence(tmp_path / "seq")
    feeder = fed_fifo(tmp_path / "fusion.cfg", b"window = 1\n")
    argv = ["fuse", "--seq", str(tmp_path / "seq"), "--scan", "4"]
    argv += ["--config", str(tmp_path / "fusion.cfg"), "--out", str(tmp_path / "fused")]
    with contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    feeder.join(timeout=10)
    expected = fuse_scan(data, 4, FusionConfig(window=1))
    origins = (tmp_path / "fused.origins.txt").read_text().split()
    assert len(origins) == expected.n_appended > 0
    assert set(origins) == {"-1"}


def test_a_scan_given_as_a_pipe_is_read_whole(tmp_path):
    data = written_sequence(tmp_path / "seq")
    scan = write_scan(data.scans[0])
    feeder = fed_fifo(tmp_path / "000000.bin", scan)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["inspect", str(tmp_path / "000000.bin")]) == 0
    feeder.join(timeout=10)
    records = len(scan) // kitti_io.SCAN_RECORD_BYTES
    assert out.getvalue().startswith(f"{tmp_path / '000000.bin'}: {records} points\n")


def test_a_loaded_scan_takes_no_heap_copy_of_its_file(tmp_path):
    data = written_sequence(tmp_path / "seq", points_per_object=5000)
    index = load_sequence_index(tmp_path / "seq")
    index.load_scan(0)  # warm up, so one-time allocations are not counted
    n = len(data.scans[0])
    tracemalloc.start()
    try:
        cloud = index.load_scan(0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert cloud == on_disk(data)[0]
    # the non-finite check's mask takes 4 bytes per point; a copy of the
    # file would take 16
    assert peak <= 5 * n


# --- descriptors ----------------------------------------------------------

has_fd_dir = pytest.mark.skipif(
    not Path("/proc/self/fd").is_dir(), reason="counts entries of /proc/self/fd"
)


def open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@has_fd_dir
def test_a_loaded_sequence_holds_one_descriptor_per_scan(tmp_path):
    written_sequence(tmp_path / "seq")
    baseline = open_descriptors()
    data = load_sequence_index(tmp_path / "seq").load()
    # labels, poses and calib are copies: their mappings died with the read
    assert all(labels is not None for labels in data.labels)
    assert open_descriptors() == baseline + len(data)
    del data
    assert open_descriptors() == baseline


@has_fd_dir
def test_a_loaded_database_holds_one_descriptor(tmp_path):
    data = written_sequence(tmp_path / "seq")
    build_instance_db(data, FusionConfig()).save(tmp_path / "augdb")
    baseline = open_descriptors()
    db = InstanceDatabase.load(tmp_path / "augdb")
    assert len(db) > 0
    assert open_descriptors() == baseline + 1
    del db
    assert open_descriptors() == baseline


@has_fd_dir
@pytest.mark.parametrize("loaded", [False, True], ids=["index", "loaded"])
def test_fusion_results_hold_no_mapping_of_their_inputs(tmp_path, loaded):
    written_sequence(tmp_path / "seq")
    baseline = open_descriptors()
    seq = load_sequence_index(tmp_path / "seq")
    if loaded:
        seq = seq.load()
    config = FusionConfig()
    fused = fuse_scan(seq, 4, config)
    db = build_instance_db(seq, config)
    del seq
    assert fused.n_appended > 0 and len(db) > 0
    assert open_descriptors() == baseline


FEW_DESCRIPTORS = """
import resource, sys
from scanfuse.cli import main

limit, seq, out = int(sys.argv[1]), sys.argv[2], sys.argv[3]
resource.setrlimit(resource.RLIMIT_NOFILE, (limit, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
last = str(int(sys.argv[4]) - 1)
assert main(["fuse", "--seq", seq, "--scan", last, "--out", f"{out}/fused"]) == 0
assert main(["build-augdb", "--seq", seq, "--out", f"{out}/augdb"]) == 0
"""


def test_fusing_a_sequence_of_more_scans_than_the_descriptor_limit(tmp_path):
    limit = 32
    n = limit + 8
    data = make_synthetic_sequence(default_scene(n_scans=n, points_per_object=20), 4).data
    write_sequence(data, tmp_path / "seq")
    index = load_sequence_index(tmp_path / "seq")
    done = run_fresh(FEW_DESCRIPTORS, limit, tmp_path / "seq", tmp_path, n)
    assert done.returncode == 0, done.stderr
    config = FusionConfig()
    fused = fuse_scan(index, n - 1, config)
    assert (tmp_path / "fused.bin").read_bytes() == write_scan(fused.cloud)
    assert InstanceDatabase.load(tmp_path / "augdb") == build_instance_db(index, config)


# --- rewriting what is loaded ---------------------------------------------

REWRITE_LOADED_SEQUENCE = """
import sys
from scanfuse.kitti_io import load_sequence_index, write_sequence
from scanfuse.synthetic import default_scene, make_synthetic_sequence

out = sys.argv[1]
loaded = load_sequence_index(out).load()
before = [scan.points.tobytes() + scan.remission.tobytes() for scan in loaded.scans]
write_sequence(make_synthetic_sequence(default_scene(points_per_object=20), 3).data, out)
after = [scan.points.tobytes() + scan.remission.tobytes() for scan in loaded.scans]
assert after == before, "a loaded scan changed when its file was rewritten"
"""


def test_writing_a_sequence_over_a_loaded_one_leaves_the_loaded_scans_as_they_were(
    tmp_path,
):
    seq_dir = tmp_path / "seq"
    written_sequence(seq_dir)
    done = run_fresh(REWRITE_LOADED_SEQUENCE, seq_dir)
    assert done.returncode == 0, done.stderr
    shorter = make_synthetic_sequence(default_scene(points_per_object=20), 3).data
    assert load_sequence_index(seq_dir).load().scans == on_disk(shorter)


RESAVE_LOADED_DATABASE = """
import sys
from scanfuse.fusion import InstanceDatabase

loaded = InstanceDatabase.load(sys.argv[1])
loaded.save(sys.argv[1])
assert InstanceDatabase.load(sys.argv[1]) == loaded
"""


def test_a_loaded_database_saved_over_itself_reloads_equal(tmp_path):
    db = build_instance_db(written_sequence(tmp_path / "seq"), FusionConfig())
    db.save(tmp_path / "augdb")
    done = run_fresh(RESAVE_LOADED_DATABASE, tmp_path / "augdb")
    assert done.returncode == 0, done.stderr
    assert InstanceDatabase.load(tmp_path / "augdb") == db


GEN_INSTANCES_IN_PLACE = """
import sys
from scanfuse.cli import main

seq = sys.argv[1]
argv = ["gen-instances", f"{seq}/velodyne/000001.bin", f"{seq}/labels/000001.label"]
argv += ["--class", "81"]
assert main(argv + ["--out", f"{seq}/copy.label"]) == 0
assert main(argv + ["--out", f"{seq}/labels/000001.label"]) == 0
"""


def test_gen_instances_may_write_over_its_input_labels(tmp_path):
    seq_dir = tmp_path / "seq"
    written_sequence(seq_dir)
    original = (seq_dir / "labels" / "000001.label").read_bytes()
    done = run_fresh(GEN_INSTANCES_IN_PLACE, seq_dir)
    assert done.returncode == 0, done.stderr
    rewritten = (seq_dir / "labels" / "000001.label").read_bytes()
    assert rewritten == (seq_dir / "copy.label").read_bytes() != original


CRASH_MID_WRITE = """
import io, os, sys
from scanfuse import kitti_io
from scanfuse.synthetic import default_scene, make_synthetic_sequence

class Crash(io.FileIO):
    def write(self, data):
        super().write(data[: len(data) // 2])
        os._exit(3)

kitti_io.open = Crash
data = make_synthetic_sequence(default_scene(points_per_object=20), 3).data
kitti_io.write_sequence(data, sys.argv[1])
"""


def test_a_crash_mid_write_leaves_the_old_file_and_a_temporary_no_loader_reads(tmp_path):
    seq_dir = tmp_path / "seq"
    data = written_sequence(seq_dir)
    done = run_fresh(CRASH_MID_WRITE, seq_dir)
    assert done.returncode == 3, done.stderr
    (leftover,) = (p.name for p in (seq_dir / "velodyne").iterdir() if p.suffix != ".bin")
    assert re.fullmatch(r"\.000000\.bin\.\d+\.tmp", leftover)
    reloaded = load_sequence_index(seq_dir).load()
    assert reloaded.scans == on_disk(data)
    assert reloaded.labels == list(data.labels)


class FullDisk(io.FileIO):
    """A file whose every write fails as on a full disk."""

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_failed_write_keeps_the_old_file_and_leaves_no_temporary(tmp_path, monkeypatch):
    path = tmp_path / "000000.bin"
    write_file(path, b"old")
    monkeypatch.setattr(kitti_io, "open", FullDisk, raising=False)
    with pytest.raises(OSError, match="No space left on device"):
        write_file(path, [b"new", b"er"])
    monkeypatch.undo()
    assert path.read_bytes() == b"old"
    assert os.listdir(tmp_path) == [path.name]


def test_a_failed_database_save_is_a_db_write_error_keeping_the_old_files(
    tmp_path, monkeypatch
):
    db = build_instance_db(written_sequence(tmp_path / "seq"), FusionConfig())
    db.save(tmp_path / "augdb")
    monkeypatch.setattr(kitti_io, "open", FullDisk, raising=False)
    with pytest.raises(DbWriteError, match="No space left on device"):
        InstanceDatabase(db.entries[:1]).save(tmp_path / "augdb")
    monkeypatch.undo()
    names = sorted(os.listdir(tmp_path / "augdb"))
    assert names == ["entries.bin", "entries.label", "manifest.txt"]
    assert InstanceDatabase.load(tmp_path / "augdb") == db


# --- read-only contract ---------------------------------------------------


def test_loaded_scans_and_database_entries_are_read_only_and_copy_to_writable(tmp_path):
    data = written_sequence(tmp_path / "seq")
    build_instance_db(data, FusionConfig()).save(tmp_path / "augdb")
    scan = load_sequence_index(tmp_path / "seq").load_scan(0)
    db = InstanceDatabase.load(tmp_path / "augdb")
    clouds = [scan, db.entries[0].single_cloud, *(entry.fused_cloud for entry in db.entries)]
    for cloud in clouds:
        for array in (cloud.points, cloud.remission):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
            with pytest.raises(ValueError):
                array.flags.writeable = True
        copy = cloud.copy()
        copy.points[0] = 7.0
        copy.remission[0] = 0.25
        assert copy.points.flags.writeable and copy.remission.flags.writeable
        assert not (cloud.points[0] == 7.0).all()

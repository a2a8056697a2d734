"""Tests of the benchmark itself: repeatable counts, self time, metric names.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COUNT_UNITS = {"count", "bytes", "ratio"}


def _traced_counts(workload: str, data_dir: Path, seed: int) -> dict[str, float]:
    tracer = tracing.Tracer()
    result = worker.measure(workload, data_dir, seed, 0.0, tracer, min_ops=0)
    assert result["correct"], result["errors"]
    assert not tracer.missing
    metrics = worker.per_layer(tracer, result)
    return {k: m["value"] for k, m in metrics.items() if m["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", run.NAMES)
def test_count_metrics_repeat_exactly_for_a_seed(workload, tmp_path):
    WORKLOADS[workload][0](tmp_path, 3)
    first = _traced_counts(workload, tmp_path, 3)
    second = _traced_counts(workload, tmp_path, 3)
    assert first == second
    assert any(first.values())


def test_fuse_seq_parses_the_whole_sequence_per_op(tmp_path):
    WORKLOADS["fuse-seq"][0](tmp_path, 5)
    counts = _traced_counts("fuse-seq", tmp_path, 5)
    assert counts["kitti_io.scans_parsed_per_op"] == 16
    assert counts["fusion.moving_ratio"] == 0.5


def test_uninstall_restores_every_binding():
    import scanfuse.fusion
    import scanfuse.kitti_io

    original = scanfuse.kitti_io.parse_scan
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    assert scanfuse.fusion.parse_scan is not original
    assert scanfuse.kitti_io.parse_scan is scanfuse.fusion.parse_scan
    tracer.uninstall()
    assert scanfuse.fusion.parse_scan is original
    assert scanfuse.kitti_io.parse_scan is original


def test_self_time_subtracts_the_union_of_child_spans():
    tracer = tracing.Tracer()
    # parent [0, 10] with children [1, 3], [2, 5] (overlapping) and [6, 8];
    # grandchild [6.5, 7] must not count against the parent.
    tracer.names = ["p", "a", "b", "c", "g"]
    tracer.starts = [0.0, 1.0, 2.0, 6.0, 6.5]
    tracer.ends = [10.0, 3.0, 5.0, 8.0, 7.0]
    tracer.parents = [-1, 0, 0, 0, 3]
    tracer.ops = [0] * 5
    assert tracer.self_times() == pytest.approx([4.0, 2.0, 3.0, 1.5, 0.5])


def test_calibrator_scales_by_the_mean_of_the_kernels_around_each_interval():
    kernel_times = iter([0.002, 0.006, 0.004, 0.004])
    calibrator = hostspeed.Calibrator(kernel=lambda: next(kernel_times))
    # host at half the nominal speed, then exactly nominal
    assert calibrator.scale(0.2) == pytest.approx(0.2 * hostspeed.NOMINAL_S / 0.004)
    assert calibrator.scale(0.3) == pytest.approx(0.3 * hostspeed.NOMINAL_S / 0.005)
    assert calibrator.scale(0.1) == pytest.approx(0.1 * hostspeed.NOMINAL_S / 0.004)
    assert calibrator.kernel_ms() == pytest.approx(4.0)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == run.NAMES == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = {name: unit for name, (unit, _) in tracing.PER_LAYER.items()}
    per_layer["trace.ops_per_s"] = "1/s"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert spec["paths"] == [BENCH.name]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    argv = spec["command"] + ["--workload", "fuse-seq", "--seed", "1", "--seconds", "1"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

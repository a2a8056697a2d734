"""Timed phase of one benchmark run, in a process of its own.

``run.py`` generates the inputs, then starts this script, so the peak
resident memory read here covers the timed phase and not the set-up.

    python3 perfbench/worker.py WORKLOAD DATA_DIR SEED SECONDS TRACE TRACE_OUT

Prints one JSON object as its last line of standard output.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_OPS = 100  # so that op_ms_p90 has at least 10 samples beyond it
LOOP_WALL_LIMIT_S = 120.0  # keeps a run well inside its 180 s budget


def _peak_rss_mb() -> float:
    """This process's resident-set high-water mark.

    ``VmHWM`` belongs to the address space created at exec, unlike
    ``ru_maxrss``, which Linux carries over from the parent that forked us and
    would report the set-up's memory.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(
    workload: str,
    data_dir: Path,
    seed: int,
    seconds: float,
    tracer: tracing.Tracer | None = None,
    min_ops: int = MIN_OPS,
) -> dict:
    """Run ops back to back (one closed-loop client) until ``seconds`` of op
    time and ``min_ops`` ops have accumulated, checking each op's outputs
    outside the timed region.

    Times are reported in reference seconds (``hostspeed``); the wall-clock
    figures are returned under ``wall``.
    """
    runner = WORKLOADS[workload][1](data_dir, seed)
    min_ops = max(min_ops, runner.count_ops)
    latencies: list[float] = []
    walls: list[float] = []
    timed = 0.0
    errors: list[str] = []
    if tracer is not None:
        tracer.install(tracing.TARGETS)
    clock = time.perf_counter
    calibrator = hostspeed.Calibrator()
    wall_start = clock()
    try:
        while (timed < seconds or len(latencies) < min_ops) and (
            clock() - wall_start < LOOP_WALL_LIMIT_S
        ):
            k = len(latencies)
            if tracer is not None:
                tracer.current_op = k
            start = clock()
            try:
                out = runner.op(k)
                error = None
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            walls.append(clock() - start)
            latencies.append(calibrator.scale(walls[-1]))
            timed += walls[-1]
            if error is None:
                try:
                    runner.persist(k, out)
                except Exception:
                    error = traceback.format_exc(limit=4)
            if tracer is not None:
                tracer.current_op = tracing.OUTSIDE_OPS
            if error is None:
                try:
                    error = runner.check(k, out)
                except Exception:
                    error = traceback.format_exc(limit=4)
            if error is not None:
                errors.append(f"op {k}: {error}")
        if tracer is not None:
            tracer.current_op = len(latencies)  # the closing work, amortized
        start = clock()
        try:
            closing, final_error = runner.finish(), None
        except Exception:
            closing, final_error = None, traceback.format_exc(limit=4)
        finish_wall_s = clock() - start
        finish_s = calibrator.scale(finish_wall_s)
        peak_rss_mb = _peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.current_op = tracing.OUTSIDE_OPS
            tracer.uninstall()
    if final_error is None:
        final_error = runner.final_check(closing)
    n = len(latencies)
    return {
        "attempted": n,
        "failed": len(errors),
        "correct": not errors and final_error is None,
        "errors": errors[:5] + ([f"final: {final_error}"] if final_error else []),
        "ops_per_s": n / (sum(latencies) + finish_s),
        "op_ms_p50": 1000.0 * statistics.median(latencies),
        "op_ms_p90": 1000.0 * _percentile(latencies, 90),
        "peak_rss_mb": peak_rss_mb,
        "kernel_ms": calibrator.kernel_ms(),
        "wall": {
            "ops_per_s": n / (timed + finish_wall_s),
            "op_ms_p50": 1000.0 * statistics.median(walls),
            "op_ms_p90": 1000.0 * _percentile(walls, 90),
        },
        "count_ops": runner.count_ops,
    }


def per_layer(tracer: tracing.Tracer, result: dict) -> dict:
    summary = tracing.Summary(tracer, result["attempted"], result["count_ops"])
    metrics = {
        name: {"value": fn(summary), "unit": unit}
        for name, (unit, fn) in tracing.PER_LAYER.items()
    }
    metrics["trace.ops_per_s"] = {"value": result["ops_per_s"], "unit": "1/s"}
    return metrics


def main(argv: list[str]) -> int:
    workload, data_dir, seed, seconds, trace, trace_out = argv
    tracer = tracing.Tracer() if trace == "1" else None
    result = measure(workload, Path(data_dir), int(seed), float(seconds), tracer)
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, result)
        result["spans"] = len(tracer.names)
        result["untraced_targets"] = tracer.missing
        tracer.write(Path(trace_out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

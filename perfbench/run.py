"""scanfuse benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload fuse-seq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

Run from the repository root. The run generates the workload's inputs from
the seed (several times, reporting the median as ``setup_s``), then runs the
timed phase in a separate worker process and checks every op's outputs.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. Every reported time is in reference seconds: wall
time scaled by the speed of the shared host at that moment, measured with a
fixed kernel run around each timed interval (see ``hostspeed.py``); the
wall-clock figures are printed alongside. ``--workload all`` runs every
workload, prints each metric by name and unit, and with ``--trace 1`` also
the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs and outputs
live under ``.bench_data/`` in the repository root and are removed after the
run; the traced run's spans are kept in ``.bench_data/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = ROOT / ".bench_data"

NAMES = ["fuse-seq", "augdb-build", "train-distill"]
SETUP_REPS = 9
RUN_TIMEOUT_S = 165.0
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> int:
    print(f"perfbench: error: {message}", file=sys.stderr)
    return 2


def _mount_fstype(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    try:
        lines = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return fstype
    target = str(path.resolve())
    for line in lines:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = target == mount or target.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get("OMP_NUM_THREADS")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads or f"default ({os.cpu_count()})",
        "data_dir_fs": _mount_fstype(DATA),
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, run the timed phase in a worker, and return its result."""
    from workloads import WORKLOADS

    setup = WORKLOADS[workload][0]
    data_dir = DATA / f"run-{os.getpid()}-{workload}"
    trace_out = DATA / "traces" / f"{workload}-seed{seed}.csv"
    deadline = time.monotonic() + RUN_TIMEOUT_S
    try:
        setup_times, setup_walls = [], []
        calibrator = hostspeed.Calibrator()
        for _ in range(SETUP_REPS):
            shutil.rmtree(data_dir, ignore_errors=True)
            data_dir.mkdir(parents=True)
            start = time.perf_counter()
            setup(data_dir, seed)
            setup_walls.append(time.perf_counter() - start)
            setup_times.append(calibrator.scale(setup_walls[-1]))
        argv = [workload, str(data_dir), str(seed), str(seconds), str(int(trace)), str(trace_out)]
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(data_dir, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{workload} worker exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = statistics.median(setup_times)
    result["wall"]["setup_s"] = statistics.median(setup_walls)
    if trace:
        result["metrics"] = result.pop("per_layer")
    else:
        result["metrics"] = {
            name: {"value": result[name], "unit": unit} for name, unit in END_TO_END.items()
        }
    return result


def _report(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:14s} {name:44s} {m['value']:>14.6g} {m['unit']}")
    wall = ", ".join(f"{name} {value:.4g}" for name, value in result["wall"].items())
    print(
        f"{workload:14s} {'host kernel':44s} {result['kernel_ms']:>14.6g} ms "
        f"(nominal {1000 * hostspeed.NOMINAL_S:g} ms; wall clock: {wall})"
    )
    rate = result["failed"] / result["attempted"]
    print(
        f"{workload:14s} {'error_rate':44s} {rate:>14.6g} "
        f"({result['failed']} of {result['attempted']} ops; sample count {result['attempted']})"
    )
    for error in result["errors"]:
        print(f"{workload:14s} error: {error}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scanfuse" / "__init__.py").is_file():
        return _fail(f"no scanfuse sources under {SRC}; run from a repository checkout")
    sys.path.insert(0, str(SRC))

    env = environment()
    print("env " + json.dumps(env))
    workloads = NAMES if args.workload == "all" else [args.workload]
    combined: dict = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        modes = [False, True] if args.workload == "all" and args.trace else [bool(args.trace)]
        try:
            runs = [run_one(workload, args.seed, args.seconds, mode) for mode in modes]
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            return _fail(str(exc))
        for result in runs:
            _report(workload, result)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            prefix = f"{workload}." if args.workload == "all" else ""
            for name, m in result["metrics"].items():
                combined["metrics"][prefix + name] = m
        if len(runs) == 2:
            untraced, traced = (r["ops_per_s"] for r in runs)
            print(
                f"{workload:14s} {'tracing overhead':44s} {untraced / traced - 1.0:>14.2%} "
                f"(ops_per_s {untraced:.4g} untraced, {traced:.4g} traced)"
            )
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Span tracing for the benchmark's traced run.

The tracer wraps public functions of ``scanfuse`` at every name a caller looks
them up by: ``from .kitti_io import parse_scan`` binds ``scanfuse.fusion.parse_scan``,
so the original function object is replaced in every ``scanfuse`` module
namespace that holds it. Nothing under ``src/`` is edited; ``uninstall``
restores every binding.

Spans (name, start, end, parent, op id) are kept in parallel lists and
written out only when the run ends. A span's self time is its duration minus
the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

PACKAGE = "scanfuse"
OUTSIDE_OPS = -1


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """In-memory span recorder plus per-op counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.counts: dict[int, dict[str, float]] = {}
        self.current_op = OUTSIDE_OPS
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: float = 1) -> None:
        bucket = self.counts.setdefault(self.current_op, {})
        bucket[key] = bucket.get(key, 0) + value

    def wrap(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        names, starts, ends = self.names, self.starts, self.ends
        parents, ops, stack = self.parents, self.ops, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            ends.append(math.nan)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception:
                ends[i] = clock()
                stack.pop()
                tracer.add(name + ".raised")
                raise
            ends[i] = clock()
            stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self, targets: list["Target"]) -> None:
        """Replace each target at every ``scanfuse`` name bound to it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for target in targets:
            owner = importlib.import_module(f"{PACKAGE}.{target.module}")
            *path, attr = target.attr.split(".")
            try:
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing.append(target.name)
                continue
            wrapper = self.wrap(target.name, original, target.hook)
            if path:  # a method: the class object is shared by every caller
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, key: str, wrapper: Callable) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Duration minus the union of direct-child intervals, per span.

        Spans are stored in start order, so each parent's children arrive
        sorted by start and their union is merged in one pass.
        """
        starts, ends, parents = self.starts, self.ends, self.parents
        covered = [0.0] * len(starts)
        reach: dict[int, float] = {}
        for i, p in enumerate(parents):
            if p < 0:
                continue
            lo = max(starts[i], reach.get(p, starts[p]))
            hi = min(ends[i], ends[p])
            if hi > lo:
                covered[p] += hi - lo
            reach[p] = max(reach.get(p, starts[p]), ends[i])
        return [e - s - c for s, e, c in zip(starts, ends, covered)]

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("span,name,start_s,end_s,parent,op\n")
            t0 = self.starts[0] if self.starts else 0.0
            for i, (n, s, e, p, o) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents, self.ops)
            ):
                out.write(f"{i},{n},{s - t0:.9f},{e - t0:.9f},{p},{o}\n")


@dataclass(frozen=True)
class Target:
    module: str  # module under scanfuse that defines the function
    attr: str  # function name, or Class.method
    name: str  # span name
    hook: Callable | None = None


# -- counters recorded at layer boundaries ------------------------------------


def _bytes_read(tr: Tracer, args, kwargs, result) -> None:
    tr.add("kitti_io.bytes_read", len(_arg(args, kwargs, 0, "data")))


def _bytes_written(tr: Tracer, args, kwargs, result) -> None:
    tr.add("kitti_io.files_written")
    tr.add("kitti_io.bytes_written", len(result))


def _icp(tr: Tracer, args, kwargs, result) -> None:
    tr.add("registration.icp_register.iterations", result.iterations_used)
    tr.add("registration.icp_register.converged", int(bool(result.converged)))


def _motion(tr: Tracer, args, kwargs, result) -> None:
    tr.add("fusion.moving", int(result.value == "moving"))


def _fused(tr: Tracer, args, kwargs, result) -> None:
    tr.add("fusion.points_appended", len(result.cloud) - result.n_current)


def _db(tr: Tracer, args, kwargs, result) -> None:
    tr.add("fusion.db_pairs", len(result))
    tr.add(
        "fusion.points_appended",
        sum(len(e.fused_cloud) - len(e.single_cloud) for e in result.entries),
    )


def _keypoints(tr: Tracer, args, kwargs, result) -> None:
    tr.add("instance_gen.keypoints", len(result))


def _affinity(tr: Tracer, args, kwargs, result) -> None:
    sizes = (len(i) for i in _arg(args, kwargs, 2, "instances"))
    tr.add("distill.iaad.affinity_entries", sum(n * n for n in sizes if n >= 2))


def _step_points(tr: Tracer, args, kwargs, result) -> None:
    current = _arg(args, kwargs, 1, "current_scan")
    fused = _arg(args, kwargs, 2, "fused_scan")
    tr.add("toynet.points_per_step", len(current) + len(fused.cloud))


TARGETS = [
    Target("kitti_io", "parse_scan", "kitti_io.parse_scan", _bytes_read),
    Target("kitti_io", "parse_labels", "kitti_io.parse_labels", _bytes_read),
    Target("kitti_io", "write_scan", "kitti_io.write_scan", _bytes_written),
    Target("kitti_io", "write_labels", "kitti_io.write_labels", _bytes_written),
    Target("geometry", "apply_points", "geometry.apply_points"),
    Target("registration", "icp_register", "registration.icp_register", _icp),
    Target("fusion", "gather_instance_track", "fusion.gather_instance_track"),
    Target("fusion", "classify_motion", "fusion.classify_motion", _motion),
    Target("fusion", "fuse_scan", "fusion.fuse_scan", _fused),
    Target("fusion", "build_instance_db", "fusion.build_instance_db", _db),
    Target("fusion", "InstanceDatabase.save", "fusion.InstanceDatabase.save"),
    Target("fusion", "sample_and_paste", "fusion.sample_and_paste"),
    Target("instance_gen", "generate_instance_ids", "instance_gen.generate_instance_ids"),
    Target(
        "instance_gen", "farthest_point_sample", "instance_gen.farthest_point_sample", _keypoints
    ),
    Target("instance_gen", "cluster_by_keypoints", "instance_gen.cluster_by_keypoints"),
    Target("distill", "iaad_loss", "distill.iaad_loss", _affinity),
    Target("distill", "feature_distill_loss", "distill.feature_distill_loss"),
    Target("distill", "soft_logits_kl_loss", "distill.soft_logits_kl_loss"),
    Target("toynet", "forward", "toynet.forward"),
    Target("toynet", "cross_entropy", "toynet.cross_entropy"),
    Target("toynet", "remap_semantic", "toynet.remap_semantic"),
    Target("toynet", "distill_rows", "toynet.distill_rows"),
    Target("toynet", "compute_gradients", "toynet.compute_gradients"),
    Target("toynet", "train_step", "toynet.train_step", _step_points),
    Target("toynet", "evaluate", "toynet.evaluate"),
    Target("metrics", "accumulate_confusion", "metrics.accumulate_confusion"),
]


# -- per-layer metrics --------------------------------------------------------


class Summary:
    """Per-op views of one traced run.

    Times are seconds per op: the run's total over every span of that name,
    divided by the number of ops (work outside ops, such as the final
    evaluation, is amortized over them). Counts are per op over the first
    ``count_ops`` ops only, a prefix of the op sequence that every run with
    the same seed executes identically, so they repeat exactly.
    """

    def __init__(self, tracer: Tracer, n_ops: int, count_ops: int) -> None:
        self.n_ops = n_ops
        self.count_ops = count_ops
        self_times = tracer.self_times()
        self._total: dict[str, float] = {}
        self._self: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        for name, s, e, own, op in zip(
            tracer.names, tracer.starts, tracer.ends, self_times, tracer.ops
        ):
            self._total[name] = self._total.get(name, 0.0) + (e - s)
            self._self[name] = self._self.get(name, 0.0) + own
            if 0 <= op < count_ops:
                self._calls[name] = self._calls.get(name, 0) + 1
        self._counts: dict[str, float] = {}
        for op, bucket in tracer.counts.items():
            if 0 <= op < count_ops:
                for key, value in bucket.items():
                    self._counts[key] = self._counts.get(key, 0) + value

    def s(self, name: str) -> float:
        return self._total.get(name, 0.0) / self.n_ops

    def self_s(self, name: str) -> float:
        return self._self.get(name, 0.0) / self.n_ops

    def calls(self, name: str) -> float:
        return self._calls.get(name, 0) / self.count_ops

    def count(self, key: str) -> float:
        return self._counts.get(key, 0) / self.count_ops

    def ratio(self, key: str, base: str) -> float:
        calls = self._calls.get(base, 0)
        return self._counts.get(key, 0) / calls if calls else 0.0


# name -> (unit, value from a Summary). The list mirrors ``per_layer`` in
# BENCHMARK.json; ``trace.ops_per_s`` is added by the worker.
PER_LAYER: dict[str, tuple[str, Callable[[Summary], float]]] = {
    "kitti_io.parse_scan.calls": ("count", lambda m: m.calls("kitti_io.parse_scan")),
    "kitti_io.parse_scan.s": ("s", lambda m: m.s("kitti_io.parse_scan")),
    "kitti_io.parse_labels.s": ("s", lambda m: m.s("kitti_io.parse_labels")),
    "kitti_io.bytes_read": ("bytes", lambda m: m.count("kitti_io.bytes_read")),
    "kitti_io.scans_parsed_per_op": ("count", lambda m: m.calls("kitti_io.parse_scan")),
    "kitti_io.write_scan.s": ("s", lambda m: m.s("kitti_io.write_scan")),
    "kitti_io.write_labels.s": ("s", lambda m: m.s("kitti_io.write_labels")),
    "kitti_io.files_written": ("count", lambda m: m.count("kitti_io.files_written")),
    "kitti_io.bytes_written": ("bytes", lambda m: m.count("kitti_io.bytes_written")),
    "registration.icp_register.calls": (
        "count",
        lambda m: m.calls("registration.icp_register"),
    ),
    "registration.icp_register.s": ("s", lambda m: m.s("registration.icp_register")),
    "registration.icp_register.iterations": (
        "count",
        lambda m: m.count("registration.icp_register.iterations"),
    ),
    "registration.icp_register.converged_ratio": (
        "ratio",
        lambda m: m.ratio("registration.icp_register.converged", "registration.icp_register"),
    ),
    "registration.icp_register.raised": (
        "count",
        lambda m: m.count("registration.icp_register.raised"),
    ),
    "geometry.apply_points.calls": ("count", lambda m: m.calls("geometry.apply_points")),
    "geometry.apply_points.s": ("s", lambda m: m.s("geometry.apply_points")),
    "fusion.gather_instance_track.calls": (
        "count",
        lambda m: m.calls("fusion.gather_instance_track"),
    ),
    "fusion.gather_instance_track.s": ("s", lambda m: m.s("fusion.gather_instance_track")),
    "fusion.classify_motion.calls": ("count", lambda m: m.calls("fusion.classify_motion")),
    "fusion.moving_ratio": (
        "ratio",
        lambda m: m.ratio("fusion.moving", "fusion.classify_motion"),
    ),
    "fusion.points_appended": ("count", lambda m: m.count("fusion.points_appended")),
    "fusion.fuse_scan.s": ("s", lambda m: m.s("fusion.fuse_scan")),
    "fusion.fuse_scan.self_s": ("s", lambda m: m.self_s("fusion.fuse_scan")),
    "fusion.build_instance_db.self_s": ("s", lambda m: m.self_s("fusion.build_instance_db")),
    "fusion.db_pairs": ("count", lambda m: m.count("fusion.db_pairs")),
    "fusion.InstanceDatabase.save.s": ("s", lambda m: m.s("fusion.InstanceDatabase.save")),
    "fusion.sample_and_paste.s": ("s", lambda m: m.s("fusion.sample_and_paste")),
    "instance_gen.generate_instance_ids.s": (
        "s",
        lambda m: m.s("instance_gen.generate_instance_ids"),
    ),
    "instance_gen.farthest_point_sample.s": (
        "s",
        lambda m: m.s("instance_gen.farthest_point_sample"),
    ),
    "instance_gen.cluster_by_keypoints.s": (
        "s",
        lambda m: m.s("instance_gen.cluster_by_keypoints"),
    ),
    "instance_gen.keypoints": ("count", lambda m: m.count("instance_gen.keypoints")),
    "distill.iaad_loss.s": ("s", lambda m: m.s("distill.iaad_loss")),
    "distill.feature_distill_loss.s": ("s", lambda m: m.s("distill.feature_distill_loss")),
    "distill.soft_logits_kl_loss.s": ("s", lambda m: m.s("distill.soft_logits_kl_loss")),
    "distill.iaad.affinity_entries": (
        "count",
        lambda m: m.count("distill.iaad.affinity_entries"),
    ),
    "toynet.forward.s": ("s", lambda m: m.s("toynet.forward")),
    "toynet.cross_entropy.s": ("s", lambda m: m.s("toynet.cross_entropy")),
    "toynet.remap_semantic.s": ("s", lambda m: m.s("toynet.remap_semantic")),
    "toynet.distill_rows.s": ("s", lambda m: m.s("toynet.distill_rows")),
    "toynet.compute_gradients.self_s": ("s", lambda m: m.self_s("toynet.compute_gradients")),
    "toynet.train_step.self_s": ("s", lambda m: m.self_s("toynet.train_step")),
    "toynet.points_per_step": ("count", lambda m: m.count("toynet.points_per_step")),
    "toynet.evaluate.s": ("s", lambda m: m.s("toynet.evaluate")),
    "metrics.accumulate_confusion.s": ("s", lambda m: m.s("metrics.accumulate_confusion")),
}

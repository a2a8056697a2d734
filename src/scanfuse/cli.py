"""Single entry point exposing the pipeline as subcommands.

Exit codes: 0 success, 1 usage error, 2 data error. Diagnostics go to
stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import distill_config_from, fusion_config_from, load_kv_file
from .distill import verify_gradients
from .errors import InvalidConfig, ScanFuseError
from .fusion import FusionConfig, build_instance_db, fuse_scan
from .instance_gen import InstanceGenConfig, generate_instance_ids
from .kitti_io import (
    load_sequence_index,
    parse_class_map,
    parse_labels,
    parse_scan,
    read_file,
    unpack_label,
    write_file,
    write_labels,
    write_scan,
    write_sequence,
)
from .metrics import accumulate_confusion, format_iou_table, miou
from .synthetic import default_scene, make_synthetic_sequence
from .toynet import ToyNetParams, TrainState, evaluate, remap_semantic, train_step


class _Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _non_negative_int(text: str) -> int:
    if (value := int(text)) < 0:
        raise argparse.ArgumentTypeError(f"{value} is below 0")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="scanfuse", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    scene = default_scene()  # make-synthetic's and train-toy's scene defaults

    p = sub.add_parser("inspect", help="print point count and bounding box of a scan")
    p.add_argument("path", help=".bin scan or .label file")

    p = sub.add_parser("make-synthetic", help="generate a synthetic sequence")
    p.add_argument("--seed", type=_non_negative_int, default=1)
    p.add_argument("--out", required=True, help="output sequence directory")
    p.add_argument("--scans", type=int, default=scene.n_scans)
    p.add_argument("--points-per-object", type=int, default=scene.points_per_object)

    p = sub.add_parser("gen-instances", help="assign instance IDs to one class")
    p.add_argument("scan", help="input .bin scan")
    p.add_argument("labels", help="input .label file")
    p.add_argument("--class", dest="class_id", type=int, required=True)
    p.add_argument("--stop-distance", type=float, default=InstanceGenConfig.stop_distance)
    p.add_argument("--min-cluster-points", type=int, default=InstanceGenConfig.min_cluster_points)
    p.add_argument("--out", required=True, help="output .label path")

    p = sub.add_parser("fuse", help="fuse hard-class instances from past scans")
    p.add_argument("--seq", required=True, help="sequence directory")
    p.add_argument("--scan", type=int, required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--out", required=True, help="output path prefix")

    p = sub.add_parser("build-augdb", help="build the copy-paste instance database")
    p.add_argument("--seq", required=True)
    p.add_argument("--out", required=True, help="database directory")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("loss-check", help="verify distillation-loss gradients")
    p.add_argument("--cases", type=int, default=100)
    p.add_argument("--seed", type=_non_negative_int, default=0)

    p = sub.add_parser("train-toy", help="run the toy distillation loop")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--steps", type=_non_negative_int, default=200)
    p.add_argument("--config", default=None)
    p.add_argument("--scans", type=int, default=scene.n_scans)
    p.add_argument("--hidden", type=int, default=16)
    p.add_argument("--learning-rate", type=float, default=1e-2)

    p = sub.add_parser("eval-miou", help="evaluate predictions against ground truth")
    p.add_argument("--pred", required=True, help="directory of predicted .label files")
    p.add_argument("--gt", required=True, help="directory of ground-truth .label files")
    p.add_argument("--classmap", required=True, help="raw->train class-map file")

    return parser


def _cmd_inspect(args) -> int:
    path = Path(args.path)
    if path.suffix == ".label":
        labels = read_file(path, parse_labels)
        classes, counts = np.unique(labels.semantic, return_counts=True)
        print(f"{path}: {len(labels)} labels")
        for c, n in zip(classes, counts):
            print(f"  class {int(c):3d}: {int(n)} points")
        return 0
    cloud = read_file(path, parse_scan)
    print(f"{path}: {len(cloud)} points")
    if len(cloud):
        lo = cloud.points.min(axis=0)
        hi = cloud.points.max(axis=0)
        print(f"  x: [{lo[0]:.3f}, {hi[0]:.3f}]")
        print(f"  y: [{lo[1]:.3f}, {hi[1]:.3f}]")
        print(f"  z: [{lo[2]:.3f}, {hi[2]:.3f}]")
        print(f"  remission: [{cloud.remission.min():.3f}, {cloud.remission.max():.3f}]")
    return 0


def _cmd_make_synthetic(args) -> int:
    config = default_scene(n_scans=args.scans, points_per_object=args.points_per_object)
    seq = make_synthetic_sequence(config, args.seed)
    write_sequence(seq.data, args.out)
    print(
        f"wrote {args.scans} scans to {args.out} "
        f"({len(seq.truth.objects)} objects, seed {args.seed})",
        file=sys.stderr,
    )
    return 0


def _cmd_gen_instances(args) -> int:
    cloud = read_file(args.scan, parse_scan)
    labels = read_file(args.labels, parse_labels)
    config = InstanceGenConfig(
        target_class=args.class_id,
        stop_distance=args.stop_distance,
        min_cluster_points=args.min_cluster_points,
    )
    updated = generate_instance_ids(cloud, labels, config)
    write_file(args.out, write_labels(updated))
    new_ids = len(set(np.unique(updated.instance)) - set(np.unique(labels.instance)))
    print(f"assigned {new_ids} new instance IDs to class {args.class_id}", file=sys.stderr)
    return 0


def _load_fusion_config(args) -> FusionConfig:
    values = load_kv_file(args.config) if args.config else {}
    config = fusion_config_from(values)
    if getattr(args, "window", None) is not None:
        config = replace(config, window=args.window)
    return config


def _cmd_fuse(args) -> int:
    index = load_sequence_index(args.seq)
    config = _load_fusion_config(args)
    fused = fuse_scan(index, args.scan, config)
    prefix = Path(args.out)
    if prefix.suffix == ".bin":
        prefix = prefix.with_suffix("")
    prefix.parent.mkdir(parents=True, exist_ok=True)
    write_file(str(prefix) + ".bin", write_scan(fused.cloud))
    write_file(str(prefix) + ".label", write_labels(fused.labels))
    # One line per appended point, formatted once per origin run.
    runs = fused.origin_runs.tolist()
    write_file(str(prefix) + ".origins.txt", "".join(f"{v}\n" * n for v, n in runs).encode())
    for label, origin, reason in fused.registration_warnings:
        instance, class_id = unpack_label(label)
        what = f"moving instance {instance} (class {class_id}) from scan {args.scan + origin}"
        print(f"scanfuse fuse: warning: {what} placed by centroid: {reason}", file=sys.stderr)
    print(
        f"fused scan {args.scan}: {fused.n_current} current + "
        f"{fused.n_appended} appended points",
        file=sys.stderr,
    )
    return 0


def _cmd_build_augdb(args) -> int:
    index = load_sequence_index(args.seq)
    config = _load_fusion_config(args)
    db = build_instance_db(index, config)
    db.save(args.out)
    print(f"stored {len(db)} instance pairs in {args.out}", file=sys.stderr)
    return 0


def _cmd_loss_check(args) -> int:
    rows = verify_gradients(cases=args.cases, seed=args.seed)
    print(f"{'loss':<10} {'max rel err':>12}  result")
    ok = True
    for name, err, passed in rows:
        ok &= passed
        print(f"{name:<10} {err:>12.3e}  {'pass' if passed else 'FAIL'}")
    return 0 if ok else 2


def _cmd_train_toy(args) -> int:
    values = load_kv_file(args.config) if args.config else {}
    distill = distill_config_from(values)
    fusion = fusion_config_from(values)

    scene = default_scene(n_scans=args.scans)
    seq = make_synthetic_sequence(scene, args.seed)
    scan_t = args.scans - 1
    fused = fuse_scan(seq.data, scan_t, fusion)
    current = seq.data.scans[scan_t]
    labels = seq.data.labels[scan_t]
    assert labels is not None

    raw_classes = sorted(set(np.unique(labels.semantic).tolist()))
    class_to_index = {raw: i for i, raw in enumerate(raw_classes)}
    names = {40: "road", 81: "traffic-sign", 18: "truck"}

    state = TrainState(
        teacher=ToyNetParams.init(args.seed, args.hidden, len(raw_classes)),
        student=ToyNetParams.init(args.seed + 1, args.hidden, len(raw_classes)),
        step=0,
        learning_rate=args.learning_rate,
        distill=distill,
        class_to_index=class_to_index,
        hard_classes=fusion.hard_classes,
        rng_seed=args.seed,
    )
    print(
        f"{'step':>5} {'seg_S':>10} {'seg_T':>10} {'feat':>10} "
        f"{'logit':>10} {'affin':>10} {'total':>10}"
    )
    for _ in range(args.steps):
        state, losses = train_step(state, current, fused, labels)
        print(
            f"{state.step:>5} {losses.seg_student:>10.5f} {losses.seg_teacher:>10.5f} "
            f"{losses.feature:>10.5f} {losses.logits:>10.5f} "
            f"{losses.affinity:>10.5f} {losses.total:>10.5f}"
        )
    per_class, mean = evaluate(
        state.student, [current], [labels], class_to_index
    )
    class_names = [names.get(raw, f"class-{raw}") for raw in raw_classes]
    print(format_iou_table(class_names, per_class, mean, label="student"))
    return 0


def _train_ids(semantic: np.ndarray, raw_to_train: dict[int, int], where: str) -> np.ndarray:
    """``remap_semantic`` with ``where`` (a file and its role) in its errors."""
    try:
        return remap_semantic(semantic, raw_to_train)
    except InvalidConfig as exc:
        raise InvalidConfig(f"{where}: {exc}") from None


def _cmd_eval_miou(args) -> int:
    mapping = read_file(args.classmap, lambda data: parse_class_map(str(data, "utf-8")))
    raw_to_train = {raw: train for raw, (train, _) in mapping.items()}
    n_classes = max(raw_to_train.values(), default=-1) + 1
    if n_classes < 1:
        raise ScanFuseError("class map has no non-ignored classes")
    names = ["?"] * n_classes
    for raw, (train, name) in mapping.items():
        if train >= 0 and names[train] == "?":
            names[train] = name

    gt_dir = Path(args.gt)
    pred_dir = Path(args.pred)
    gt_files = sorted(gt_dir.glob("*.label"))
    if not gt_files:
        raise ScanFuseError(f"no .label files under {gt_dir}")

    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    for gt_path in gt_files:
        pred_path = pred_dir / gt_path.name
        if not pred_path.is_file():
            raise ScanFuseError(f"missing prediction for {gt_path.name}")
        gt = read_file(gt_path, parse_labels)
        gt_train = _train_ids(gt.semantic, raw_to_train, f"{gt_path.name}: ground truth")
        pred = read_file(pred_path, parse_labels)
        if len(gt) != len(pred):
            raise ScanFuseError(
                f"{gt_path.name}: {len(gt)} gt labels vs {len(pred)} predictions"
            )
        # Only counted points' predictions are looked up: at an ignored
        # point a prediction may carry any class.
        keep = gt_train >= 0
        where = f"{pred_path.name}: prediction"
        pred_train = _train_ids(pred.semantic[keep], raw_to_train, where)
        if (pred_train < 0).any():
            raise ScanFuseError(f"{where} has ignored classes at counted points")
        cm += accumulate_confusion(pred_train, gt_train[keep], n_classes)
    per_class, mean = miou(cm)
    print(format_iou_table(names, per_class, mean, label="pred"))
    return 0


_COMMANDS = {
    "inspect": _cmd_inspect,
    "make-synthetic": _cmd_make_synthetic,
    "gen-instances": _cmd_gen_instances,
    "fuse": _cmd_fuse,
    "build-augdb": _cmd_build_augdb,
    "loss-check": _cmd_loss_check,
    "train-toy": _cmd_train_toy,
    "eval-miou": _cmd_eval_miou,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ScanFuseError, OSError) as exc:
        print(f"scanfuse {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

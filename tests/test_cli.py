import shutil
from pathlib import Path

import numpy as np
import pytest

from scanfuse.cli import main
from scanfuse.fusion import FusionConfig, InstanceDatabase, fuse_scan
from scanfuse.kitti_io import (
    load_sequence_index,
    parse_labels,
    parse_scan,
    write_labels,
    write_sequence,
)
from scanfuse.registration import RegistrationConfig
from scanfuse.synthetic import ObjectSpec, SyntheticConfig, make_synthetic_sequence

from scenes import mixed_scene


@pytest.fixture()
def seq_dir(tmp_path):
    out = tmp_path / "seq"
    assert main(["make-synthetic", "--seed", "1", "--out", str(out)]) == 0
    return out


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "command",
    [
        "inspect",
        "make-synthetic",
        "gen-instances",
        "fuse",
        "build-augdb",
        "loss-check",
        "train-toy",
        "eval-miou",
    ],
)
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["fuse", "--scan", "0"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["make-synthetic", "--seed", "-1", "--out", "never"],
        ["train-toy", "--seed", "-1", "--steps", "1"],
        ["train-toy", "--steps", "-1"],
        ["loss-check", "--seed", "-1"],
    ],
    ids=["make-synthetic-seed", "train-toy-seed", "train-toy-steps", "loss-check-seed"],
)
def test_negative_seed_or_steps_is_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert f"argument {argv[1]}: -1 is below 0" in err
    assert "Traceback" not in err


def test_inspect_scan(seq_dir, capsys):
    code = main(["inspect", str(seq_dir / "velodyne" / "000000.bin")])
    assert code == 0
    out = capsys.readouterr().out
    assert "points" in out
    assert "x: [" in out


def test_inspect_labels(seq_dir, capsys):
    code = main(["inspect", str(seq_dir / "labels" / "000000.label")])
    assert code == 0
    assert "class" in capsys.readouterr().out


def test_inspect_missing_file_is_data_error(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "nope.bin")]) == 2


def test_make_synthetic_is_seed_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["make-synthetic", "--seed", "9", "--out", str(a)]) == 0
    assert main(["make-synthetic", "--seed", "9", "--out", str(b)]) == 0
    for rel in ["velodyne/000000.bin", "labels/000004.label", "poses.txt", "calib.txt"]:
        assert (a / rel).read_bytes() == (b / rel).read_bytes()


def test_fuse_end_to_end(seq_dir, tmp_path, capsys):
    out = tmp_path / "fused"
    code = main(
        ["fuse", "--seq", str(seq_dir), "--scan", "4", "--window", "4", "--out", str(out)]
    )
    assert code == 0
    cloud = parse_scan((tmp_path / "fused.bin").read_bytes())
    labels = parse_labels((tmp_path / "fused.label").read_bytes())
    assert len(cloud) == len(labels)
    origins = (tmp_path / "fused.origins.txt").read_text().split()
    current = parse_scan((seq_dir / "velodyne" / "000004.bin").read_bytes())
    assert len(origins) == len(cloud) - len(current)
    assert all(-4 <= int(v) <= -1 for v in origins)


@pytest.mark.parametrize("scan", [0, 4])
def test_fuse_writes_one_origin_line_per_appended_point(seq_dir, tmp_path, scan):
    out = tmp_path / "fused"
    argv = ["fuse", "--seq", str(seq_dir), "--scan", str(scan), "--window", "4"]
    assert main([*argv, "--out", str(out)]) == 0
    fused = fuse_scan(load_sequence_index(seq_dir), scan, FusionConfig(window=4))
    assert (fused.n_appended > 0) == (scan > 0)
    expected = "".join(f"{origin}\n" for origin in fused.origin_index.tolist())
    assert (tmp_path / "fused.origins.txt").read_text() == expected


def test_fuse_missing_labels_is_data_error(seq_dir, capsys):
    shutil.rmtree(seq_dir / "labels")
    code = main(["fuse", "--seq", str(seq_dir), "--scan", "4", "--out", "x"])
    assert code == 2
    assert "labels" in capsys.readouterr().err.lower()


def test_fuse_scan_out_of_range_is_data_error(seq_dir, capsys):
    assert main(["fuse", "--seq", str(seq_dir), "--scan", "99", "--out", "x"]) == 2


def test_labels_not_covering_their_scan_are_a_data_error(seq_dir, tmp_path, capsys):
    for scan, cut in [(4, 10), (2, 300)]:
        path = seq_dir / "labels" / f"{scan:06d}.label"
        path.write_bytes(path.read_bytes()[: -4 * cut])
    n_points = len(parse_scan((seq_dir / "velodyne" / "000002.bin").read_bytes()))
    out = tmp_path / "out"
    for argv in (
        ["fuse", "--seq", str(seq_dir), "--scan", "4", "--out", str(out / "fused")],
        ["build-augdb", "--seq", str(seq_dir), "--out", str(out / "db")],
    ):
        assert main(argv) == 2
        assert f"scan 2: {n_points - 300} labels for {n_points} points" in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture()
def data_files(seq_dir, tmp_path, monkeypatch, capsys):
    """Run in ``tmp_path``, which holds ``seq`` (the make-synthetic sequence),
    ``pred`` (a copy of its labels), its class map ``classes.txt`` and a
    config ``run.cfg``."""
    shutil.copytree(seq_dir / "labels", tmp_path / "pred")
    (tmp_path / "classes.txt").write_text("18 0 truck\n40 1 road\n81 2 traffic-sign\n")
    (tmp_path / "run.cfg").write_text("window = 3\n")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()  # make-synthetic's report


FUSE = "fuse --seq seq --scan 4 --out out/fused"
BUILD_AUGDB = "build-augdb --seq seq --out out/db"
GEN_INSTANCES = "gen-instances seq/velodyne/000001.bin seq/labels/000001.label --class 81 --out x"
EVAL_MIOU = "eval-miou --pred pred --gt seq/labels --classmap classes.txt"


@pytest.mark.parametrize(
    ("argv", "damaged"),
    [
        (FUSE, "seq/velodyne/000002.bin"),
        (FUSE, "seq/labels/000003.label"),
        (BUILD_AUGDB, "seq/velodyne/000002.bin"),
        (BUILD_AUGDB, "seq/labels/000003.label"),
        ("inspect seq/velodyne/000001.bin", "seq/velodyne/000001.bin"),
        ("inspect seq/labels/000001.label", "seq/labels/000001.label"),
        (GEN_INSTANCES, "seq/velodyne/000001.bin"),
        (GEN_INSTANCES, "seq/labels/000001.label"),
        (EVAL_MIOU, "seq/labels/000001.label"),
        (EVAL_MIOU, "pred/000001.label"),
    ],
    ids=[
        "fuse-scan",
        "fuse-labels",
        "build-augdb-scan",
        "build-augdb-labels",
        "inspect-scan",
        "inspect-labels",
        "gen-instances-scan",
        "gen-instances-labels",
        "eval-miou-gt",
        "eval-miou-pred",
    ],
)
def test_a_malformed_scan_or_label_file_is_a_data_error_naming_it(
    data_files, capsys, argv, damaged
):
    # A scan cut by 3 bytes or a label file cut by 1 leaves a partial record.
    path = Path(damaged)
    kind, record, cut = ("scan", 16, 3) if path.suffix == ".bin" else ("label", 4, 1)
    path.write_bytes(path.read_bytes()[:-cut])
    assert main(argv.split()) == 2
    size = path.stat().st_size
    assert capsys.readouterr().err == (
        f"scanfuse {argv.split()[0]}: error: {damaged}: "
        f"{kind} length {size} is not a multiple of {record}\n"
    )


@pytest.mark.parametrize(
    ("argv", "damaged"),
    [
        (f"{FUSE} --config run.cfg", "run.cfg"),
        ("train-toy --steps 1 --scans 3 --config run.cfg", "run.cfg"),
        (EVAL_MIOU, "classes.txt"),
        (FUSE, "seq/poses.txt"),
        (FUSE, "seq/calib.txt"),
        (BUILD_AUGDB, "seq/poses.txt"),
    ],
    ids=["fuse-config", "train-toy-config", "eval-miou-classmap", "poses", "calib", "augdb-poses"],
)
def test_text_that_is_not_utf8_is_a_data_error_naming_the_file(
    data_files, capsys, argv, damaged
):
    path = Path(damaged)
    path.write_bytes(path.read_bytes() + b"\xff\n")
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    line, *rest = captured.err.splitlines()
    assert line.startswith(f"scanfuse {argv.split()[0]}: error: {damaged}: not UTF-8 text")
    assert rest == []


def test_fuse_reports_each_registration_fallback_on_stderr(tmp_path, capsys):
    # The no-overlap scene of the fusion tests, on disk: the truck turns and
    # a 1e-9 m correspondence gate leaves ICP no match in any past scan.
    seq = make_synthetic_sequence(mixed_scene(yaw_rate=0.3), seed=12)
    write_sequence(seq.data, tmp_path / "seq")
    (tmp_path / "icp.cfg").write_text("max_correspondence_dist = 1e-9\n")
    argv = ["fuse", "--seq", str(tmp_path / "seq"), "--scan", "4"]
    assert main([*argv, "--config", str(tmp_path / "icp.cfg"), "--out", str(tmp_path / "f")]) == 0
    *warnings, summary = capsys.readouterr().err.splitlines()
    assert summary.startswith("fused scan 4: ")

    config = FusionConfig(registration=RegistrationConfig(max_correspondence_dist=1e-9))
    fused = fuse_scan(load_sequence_index(tmp_path / "seq"), 4, config)
    truck = seq.truth.objects[1]
    packed = (truck.instance_id << 16) | truck.class_id
    reason = "no correspondences within 1e-09 m at initialization"
    assert fused.registration_warnings == [(packed, s - 4, reason) for s in range(4)]
    assert warnings == [
        f"scanfuse fuse: warning: moving instance {truck.instance_id} "
        f"(class {truck.class_id}) from scan {s} placed by centroid: {reason}"
        for s in range(4)
    ]


def test_fuse_reports_a_degenerate_source_as_such(tmp_path, capsys):
    # Two points per object: ICP refuses the truck's 2-row past view before
    # it runs, and the warning says so rather than that ICP failed.
    out = tmp_path / "seq"
    argv = ["--seed", "3", "--scans", "2", "--points-per-object", "2", "--out", str(out)]
    assert main(["make-synthetic", *argv]) == 0
    capsys.readouterr()
    assert main(["fuse", "--seq", str(out), "--scan", "1", "--out", str(tmp_path / "f")]) == 0
    warning, summary = capsys.readouterr().err.splitlines()
    assert warning == (
        "scanfuse fuse: warning: moving instance 2 (class 18) from scan 0 "
        "placed by centroid: need >= 3 source points, got 2"
    )
    assert summary == "fused scan 1: 204 current + 4 appended points"


def test_fuse_prints_no_warning_on_the_default_scene(seq_dir, tmp_path, capsys):
    capsys.readouterr()  # make-synthetic's report
    argv = ["fuse", "--seq", str(seq_dir), "--scan", "4", "--out", str(tmp_path / "f")]
    assert main(argv) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("fused scan 4: ")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("column", [0, 3], ids=["rotation", "translation"])
def test_non_finite_pose_is_a_data_error(seq_dir, tmp_path, capsys, value, column):
    poses = seq_dir / "poses.txt"
    lines = poses.read_text().splitlines()
    tokens = lines[2].split()
    tokens[column] = value
    lines[2] = " ".join(tokens)
    poses.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    for argv in (
        ["fuse", "--seq", str(seq_dir), "--scan", "4", "--out", str(out / "fused")],
        ["build-augdb", "--seq", str(seq_dir), "--out", str(out / "db")],
    ):
        assert main(argv) == 2
        assert "pose line 3: non-finite value" in capsys.readouterr().err
    assert not out.exists()


def test_fuse_flags_override_config_file(seq_dir, tmp_path):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("window = 3\n")
    out_a = tmp_path / "a"
    assert (
        main(
            ["fuse", "--seq", str(seq_dir), "--scan", "4", "--config", str(cfg), "--out", str(out_a)]
        )
        == 0
    )
    origins_a = {int(v) for v in (tmp_path / "a.origins.txt").read_text().split()}
    assert origins_a == {-1, -2, -3}

    out_b = tmp_path / "b"
    assert (
        main(
            [
                "fuse",
                "--seq",
                str(seq_dir),
                "--scan",
                "4",
                "--config",
                str(cfg),
                "--window",
                "2",
                "--out",
                str(out_b),
            ]
        )
        == 0
    )
    origins_b = {int(v) for v in (tmp_path / "b.origins.txt").read_text().split()}
    assert origins_b == {-1, -2}


@pytest.mark.parametrize(
    "line",
    [
        "moving_threshold = nan",
        "windw = 1",
        pytest.param("window = 1\nwindow = 3", id="duplicate-key"),
    ],
)
def test_fuse_nan_value_or_unknown_key_is_data_error(seq_dir, tmp_path, capsys, line):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text(line + "\n")
    out = tmp_path / "fused"
    code = main(
        ["fuse", "--seq", str(seq_dir), "--scan", "4", "--config", str(cfg), "--out", str(out)]
    )
    assert code == 2
    assert not (tmp_path / "fused.bin").exists()


@pytest.mark.parametrize("command", ["fuse", "build-augdb"])
def test_hard_classes_outside_16_bits_are_a_data_error(seq_dir, tmp_path, capsys, command):
    cfg = tmp_path / "fusion.cfg"
    cfg.write_text("hard_classes = 70000, -3\n")
    out = tmp_path / "out"
    argv = [command, "--seq", str(seq_dir), "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--scan", "4"] if command == "fuse" else [])) == 2
    assert "hard_classes [-3, 70000] outside 0..65535" in capsys.readouterr().err
    assert set(tmp_path.iterdir()) == {seq_dir, cfg}  # nothing written


def test_train_toy_nan_config_value_is_data_error(tmp_path, capsys):
    cfg = tmp_path / "train.cfg"
    cfg.write_text("smooth_l1_T = nan\n")
    assert main(["train-toy", "--steps", "1", "--scans", "3", "--config", str(cfg)]) == 2
    assert "smooth_l1_T" in capsys.readouterr().err


@pytest.mark.parametrize("learning_rate", ["nan", "-1"])
def test_train_toy_bad_learning_rate_is_data_error_before_any_step(capsys, learning_rate):
    argv = ["train-toy", "--steps", "1", "--scans", "3", "--learning-rate", learning_rate]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "learning_rate" in captured.err


def test_gen_instances_nan_stop_distance_is_data_error(seq_dir, tmp_path, capsys):
    code = main(
        [
            "gen-instances",
            str(seq_dir / "velodyne" / "000004.bin"),
            str(seq_dir / "labels" / "000004.label"),
            "--class",
            "81",
            "--stop-distance",
            "nan",
            "--out",
            str(tmp_path / "updated.label"),
        ]
    )
    assert code == 2
    assert "stop_distance" in capsys.readouterr().err


@pytest.mark.parametrize("class_id", [70000, -1])
def test_gen_instances_class_outside_16_bits_is_data_error(seq_dir, tmp_path, capsys, class_id):
    out = tmp_path / "updated.label"
    code = main(
        [
            "gen-instances",
            str(seq_dir / "velodyne" / "000004.bin"),
            str(seq_dir / "labels" / "000004.label"),
            "--class",
            str(class_id),
            "--out",
            str(out),
        ]
    )
    assert code == 2
    assert f"target_class {class_id} outside 0..65535" in capsys.readouterr().err
    assert not out.exists()


def test_gen_instances_labels_not_covering_the_scan_are_a_data_error(seq_dir, tmp_path, capsys):
    labels = tmp_path / "short.label"
    labels.write_bytes((seq_dir / "labels" / "000004.label").read_bytes()[:-40])
    n_points = len(parse_scan((seq_dir / "velodyne" / "000004.bin").read_bytes()))
    out = tmp_path / "updated.label"
    argv = ["gen-instances", str(seq_dir / "velodyne" / "000004.bin"), str(labels)]
    assert main([*argv, "--class", "81", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"scan has {n_points} points but labels cover {n_points - 10}" in err
    assert not out.exists()


def test_gen_instances_cli(tmp_path, capsys):
    config = SyntheticConfig(
        n_scans=1,
        ground_points=30,
        points_per_object=25,
        objects=[
            ObjectSpec(
                shape="cylinder",
                class_id=81,
                center=(6.0, 0.0, 0.8),
                size=(0.4, 1.2),
                instance_id=0,
            ),
            ObjectSpec(
                shape="cylinder",
                class_id=81,
                center=(-6.0, 3.0, 0.8),
                size=(0.4, 1.2),
                instance_id=0,
            ),
        ],
    )
    seq = make_synthetic_sequence(config, seed=3)
    write_sequence(seq.data, tmp_path / "seq")
    out = tmp_path / "updated.label"
    code = main(
        [
            "gen-instances",
            str(tmp_path / "seq" / "velodyne" / "000000.bin"),
            str(tmp_path / "seq" / "labels" / "000000.label"),
            "--class",
            "81",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    updated = parse_labels(out.read_bytes())
    sign_instances = set(np.unique(updated.instance[updated.semantic == 81]).tolist())
    assert sign_instances == {1, 2}


def test_build_augdb_cli(seq_dir, tmp_path, capsys):
    out = tmp_path / "augdb"
    code = main(["build-augdb", "--seq", str(seq_dir), "--out", str(out)])
    assert code == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert len(manifest) > 0
    assert sorted(p.name for p in out.iterdir()) == ["entries.bin", "entries.label", "manifest.txt"]


def test_build_augdb_of_a_sequence_named_with_a_space(tmp_path, capsys):
    seq = tmp_path / "my seq"
    assert main(["make-synthetic", "--seed", "1", "--out", str(seq)]) == 0
    assert main(["build-augdb", "--seq", str(seq), "--out", str(tmp_path / "db")]) == 0
    db = InstanceDatabase.load(tmp_path / "db")
    assert len(db) > 0 and {entry.key[0] for entry in db.entries} == {"my seq"}


def test_build_augdb_of_a_name_the_manifest_cannot_carry_writes_nothing(tmp_path, capsys):
    seq = tmp_path / "seq "
    assert main(["make-synthetic", "--seed", "1", "--out", str(seq)]) == 0
    assert main(["build-augdb", "--seq", str(seq), "--out", str(tmp_path / "db")]) == 2
    assert "sequence name 'seq '" in capsys.readouterr().err
    assert not (tmp_path / "db").exists()


def test_loss_check_cli(capsys):
    code = main(["loss-check", "--cases", "5", "--seed", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "feature" in out and "logits" in out and "affinity" in out
    assert "FAIL" not in out


def test_loss_check_without_cases_is_data_error(capsys):
    assert main(["loss-check", "--cases", "0"]) == 2
    assert "cases must be >= 1" in capsys.readouterr().err


def test_loss_check_is_seed_reproducible(capsys):
    assert main(["loss-check", "--cases", "5", "--seed", "2"]) == 0
    first = capsys.readouterr().out
    assert main(["loss-check", "--cases", "5", "--seed", "2"]) == 0
    assert capsys.readouterr().out == first


def test_train_toy_cli(capsys):
    code = main(["train-toy", "--seed", "0", "--steps", "5", "--scans", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l.strip()]
    assert any("total" in l for l in lines[:1])  # header row
    assert "mIoU" in out


def test_train_toy_zero_steps_only_evaluates(capsys):
    assert main(["train-toy", "--steps", "0", "--scans", "3"]) == 0
    out = capsys.readouterr().out
    assert "mIoU" in out
    assert not any(l.split()[0].isdigit() for l in out.splitlines() if l.strip())  # no step rows


def test_train_toy_is_seed_reproducible(capsys):
    assert main(["train-toy", "--seed", "4", "--steps", "3", "--scans", "3"]) == 0
    first = capsys.readouterr().out
    assert main(["train-toy", "--seed", "4", "--steps", "3", "--scans", "3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_eval_miou_cli(tmp_path, capsys):
    gt_dir = tmp_path / "gt"
    pred_dir = tmp_path / "pred"
    gt_dir.mkdir()
    pred_dir.mkdir()
    from scanfuse.kitti_io import LabelSet

    gt = LabelSet(np.array([40, 40, 81, 81], dtype=np.uint16), np.zeros(4, dtype=np.uint16))
    pred = LabelSet(np.array([40, 81, 81, 81], dtype=np.uint16), np.zeros(4, dtype=np.uint16))
    (gt_dir / "000000.label").write_bytes(write_labels(gt))
    (pred_dir / "000000.label").write_bytes(write_labels(pred))
    classmap = tmp_path / "classes.txt"
    classmap.write_text(
        "# raw_id train_id name\n0 -1 unlabeled\n40 0 road\n81 1 traffic-sign\n"
    )
    code = main(
        [
            "eval-miou",
            "--pred",
            str(pred_dir),
            "--gt",
            str(gt_dir),
            "--classmap",
            str(classmap),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    header, row = out.strip().splitlines()
    assert header.split()[1:] == ["road", "traffic-sign", "mIoU"]
    assert row.split()[1:] == ["50.0", "66.7", "58.3"]


def test_eval_miou_drops_ground_truth_of_ignored_classes(tmp_path, capsys):
    from scanfuse.kitti_io import LabelSet

    # class 0 maps to train_id -1: its two points count for nothing, whatever
    # their prediction
    for name, semantic in (("gt", [0, 0, 40, 81]), ("pred", [81, 40, 40, 81])):
        (tmp_path / name).mkdir()
        labels = LabelSet(np.array(semantic, dtype=np.uint16), np.zeros(4, dtype=np.uint16))
        (tmp_path / name / "000000.label").write_bytes(write_labels(labels))
    classmap = tmp_path / "classes.txt"
    classmap.write_text("0 -1 unlabeled\n40 0 road\n81 1 traffic-sign\n")
    argv = ["--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
    assert main(["eval-miou", *argv, "--classmap", str(classmap)]) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.split()[1:] == ["100.0", "100.0", "100.0"]


def test_eval_miou_ground_truth_class_missing_from_class_map_is_data_error(
    tmp_path, capsys
):
    from scanfuse.kitti_io import LabelSet

    for name, semantic in (("gt", [50, 40, 81, 30]), ("pred", [40, 40, 81, 81])):
        (tmp_path / name).mkdir()
        labels = LabelSet(np.array(semantic, dtype=np.uint16), np.zeros(4, dtype=np.uint16))
        (tmp_path / name / "000000.label").write_bytes(write_labels(labels))
    classmap = tmp_path / "classes.txt"
    classmap.write_text("0 -1 unlabeled\n40 0 road\n81 1 traffic-sign\n")
    argv = ["--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
    assert main(["eval-miou", *argv, "--classmap", str(classmap)]) == 2
    assert "classes [30, 50] missing from the class map" in capsys.readouterr().err


def test_eval_miou_class_map_listing_a_raw_id_twice_is_data_error(tmp_path, capsys):
    from scanfuse.kitti_io import LabelSet

    for name in ("gt", "pred"):
        (tmp_path / name).mkdir()
        labels = LabelSet(np.array([40, 10], dtype=np.uint16), np.zeros(2, dtype=np.uint16))
        (tmp_path / name / "000000.label").write_bytes(write_labels(labels))
    classmap = tmp_path / "classes.txt"
    classmap.write_text("40 0 road\n10 1 car\n10 2 bus\n")
    argv = ["--pred", str(tmp_path / "pred"), "--gt", str(tmp_path / "gt")]
    assert main(["eval-miou", *argv, "--classmap", str(classmap)]) == 2
    assert "line 3: raw ID 10 already listed on line 2" in capsys.readouterr().err


@pytest.mark.parametrize("raw_id", [-1, 70000])
def test_eval_miou_class_map_id_outside_16_bits_is_data_error(tmp_path, capsys, raw_id):
    from scanfuse.kitti_io import LabelSet

    for name in ("gt", "pred"):
        (tmp_path / name).mkdir()
        labels = LabelSet(np.array([40, 65535], dtype=np.uint16), np.zeros(2, dtype=np.uint16))
        (tmp_path / name / "000000.label").write_bytes(write_labels(labels))
    classmap = tmp_path / "classes.txt"
    classmap.write_text(f"40 0 road\n{raw_id} 1 negative\n")
    code = main(
        [
            "eval-miou",
            "--pred",
            str(tmp_path / "pred"),
            "--gt",
            str(tmp_path / "gt"),
            "--classmap",
            str(classmap),
        ]
    )
    assert code == 2
    assert "16-bit" in capsys.readouterr().err


def eval_miou_argv(tmp_path, gt, pred, classmap):
    """``eval-miou`` arguments over one ground-truth and one prediction file."""
    from scanfuse.kitti_io import LabelSet

    for name, semantic in (("gt", gt), ("pred", pred)):
        (tmp_path / name).mkdir()
        labels = LabelSet(
            np.array(semantic, dtype=np.uint16), np.zeros(len(semantic), dtype=np.uint16)
        )
        (tmp_path / name / "000000.label").write_bytes(write_labels(labels))
    (tmp_path / "classes.txt").write_text(classmap)
    return [
        "eval-miou",
        "--pred",
        str(tmp_path / "pred"),
        "--gt",
        str(tmp_path / "gt"),
        "--classmap",
        str(tmp_path / "classes.txt"),
    ]


IGNORING_0 = "0 -1 unlabeled\n40 0 road\n81 1 traffic-sign\n"


@pytest.mark.parametrize(
    ("predicted", "error"),
    [
        (30, "000000.label: prediction: classes [30] missing from the class map"),
        (0, "000000.label: prediction has ignored classes at counted points"),
    ],
    ids=["unlisted", "listed-ignored"],
)
def test_eval_miou_prediction_at_a_counted_point_must_be_a_counted_class(
    tmp_path, capsys, predicted, error
):
    argv = eval_miou_argv(tmp_path, [0, 40, 81, 81], [0, 40, predicted, 81], IGNORING_0)
    assert main(argv) == 2
    assert error in capsys.readouterr().err


def test_eval_miou_prediction_at_an_ignored_point_may_be_unlisted(tmp_path, capsys):
    argv = eval_miou_argv(tmp_path, [0, 0, 40, 81], [30, 65535, 40, 81], IGNORING_0)
    assert main(argv) == 0
    row = capsys.readouterr().out.strip().splitlines()[1]
    assert row.split()[1:] == ["100.0", "100.0", "100.0"]


@pytest.mark.parametrize(
    ("classmap", "error"),
    [
        (IGNORING_0 + "10 -2 car\n", "class-map line 4: train ID -2 is below -1"),
        ("10 -2 car\n", "class-map line 1: train ID -2 is below -1"),
    ],
    ids=["with-counted-classes", "alone"],
)
def test_eval_miou_class_map_train_id_below_minus_one_is_data_error(
    tmp_path, capsys, classmap, error
):
    argv = eval_miou_argv(tmp_path, [40, 81], [40, 81], classmap)
    assert main(argv) == 2
    assert error in capsys.readouterr().err

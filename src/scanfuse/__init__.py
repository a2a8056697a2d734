"""Sparse multi-scan fusion and teacher/student distillation for LiDAR segmentation.

The toolkit covers the full training-side pipeline at desk scale: bit-exact
SemanticKITTI I/O, SE(3) pose algebra, instance-ID generation for classes
annotated without instances, registration-based fusion of hard-class
instances from past scans, the three distillation losses with analytic
gradients, a tiny teacher/student network, and mIoU evaluation.
"""

__version__ = "0.1.0"

from .distill import (
    DistillConfig,
    feature_distill_loss,
    iaad_loss,
    soft_logits_kl_loss,
    total_loss,
)
from .errors import ScanFuseError
from .fusion import (
    FusedScan,
    FusionConfig,
    InstanceDatabase,
    InstancePair,
    InstanceTrack,
    Motion,
    build_instance_db,
    classify_motion,
    fuse_scan,
    gather_instance_track,
    sample_and_paste,
)
from .geometry import (
    RigidTransform,
    apply_points,
    compose,
    invert,
)
from .instance_gen import (
    InstanceGenConfig,
    cluster_by_keypoints,
    farthest_point_sample,
    filter_by_class,
    generate_instance_ids,
)
from .kitti_io import (
    DEFAULT_HARD_CLASSES,
    LabelSet,
    PointCloud,
    SequenceData,
    SequenceIndex,
    instance_rows,
    load_sequence_index,
    parse_calib,
    parse_class_map,
    parse_labels,
    parse_poses,
    parse_scan,
    write_calib,
    write_labels,
    write_poses,
    write_scan,
    write_sequence,
)
from .metrics import accumulate_confusion, format_iou_table, miou
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    centroid_align,
    fit_rigid,
    icp_register,
)
from .synthetic import (
    ObjectSpec,
    SyntheticConfig,
    SyntheticSequence,
    default_scene,
    make_synthetic_sequence,
)
from .toynet import (
    ForwardResult,
    LossBreakdown,
    ToyNetParams,
    TrainState,
    evaluate,
    forward,
    supervised_step,
    train_step,
)

__all__ = [
    "DEFAULT_HARD_CLASSES",
    "DistillConfig",
    "ForwardResult",
    "FusedScan",
    "FusionConfig",
    "InstanceDatabase",
    "InstanceGenConfig",
    "InstancePair",
    "InstanceTrack",
    "LabelSet",
    "LossBreakdown",
    "Motion",
    "ObjectSpec",
    "PointCloud",
    "RegistrationConfig",
    "RegistrationResult",
    "RigidTransform",
    "ScanFuseError",
    "SequenceData",
    "SequenceIndex",
    "SyntheticConfig",
    "SyntheticSequence",
    "ToyNetParams",
    "TrainState",
    "accumulate_confusion",
    "apply_points",
    "build_instance_db",
    "centroid_align",
    "classify_motion",
    "cluster_by_keypoints",
    "compose",
    "default_scene",
    "evaluate",
    "farthest_point_sample",
    "feature_distill_loss",
    "filter_by_class",
    "fit_rigid",
    "format_iou_table",
    "forward",
    "fuse_scan",
    "gather_instance_track",
    "generate_instance_ids",
    "iaad_loss",
    "icp_register",
    "instance_rows",
    "invert",
    "load_sequence_index",
    "make_synthetic_sequence",
    "miou",
    "parse_calib",
    "parse_class_map",
    "parse_labels",
    "parse_poses",
    "parse_scan",
    "sample_and_paste",
    "soft_logits_kl_loss",
    "supervised_step",
    "total_loss",
    "train_step",
    "write_calib",
    "write_labels",
    "write_poses",
    "write_scan",
    "write_sequence",
]

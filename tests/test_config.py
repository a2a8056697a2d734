from functools import partial

import pytest

from scanfuse.config import (
    distill_config_from,
    fusion_config_from,
    load_kv_file,
    parse_kv_text,
)
from scanfuse.distill import DistillConfig
from scanfuse.errors import InvalidConfig
from scanfuse.fusion import FusionConfig
from scanfuse.instance_gen import InstanceGenConfig
from scanfuse.registration import RegistrationConfig


def test_empty_values_give_the_dataclass_defaults():
    assert fusion_config_from({}) == FusionConfig()
    assert distill_config_from({}) == DistillConfig()


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("hard_classes", "18, 81", FusionConfig(hard_classes={18, 81})),
        ("window", "2", FusionConfig(window=2)),
        ("moving_threshold", "0.5", FusionConfig(moving_threshold=0.5)),
        (
            "max_iterations",
            "7",
            FusionConfig(registration=RegistrationConfig(max_iterations=7)),
        ),
        (
            "convergence_tol",
            "0.01",
            FusionConfig(registration=RegistrationConfig(convergence_tol=0.01)),
        ),
        (
            "max_correspondence_dist",
            "2.5",
            FusionConfig(registration=RegistrationConfig(max_correspondence_dist=2.5)),
        ),
    ],
)
def test_each_fusion_key_overrides_only_its_field(key, value, expected):
    assert fusion_config_from({key: value}) == expected


def _betas_with(i: int, value: float) -> tuple[float, ...]:
    return tuple(value if j == i else b for j, b in enumerate(DistillConfig().betas))


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("smooth_l1_T", "2", DistillConfig(smooth_l1_T=2.0)),
        ("temperature_P", "3", DistillConfig(temperature_P=3.0)),
        ("beta1", "0.7", DistillConfig(betas=_betas_with(0, 0.7))),
        ("beta2", "0.2", DistillConfig(betas=_betas_with(1, 0.2))),
        ("beta3", "0.3", DistillConfig(betas=_betas_with(2, 0.3))),
        ("beta4", "0.4", DistillConfig(betas=_betas_with(3, 0.4))),
    ],
)
def test_each_distill_key_overrides_only_its_field(key, value, expected):
    assert distill_config_from({key: value}) == expected


@pytest.mark.parametrize(
    "build, values",
    [
        (fusion_config_from, {"window": "two"}),
        (fusion_config_from, {"max_iterations": "1.5"}),
        (fusion_config_from, {"hard_classes": "a,b"}),
        (distill_config_from, {"beta1": "x"}),
    ],
)
def test_malformed_values_are_invalid_config(build, values):
    with pytest.raises(InvalidConfig):
        build(values)


@pytest.mark.parametrize(
    "make, field",
    [
        (partial(InstanceGenConfig, target_class=81), "stop_distance"),
        (partial(InstanceGenConfig, target_class=81), "min_cluster_points"),
        (FusionConfig, "window"),
        (FusionConfig, "moving_threshold"),
        (RegistrationConfig, "max_iterations"),
        (RegistrationConfig, "convergence_tol"),
        (RegistrationConfig, "max_correspondence_dist"),
        (DistillConfig, "smooth_l1_T"),
        (DistillConfig, "temperature_P"),
    ],
)
def test_nan_field_is_invalid_config(make, field):
    with pytest.raises(InvalidConfig, match=field):
        make(**{field: float("nan")})


def test_unknown_key_is_invalid_config():
    with pytest.raises(InvalidConfig, match="windw"):
        parse_kv_text("window = 2\nwindw = 1\n")


def test_duplicate_key_is_invalid_config_naming_both_lines():
    with pytest.raises(InvalidConfig, match=r"line 3: key 'window' already set on line 1"):
        parse_kv_text("window = 1\n# the same key again\nwindow = 3\n")


def test_one_file_carries_every_fusion_and_distill_key(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "# train-toy reads one file for both configs\n"
        "hard_classes = 18, 81\n"
        "window = 2\n"
        "moving_threshold = 0.5\n"
        "max_iterations = 7\n"
        "convergence_tol = 0.01\n"
        "max_correspondence_dist = 2.5\n"
        "smooth_l1_T = 2\n"
        "temperature_P = 3\n"
        "beta1 = 0.7\n"
        "beta2 = 0.2\n"
        "beta3 = 0.3\n"
        "beta4 = 0.4\n"
    )
    values = load_kv_file(path)
    assert fusion_config_from(values) == FusionConfig(
        hard_classes={18, 81},
        window=2,
        moving_threshold=0.5,
        registration=RegistrationConfig(7, 0.01, 2.5),
    )
    assert distill_config_from(values) == DistillConfig(2.0, 3.0, (0.7, 0.2, 0.3, 0.4))

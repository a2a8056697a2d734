import pytest

from scanfuse.config import distill_config_from, fusion_config_from
from scanfuse.distill import DistillConfig
from scanfuse.errors import InvalidConfig
from scanfuse.fusion import FusionConfig
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

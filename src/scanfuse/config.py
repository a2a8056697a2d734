"""Flat key-value config files (one ``key = value`` per line).

Used by the CLI for FusionConfig and DistillConfig; command-line flags
override file values. The format is deliberately diffable: ``#`` comments,
blank lines allowed, values parsed by the consumer; a key outside
``RECOGNIZED_KEYS`` is an error, so a typo cannot fall back to a default.
"""

from __future__ import annotations

from pathlib import Path

from .distill import DistillConfig
from .errors import InvalidConfig
from .fusion import FusionConfig
from .registration import RegistrationConfig


# Every key fusion_config_from or distill_config_from reads (fusion, ICP,
# losses); one file may carry all of them, since train-toy builds both
# configs from it.
RECOGNIZED_KEYS = frozenset(
    {"hard_classes", "window", "moving_threshold"}
    | {"max_iterations", "convergence_tol", "max_correspondence_dist"}
    | {"smooth_l1_T", "temperature_P", "beta1", "beta2", "beta3", "beta4"}
)


def parse_kv_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise InvalidConfig(f"config line {line_no}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in RECOGNIZED_KEYS:
            raise InvalidConfig(f"config line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def load_kv_file(path: str | Path) -> dict[str, str]:
    return parse_kv_text(Path(path).read_text())


def _get_float(values: dict[str, str], key: str, default: float) -> float:
    if key not in values:
        return default
    try:
        return float(values[key])
    except ValueError:
        raise InvalidConfig(f"config key {key!r}: not a number") from None


def _get_int(values: dict[str, str], key: str, default: int) -> int:
    if key not in values:
        return default
    try:
        return int(values[key])
    except ValueError:
        raise InvalidConfig(f"config key {key!r}: not an integer") from None


def fusion_config_from(values: dict[str, str]) -> FusionConfig:
    """Build a FusionConfig from key-value pairs, defaults filling gaps.

    Recognized keys: hard_classes (comma-separated raw IDs), window,
    moving_threshold, max_iterations, convergence_tol,
    max_correspondence_dist.
    """
    base = FusionConfig()
    hard = base.hard_classes
    if "hard_classes" in values:
        try:
            hard = frozenset(
                int(tok) for tok in values["hard_classes"].split(",") if tok.strip()
            )
        except ValueError:
            raise InvalidConfig("config key 'hard_classes': not a comma list") from None
    reg = base.registration
    registration = RegistrationConfig(
        max_iterations=_get_int(values, "max_iterations", reg.max_iterations),
        convergence_tol=_get_float(values, "convergence_tol", reg.convergence_tol),
        max_correspondence_dist=_get_float(
            values, "max_correspondence_dist", reg.max_correspondence_dist
        ),
    )
    return FusionConfig(
        hard_classes=hard,
        window=_get_int(values, "window", base.window),
        moving_threshold=_get_float(values, "moving_threshold", base.moving_threshold),
        registration=registration,
    )


def distill_config_from(values: dict[str, str]) -> DistillConfig:
    """Recognized keys: smooth_l1_T, temperature_P, beta1..beta4."""
    base = DistillConfig()
    return DistillConfig(
        smooth_l1_T=_get_float(values, "smooth_l1_T", base.smooth_l1_T),
        temperature_P=_get_float(values, "temperature_P", base.temperature_P),
        betas=(
            _get_float(values, "beta1", base.betas[0]),
            _get_float(values, "beta2", base.betas[1]),
            _get_float(values, "beta3", base.betas[2]),
            _get_float(values, "beta4", base.betas[3]),
        ),
    )

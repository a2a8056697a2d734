"""Flat key-value config files (one ``key = value`` per line).

Used by the CLI for FusionConfig and DistillConfig; command-line flags
override file values. The format is deliberately diffable: ``#`` comments,
blank lines allowed, values parsed by the consumer; a key outside
``RECOGNIZED_KEYS`` or a key set twice is an error, so a typo cannot fall
back to a default and a stray line cannot silently win.

Each key appears here once, with its value parser. Defaults live only in the
config dataclasses, whose ``__post_init__`` validates every parsed value.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .distill import DistillConfig
from .errors import InvalidConfig
from .fusion import FusionConfig
from .kitti_io import read_file


def _comma_ints(text: str) -> frozenset[int]:
    return frozenset(int(tok) for tok in text.split(",") if tok.strip())


# Keys of FusionConfig, of its RegistrationConfig, of DistillConfig, and of
# DistillConfig.betas (in order); each maps to its value parser.
_FUSION_KEYS = {"hard_classes": _comma_ints, "window": int, "moving_threshold": float}
_ICP_KEYS = {"max_iterations": int, "convergence_tol": float, "max_correspondence_dist": float}
_LOSS_KEYS = {"smooth_l1_T": float, "temperature_P": float}
_BETA_KEYS = dict.fromkeys(("beta1", "beta2", "beta3", "beta4"), float)

# Every key fusion_config_from or distill_config_from reads; one file may
# carry all of them, since train-toy builds both configs from it.
RECOGNIZED_KEYS = frozenset(_FUSION_KEYS | _ICP_KEYS | _LOSS_KEYS | _BETA_KEYS)


def parse_kv_text(text: str) -> dict[str, str]:
    values: dict[str, str] = {}
    seen_at: dict[str, int] = {}
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
        if key in seen_at:
            raise InvalidConfig(
                f"config line {line_no}: key {key!r} already set on line {seen_at[key]}"
            )
        seen_at[key] = line_no
        values[key] = value.strip()
    return values


def load_kv_file(path: str | Path) -> dict[str, str]:
    return read_file(path, lambda data: parse_kv_text(str(data, "utf-8")))


def _parsed(values: dict[str, str], parsers: dict) -> dict[str, object]:
    """The values of the keys in ``parsers``, each through its parser."""
    out: dict[str, object] = {}
    for key, parse in parsers.items():
        if key in values:
            try:
                out[key] = parse(values[key])
            except ValueError as exc:
                raise InvalidConfig(f"config key {key!r}: {exc}") from None
    return out


def fusion_config_from(values: dict[str, str]) -> FusionConfig:
    """FusionConfig defaults overridden by the fusion and ICP keys present."""
    base = FusionConfig()
    registration = replace(base.registration, **_parsed(values, _ICP_KEYS))
    return replace(base, registration=registration, **_parsed(values, _FUSION_KEYS))


def distill_config_from(values: dict[str, str]) -> DistillConfig:
    """DistillConfig defaults overridden by the loss and beta keys present."""
    base = DistillConfig()
    betas = _parsed(values, _BETA_KEYS)
    return replace(
        base,
        betas=tuple(betas.get(key, b) for key, b in zip(_BETA_KEYS, base.betas)),
        **_parsed(values, _LOSS_KEYS),
    )

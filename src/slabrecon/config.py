"""Pipeline configuration: defaults, config-file parsing, resolution.

The config file is a flat key = value text format with JSON-compatible
values and '#' comments. Unknown keys are hard errors so a typo in a
key cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInput
from .fusion import DEFAULT_EPSILON
from .geometry import RigidTransform
from .layout import resolve_layout
from .phantom import DEFAULT_INPLANE_FOV_MM, PhantomSpec
from .qc import DEFAULT_FOREGROUND_FRACTION, DEFAULT_SHIFT_THRESHOLD
from .registration import RegistrationConfig
from .simulate import LR_INPLANE_FACTOR

_NUMBER = (int, float)   # matched by type(), so that JSON true and false are no numbers
_PHANTOM_SIZES = ("length_mm", "height_mm", "body_width_mm", "head_width_mm")


@dataclass
class PipelineConfig:
    layout: str = "ns_7t_32ch_t2w_interleaved"
    seed: int = 0

    # registration
    bins: int = RegistrationConfig.bins
    pyramid: list = field(default_factory=lambda: list(RegistrationConfig.pyramid))
    max_iterations: int = RegistrationConfig.max_iterations
    step_halvings: int = RegistrationConfig.step_halvings

    # fusion
    fusion_epsilon: float = DEFAULT_EPSILON

    # qc
    shift_threshold: float = DEFAULT_SHIFT_THRESHOLD
    foreground_fraction: float = DEFAULT_FOREGROUND_FRACTION

    # simulation
    noise_sigma_pct: float = 2.0
    lr_inplane_factor: float = LR_INPLANE_FACTOR
    scenario: list | None = None     # per-slab [rx_deg, ry_deg, rz_deg, tx, ty, tz]
    phantom_length_mm: float = PhantomSpec.length_mm
    phantom_height_mm: float = PhantomSpec.height_mm
    phantom_body_width_mm: float = PhantomSpec.body_width_mm
    phantom_head_width_mm: float = PhantomSpec.head_width_mm
    phantom_fov_mm: list = field(default_factory=lambda: list(DEFAULT_INPLANE_FOV_MM))

    def registration_config(self) -> RegistrationConfig:
        return RegistrationConfig(**{
            f.name: getattr(self, f.name) for f in dataclasses.fields(RegistrationConfig)
        })

    def phantom_spec(self) -> PhantomSpec:
        return PhantomSpec(**{k: getattr(self, "phantom_" + k) for k in _PHANTOM_SIZES})

    def scenario_transforms(self, num_slabs: int, center) -> list[RigidTransform]:
        if self.scenario is None:
            return [RigidTransform.identity(center) for _ in range(num_slabs)]
        if len(self.scenario) != num_slabs:
            raise ConfigError(
                f"scenario lists {len(self.scenario)} slabs, layout has {num_slabs}"
            )
        transforms = []
        for row in self.scenario:
            if len(row) != 6 or not all(type(v) in _NUMBER for v in row):
                raise ConfigError(
                    "each scenario row is [rx_deg, ry_deg, rz_deg, tx_mm, ty_mm, tz_mm]"
                )
            rx, ry, rz, tx, ty, tz = (float(v) for v in row)
            transforms.append(
                RigidTransform(
                    rotation=tuple(np.radians([rx, ry, rz])),
                    translation=(tx, ty, tz),
                    center=center,
                )
            )
        return transforms

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_DEFAULTS = dataclasses.asdict(PipelineConfig())


def _check_type(key, value) -> None:
    """Integer and string keys need their default's type, float keys any number,
    list keys a list of numbers; ``scenario`` a list of lists, whose rows
    ``scenario_transforms`` checks."""
    default = _DEFAULTS[key]
    if default is None:
        ok = value is None or isinstance(value, list) and all(isinstance(r, list) for r in value)
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(type(v) in _NUMBER for v in value)
    elif isinstance(default, float):
        ok = type(value) in _NUMBER
    else:
        ok = type(value) is type(default)
    if not ok:
        raise ConfigError(f"configuration key {key!r} does not take {value!r} "
                          f"(default {default!r})")


def parse_config_file(path) -> dict:
    """Read flat 'key = value' lines; values are JSON literals."""
    raw = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            key = key.strip()
            try:
                raw[key] = json.loads(value.strip())
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"{path}:{lineno}: value for {key!r} is not valid JSON: {exc}"
                ) from exc
    return raw


def resolve_config(file_values: dict | None = None, **overrides) -> PipelineConfig:
    """Merge defaults, config-file values and CLI overrides (in that order)."""
    merged = {}
    for source in (file_values or {}, {k: v for k, v in overrides.items() if v is not None}):
        for key, value in source.items():
            if key not in _DEFAULTS:
                raise ConfigError(
                    f"unknown configuration key {key!r}; known keys: "
                    + ", ".join(sorted(_DEFAULTS))
                )
            _check_type(key, value)
            merged[key] = value
    config = PipelineConfig(**merged)
    # out-of-range values are config errors, whatever the command
    try:
        config.registration_config()
    except InvalidInput as exc:
        raise ConfigError(f"configuration: {exc}") from None
    try:
        config.phantom_spec()
    except InvalidInput as exc:
        keys = ", ".join("phantom_" + k for k in _PHANTOM_SIZES)
        raise ConfigError(f"configuration: {exc} ({keys})") from None
    if config.noise_sigma_pct < 0:
        raise ConfigError("configuration: noise_sigma_pct must be >= 0")
    if len(config.phantom_fov_mm) != 2 or min(config.phantom_fov_mm) <= 0:
        raise ConfigError("configuration: phantom_fov_mm takes two values > 0")
    if config.lr_inplane_factor < 1:
        raise ConfigError("configuration: lr_inplane_factor must be >= 1")
    # the phantom grid has round(fov / voxel) columns along x and z
    _, (sx, _, sz) = resolve_layout(config.layout)
    if any(round(fov / s) < 1 for fov, s in zip(config.phantom_fov_mm, (sx, sz))):
        raise ConfigError(f"configuration: phantom_fov_mm {config.phantom_fov_mm} is under "
                          f"one {sx} x {sz} mm voxel of layout {config.layout!r}")
    return config

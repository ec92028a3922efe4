"""Pipeline configuration: defaults, config-file parsing, resolution.

The config file is a flat key = value text format with JSON-compatible
values and '#' comments. Unknown keys are hard errors so a typo in a
key cannot silently fall back to a default.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InvalidInput
from .fusion import DEFAULT_EPSILON
from .geometry import RigidTransform
from .layout import resolve_layout
from .nifti import MAX_DIM
from .phantom import DEFAULT_INPLANE_FOV_MM, PhantomSpec, phantom_geometry
from .qc import DEFAULT_FOREGROUND_FRACTION, DEFAULT_SHIFT_THRESHOLD
from .registration import RegistrationConfig
from .reports import JSON_NUMBER, parse_json, read_text
from .simulate import LR_INPLANE_FACTOR, MotionScenario, lr_geometry

_PHANTOM_SIZES = ("length_mm", "height_mm", "body_width_mm", "head_width_mm")
_DEFAULT_MOTION = [1.5, 0.0, 0.0, 0.0, 0.0, 0.6]   # slab 1's row when scenario is None


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

    def motion_scenario(self, num_slabs: int, center) -> MotionScenario:
        """Per-slab motion about ``center`` and the noise level of a simulation.
        With no ``scenario``, slab 1 of two or more takes modest coil-possible
        motion (1.5 deg about x, 0.6 mm along z) and the others stay still."""
        rows = self.scenario
        if rows is None:
            rows = [_DEFAULT_MOTION if j == 1 else [0.0] * 6 for j in range(num_slabs)]
        if len(rows) != num_slabs:
            raise ConfigError(f"scenario lists {len(rows)} slabs, layout has {num_slabs}")
        transforms = tuple(RigidTransform(rotation=tuple(np.radians(row[:3])),
                                          translation=tuple(row[3:]), center=center)
                           for row in rows)
        return MotionScenario(transforms, noise_sigma_pct=self.noise_sigma_pct)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


_DEFAULTS = dataclasses.asdict(PipelineConfig())


def _check_type(key, value) -> None:
    """Integer and string keys need their default's type, float keys any number,
    list keys a list of numbers, ``scenario`` a list of rows of 6 numbers
    (``parse_json`` admits finite numbers only)."""
    default = _DEFAULTS[key]
    if default is None:
        ok = value is None or isinstance(value, list) and all(
            isinstance(r, list) and len(r) == 6 and all(type(v) in JSON_NUMBER for v in r)
            for r in value)
    elif isinstance(default, list):
        ok = isinstance(value, list) and all(type(v) in JSON_NUMBER for v in value)
    elif isinstance(default, float):
        ok = type(value) in JSON_NUMBER
    else:
        ok = type(value) is type(default)
    if not ok:
        raise ConfigError(f"configuration key {key!r} does not take {value!r} "
                          f"(default {default!r})")


def parse_config_file(path) -> dict:
    """Read flat 'key = value' lines; values are JSON literals with finite numbers."""
    raw = {}
    for lineno, line in enumerate(read_text(path, "config file", ConfigError).split("\n"),
                                  start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        raw[key] = parse_json(value.strip(), f"{path}:{lineno}: value for {key!r}", ConfigError)
    return raw


def resolve_config(file_values: dict | None = None, **overrides):
    """Merge defaults, config-file values and CLI overrides (in that order),
    check every value whatever the command, and resolve the layout.

    Returns ``(config, layout, phantom_grid)``; ``simulate`` evaluates the phantom there.
    """
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
    try:
        config.registration_config()
    except InvalidInput as exc:
        raise ConfigError(f"configuration: {exc}") from None
    try:
        config.phantom_spec()
    except InvalidInput as exc:
        keys = ", ".join("phantom_" + k for k in _PHANTOM_SIZES)
        raise ConfigError(f"configuration: {exc} ({keys})") from None
    for key, ok, bound in (
        ("seed", config.seed >= 0, ">= 0"),
        ("fusion_epsilon", config.fusion_epsilon > 0, "> 0"),
        ("foreground_fraction", config.foreground_fraction >= 0, ">= 0"),
        ("noise_sigma_pct", config.noise_sigma_pct >= 0, ">= 0"),
        ("lr_inplane_factor", config.lr_inplane_factor >= 1, ">= 1"),
    ):
        if not ok:
            raise ConfigError(f"configuration: {key} must be {bound}")
    if len(config.phantom_fov_mm) != 2 or min(config.phantom_fov_mm) <= 0:
        raise ConfigError("configuration: phantom_fov_mm takes two values > 0")
    layout, voxel = resolve_layout(config.layout)
    try:
        geometry = phantom_geometry(layout.final_slices, voxel, tuple(config.phantom_fov_mm))
    except InvalidInput as exc:
        raise ConfigError(f"configuration: phantom_fov_mm on {config.layout!r}: {exc}") from None
    if max(geometry.dims) > MAX_DIM:   # simulate writes truth.nii.gz on this grid
        raise ConfigError(f"configuration: phantom_fov_mm {config.phantom_fov_mm} on "
                          f"{config.layout!r} gives a grid over {MAX_DIM} voxels on an axis, "
                          "the NIfTI-1 limit")
    try:
        lr_geometry(geometry, config.lr_inplane_factor)
    except InvalidInput as exc:
        raise ConfigError(f"configuration: lr_inplane_factor {config.lr_inplane_factor} "
                          f"on the {geometry.dims} phantom grid: {exc}") from None
    config.motion_scenario(layout.num_slabs, (0.0, 0.0, 0.0))   # checks the scenario length
    return config, layout, geometry

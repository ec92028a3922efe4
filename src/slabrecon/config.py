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

from .errors import ConfigError
from .geometry import RigidTransform
from .registration import RegistrationConfig


@dataclass
class PipelineConfig:
    layout: str = "ns_7t_32ch_t2w_interleaved"
    seed: int = 0

    # registration
    bins: int = 64
    pyramid: list = field(default_factory=lambda: [4, 2, 1])
    max_iterations: int = 50
    step_halvings: int = 5

    # fusion
    fusion_epsilon: float = 0.05

    # qc
    shift_threshold: float = 0.15
    foreground_fraction: float = 0.2

    # simulation
    noise_sigma_pct: float = 2.0
    lr_inplane_factor: float = 2.0
    scenario: list | None = None     # per-slab [rx_deg, ry_deg, rz_deg, tx, ty, tz]
    phantom_length_mm: float = 42.0
    phantom_height_mm: float = 7.0
    phantom_body_width_mm: float = 10.0
    phantom_head_width_mm: float = 17.0
    phantom_fov_mm: list = field(default_factory=lambda: [26.4, 19.2])

    def registration_config(self) -> RegistrationConfig:
        return RegistrationConfig(**{
            f.name: getattr(self, f.name) for f in dataclasses.fields(RegistrationConfig)
        })

    def scenario_transforms(self, num_slabs: int, center) -> list[RigidTransform]:
        if self.scenario is None:
            return [RigidTransform.identity(center) for _ in range(num_slabs)]
        if len(self.scenario) != num_slabs:
            raise ConfigError(
                f"scenario lists {len(self.scenario)} slabs, layout has {num_slabs}"
            )
        transforms = []
        for row in self.scenario:
            if len(row) != 6:
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


_FIELDS = {f.name: f for f in dataclasses.fields(PipelineConfig)}


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
            if key not in _FIELDS:
                raise ConfigError(
                    f"unknown configuration key {key!r}; known keys: "
                    + ", ".join(sorted(_FIELDS))
                )
            merged[key] = value
    return PipelineConfig(**merged)

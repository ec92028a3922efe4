"""Multi-slab acquisition simulator: subject motion, slab slicing, noise.

Moving-subject convention: the anatomy is transformed while the scanner
grid stays fixed, so slab j records truth(T_j^-1(p)) at world point p.
Between-slab motions are classified against what the head coil permits:
rotations about any axis and translation along z are possible, in-plane
translations (x, and y along the slab normal) are not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, LayoutMismatch
from .geometry import RigidTransform, invert
from .layout import SlabLayout, split_volume
from .volume import InterpolationMethod, Volume, resample

POSSIBLE_MOTIONS = ("rot_x", "rot_y", "rot_z", "trans_z")
IMPOSSIBLE_MOTIONS = ("trans_x", "trans_y")

REALISTIC_MAX_ROTATION_DEG = 5.0
REALISTIC_MAX_TRANSLATION_MM = 3.0

_COMPONENT_TOL = 1e-9


def classify_motion(transform: RigidTransform) -> list[str]:
    """Non-zero motion components of a transform, e.g. ['rot_x', 'trans_z']."""
    labels = []
    names = ("rot_x", "rot_y", "rot_z")
    for name, angle in zip(names, transform.rotation):
        if abs(angle) > _COMPONENT_TOL:
            labels.append(name)
    names = ("trans_x", "trans_y", "trans_z")
    for name, t in zip(names, transform.translation):
        if abs(t) > _COMPONENT_TOL:
            labels.append(name)
    return labels


@dataclass(frozen=True)
class MotionScenario:
    """Per-slab subject motion plus the Rician noise level (% of peak signal)."""

    transforms: tuple
    noise_sigma_pct: float = 0.0
    lr_transform: RigidTransform | None = None

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))
        if self.noise_sigma_pct < 0:
            raise InvalidInput("noise sigma must be >= 0")

    @property
    def num_slabs(self) -> int:
        return len(self.transforms)

    def labels(self) -> list[list[str]]:
        return [classify_motion(t) for t in self.transforms]

    @property
    def realistic(self) -> bool:
        """True when every slab motion uses coil-possible components within limits."""
        for t in self.transforms:
            labels = classify_motion(t)
            if any(lab in IMPOSSIBLE_MOTIONS for lab in labels):
                return False
            if np.degrees(np.max(np.abs(t.rotation))) > REALISTIC_MAX_ROTATION_DEG + 1e-9:
                return False
            if np.max(np.abs(t.translation)) > REALISTIC_MAX_TRANSLATION_MM + 1e-9:
                return False
        return True

    def to_dict(self) -> dict:
        return {
            "noise_sigma_pct": self.noise_sigma_pct,
            "realistic": self.realistic,
            "labels": self.labels(),
            "transforms": [t.to_dict() for t in self.transforms],
            "lr_transform": None if self.lr_transform is None else self.lr_transform.to_dict(),
        }

    @staticmethod
    def identity(num_slabs: int, center=(0.0, 0.0, 0.0),
                 noise_sigma_pct: float = 0.0) -> "MotionScenario":
        return MotionScenario(
            tuple(RigidTransform.identity(center) for _ in range(num_slabs)),
            noise_sigma_pct,
        )


@dataclass(frozen=True)
class SimulatedDataset:
    ground_truth: Volume
    slabs: tuple
    lr: Volume
    truth_transforms: tuple
    layout: SlabLayout
    rois: dict = field(default_factory=dict)
    seed: int = 0
    noise_sigma: float = 0.0


def rician_noise(volume: Volume, sigma: float, seed: int) -> Volume:
    """Magnitude-image noise: sqrt((x + n1)^2 + n2^2), n1, n2 ~ N(0, sigma^2)."""
    if sigma < 0:
        raise InvalidInput("sigma must be >= 0")
    if sigma == 0:
        return volume.copy()
    rng = np.random.default_rng(seed)
    n1 = rng.standard_normal(volume.dims) * sigma
    n2 = rng.standard_normal(volume.dims) * sigma
    return volume.with_data(np.sqrt((volume.data + n1) ** 2 + n2 ** 2))


def simulate_acquisition(truth: Volume, layout: SlabLayout, scenario: MotionScenario,
                         lr_spacing=None, seed: int = 0,
                         rois: dict | None = None) -> SimulatedDataset:
    """Slice the (per-slab transformed) truth into slabs and build the LR scan.

    The LR reference doubles the voxel along the in-plane z axis by default,
    mirroring how the continuous reference scan trades resolution for
    coverage; reconstruction later interpolates it back in-plane.
    """
    if scenario.num_slabs != layout.num_slabs:
        raise LayoutMismatch(
            f"scenario has {scenario.num_slabs} transforms, layout has "
            f"{layout.num_slabs} slabs"
        )
    if truth.dims[1] != layout.final_slices:
        raise LayoutMismatch(
            f"truth stack has {truth.dims[1]} slices, layout expects {layout.final_slices}"
        )
    peak = float(truth.data.max())
    sigma = scenario.noise_sigma_pct / 100.0 * peak

    slabs = []
    for j, transform in enumerate(scenario.transforms):
        if transform.is_identity():
            moved = truth
        else:
            # the anatomy does not stop at the grid edge: extend by mirror
            # continuation so motion never drags void into the slab planes
            moved = resample(
                truth, truth.geometry, invert(transform),
                InterpolationMethod.CubicBSpline, extend=True,
            ).volume
            # the scanner records magnitudes: clamp interpolation undershoot
            moved = moved.with_data(np.abs(moved.data))
        slab = split_volume(moved, layout)[j]
        slabs.append(rician_noise(slab, sigma, seed=_derive_seed(seed, j)))

    if lr_spacing is None:
        g = truth.geometry
        lr_spacing = (g.spacing[0], g.spacing[1], 2.0 * g.spacing[2])
    lr_geom = truth.geometry.with_spacing(lr_spacing)
    lr_transform = scenario.lr_transform or RigidTransform.identity()
    lr = resample(
        truth, lr_geom,
        invert(lr_transform) if not lr_transform.is_identity() else RigidTransform.identity(),
        InterpolationMethod.CubicBSpline, extend=True,
    ).volume
    lr = lr.with_data(np.abs(lr.data))
    lr = rician_noise(lr, sigma, seed=_derive_seed(seed, 1000))

    return SimulatedDataset(
        ground_truth=truth,
        slabs=tuple(slabs),
        lr=lr,
        truth_transforms=tuple(scenario.transforms),
        layout=layout,
        rois=dict(rois or {}),
        seed=seed,
        noise_sigma=sigma,
    )


def _derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])

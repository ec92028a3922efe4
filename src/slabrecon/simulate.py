"""Multi-slab acquisition simulator: subject motion, slab slicing, noise.

Moving-subject convention: the anatomy is transformed while the scanner
grid stays fixed, so slab j records truth(T_j^-1(p)) at world point p.
Each slab is sampled on its own slice grid, the sub-grid ``split_volume``
gives it: a moved slab is a cubic resample of the truth at those slices only.
Between-slab motions are classified against what the head coil permits:
rotations about any axis and translation along z are possible, in-plane
translations (x, and y along the slab normal) are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, LayoutMismatch
from .geometry import AffineGeometry, RigidTransform, invert
from .layout import SlabLayout, split_volume
from .volume import InterpolationMethod, Volume, resample

_COMPONENTS = ("rot_x", "rot_y", "rot_z", "trans_x", "trans_y", "trans_z")
IMPOSSIBLE_MOTIONS = ("trans_x", "trans_y")

REALISTIC_MAX_ROTATION_DEG = 5.0
REALISTIC_MAX_TRANSLATION_MM = 3.0

_COMPONENT_TOL = 1e-9
LR_INPLANE_FACTOR = 2.0   # LR voxel along the in-plane z axis, in HR voxels
# the most Rician noise, in % of the peak signal: a sigma as large as the peak already
# buries every structure, and at 1e300 % the noisy values overflowed to inf
MAX_NOISE_SIGMA_PCT = 100.0


def classify_motion(transform: RigidTransform) -> list[str]:
    """Non-zero motion components of a transform, e.g. ['rot_x', 'trans_z']."""
    values = transform.rotation + transform.translation
    return [name for name, v in zip(_COMPONENTS, values) if abs(v) > _COMPONENT_TOL]


@dataclass(frozen=True)
class MotionScenario:
    """Per-slab subject motion plus the Rician noise level (% of peak signal)."""

    transforms: tuple
    noise_sigma_pct: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "transforms", tuple(self.transforms))
        if not 0 <= self.noise_sigma_pct <= MAX_NOISE_SIGMA_PCT:
            raise InvalidInput(f"noise sigma must be >= 0 and at most {MAX_NOISE_SIGMA_PCT:g}% "
                               f"of the peak signal, got {self.noise_sigma_pct}")

    @property
    def num_slabs(self) -> int:
        return len(self.transforms)

    def labels(self) -> list[list[str]]:
        return [classify_motion(t) for t in self.transforms]

    @property
    def realistic(self) -> bool:
        """True when every slab motion uses coil-possible components within limits."""
        for t in self.transforms:
            if any(lab in IMPOSSIBLE_MOTIONS for lab in classify_motion(t)):
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
    layout: SlabLayout


def rician_noise(volume: Volume, sigma: float, seed: int) -> Volume:
    """Magnitude-image noise: sqrt((x + n1)^2 + n2^2), n1, n2 ~ N(0, sigma^2)."""
    if sigma < 0:
        raise InvalidInput("sigma must be >= 0")
    if sigma == 0:
        return volume
    # in place, in the formula's order of operations: the same bits
    rng = np.random.default_rng(seed)
    n1 = rng.standard_normal(volume.dims)
    n1 *= sigma
    n1 += volume.data
    np.square(n1, out=n1)
    n2 = rng.standard_normal(volume.dims)
    n2 *= sigma
    np.square(n2, out=n2)
    n1 += n2
    return volume.with_data(np.sqrt(n1, out=n1))


def lr_geometry(geometry: AffineGeometry, lr_inplane_factor: float) -> AffineGeometry:
    """The LR grid over ``geometry``'s extent; ``InvalidInput`` if it has no z column."""
    sx, sy, sz = geometry.spacing
    return geometry.with_spacing((sx, sy, lr_inplane_factor * sz))


def simulate_acquisition(truth: Volume, layout: SlabLayout, scenario: MotionScenario,
                         lr_inplane_factor: float = LR_INPLANE_FACTOR,
                         seed: int = 0) -> SimulatedDataset:
    """Slice the (per-slab transformed) truth into slabs and build the LR scan.

    The truth is split once; a moved slab resamples it on its own part's grid.
    The LR reference widens the voxel along the in-plane z axis by
    ``lr_inplane_factor``, mirroring how the continuous reference scan trades
    resolution for coverage; reconstruction later interpolates it back in-plane.
    """
    if scenario.num_slabs != layout.num_slabs:
        raise LayoutMismatch(
            f"scenario has {scenario.num_slabs} transforms, layout has "
            f"{layout.num_slabs} slabs"
        )
    peak = float(truth.data.max())
    sigma = scenario.noise_sigma_pct / 100.0 * peak

    slabs = []
    for j, (transform, slab) in enumerate(zip(scenario.transforms, split_volume(truth, layout))):
        if not transform.is_identity():
            # the anatomy does not stop at the grid edge: extend by mirror
            # continuation so motion never drags void into the slab planes
            [slab] = resample([truth], slab.geometry, invert(transform),
                              InterpolationMethod.CubicBSpline, extend=True)
            # the scanner records magnitudes: clamp interpolation undershoot
            slab = slab.with_data(np.abs(slab.data))
        slabs.append(rician_noise(slab, sigma, seed=_derive_seed(seed, j)))

    [lr] = resample([truth], lr_geometry(truth.geometry, lr_inplane_factor),
                    RigidTransform.identity(), InterpolationMethod.CubicBSpline, extend=True)
    lr = lr.with_data(np.abs(lr.data))
    lr = rician_noise(lr, sigma, seed=_derive_seed(seed, 1000))

    return SimulatedDataset(
        ground_truth=truth,
        slabs=tuple(slabs),
        lr=lr,
        layout=layout,
    )


def _derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])

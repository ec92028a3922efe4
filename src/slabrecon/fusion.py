"""Mask-normalized fusion of registered slabs into one consistent volume.

The fused intensity is the sum of registered signals divided by the sum of
registered masks, which keeps intensities consistent wherever slabs
overlap partially. Voxels whose mask sum stays below a small floor are
declared uncovered and set to zero rather than inpainted: information loss
is something to detect, not to hide.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RegistrationFailed
from .layout import SlabLayout, pad_slab, prepare_reference
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    apply_result,
    register_rigid,
)
from .volume import Volume

DEFAULT_EPSILON = 0.05
UNCOVERED_WARN_FRACTION = 0.02


@dataclass(frozen=True)
class FusionOutput:
    fused: Volume
    mask_sum: Volume
    coverage_map: Volume
    uncovered_fraction: float

    def to_dict(self) -> dict:
        return {
            "uncovered_fraction": self.uncovered_fraction,
            "covered_voxels": int(self.coverage_map.data.sum()),
            "total_voxels": self.fused.geometry.n_voxels,
        }


def fuse(signals: list[Volume], masks: list[Volume],
         epsilon: float = DEFAULT_EPSILON) -> FusionOutput:
    """Divide the summed signals by the summed masks where coverage suffices.

    Masks are fractional weights in [0, 1]. Summation happens in a
    canonical per-voxel order so the output is bit-identical under any
    permutation of the input slabs.
    """
    if len(signals) == 0 or len(signals) != len(masks):
        raise InvalidInput("need the same non-zero number of signals and masks")
    if epsilon <= 0:
        raise InvalidInput("epsilon must be > 0")
    geom = signals[0].geometry
    for vol in list(signals[1:]) + list(masks):
        if not vol.geometry.same_grid(geom, tol=1e-6):
            raise InvalidInput("all signals and masks must share one grid")
    for m in masks:
        lo, hi = m.value_range()
        if lo < -1e-6 or hi > 1.0 + 1e-6:
            raise InvalidInput(
                f"mask values [{lo:.3f}, {hi:.3f}] outside [0, 1]"
            )

    signal_sum = np.sort(np.stack([s.data for s in signals]), axis=0).sum(axis=0)
    mask_sum = np.sort(np.stack([m.data for m in masks]), axis=0).sum(axis=0)

    covered = mask_sum >= epsilon
    fused = np.zeros(geom.dims)
    np.divide(signal_sum, mask_sum, out=fused, where=covered)
    fused[~covered] = 0.0
    uncovered = 1.0 - covered.mean()
    return FusionOutput(
        fused=Volume(geom, fused),
        mask_sum=Volume(geom, mask_sum),
        coverage_map=Volume(geom, covered.astype(float)),
        uncovered_fraction=float(uncovered),
    )


def reconstruct(slabs: list[Volume], layout: SlabLayout, lr: Volume,
                reg_config: RegistrationConfig | None = None,
                epsilon: float = DEFAULT_EPSILON) -> tuple[FusionOutput, list[RegistrationResult]]:
    """Full pipeline: prepare reference, pad, register, reslice, fuse."""
    if len(slabs) != layout.num_slabs:
        raise InvalidInput(
            f"got {len(slabs)} slabs, layout expects {layout.num_slabs}"
        )
    reg_config = reg_config or RegistrationConfig()
    hr_inplane = (slabs[0].geometry.spacing[0], slabs[0].geometry.spacing[2])
    reference = prepare_reference(lr, hr_inplane)
    padded = [pad_slab(slab, layout, j) for j, slab in enumerate(slabs)]

    results = []
    for j, pad in enumerate(padded):
        try:
            results.append(register_rigid(pad, reference, reg_config))
        except RegistrationFailed as exc:
            raise RegistrationFailed(f"slab {j}: {exc}") from exc

    target = padded[0].signal.geometry
    resliced = [apply_result(pad, res, target) for pad, res in zip(padded, results)]
    fusion = fuse([sig for sig, _ in resliced], [msk for _, msk in resliced], epsilon)
    if fusion.uncovered_fraction > UNCOVERED_WARN_FRACTION:
        warnings.warn(
            f"uncovered fraction {fusion.uncovered_fraction:.3f} exceeds "
            f"{UNCOVERED_WARN_FRACTION}: probable between-slab information loss",
            stacklevel=2,
        )
    return fusion, results

"""Slab layout algebra, null-slice padding and signal masks.

A layout describes how K acquired slabs of N slices each tile the final
slice stack. Two base kinds exist: contiguous blocks with an optional
shared overlap, and interleaved slabs whose slices alternate with a gap
equal to the slice thickness. Layouts can be nested: two interleaved
pairs joined contiguously reproduce the four-slab acquisition scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .errors import ConfigError, InvalidInput, LayoutMismatch
from .geometry import AffineGeometry, RigidTransform
from .volume import InterpolationMethod, Volume, resample


@dataclass(frozen=True)
class InterleavedLayout:
    """K slabs whose slices alternate; slab j owns final indices j, j+K, ..."""

    slices_per_slab: int
    slabs: int = 2
    slice_thickness_mm: float = 1.2

    def __post_init__(self):
        if self.slabs < 2:
            raise InvalidInput("interleaved layout needs at least 2 slabs")
        if self.slices_per_slab < 1:
            raise InvalidInput("slices_per_slab must be >= 1")
        if self.slice_thickness_mm <= 0:
            raise InvalidInput("slice thickness must be > 0")

    @property
    def kind(self) -> str:
        return "interleaved"

    @property
    def num_slabs(self) -> int:
        return self.slabs

    @property
    def final_slices(self) -> int:
        return self.slabs * self.slices_per_slab

    def owned_slices(self, slab_index: int) -> np.ndarray:
        self._check_index(slab_index)
        return np.arange(slab_index, self.final_slices, self.slabs)

    def _check_index(self, slab_index: int):
        if not 0 <= slab_index < self.num_slabs:
            raise LayoutMismatch(
                f"slab index {slab_index} out of range for {self.num_slabs} slabs"
            )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slabs": self.slabs,
            "slices_per_slab": self.slices_per_slab,
            "slice_thickness_mm": self.slice_thickness_mm,
            "final_slices": self.final_slices,
            # slab 0 owns the anterior-most slice (even final indices for K=2)
            "interleave_parity": "slab j starts at final index j",
        }


@dataclass(frozen=True)
class ContiguousLayout:
    """K adjacent blocks, anterior slab first, sharing ``overlap_slices`` slices."""

    slices_per_slab: int
    slabs: int = 2
    overlap_slices: int = 1
    slice_thickness_mm: float = 1.2

    def __post_init__(self):
        if self.slabs < 1:
            raise InvalidInput("contiguous layout needs at least 1 slab")
        if self.slices_per_slab < 1:
            raise InvalidInput("slices_per_slab must be >= 1")
        if not 0 <= self.overlap_slices < self.slices_per_slab:
            raise InvalidInput("overlap must be in [0, slices_per_slab)")
        if self.slabs >= 3 and 2 * self.overlap_slices > self.slices_per_slab:
            # otherwise non-adjacent slabs would share slices
            raise InvalidInput("overlap must not exceed half a slab for 3+ slabs")
        if self.slice_thickness_mm <= 0:
            raise InvalidInput("slice thickness must be > 0")

    @property
    def kind(self) -> str:
        return "contiguous"

    @property
    def num_slabs(self) -> int:
        return self.slabs

    @property
    def final_slices(self) -> int:
        return self.slabs * self.slices_per_slab - (self.slabs - 1) * self.overlap_slices

    def owned_slices(self, slab_index: int) -> np.ndarray:
        if not 0 <= slab_index < self.num_slabs:
            raise LayoutMismatch(
                f"slab index {slab_index} out of range for {self.num_slabs} slabs"
            )
        start = slab_index * (self.slices_per_slab - self.overlap_slices)
        return np.arange(start, start + self.slices_per_slab)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "slabs": self.slabs,
            "slices_per_slab": self.slices_per_slab,
            "overlap_slices": self.overlap_slices,
            "slice_thickness_mm": self.slice_thickness_mm,
            "final_slices": self.final_slices,
        }


@dataclass(frozen=True)
class NestedLayout:
    """Child layouts placed contiguously with a shared overlap between them.

    Slab indices run through the children in order (anterior child first).
    """

    children: tuple
    overlap_slices: int = 1

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        if len(self.children) < 2:
            raise InvalidInput("nested layout needs at least 2 children")
        n = {c.slices_per_slab for c in self.children}
        th = {c.slice_thickness_mm for c in self.children}
        if len(n) != 1 or len(th) != 1:
            raise InvalidInput("nested children must share slice count and thickness")
        if self.overlap_slices < 0:
            raise InvalidInput("overlap must be >= 0")

    @property
    def kind(self) -> str:
        return "nested"

    @property
    def slices_per_slab(self) -> int:
        return self.children[0].slices_per_slab

    @property
    def slice_thickness_mm(self) -> float:
        return self.children[0].slice_thickness_mm

    @property
    def num_slabs(self) -> int:
        return sum(c.num_slabs for c in self.children)

    @property
    def final_slices(self) -> int:
        total = sum(c.final_slices for c in self.children)
        return total - (len(self.children) - 1) * self.overlap_slices

    def _locate(self, slab_index: int):
        if not 0 <= slab_index < self.num_slabs:
            raise LayoutMismatch(
                f"slab index {slab_index} out of range for {self.num_slabs} slabs"
            )
        offset = 0
        local = slab_index
        for child in self.children:
            if local < child.num_slabs:
                return child, local, offset
            local -= child.num_slabs
            offset += child.final_slices - self.overlap_slices
        raise AssertionError("unreachable")

    def owned_slices(self, slab_index: int) -> np.ndarray:
        child, local, offset = self._locate(slab_index)
        return child.owned_slices(local) + offset

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "overlap_slices": self.overlap_slices,
            "children": [c.to_dict() for c in self.children],
            "final_slices": self.final_slices,
        }


SlabLayout = Union[InterleavedLayout, ContiguousLayout, NestedLayout]


def layout_from_dict(spec: dict) -> SlabLayout:
    """Inverse of the layouts' ``to_dict``; also reads hand-written layout files."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    try:
        if kind == "interleaved":
            return InterleavedLayout(
                slices_per_slab=int(spec["slices_per_slab"]),
                slabs=int(spec.get("slabs", 2)),
                slice_thickness_mm=float(spec.get("slice_thickness_mm", 1.2)),
            )
        if kind == "contiguous":
            return ContiguousLayout(
                slices_per_slab=int(spec["slices_per_slab"]),
                slabs=int(spec.get("slabs", 2)),
                overlap_slices=int(spec.get("overlap_slices", 1)),
                slice_thickness_mm=float(spec.get("slice_thickness_mm", 1.2)),
            )
        if kind == "nested":
            children = tuple(layout_from_dict(c) for c in spec["children"])
            return NestedLayout(children, overlap_slices=int(spec.get("overlap_slices", 1)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} layout: missing or malformed value ({exc})") from None
    raise ConfigError(f"unknown layout kind {kind!r}")


@dataclass(frozen=True)
class PaddedSlab:
    """A slab expanded to final-stack dimensions plus its 0/1 signal mask."""

    signal: Volume
    mask: Volume
    slab_index: int


def _padded_geometry(acquired: Volume, layout: SlabLayout, owned: np.ndarray) -> AffineGeometry:
    geom = acquired.geometry
    th = layout.slice_thickness_mm
    # every layout owns an arithmetic progression of slices
    stride = int(owned[1] - owned[0]) if len(owned) > 1 else 1
    if len(owned) > 1 and abs(geom.spacing[1] - stride * th) > 1e-6:
        raise LayoutMismatch(
            f"acquired slice spacing {geom.spacing[1]} mm does not match "
            f"layout stride {stride} x {th} mm"
        )
    # padded slice 'owned[0]' coincides with acquired slice 0
    shift = geom.axes @ np.array([0.0, owned[0] * th, 0.0])
    origin = tuple(np.asarray(geom.origin) - shift)
    dims = (geom.dims[0], layout.final_slices, geom.dims[2])
    spacing = (geom.spacing[0], th, geom.spacing[2])
    return AffineGeometry(dims, spacing, origin, geom.axes)


def pad_slab(acquired: Volume, layout: SlabLayout, slab_index: int) -> PaddedSlab:
    """Insert null slices so the slab reaches final-stack dimensions.

    The mask is exactly 1.0 on slices with acquired signal, 0.0 on null
    slices; the signal is zero wherever the mask is zero.
    """
    owned = layout.owned_slices(slab_index)
    n = layout.slices_per_slab
    if acquired.dims[1] != n:
        raise LayoutMismatch(
            f"slab {slab_index} has {acquired.dims[1]} slices, layout expects {n}"
        )
    geom = _padded_geometry(acquired, layout, owned)
    signal = np.zeros(geom.dims)
    mask = np.zeros(geom.dims)
    signal[:, owned, :] = acquired.data
    mask[:, owned, :] = 1.0
    return PaddedSlab(Volume(geom, signal), Volume(geom, mask), slab_index)


def split_volume(full: Volume, layout: SlabLayout) -> list[Volume]:
    """Inverse of pad_slab: extract each slab's owned slices from a full stack."""
    if full.dims[1] != layout.final_slices:
        raise LayoutMismatch(
            f"volume has {full.dims[1]} slices, layout expects {layout.final_slices}"
        )
    geom = full.geometry
    th = layout.slice_thickness_mm
    slabs = []
    for j in range(layout.num_slabs):
        owned = layout.owned_slices(j)
        stride = int(owned[1] - owned[0]) if len(owned) > 1 else 1
        shift = geom.axes @ np.array([0.0, owned[0] * th, 0.0])
        sub = AffineGeometry(
            (geom.dims[0], len(owned), geom.dims[2]),
            (geom.spacing[0], stride * th, geom.spacing[2]),
            tuple(np.asarray(geom.origin) + shift),
            geom.axes,
        )
        slabs.append(Volume(sub, full.data[:, owned, :]))
    return slabs


def prepare_reference(lr: Volume, hr_inplane: tuple[float, float]) -> Volume:
    """Resample the LR reference in-plane to HR spacing; slice axis untouched."""
    rx, rz = float(hr_inplane[0]), float(hr_inplane[1])
    if rx <= 0 or rz <= 0:
        raise InvalidInput("target in-plane spacing must be > 0")
    geom = lr.geometry
    if geom.spacing[0] < rx - 1e-9 or geom.spacing[2] < rz - 1e-9:
        raise InvalidInput("LR in-plane spacing must be >= the HR target spacing")
    target = geom.with_spacing((rx, geom.spacing[1], rz))
    return resample(lr, target, RigidTransform.identity(),
                    InterpolationMethod.CubicBSpline).volume


@dataclass(frozen=True)
class AcquisitionPreset:
    """One acquisition table row: geometry that matters plus inert metadata."""

    name: str
    voxel_mm: tuple[float, float, float]
    slices_per_slab: int
    layout: SlabLayout | None  # None for single continuous (LR) slabs
    metadata: dict = field(default_factory=dict)

    @property
    def final_slices(self) -> int:
        if self.layout is None:
            return self.slices_per_slab
        return self.layout.final_slices

    def build_layout(self) -> SlabLayout:
        if self.layout is None:
            return ContiguousLayout(
                slices_per_slab=self.slices_per_slab,
                slabs=1,
                overlap_slices=0,
                slice_thickness_mm=self.voxel_mm[1],
            )
        return self.layout


def _meta(nb, time_per_slab, tr, te, angle, fov, matrix, bandwidth, turbo=None):
    return {
        "subjects": nb,
        "acq_time_per_slab_min": time_per_slab,
        "tr_ms": tr,
        "te_ms": te,
        "refocusing_angle_deg": angle,
        "fov_mm": fov,
        "acquisition_matrix": matrix,
        "bandwidth_hz_per_px": bandwidth,
        "turbo_factor": turbo,
    }


PRESETS: dict[str, AcquisitionPreset] = {
    "ns_7t_32ch_t2w_contiguous": AcquisitionPreset(
        "ns_7t_32ch_t2w_contiguous", (0.3, 1.2, 0.3), 23,
        ContiguousLayout(23, slabs=2, overlap_slices=1, slice_thickness_mm=1.2),
        _meta(19, "5:00", 5000, 82.0, 60, "173x173", "576x576", 121, 9),
    ),
    "ns_7t_32ch_t2w_interleaved": AcquisitionPreset(
        "ns_7t_32ch_t2w_interleaved", (0.3, 1.2, 0.3), 23,
        InterleavedLayout(23, slabs=2, slice_thickness_mm=1.2),
        _meta(37, "5:00", 5000, 82.0, 60, "173x173", "576x576", 121, 9),
    ),
    "ns_7t_32ch_t2w_lr": AcquisitionPreset(
        "ns_7t_32ch_t2w_lr", (0.3, 1.2, 0.6), 46, None,
        _meta(37, "4:50", 8000, 80.0, 60, "173x173", "311x576", 121, 9),
    ),
    "ns_7t_32ch_t2star_gre3": AcquisitionPreset(
        "ns_7t_32ch_t2star_gre3", (0.3, 1.2, 0.3), 15,
        InterleavedLayout(15, slabs=3, slice_thickness_mm=1.2),
        _meta(37, "12:00", 791, (16.0, 33.0), 65, "173x173", "576x576", (70, 70)),
    ),
    "cmrr_7t_16ch_t2w_interleaved": AcquisitionPreset(
        "cmrr_7t_16ch_t2w_interleaved", (0.25, 1.2, 0.25), 30,
        InterleavedLayout(30, slabs=2, slice_thickness_mm=1.2),
        _meta(9, "5:04", 5830, 64.0, 60, "119x130", "472x512", 175, 9),
    ),
    "cmrr_7t_16ch_t2w_lr": AcquisitionPreset(
        "cmrr_7t_16ch_t2w_lr", (0.25, 1.2, 0.5), 60, None,
        _meta(9, "5:08", 11800, 64.0, 60, "119x130", "236x512", 175, 9),
    ),
    "cmrr_7t_32ch_t2w_interleaved4": AcquisitionPreset(
        "cmrr_7t_32ch_t2w_interleaved4", (0.25, 1.2, 0.25), 16,
        NestedLayout(
            (
                InterleavedLayout(16, slabs=2, slice_thickness_mm=1.2),
                InterleavedLayout(16, slabs=2, slice_thickness_mm=1.2),
            ),
            overlap_slices=1,
        ),
        _meta(4, "5:37", 6000, 55.0, 120, "130x130", "512x512", 174, 9),
    ),
    "cmrr_7t_32ch_t2w_lr": AcquisitionPreset(
        "cmrr_7t_32ch_t2w_lr", (0.25, 1.2, 0.5), 62, None,
        _meta(4, "5:37", 12000, 54.0, 120, "130x130", "256x512", 174, 9),
    ),
}


def get_preset(name: str) -> AcquisitionPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidInput(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None

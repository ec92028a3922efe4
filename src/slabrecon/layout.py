"""Slab layout algebra, null-slice padding and signal masks.

A layout describes how K acquired slabs of N slices each tile the final
slice stack. Two base kinds exist: contiguous blocks with an optional
shared overlap, and interleaved slabs whose slices alternate with a gap
equal to the slice thickness. Layouts can be nested: two interleaved
pairs joined contiguously reproduce the four-slab acquisition scheme.
A continuous (LR) scan is a one-slab contiguous layout. Layout files and
the acquisition presets are read here too.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields
from typing import ClassVar, Union

import numpy as np

from .errors import ConfigError, InvalidInput, LayoutMismatch
from .geometry import AffineGeometry, RigidTransform
from .reports import json_integer, json_number, read_json
from .volume import InterpolationMethod, Volume, resample


class _Layout:
    """What every layout kind shares: the slab-index range check, the per-slab
    geometry and the dict form. A kind supplies ``final_slices``, ``_owned``
    and a ``slabs`` field or its own ``num_slabs``."""

    kind: ClassVar[str]

    def __post_init__(self):
        if self.slices_per_slab < 1:
            raise InvalidInput("slices_per_slab must be >= 1")
        if self.slice_thickness_mm <= 0:
            raise InvalidInput("slice thickness must be > 0")

    @property
    def num_slabs(self) -> int:
        return self.slabs

    def owned_slices(self, slab_index: int) -> np.ndarray:
        """Final-stack slice indices of slab ``slab_index``, ascending."""
        if not 0 <= slab_index < self.num_slabs:
            raise LayoutMismatch(
                f"slab index {slab_index} out of range for {self.num_slabs} slabs"
            )
        return self._owned(slab_index)

    def slab_offset(self, slab_index: int, axes) -> tuple[np.ndarray, float]:
        """World shift from final slice 0 to the slab's first slice, and the
        slab's slice spacing. Every layout owns an arithmetic progression."""
        owned = self.owned_slices(slab_index)
        th = self.slice_thickness_mm
        stride = int(owned[1] - owned[0]) if len(owned) > 1 else 1
        return axes @ np.array([0.0, owned[0] * th, 0.0]), stride * th

    def to_dict(self) -> dict:
        """The fields, the kind and the final slice count; ``layout_from_dict`` inverts it."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {"kind": self.kind, **values, "final_slices": self.final_slices}


@dataclass(frozen=True)
class InterleavedLayout(_Layout):
    """K slabs whose slices alternate; slab j owns final indices j, j+K, ..."""

    kind: ClassVar[str] = "interleaved"
    slices_per_slab: int
    slabs: int = 2
    slice_thickness_mm: float = 1.2

    def __post_init__(self):
        if self.slabs < 2:
            raise InvalidInput("interleaved layout needs at least 2 slabs")
        super().__post_init__()

    @property
    def final_slices(self) -> int:
        return self.slabs * self.slices_per_slab

    def _owned(self, slab_index: int) -> np.ndarray:
        return np.arange(slab_index, self.final_slices, self.slabs)

    def to_dict(self) -> dict:
        # slab 0 owns the anterior-most slice (even final indices for K=2)
        return {**super().to_dict(), "interleave_parity": "slab j starts at final index j"}


@dataclass(frozen=True)
class ContiguousLayout(_Layout):
    """K adjacent blocks, anterior slab first, sharing ``overlap_slices`` slices."""

    kind: ClassVar[str] = "contiguous"
    slices_per_slab: int
    slabs: int = 2
    overlap_slices: int = 1
    slice_thickness_mm: float = 1.2

    def __post_init__(self):
        if self.slabs < 1:
            raise InvalidInput("contiguous layout needs at least 1 slab")
        super().__post_init__()
        if not 0 <= self.overlap_slices < self.slices_per_slab:
            raise InvalidInput("overlap must be in [0, slices_per_slab)")
        if self.slabs >= 3 and 2 * self.overlap_slices > self.slices_per_slab:
            # otherwise non-adjacent slabs would share slices
            raise InvalidInput("overlap must not exceed half a slab for 3+ slabs")

    @property
    def final_slices(self) -> int:
        return self.slabs * self.slices_per_slab - (self.slabs - 1) * self.overlap_slices

    def _owned(self, slab_index: int) -> np.ndarray:
        start = slab_index * (self.slices_per_slab - self.overlap_slices)
        return np.arange(start, start + self.slices_per_slab)


@dataclass(frozen=True)
class NestedLayout(_Layout):
    """Child layouts placed contiguously with a shared overlap between them.

    Slab indices run through the children in order (anterior child first).
    """

    kind: ClassVar[str] = "nested"
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

    def _owned(self, slab_index: int) -> np.ndarray:
        offset = 0
        for child in self.children:
            if slab_index < child.num_slabs:
                return child.owned_slices(slab_index) + offset
            slab_index -= child.num_slabs
            offset += child.final_slices - self.overlap_slices
        raise AssertionError("unreachable")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "children": [c.to_dict() for c in self.children]}


SlabLayout = Union[InterleavedLayout, ContiguousLayout, NestedLayout]


_KINDS = (InterleavedLayout, ContiguousLayout, NestedLayout)
_CONVERTERS = {
    "slices_per_slab": json_integer, "slabs": json_integer, "overlap_slices": json_integer,
    "slice_thickness_mm": json_number,
    "children": lambda specs: tuple(layout_from_dict(c) for c in specs),
}


def layout_from_dict(spec: dict) -> SlabLayout:
    """Inverse of the layouts' ``to_dict``; also reads hand-written layout files."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    cls = next((c for c in _KINDS if c.kind == kind), None)
    if cls is None:
        raise ConfigError(f"unknown layout kind {kind!r}")
    try:
        return cls(**{f.name: _CONVERTERS[f.name](spec[f.name])
                      for f in fields(cls) if f.name in spec})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{kind} layout: missing or malformed value ({exc})") from None


def resolve_layout(name: str) -> tuple[SlabLayout, tuple[float, float, float]]:
    """Preset name or path to a JSON layout file -> (layout, voxel spacing)."""
    if os.path.exists(name):
        spec = read_json(name, "layout file", ConfigError)
        try:
            layout = layout_from_dict(spec)
        except InvalidInput as exc:   # a value the layout's own checks refuse
            raise ConfigError(f"layout file {name}: {exc}") from None
        default = (0.3, layout.slice_thickness_mm, 0.3)
        try:
            sx, sy, sz = (json_number(v) for v in spec.get("voxel_mm", default))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"layout file {name}: voxel_mm is not 3 numbers ({exc})") from None
        if min(sx, sy, sz) <= 0:
            raise ConfigError(f"layout file {name}: voxel_mm must be > 0, got {sx} x {sy} x {sz}")
        return layout, (sx, sy, sz)
    preset = get_preset(name)
    return preset.layout, preset.voxel_mm


@dataclass(frozen=True)
class PaddedSlab:
    """A slab expanded to final-stack dimensions plus its 0/1 signal mask."""

    signal: Volume
    mask: Volume
    slab_index: int


def _slice_grid(geom: AffineGeometry, slices: int, spacing: float, shift) -> AffineGeometry:
    """``geom`` with ``slices`` slices ``spacing`` mm apart, its origin moved by ``shift``."""
    dims = (geom.dims[0], slices, geom.dims[2])
    spacings = (geom.spacing[0], spacing, geom.spacing[2])
    return AffineGeometry(dims, spacings, tuple(np.asarray(geom.origin) + shift), geom.axes)


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
    geom = acquired.geometry
    shift, spacing = layout.slab_offset(slab_index, geom.axes)
    if n > 1 and abs(geom.spacing[1] - spacing) > 1e-6:
        raise LayoutMismatch(
            f"acquired slice spacing {geom.spacing[1]} mm does not match "
            f"layout slab spacing {spacing} mm"
        )
    # padded slice 'owned[0]' coincides with acquired slice 0
    padded = _slice_grid(geom, layout.final_slices, layout.slice_thickness_mm, -shift)
    signal = np.zeros(padded.dims)
    mask = np.zeros(padded.dims)
    signal[:, owned, :] = acquired.data
    mask[:, owned, :] = 1.0
    return PaddedSlab(Volume(padded, signal), Volume(padded, mask), slab_index)


def split_volume(full: Volume, layout: SlabLayout) -> list[Volume]:
    """Inverse of pad_slab: extract each slab's owned slices from a full stack."""
    if full.dims[1] != layout.final_slices:
        raise LayoutMismatch(
            f"volume has {full.dims[1]} slices, layout expects {layout.final_slices}"
        )
    geom = full.geometry
    slabs = []
    for j in range(layout.num_slabs):
        owned = layout.owned_slices(j)
        shift, spacing = layout.slab_offset(j, geom.axes)
        sub = _slice_grid(geom, len(owned), spacing, shift)
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
    return resample([lr], target, RigidTransform.identity(),
                    InterpolationMethod.CubicBSpline)[0]


@dataclass(frozen=True)
class AcquisitionPreset:
    """One acquisition table row: geometry that matters plus inert metadata."""

    name: str
    voxel_mm: tuple[float, float, float]
    layout: SlabLayout
    metadata: dict = field(default_factory=dict)

    @property
    def slices_per_slab(self) -> int:
        return self.layout.slices_per_slab

    @property
    def final_slices(self) -> int:
        return self.layout.final_slices

    def build_layout(self) -> SlabLayout:
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


PRESETS: dict[str, AcquisitionPreset] = {p.name: p for p in (
    AcquisitionPreset(
        "ns_7t_32ch_t2w_contiguous", (0.3, 1.2, 0.3),
        ContiguousLayout(23, slabs=2, overlap_slices=1, slice_thickness_mm=1.2),
        _meta(19, "5:00", 5000, 82.0, 60, "173x173", "576x576", 121, 9),
    ),
    AcquisitionPreset(
        "ns_7t_32ch_t2w_interleaved", (0.3, 1.2, 0.3),
        InterleavedLayout(23, slabs=2, slice_thickness_mm=1.2),
        _meta(37, "5:00", 5000, 82.0, 60, "173x173", "576x576", 121, 9),
    ),
    AcquisitionPreset(
        "ns_7t_32ch_t2w_lr", (0.3, 1.2, 0.6),
        ContiguousLayout(46, slabs=1, overlap_slices=0, slice_thickness_mm=1.2),
        _meta(37, "4:50", 8000, 80.0, 60, "173x173", "311x576", 121, 9),
    ),
    AcquisitionPreset(
        "ns_7t_32ch_t2star_gre3", (0.3, 1.2, 0.3),
        InterleavedLayout(15, slabs=3, slice_thickness_mm=1.2),
        _meta(37, "12:00", 791, (16.0, 33.0), 65, "173x173", "576x576", (70, 70)),
    ),
    AcquisitionPreset(
        "cmrr_7t_16ch_t2w_interleaved", (0.25, 1.2, 0.25),
        InterleavedLayout(30, slabs=2, slice_thickness_mm=1.2),
        _meta(9, "5:04", 5830, 64.0, 60, "119x130", "472x512", 175, 9),
    ),
    AcquisitionPreset(
        "cmrr_7t_16ch_t2w_lr", (0.25, 1.2, 0.5),
        ContiguousLayout(60, slabs=1, overlap_slices=0, slice_thickness_mm=1.2),
        _meta(9, "5:08", 11800, 64.0, 60, "119x130", "236x512", 175, 9),
    ),
    AcquisitionPreset(
        "cmrr_7t_32ch_t2w_interleaved4", (0.25, 1.2, 0.25),
        NestedLayout(
            (
                InterleavedLayout(16, slabs=2, slice_thickness_mm=1.2),
                InterleavedLayout(16, slabs=2, slice_thickness_mm=1.2),
            ),
            overlap_slices=1,
        ),
        _meta(4, "5:37", 6000, 55.0, 120, "130x130", "512x512", 174, 9),
    ),
    AcquisitionPreset(
        "cmrr_7t_32ch_t2w_lr", (0.25, 1.2, 0.5),
        ContiguousLayout(62, slabs=1, overlap_slices=0, slice_thickness_mm=1.2),
        _meta(4, "5:37", 12000, 54.0, 120, "130x130", "256x512", 174, 9),
    ),
)}


def get_preset(name: str) -> AcquisitionPreset:
    try:
        return PRESETS[name]
    except KeyError:
        raise InvalidInput(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None

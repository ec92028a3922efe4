"""Quantitative quality control: ROI statistics, relative contrast, SNR,
and a slice-redundancy index for antero-posterior between-slab shifts.

The redundancy index compares how similar consecutive slices from
*different* slabs are (rho, cross-slab pairs (j, j+1)) against how similar
consecutive slices of the *same* slab are (rho0, pairs (j, j+K)). A
between-slab shift of one slice thickness makes cross-slab neighbours
near-identical while leaving same-slab similarity untouched, so
rho - rho0 jumps; the report flags when it exceeds a threshold. It reads
one stack on the final slice grid: the summed padded slabs before
registration, or a fused volume after it.

The paper rated motion artefacts by eye; these numbers stand in for that
rating. ``compute_qc`` measures one volume (ROI stats, RC, SNR) and
``shift_index`` one stack; ``slabrecon qc`` writes both into ``qc.json``.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateInput, EmptyROI, InvalidInput, LayoutMismatch
from .layout import InterleavedLayout, SlabLayout
from .reports import json_number, read_json, write_json
from .volume import Volume

# fewest voxels a slice pair must share for its correlation to count
_MIN_REGION = 32
DEFAULT_SHIFT_THRESHOLD = 0.15       # rho - rho0 that raises the flag
DEFAULT_FOREGROUND_FRACTION = 0.2    # of the stack's peak, for foreground


@dataclass(frozen=True)
class EllipsoidROI:
    """Ellipsoid in world space; a voxel belongs if its centre satisfies
    sum((R^T (p - c) / semi_axes)^2) <= 1."""

    center_mm: tuple[float, float, float]
    semi_axes_mm: tuple[float, float, float]
    axes: np.ndarray = field(default_factory=lambda: np.eye(3))
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "center_mm", tuple(float(v) for v in self.center_mm))
        object.__setattr__(self, "semi_axes_mm", tuple(float(v) for v in self.semi_axes_mm))
        ax = np.array(self.axes, dtype=float)
        ax.flags.writeable = False
        object.__setattr__(self, "axes", ax)
        if len(self.center_mm) != 3 or len(self.semi_axes_mm) != 3:
            raise InvalidInput("ROI center and semi-axes need 3 values each")
        if any(a <= 0 for a in self.semi_axes_mm):
            raise InvalidInput("ellipsoid semi-axes must be > 0")
        if ax.shape != (3, 3) or not np.allclose(ax.T @ ax, np.eye(3), atol=1e-6):
            raise InvalidInput("ROI axes must be orthonormal")

    def to_dict(self) -> dict:
        return {
            "center_mm": list(self.center_mm),
            "semi_axes_mm": list(self.semi_axes_mm),
            "axes": self.axes.tolist(),
            "label": self.label,
        }


@dataclass(frozen=True)
class ROIStats:
    mean: float
    std: float
    count: int


@dataclass(frozen=True)
class ShiftReport:
    rho: float | None
    rho0: float | None
    flag: bool
    threshold: float
    degenerate: bool = False
    cross_profile: tuple = ()
    same_profile: tuple = ()

    @property
    def margin(self) -> float | None:
        if self.rho is None or self.rho0 is None:
            return None
        return self.rho - self.rho0

    def to_dict(self) -> dict:
        return {**asdict(self), "margin": self.margin}


def roi_stats(volume: Volume, roi: EllipsoidROI) -> ROIStats:
    """Mean/std/count over voxels whose centres fall inside the ellipsoid."""
    geom = volume.geometry
    # candidate index box around the ROI, then the exact inequality
    reach = float(max(roi.semi_axes_mm))
    center_idx = geom.world_to_index([roi.center_mm])[0]
    lo = np.maximum(np.floor(center_idx - reach / np.asarray(geom.spacing) - 1), 0).astype(int)
    hi = np.minimum(
        np.ceil(center_idx + reach / np.asarray(geom.spacing) + 1), np.asarray(geom.dims) - 1
    ).astype(int)
    if np.any(lo > hi):
        raise EmptyROI(f"ROI {roi.label!r} lies outside the volume")
    ix, iy, iz = np.meshgrid(
        np.arange(lo[0], hi[0] + 1),
        np.arange(lo[1], hi[1] + 1),
        np.arange(lo[2], hi[2] + 1),
        indexing="ij",
    )
    idx = np.column_stack([ix.ravel(), iy.ravel(), iz.ravel()])
    world = geom.index_to_world(idx.astype(float))
    local = (world - np.asarray(roi.center_mm)) @ roi.axes / np.asarray(roi.semi_axes_mm)
    inside = np.einsum("ij,ij->i", local, local) <= 1.0
    if not inside.any():
        raise EmptyROI(f"ROI {roi.label!r} contains no voxel centers")
    values = volume.data[idx[inside, 0], idx[inside, 1], idx[inside, 2]]
    return ROIStats(float(values.mean()), float(values.std()), int(inside.sum()))


def relative_contrast(gm: ROIStats, wm: ROIStats) -> float:
    """2 (<GM> - <WM>) / (<GM> + <WM>)."""
    denom = gm.mean + wm.mean
    if denom == 0:
        raise DegenerateInput("relative contrast undefined: <GM> + <WM> = 0")
    return 2.0 * (gm.mean - wm.mean) / denom


def snr(gm: ROIStats, bg: ROIStats) -> float:
    """<GM> / sigma_BG."""
    if bg.std == 0:
        raise DegenerateInput("SNR undefined: background std is 0")
    return gm.mean / bg.std


def _ncc(a: np.ndarray, b: np.ndarray) -> float | None:
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt((a * a).sum() * (b * b).sum())
    if denom < 1e-12:
        return None
    return float((a * b).sum() / denom)


def shift_index(stack, layout: SlabLayout, threshold: float = DEFAULT_SHIFT_THRESHOLD,
                foreground_fraction: float = DEFAULT_FOREGROUND_FRACTION) -> ShiftReport:
    """Slice-redundancy index over an interleaved stack.

    ``stack`` is a Volume on the final slice grid, or the padded slabs,
    whose signals are summed into one. Correlations are computed per
    neighbouring slice pair on the voxels that are foreground in both
    slices (values above ``foreground_fraction`` of the volume maximum,
    which makes the index invariant to global intensity scaling). Every
    stack the pipeline makes is zero outside its coverage, and a zero is
    never foreground, so uncovered voxels never enter a correlation.
    """
    if not isinstance(layout, InterleavedLayout):
        raise LayoutMismatch("shift index is defined for interleaved layouts only")
    if foreground_fraction < 0:
        raise InvalidInput("foreground_fraction must be >= 0")
    data = stack.data if isinstance(stack, Volume) else sum(p.signal.data for p in stack)
    n_slices = data.shape[1]
    if n_slices != layout.final_slices:
        raise LayoutMismatch(
            f"stack has {n_slices} slices, layout expects {layout.final_slices}"
        )
    if n_slices < 4:
        raise LayoutMismatch("shift index needs at least 4 slices")

    peak = float(np.abs(data).max())
    if peak <= 0:
        return ShiftReport(None, None, False, threshold, degenerate=True)
    fg = np.abs(data) > foreground_fraction * peak

    def pair_ncc(j, step):
        region = fg[:, j, :] & fg[:, j + step, :]
        if region.sum() < _MIN_REGION:
            return None
        return _ncc(data[:, j, :][region], data[:, j + step, :][region])

    def profile(step):
        """(j, r) for every slice pair (j, j + step) with a defined correlation r."""
        pairs = ((j, pair_ncc(j, step)) for j in range(n_slices - step))
        return [(j, r) for j, r in pairs if r is not None]

    k = layout.slabs
    cross, same = profile(1), profile(k)
    if not cross or not same:
        return ShiftReport(None, None, False, threshold, degenerate=True)

    # A one-slice shift duplicates anatomy into only one class of
    # consecutive pairs (which class depends on the shift direction), so
    # rho is the strongest per-class median rather than a pooled one.
    classes = [[r for j, r in cross if j % k == c] for c in range(k)]
    class_medians = [float(np.median(vals)) for vals in classes if vals]
    rho = max(class_medians)
    rho0 = float(np.median([r for _, r in same]))
    return ShiftReport(
        rho, rho0, bool(rho - rho0 >= threshold), threshold,
        cross_profile=tuple(cross), same_profile=tuple(same),
    )


@dataclass(frozen=True)
class QCReport:
    rc: float | None
    snr: float | None
    rois: dict

    def to_dict(self) -> dict:
        return asdict(self)


def compute_qc(volume: Volume, rois: dict) -> QCReport:
    """ROI stats for every labelled ROI, RC from GM/WM and SNR from GM/BG;
    RC or SNR is None when its ROIs are missing, SNR also when BG has no spread."""
    stats = {label: roi_stats(volume, roi) for label, roi in rois.items()}
    rc_value = None
    snr_value = None
    if "GM" in stats and "WM" in stats:
        rc_value = relative_contrast(stats["GM"], stats["WM"])
    if "GM" in stats and "BG" in stats and stats["BG"].std > 0:
        snr_value = snr(stats["GM"], stats["BG"])
    return QCReport(rc_value, snr_value, stats)


def load_rois(path) -> dict:
    """Read ROI definitions from a JSON sidecar {label: {center_mm, semi_axes_mm, axes?}}."""
    raw = read_json(path, "ROI sidecar")
    if not isinstance(raw, dict):
        raise InvalidInput("ROI sidecar must be a JSON object keyed by label")
    rois = {}
    for label, entry in raw.items():
        try:
            rois[label] = EllipsoidROI(
                tuple(json_number(v) for v in entry["center_mm"]),
                tuple(json_number(v) for v in entry["semi_axes_mm"]),
                np.array([[json_number(v) for v in row]
                          for row in entry.get("axes", np.eye(3).tolist())]),
                label=entry.get("label", label),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInput(f"ROI {label!r}: missing or malformed value ({exc})") from None
    return rois


def save_rois(rois: dict, path):
    write_json(path, {label: roi.to_dict() for label, roi in rois.items()})

"""Volume container and grid-to-grid rigid resampling.

Arrays are float64 with shape ``dims = (nx, ny, nz)``; axis 1 (y) is the
slab-normal / slice axis everywhere in this package. ``resample`` maps
every voxel of a target grid to fractional source indices with one
index→index affine map and interpolates there. The interpolation support
is the voxel footprint hull ``[-0.5, n - 0.5]`` per axis: voxel centres
are always in-field, and target voxels beyond the hull are 0, or the
mirror continuation of the volume with ``extend``.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy import ndimage

from .errors import InvalidInput
from .geometry import AffineGeometry, RigidTransform, index_map


class InterpolationMethod(enum.Enum):
    """Each value is the spline order ``ndimage`` interpolates with."""

    Trilinear = 1
    CubicBSpline = 3


class Volume:
    """Immutable scalar voxel grid with affine geometry."""

    __slots__ = ("geometry", "data", "_bspline_coeffs")

    def __init__(self, geometry: AffineGeometry, data):
        arr = np.asarray(data, dtype=float)
        if arr.shape != geometry.dims:
            raise InvalidInput(f"data shape {arr.shape} does not match dims {geometry.dims}")
        if not np.all(np.isfinite(arr)):
            raise InvalidInput("volume data contains non-finite values")
        arr = np.ascontiguousarray(arr)
        arr.flags.writeable = False
        self.geometry = geometry
        self.data = arr
        self._bspline_coeffs = None

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.geometry.dims

    def with_data(self, data) -> "Volume":
        return Volume(self.geometry, data)

    def value_range(self) -> tuple[float, float]:
        return float(self.data.min()), float(self.data.max())

    def _coefficients(self) -> np.ndarray:
        # prefiltered cubic B-spline coefficients, mirror boundary
        if self._bspline_coeffs is None:
            self._bspline_coeffs = ndimage.spline_filter(
                self.data, order=3, mode="mirror", output=np.float64
            )
        return self._bspline_coeffs


def in_field(idx: np.ndarray, dims) -> np.ndarray:
    """Which fractional voxel indices (3, N) lie in the hull ``[-0.5, n - 0.5]``."""
    hi = np.asarray(dims, dtype=float)[:, None] - 0.5
    return np.all((idx >= -0.5) & (idx <= hi), axis=0)


def resample(volumes, target: AffineGeometry, transform: RigidTransform,
             method: InterpolationMethod, extend: bool = False) -> list[Volume]:
    """Pull-style resampling of volumes that share one grid onto ``target``:
    output voxel v takes volume(transform(world(v))).

    The target grid is mapped once for all volumes. Out-of-field voxels are
    0, or the mirror continuation of the volume when ``extend`` is set.
    """
    if any(d < 1 for d in target.dims):
        raise InvalidInput("degenerate target geometry")
    source = volumes[0].geometry
    if any(not v.geometry.same_grid(source) for v in volumes[1:]):
        raise InvalidInput("volumes resampled together must share a grid")
    if transform.is_identity() and target.same_grid(source):
        return list(volumes)

    m = index_map(target, transform, source)
    idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    keep = slice(None) if extend else in_field(idx, source.dims)
    idx = idx[:, keep]
    cubic = method is InterpolationMethod.CubicBSpline
    results = []
    for volume in volumes:
        # mirror boundary: inside the hull it changes nothing, and extended
        # sampling stays consistent with the B-spline prefilter
        values = np.zeros(target.n_voxels)
        values[keep] = ndimage.map_coordinates(
            volume._coefficients() if cubic else volume.data, idx,
            order=method.value, prefilter=False, mode="mirror")
        results.append(Volume(target, values.reshape(target.dims)))
    return results

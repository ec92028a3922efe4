"""Volume container and grid-to-grid rigid resampling.

Arrays are float64 with shape ``dims = (nx, ny, nz)``; axis 1 (y) is the
slab-normal / slice axis everywhere in this package. ``resample`` maps
every voxel of a target grid to fractional source indices with one
index→index affine map and interpolates there. The interpolation support
is the voxel footprint hull ``[-0.5, n - 0.5]`` per axis: voxel centres
are always in-field, and target voxels beyond the hull are 0, or the
mirror continuation of the volume with ``extend``.

A cubic B-spline is a tensor product of 1D splines, so when the map has
exact zeros off its 3x3 diagonal (a change of spacing and/or a pure
translation, as in ``prepare_reference`` and the simulator's LR scan)
``resample`` runs one 1D prefilter and one 4-tap evaluation along each
axis the map changes, and skips the others. That is the same function as
the 3D spline, but rounded in another order: values agree to ~1e-13 of
the data's range, not bit for bit. Rotations and trilinear reads take
the 3D ``map_coordinates`` path.
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

    __slots__ = ("geometry", "data")

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

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.geometry.dims

    def with_data(self, data) -> "Volume":
        return Volume(self.geometry, data)

    def value_range(self) -> tuple[float, float]:
        return float(self.data.min()), float(self.data.max())


def in_field(idx: np.ndarray, dims) -> np.ndarray:
    """Which fractional voxel indices (3, N) lie in the hull ``[-0.5, n - 0.5]``."""
    hi = np.asarray(dims, dtype=float)[:, None] - 0.5
    return np.all((idx >= -0.5) & (idx <= hi), axis=0)


def _resample_axes(data, m, dims, extend):
    """Cubic B-spline resampling onto ``dims`` by a diagonal index map ``m``:
    per axis, a 1D mirror prefilter, then four taps at ``p = m[a, a] * k + m[a, 3]``."""
    for a in range(3):
        n = data.shape[a]
        if (m[a, a], m[a, 3], n) == (1.0, 0.0, dims[a]):
            continue   # an identity row keeps this axis' values
        p = m[a, a] * np.arange(dims[a], dtype=float) + m[a, 3]
        base = np.floor(p)
        t = (p - base)[:, None, None]
        u = 1.0 - t
        weights = (u * u * u / 6.0, 2.0 / 3.0 - t * t * (1.0 - 0.5 * t),
                   2.0 / 3.0 - u * u * (1.0 - 0.5 * u), t * t * t / 6.0)
        # ndimage's mirror: reflect about the first and last voxel centres
        period = max(2 * n - 2, 1)
        taps = np.abs(base.astype(np.int64)[:, None] + np.arange(-1, 3)) % period
        taps = np.where(taps >= n, period - taps, taps)
        coeffs = np.moveaxis(ndimage.spline_filter1d(data, order=3, axis=a, mode="mirror"), a, 0)
        out = coeffs[taps[:, 0]] * weights[0]
        for k in range(1, 4):
            out += coeffs[taps[:, k]] * weights[k]
        if not extend:
            out[(p < -0.5) | (p > n - 0.5)] = 0.0
        data = np.moveaxis(out, 0, a)
    return data


def resample(volumes, target: AffineGeometry, transform: RigidTransform,
             method: InterpolationMethod, extend: bool = False) -> list[Volume]:
    """Pull-style resampling of volumes that share one grid onto ``target``:
    output voxel v takes volume(transform(world(v))).

    The target grid is mapped once for all volumes. Out-of-field voxels are
    0, or the mirror continuation of the volume when ``extend`` is set.
    A cubic resample by a diagonal index map runs one axis at a time (see the
    module docstring): the same spline, rounded differently, to ~1e-13 of range.
    """
    if any(d < 1 for d in target.dims):
        raise InvalidInput("degenerate target geometry")
    source = volumes[0].geometry
    if any(not v.geometry.same_grid(source) for v in volumes[1:]):
        raise InvalidInput("volumes resampled together must share a grid")
    if transform.is_identity() and target.same_grid(source):
        return list(volumes)

    m = index_map(target, transform, source)
    cubic = method is InterpolationMethod.CubicBSpline
    if cubic and not m[:, :3][~np.eye(3, dtype=bool)].any():
        return [Volume(target, _resample_axes(v.data, m, target.dims, extend)) for v in volumes]
    idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    keep = slice(None) if extend else in_field(idx, source.dims)
    idx = idx[:, keep]
    results = []
    for volume in volumes:
        # mirror boundary: reflect about the first and last voxel centres
        # (d[-1] = d[1]), the boundary of the cubic prefilter map_coordinates
        # runs. The outer half-voxel band of the hull reads the reflection:
        # at index -0.5 a linear read gives (d[0] + d[1]) / 2, where the
        # registration objective reads "nearest", which gives d[0]
        values = np.zeros(target.n_voxels)
        values[keep] = ndimage.map_coordinates(volume.data, idx, order=method.value,
                                               mode="mirror")
        results.append(Volume(target, values.reshape(target.dims)))
    return results

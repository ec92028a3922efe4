"""Volume container plus interpolation and rigid resampling.

Arrays are float64 with shape ``dims = (nx, ny, nz)``; axis 1 (y) is the
slab-normal / slice axis everywhere in this package. Interpolation support
is the voxel footprint hull ``[-0.5, n - 0.5]`` per axis: voxel centres are
always in-field, points beyond the hull take the out-of-field fill value.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import InvalidInput
from .geometry import AffineGeometry, RigidTransform, index_map


class InterpolationMethod(enum.Enum):
    NearestNeighbor = 0
    Trilinear = 1
    CubicBSpline = 3

    @property
    def spline_order(self) -> int:
        return self.value


class Volume:
    """Immutable scalar voxel grid with affine geometry."""

    __slots__ = ("geometry", "data", "_bspline_coeffs")

    def __init__(self, geometry: AffineGeometry, data):
        arr = np.asarray(data, dtype=float)
        if arr.shape != geometry.dims:
            if arr.size == geometry.n_voxels:
                # accept flat input, x fastest
                arr = arr.reshape(geometry.dims, order="F")
            else:
                raise InvalidInput(
                    f"data shape {arr.shape} does not match dims {geometry.dims}"
                )
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

    def flat(self) -> np.ndarray:
        """Data as a vector of length nx*ny*nz, x fastest."""
        return self.data.ravel(order="F")

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


@dataclass(frozen=True)
class ResampleResult:
    volume: Volume
    in_field_count: int


def in_field(idx: np.ndarray, dims) -> np.ndarray:
    """Which fractional voxel indices (3, N) lie in the hull ``[-0.5, n - 0.5]``."""
    hi = np.asarray(dims, dtype=float)[:, None] - 0.5
    return np.all((idx >= -0.5) & (idx <= hi), axis=0)


def _interpolate_at_indices(volume: Volume, idx: np.ndarray,
                            method: InterpolationMethod) -> np.ndarray:
    """Interpolate at fractional voxel indices (3, N). Caller handles field tests.

    Mirror boundary everywhere: inside the support it changes nothing, and
    extended sampling stays consistent with the B-spline prefilter.
    """
    if method is InterpolationMethod.CubicBSpline:
        return ndimage.map_coordinates(
            volume._coefficients(), idx, order=3, prefilter=False, mode="mirror"
        )
    return ndimage.map_coordinates(
        volume.data, idx, order=method.spline_order, mode="mirror"
    )


def _sample_indices(volume: Volume, idx: np.ndarray, method: InterpolationMethod,
                    out_value: float, extend: bool) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate at fractional voxel indices (3, N); returns (values, in_field)."""
    inside = in_field(idx, volume.dims)
    if extend:
        return _interpolate_at_indices(volume, idx, method), inside
    values = np.full(idx.shape[1], float(out_value))
    if inside.any():
        values[inside] = _interpolate_at_indices(volume, idx.compress(inside, axis=1), method)
    return values, inside


def sample_many(volume: Volume, points, method: InterpolationMethod,
                out_value: float = 0.0, extend: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Interpolate at (N, 3) world points.

    Returns (values, in_field) where out-of-field values are ``out_value``.
    With ``extend`` the volume continues past its support by mirror
    reflection instead (useful when the volume models surroundings that do
    not stop at the grid edge); in_field is still reported.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if not np.all(np.isfinite(pts)):
        raise InvalidInput("sample points must be finite")
    idx = volume.geometry.world_to_index(pts).T
    return _sample_indices(volume, idx, method, out_value, extend)


def sample(volume: Volume, point, method: InterpolationMethod,
           out_value: float = 0.0) -> tuple[float, bool]:
    """Interpolate one world point; returns (value, in_field)."""
    values, in_field = sample_many(volume, [point], method, out_value)
    return float(values[0]), bool(in_field[0])


def resample(volume: Volume, target: AffineGeometry, transform: RigidTransform,
             method: InterpolationMethod, out_value: float = 0.0,
             extend: bool = False) -> ResampleResult:
    """Pull-style resampling: output voxel v takes volume(transform(world(v))).

    Out-of-field voxels are filled with ``out_value`` (default 0.0), or by
    mirror continuation of the volume when ``extend`` is set.
    """
    return resample_all([volume], target, transform, method, out_value, extend)[0]


def resample_all(volumes, target: AffineGeometry, transform: RigidTransform,
                 method: InterpolationMethod, out_value: float = 0.0,
                 extend: bool = False) -> list[ResampleResult]:
    """``resample`` of several volumes on one grid, mapping the target grid once."""
    if any(d < 1 for d in target.dims):
        raise InvalidInput("degenerate target geometry")
    source = volumes[0].geometry
    if any(not v.geometry.same_grid(source) for v in volumes[1:]):
        raise InvalidInput("volumes resampled together must share a grid")
    if transform.is_identity() and target.same_grid(source):
        return [ResampleResult(v, target.n_voxels) for v in volumes]

    m = index_map(target, transform, source)
    idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    results = []
    for volume in volumes:
        values, inside = _sample_indices(volume, idx, method, out_value, extend)
        results.append(ResampleResult(Volume(target, values.reshape(target.dims)),
                                      int(inside.sum())))
    return results

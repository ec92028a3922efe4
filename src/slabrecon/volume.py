"""Volume container and grid-to-grid rigid resampling.

Arrays are float64 with shape ``dims = (nx, ny, nz)``; axis 1 (y) is the
slab-normal / slice axis everywhere in this package. ``resample`` maps
every voxel of a target grid to fractional source indices with one
index→index affine map and interpolates there. The interpolation support
is the voxel footprint hull ``[-0.5, n - 0.5]`` per axis: voxel centres
are always in-field, and target voxels beyond the hull are 0, or the
mirror continuation of the volume with ``extend``. It maps, folds and reads
the target in blocks of whole x-planes, about ``_READ_CHUNK`` voxels each,
straight into the output arrays: beyond its 8 B per target voxel and volume,
a resample holds one padded copy (trilinear) or the spline coefficients
(cubic) of each source volume and about 2 MB of block buffers, never an
index map of the whole target.

A cubic B-spline is a tensor product of 1D splines, so when the map has
exact zeros off its 3x3 diagonal (a change of spacing and/or a pure
translation, as in ``prepare_reference`` and the simulator's LR scan)
``resample`` runs one 1D prefilter and one 4-tap evaluation along each
axis the map changes, and skips the others. That is the same function as
the 3D spline, but rounded in another order: values agree to ~1e-13 of
the data's range, not bit for bit. The 1D prefilter is a NumPy port of
``ndimage.spline_filter1d(order=3, mode="mirror")`` with its bits: scipy
1.17.1's ``ni_splines.c``, Unser's recursive filter (IEEE Signal Proc. Mag.
16:22, 1999). Any other cubic map, a rotation (only the simulator's moved
slab), runs the 3D spline: ``_spline_filter`` and ``_cubic``, a NumPy port of
``ndimage.map_coordinates(order=3, mode="mirror")`` with its bits (Thevenaz,
Blu & Unser, IEEE TMI 19:739, 2000). No module of the package imports scipy.
Every trilinear read, here and in the registration objective, is
``_trilinear``, a NumPy gather from a flat copy padded by one voxel per
side: edge padding gives ``ndimage``'s "nearest", reflect padding at
folded indices its "mirror", both bit for bit.
"""

from __future__ import annotations

import enum
import math

import numpy as np

from .errors import InvalidInput
from .geometry import AffineGeometry, RigidTransform, index_map

_READ_CHUNK = 16384     # samples per pass of the trilinear read: its buffers stay in cache
_POLE = -0.267949192431122706472553658494127633   # sqrt(3) - 2 as ni_splines.c has it;
# np.sqrt(3.0) - 2.0 is two ulps off


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

    def __reduce__(self):   # unpickled through __init__: checked and read-only again
        return Volume, (self.geometry, self.data)

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


def padded_flat(data, mode: str) -> tuple[np.ndarray, tuple[int, ...]]:
    """A volume, or a list (V) of volumes that share dims, padded by one voxel per side
    (``np.pad`` ``mode``) and flattened per volume, and the flat offsets of a cell's 8
    corners. A list fills one (V, padded voxels) array a volume at a time: no stacked copy."""
    images = data if isinstance(data, list) else [data]
    padded = np.empty((len(images),) + tuple(n + 2 for n in images[0].shape))
    for image, out in zip(images, padded):
        out[...] = np.pad(image, 1, mode=mode)
    sx, sy = padded.shape[-2] * padded.shape[-1], padded.shape[-1]
    corners = tuple(cx * sx + cy * sy + cz for cx in (0, 1) for cy in (0, 1) for cz in (0, 1))
    flat = padded.reshape(len(images), -1)
    return (flat if isinstance(data, list) else flat[0]), corners


def _trilinear(flat, corners, idx, out=None) -> np.ndarray:
    """Trilinear read at indices ``idx`` (3, N) of a ``padded_flat`` image, or of a
    stack with one set of weights, in cache-sized chunks, into ``out`` (images, N)
    when it is given. With ``-1 <= floor(idx)
    <= n - 1`` per axis the 8 corners lie inside the padded image: no bounds
    check. The arithmetic is ``ndimage.map_coordinates(order=1)``'s, in its order:
    weights ``1 - frac`` and ``1 - (1 - frac)``, corner terms ``((v * wx) * wy) *
    wz`` summed in corner order. The bits are ndimage's but for a sum of -0.0s.
    """
    rows = flat.reshape(-1, flat.shape[-1])   # one contiguous row per image
    out = np.empty((rows.shape[0], idx.shape[1])) if out is None else out
    sx, sy = corners[4], corners[2]   # the padded strides of x and y; z's is 1
    buffer = np.empty(min(_READ_CHUNK, idx.shape[1]))   # reused by every chunk
    for start in range(0, idx.shape[1], _READ_CHUNK):
        part = idx[:, start:start + _READ_CHUNK]
        low = np.floor(part)
        # exact in floating point: small whole numbers; + 1 voxel of padding per axis
        base = (low[0] * sx + low[1] * sy + low[2] + (sx + sy + 1)).astype(np.intp)
        w0 = np.subtract(1.0, np.subtract(part, low, out=low), out=low)   # in low's buffer
        weights = (w0, 1.0 - w0)
        term = buffer[:base.size]
        for row, acc in zip(rows, out[:, start:start + _READ_CHUNK]):
            for k, offset in enumerate(corners):   # one view of the image per corner
                target = term if k else acc
                row[offset:].take(base, out=target, mode="clip")   # unbuffered; none is clipped
                target *= weights[k >> 2][0]
                target *= weights[(k >> 1) & 1][1]
                target *= weights[k & 1][2]
                if k:
                    acc += target
    return out.reshape(flat.shape[:-1] + idx.shape[1:])


def _mirror_fold(idx: np.ndarray, dims) -> np.ndarray:
    """Fold indices (len(dims), N), in place, into ``[0, n)`` as ``ndimage``'s "mirror"
    mode does before it interpolates: reflect about the first and last voxel centres
    (period ``2n - 2``); a one-voxel axis reads 0. Within [1 - n, n - 1] that is |x|."""
    idx[np.asarray(dims) == 1] = 0.0
    for a, n in enumerate(dims):
        far = np.flatnonzero(np.abs(idx[a]) > n - 1)   # in the hull, only its upper band
        x, period = idx[a, far], max(2 * n - 2, 1)
        r = x - period * np.trunc(x / period)
        np.abs(idx[a], out=idx[a])
        idx[a, far] = np.where(x < 0, np.where(r <= 1 - n, r + period, -r),
                               np.where(r >= n, period - r, r))
    return idx


def _prefilter(data, axis) -> np.ndarray:
    """``ndimage.spline_filter1d(data, 3, axis, mode="mirror")`` with ``axis`` moved
    first, in a new array: ``ni_splines.c``'s arithmetic in its order, on all lines."""
    z, c = _POLE, np.moveaxis(data, axis, 0)
    n = c.shape[0]
    if n == 1:
        return c.copy()
    c = np.multiply(c, (1 - z) * (1 - 1 / z), out=np.empty(c.shape))   # the gain
    z_n1, z_i = math.pow(z, n - 1), z
    head = c[0] + z_n1 * c[n - 1]   # causal init, mirror ends
    for i in range(1, n - 1):
        head += z_i * (c[i] + z_n1 * c[n - 1 - i])
        z_i *= z
    c[0] = head / (1 - z_n1 * z_n1)
    tmp = np.empty(c.shape[1:])
    for i in range(1, n):   # causal pass, through one buffer
        c[i] += np.multiply(c[i - 1], z, out=tmp)
    c[n - 1] = (z * c[n - 2] + c[n - 1]) * z / (z * z - 1)   # anticausal init and pass
    for i in range(n - 2, -1, -1):
        np.subtract(c[i + 1], c[i], out=c[i])
        c[i] *= z
    return c


def _spline_filter(data) -> np.ndarray:
    """``ndimage.spline_filter(data, 3, mode="mirror")``: ``_prefilter`` along x, y, z in turn."""
    for a in range(3):
        data = np.moveaxis(_prefilter(data, a), 0, a)
    return np.ascontiguousarray(data)


def _cubic(coeffs, idx) -> np.ndarray:
    """Cubic B-spline read of ``_spline_filter`` coefficients at mirror-folded indices
    ``idx`` (3, N), in cache-sized chunks: ``ndimage.map_coordinates(order=3,
    mode="mirror")``'s arithmetic in its order. Per axis, the taps ``floor(x) - 1 ...
    floor(x) + 2`` are folded too and weighted as ``ni_splines.c`` weights them; the
    64 terms ``((c * wx) * wy) * wz`` are summed from +0.0, z fastest."""
    flat, dims = coeffs.ravel(), coeffs.shape
    strides = np.array([dims[1] * dims[2], dims[2], 1.0])[:, None]
    out = np.zeros(idx.shape[1])
    step = _READ_CHUNK // 4   # 12 weights, 12 offsets a sample: the trilinear pass's scratch
    pair, index, term = np.empty(step, np.intp), np.empty(step, np.intp), np.empty(step)
    for start in range(0, idx.shape[1], step):
        part = idx[:, start:start + step]
        low = np.floor(part)
        t = part - low
        u = 1.0 - t
        w = np.empty((3, 4, part.shape[1]))   # (3 axes, 4 taps, n), filled in place
        w[:, 0] = u * u * u / 6.0
        w[:, 1] = (t * t * (t - 2.0) * 3.0 + 4.0) / 6.0
        w[:, 2] = (u * u * (u - 2.0) * 3.0 + 4.0) / 6.0
        w[:, 3] = 1.0 - w[:, 0] - w[:, 1] - w[:, 2]
        taps = _mirror_fold((low[:, None] + np.arange(-1.0, 3.0)[:, None]).reshape(3, -1), dims)
        taps *= strides
        offsets = taps.astype(np.intp).reshape(w.shape)   # exact: small whole numbers
        n, acc = part.shape[1], out[start:start + step]
        pair, index, term = pair[:n], index[:n], term[:n]   # only the last chunk is shorter
        for i in range(4):
            for j in range(4):
                np.add(offsets[0, i], offsets[1, j], out=pair)
                for k in range(4):
                    np.add(pair, offsets[2, k], out=index)
                    flat.take(index, out=term, mode="clip")   # unbuffered; none is clipped
                    term *= w[0, i]
                    term *= w[1, j]
                    term *= w[2, k]
                    acc += term
    return out


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
        taps = _mirror_fold((base[:, None] + np.arange(-1, 3)).reshape(1, -1), (n,))
        taps = taps.astype(np.intp).reshape(-1, 4)
        coeffs = _prefilter(data, a)
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

    The target grid is mapped once for all volumes, a block of whole x-planes
    at a time. Out-of-field voxels are 0, or the mirror continuation of the
    volume when ``extend`` is set. Memory: the outputs, 8 B per target voxel
    and volume, written in place; a padded copy (trilinear) or the spline
    coefficients (cubic) of each source volume; and block buffers of about 90 B
    (trilinear) or 140 B (cubic) per voxel of one block. A cubic resample by a
    diagonal index map runs one axis at a time (see the module docstring): the
    same spline, rounded differently, to ~1e-13 of range.
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
    if cubic:   # a rotation: the 3D spline, ndimage's bits in NumPy
        coeffs = [_spline_filter(v.data) for v in volumes]
    else:   # one read of the padded volumes: they share its weights
        flat, corners = padded_flat([v.data for v in volumes], "reflect")
    nx, ny, nz = target.dims
    values = np.empty((len(volumes), nx, ny * nz))
    planes = max(_READ_CHUNK // (ny * nz), 1)   # blocks of whole x-planes
    for x0 in range(0, nx, planes):
        block = values[:, x0:x0 + planes].reshape(len(volumes), -1)   # a view of each output
        idx = m[:, :3] @ np.mgrid[x0:min(x0 + planes, nx), :ny, :nz].reshape(3, -1) + m[:, 3:]
        outside = ~in_field(idx, source.dims)
        # mirror: at index -0.5 a trilinear read gives (d[0] + d[1]) / 2 ("nearest" gives d[0])
        idx = _mirror_fold(idx, source.dims)
        if cubic:
            block[:] = [_cubic(c, idx) for c in coeffs]
        else:
            _trilinear(flat, corners, idx, out=block)
        block += 0.0   # a sum of -0.0 terms is +0.0 in ndimage
        if not extend:
            block[:, outside] = 0.0
    return [Volume(target, row.reshape(target.dims)) for row in values]

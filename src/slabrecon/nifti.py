"""Minimal NIfTI-1 single-file reader/writer (.nii / .nii.gz), scalar 3D only.

Reading accepts the common scalar datatypes and takes the affine from the
sform when valid, else the qform, else spacing alone. Writing always emits
little-endian float32 with both sform and qform set. A ``.gz`` path gets one
gzip member with mtime 0, so identical volumes produce identical bytes. It is
deflated at level 1 with the run-length strategy (``Z_RLE``): on noisy
float32 data the low mantissa bytes are random, so the string matching of
level 9 finds almost nothing and only the Huffman coder shrinks the file,
which the fast setting does just as well at a fraction of the time.
Piecewise-constant volumes (truth, coverage, mask sums) come out larger than
at level 9, since run-length matching sees repeats of the previous byte, not
of a whole float: a coverage map takes ~0.2 of its raw size, not ~0.001.
"""

from __future__ import annotations

import gzip
import os
import struct
import zlib

import numpy as np
from scipy.spatial.transform import Rotation

from .errors import ParseError, UnsupportedFormat
from .geometry import AffineGeometry
from .volume import Volume

HEADER_SIZE = 348
MAGIC_OFFSET = 344
_DATATYPES = {
    2: np.dtype(np.uint8),
    4: np.dtype(np.int16),
    8: np.dtype(np.int32),
    16: np.dtype(np.float32),
    64: np.dtype(np.float64),
    256: np.dtype(np.int8),
    512: np.dtype(np.uint16),
    768: np.dtype(np.uint32),
}
_FLOAT32_CODE = 16


def atomic_write_bytes(path, payload: bytes):
    """Write via a temp file in the same directory, then rename."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "wb") as fh:
        fh.write(payload)
    os.replace(tmp, path)


def _maybe_decompress(raw: bytes, path) -> bytes:
    if raw[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except OSError as exc:
            raise ParseError(f"bad gzip stream in {path}: {exc}", offset=0) from exc
    return raw


def _unpack(fmt, buf, offset):
    return struct.unpack_from(fmt, buf, offset)


def read_volume(path) -> Volume:
    """Read a single-file NIfTI-1 volume; data is returned as float64."""
    with open(path, "rb") as fh:
        raw = fh.read()
    raw = _maybe_decompress(raw, path)
    if len(raw) < HEADER_SIZE:
        raise ParseError(f"file shorter than the {HEADER_SIZE}-byte header", offset=0)

    (sizeof_hdr,) = _unpack("<i", raw, 0)
    if sizeof_hdr == HEADER_SIZE:
        bo = "<"
    elif struct.unpack_from(">i", raw, 0)[0] == HEADER_SIZE:
        bo = ">"
    else:
        raise ParseError(f"sizeof_hdr is {sizeof_hdr}, expected {HEADER_SIZE}", offset=0)

    magic = raw[MAGIC_OFFSET:MAGIC_OFFSET + 4]
    if magic == b"ni1\x00":
        raise UnsupportedFormat("two-file NIfTI (.hdr/.img pairs) is not supported")
    if magic != b"n+1\x00":
        raise ParseError(f"bad magic {magic!r}", offset=MAGIC_OFFSET)

    dim = _unpack(bo + "8h", raw, 40)
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise ParseError(f"dim[0] = {ndim} outside [1, 7]", offset=40)
    if ndim < 3:
        raise UnsupportedFormat(f"need a 3D volume, got {ndim}D")
    if any(d > 1 for d in dim[4:1 + ndim]):
        raise UnsupportedFormat(f"non-scalar/4D+ volume with dim = {dim[:1 + ndim]}")
    dims = tuple(int(d) for d in dim[1:4])
    if any(d < 1 for d in dims):
        raise ParseError(f"non-positive spatial dims {dims}", offset=40)

    (datatype, bitpix) = _unpack(bo + "hh", raw, 70)
    dtype = _DATATYPES.get(datatype)
    if dtype is None:
        raise UnsupportedFormat(f"unsupported datatype code {datatype}")
    if bitpix != dtype.itemsize * 8:
        raise ParseError(
            f"bitpix {bitpix} disagrees with datatype {datatype}", offset=72
        )

    pixdim = _unpack(bo + "8f", raw, 76)
    (vox_offset,) = _unpack(bo + "f", raw, 108)
    vox_offset = int(vox_offset)
    if vox_offset < HEADER_SIZE:
        raise ParseError(f"vox_offset {vox_offset} precedes the header end", offset=108)
    (scl_slope, scl_inter) = _unpack(bo + "ff", raw, 112)
    (qform_code, sform_code) = _unpack(bo + "hh", raw, 252)

    n_values = int(np.prod(dims))
    n_bytes = n_values * dtype.itemsize
    if len(raw) < vox_offset + n_bytes:
        raise ParseError(
            f"data truncated: need {n_bytes} bytes at offset {vox_offset}",
            offset=vox_offset,
        )
    data = np.frombuffer(
        raw, dtype=dtype.newbyteorder(bo), count=n_values, offset=vox_offset
    ).astype(np.float64)
    if scl_slope not in (0.0, 1.0) or scl_inter != 0.0:
        slope = scl_slope if scl_slope != 0.0 else 1.0
        data = data * slope + scl_inter
    data = data.reshape(dims, order="F")

    geometry = _geometry_from_header(bo, raw, dims, pixdim, qform_code, sform_code)
    return Volume(geometry, data)


def _geometry_from_header(bo, raw, dims, pixdim, qform_code, sform_code) -> AffineGeometry:
    if sform_code > 0:
        rows = [
            _unpack(bo + "4f", raw, 280),
            _unpack(bo + "4f", raw, 296),
            _unpack(bo + "4f", raw, 312),
        ]
        mat = np.array(rows, dtype=float)
        linear = mat[:, :3]
        origin = mat[:, 3]
    elif qform_code > 0:
        b, c, d = _unpack(bo + "3f", raw, 256)
        origin = np.array(_unpack(bo + "3f", raw, 268), dtype=float)
        a_sq = 1.0 - (b * b + c * c + d * d)
        a = float(np.sqrt(max(a_sq, 0.0)))
        rot = Rotation.from_quat([b, c, d, a]).as_matrix()
        qfac = -1.0 if pixdim[0] < 0 else 1.0
        spac = np.array([abs(pixdim[1]), abs(pixdim[2]), abs(pixdim[3])])
        spac[spac == 0] = 1.0
        linear = rot @ np.diag([spac[0], spac[1], spac[2] * qfac])
    else:
        spac = np.array([abs(pixdim[1]), abs(pixdim[2]), abs(pixdim[3])])
        spac[spac == 0] = 1.0
        return AffineGeometry(dims, tuple(spac))

    spacing = np.linalg.norm(linear, axis=0)
    if np.any(spacing <= 0):
        raise UnsupportedFormat("affine has a zero-length column")
    axes = linear / spacing
    if not np.allclose(axes.T @ axes, np.eye(3), atol=1e-4):
        raise UnsupportedFormat("sheared affine; only orthogonal grids are supported")
    # re-orthonormalize float32 header rounding
    u, _, vt = np.linalg.svd(axes)
    axes = u @ vt
    return AffineGeometry(dims, tuple(spacing), tuple(origin), axes)


def _quaternion_fields(geometry: AffineGeometry):
    axes = np.array(geometry.axes)
    qfac = 1.0
    if np.linalg.det(axes) < 0:
        qfac = -1.0
        axes = axes.copy()
        axes[:, 2] *= -1.0
    quat = Rotation.from_matrix(axes).as_quat()  # x, y, z, w
    if quat[3] < 0:
        quat = -quat
    return qfac, float(quat[0]), float(quat[1]), float(quat[2])


def write_volume(volume: Volume, path):
    """Write a float32 single-file NIfTI-1 (.nii, gzipped when path ends in .gz).

    Gzip output is ``zlib.compressobj(1, DEFLATED, 31, 9, Z_RLE)``: level 1,
    a gzip wrapper (mtime 0), run-length matches only. Noisy float32 voxels
    leave deflate nothing but its entropy coder, so this is the size of level
    9 at about a quarter of the time; the decoded bytes do not depend on it.
    """
    geom = volume.geometry
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    struct.pack_into("<8h", header, 40, 3, *geom.dims, 1, 1, 1, 1)
    struct.pack_into("<hh", header, 70, _FLOAT32_CODE, 32)
    qfac, qb, qc, qd = _quaternion_fields(geom)
    struct.pack_into("<8f", header, 76, qfac, *geom.spacing, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", header, 108, 352.0)  # vox_offset
    struct.pack_into("<ff", header, 112, 1.0, 0.0)  # scl_slope, scl_inter
    struct.pack_into("<hh", header, 252, 1, 1)  # qform_code, sform_code
    struct.pack_into("<3f", header, 256, qb, qc, qd)
    struct.pack_into("<3f", header, 268, *geom.origin)
    affine = geom.axes * np.asarray(geom.spacing)
    struct.pack_into("<4f", header, 280, *affine[0], geom.origin[0])
    struct.pack_into("<4f", header, 296, *affine[1], geom.origin[1])
    struct.pack_into("<4f", header, 312, *affine[2], geom.origin[2])
    header[MAGIC_OFFSET:MAGIC_OFFSET + 4] = b"n+1\x00"

    payload = bytes(header) + b"\x00" * 4  # no header extensions
    payload += volume.data.astype("<f4").tobytes(order="F")

    path = os.fspath(path)
    if path.endswith(".gz"):
        deflate = zlib.compressobj(1, zlib.DEFLATED, 31, 9, zlib.Z_RLE)
        payload = deflate.compress(payload) + deflate.flush()
    atomic_write_bytes(path, payload)

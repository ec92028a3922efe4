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

The qform quaternion goes through ``geometry``'s ports of scipy 1.17.1's
``Rotation`` conversions, with scipy's bits and no scipy import.
"""

from __future__ import annotations

import contextlib
import gzip
import os
import zlib

import numpy as np

from .errors import ConfigError, InvalidInput, ParseError, UnsupportedFormat
from .geometry import AffineGeometry, matrix_quat, normalized_quat, quat_matrix
from .volume import Volume

HEADER_SIZE = 348
# the NIfTI-1 header fields this module reads or writes, at their byte offsets
_HEADER = np.dtype({
    "names": ["sizeof_hdr", "dim", "datatype", "bitpix", "pixdim", "vox_offset",
              "scl_slope", "scl_inter", "qform_code", "sform_code", "quatern",
              "qoffset", "srow", "magic"],
    "formats": ["<i4", ("<i2", 8), "<i2", "<i2", ("<f4", 8), "<f4", "<f4", "<f4",
                "<i2", "<i2", ("<f4", 3), ("<f4", 3), ("<f4", (3, 4)), "S4"],
    "offsets": [0, 40, 70, 72, 76, 108, 112, 116, 252, 254, 256, 268, 280, 344],
    "itemsize": HEADER_SIZE,
})
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
MAX_DIM = 32767   # the header stores dim as int16


def atomic_write_bytes(path, payload: bytes):
    """Write via a temp file in the same directory, then rename. A path that
    cannot be written is a usage error naming it, and leaves no temp file."""
    path = os.fspath(path)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _maybe_decompress(raw: bytes, path) -> bytes:
    if raw[:2] == b"\x1f\x8b":
        try:
            return gzip.decompress(raw)
        except (OSError, EOFError, zlib.error) as exc:   # bad header, truncated, bad deflate
            raise ParseError(f"bad gzip stream in {path}: {exc}", offset=0) from exc
    return raw


def _at(field):
    """Byte offset of a header field."""
    return _HEADER.fields[field][1]


def read_volume(path) -> Volume:
    """Read a single-file NIfTI-1 volume; data is returned as float64."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:   # missing, a directory, unreadable
        raise InvalidInput(f"cannot read NIfTI volume {path}: {exc.strerror or exc}") from exc
    raw = _maybe_decompress(raw, path)
    if len(raw) < HEADER_SIZE:
        raise ParseError(f"file shorter than the {HEADER_SIZE}-byte header", offset=0)

    for bo in "<>":
        hdr = np.frombuffer(raw, _HEADER.newbyteorder(bo), count=1)[0]
        if hdr["sizeof_hdr"] == HEADER_SIZE:
            break
    else:
        raise ParseError(f"sizeof_hdr is not {HEADER_SIZE} in either byte order",
                         offset=_at("sizeof_hdr"))

    magic = hdr["magic"]
    if magic == b"ni1":
        raise UnsupportedFormat("two-file NIfTI (.hdr/.img pairs) is not supported")
    if magic != b"n+1":
        raise ParseError(f"bad magic {magic!r}", offset=_at("magic"))

    dim = hdr["dim"].tolist()
    ndim = dim[0]
    if not 1 <= ndim <= 7:
        raise ParseError(f"dim[0] = {ndim} outside [1, 7]", offset=_at("dim"))
    if ndim < 3:
        raise UnsupportedFormat(f"need a 3D volume, got {ndim}D")
    if any(d > 1 for d in dim[4:1 + ndim]):
        raise UnsupportedFormat(f"non-scalar/4D+ volume with dim = {tuple(dim[:1 + ndim])}")
    dims = tuple(dim[1:4])
    if any(d < 1 for d in dims):
        raise ParseError(f"non-positive spatial dims {dims}", offset=_at("dim"))

    datatype, bitpix = int(hdr["datatype"]), int(hdr["bitpix"])
    dtype = _DATATYPES.get(datatype)
    if dtype is None:
        raise UnsupportedFormat(f"unsupported datatype code {datatype}")
    if bitpix != dtype.itemsize * 8:
        raise ParseError(
            f"bitpix {bitpix} disagrees with datatype {datatype}", offset=_at("bitpix")
        )

    vox_offset = float(hdr["vox_offset"])
    if not np.isfinite(vox_offset) or vox_offset < HEADER_SIZE:
        raise ParseError(f"vox_offset {vox_offset} is not a byte offset past the header",
                         offset=_at("vox_offset"))
    vox_offset = int(vox_offset)
    scl_slope, scl_inter = float(hdr["scl_slope"]), float(hdr["scl_inter"])

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
    return Volume(_geometry_from_header(hdr, dims), data)


def _finite(values, field, name=None) -> np.ndarray:
    """``values`` read from header ``field``; ParseError at its offset unless all finite."""
    if not np.isfinite(values).all():
        raise ParseError(f"{name or field} must be finite: {values.tolist()}", offset=_at(field))
    return values


def _geometry_from_header(hdr, dims) -> AffineGeometry:
    if hdr["sform_code"] > 0:
        srow = hdr["srow"].astype(float)
        linear = _finite(srow[:, :3], "srow", "srow axes")
        origin = _finite(srow[:, 3], "srow", "srow origin")
    else:
        spac = np.abs(_finite(hdr["pixdim"][1:4].astype(float), "pixdim", "pixdim spacings"))
        spac[spac == 0] = 1.0
        if hdr["qform_code"] <= 0:
            return AffineGeometry(dims, tuple(spac))
        b, c, d = _finite(hdr["quatern"].astype(float), "quatern")
        origin = _finite(hdr["qoffset"].astype(float), "qoffset", "qoffset origin")
        a = float(np.sqrt(max(1.0 - (b * b + c * c + d * d), 0.0)))
        rot = quat_matrix(normalized_quat((b, c, d, a)))
        qfac = -1.0 if hdr["pixdim"][0] < 0 else 1.0
        linear = rot @ np.diag([spac[0], spac[1], spac[2] * qfac])

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
    quat = np.array(matrix_quat(axes))  # x, y, z, w
    if quat[3] < 0:
        quat = -quat
    return qfac, quat[:3]


def write_volume(volume: Volume, path):
    """Write a float32 single-file NIfTI-1 (.nii, gzipped when path ends in .gz).

    Gzip output is ``zlib.compressobj(1, DEFLATED, 31, 9, Z_RLE)``: level 1,
    a gzip wrapper (mtime 0), run-length matches only. Noisy float32 voxels
    leave deflate nothing but its entropy coder, so this is the size of level
    9 at about a quarter of the time; the decoded bytes do not depend on it.
    """
    geom = volume.geometry
    if max(geom.dims) > MAX_DIM:
        raise InvalidInput(f"cannot write {os.fspath(path)}: dims {geom.dims} exceed the "
                           f"NIfTI-1 limit of {MAX_DIM} voxels per axis")
    qfac, quatern = _quaternion_fields(geom)
    hdr = np.zeros((), _HEADER)
    hdr["sizeof_hdr"] = HEADER_SIZE
    hdr["dim"] = (3, *geom.dims, 1, 1, 1, 1)
    hdr["datatype"], hdr["bitpix"] = _FLOAT32_CODE, 32
    hdr["pixdim"] = (qfac, *geom.spacing, 0.0, 0.0, 0.0, 0.0)
    hdr["vox_offset"] = HEADER_SIZE + 4  # no header extensions
    hdr["scl_slope"] = 1.0
    hdr["qform_code"] = hdr["sform_code"] = 1
    hdr["quatern"] = quatern
    hdr["qoffset"] = geom.origin
    hdr["srow"] = np.column_stack([geom.axes * np.asarray(geom.spacing), geom.origin])
    hdr["magic"] = b"n+1"

    payload = hdr.tobytes() + b"\x00" * 4
    payload += volume.data.astype("<f4").tobytes(order="F")

    path = os.fspath(path)
    if path.endswith(".gz"):
        deflate = zlib.compressobj(1, zlib.DEFLATED, 31, 9, zlib.Z_RLE)
        payload = deflate.compress(payload) + deflate.flush()
    atomic_write_bytes(path, payload)

import gzip
import struct
import zlib

import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from slabrecon import (
    AffineGeometry,
    InvalidInput,
    ParseError,
    UnsupportedFormat,
    Volume,
    read_volume,
    write_volume,
)
from slabrecon.cli import main


def float32_volume(seed=0, dims=(7, 5, 6), origin=(4.5, -2.25, 11.0), axes=None):
    rng = np.random.default_rng(seed)
    g = AffineGeometry(dims, (0.31, 1.21, 0.29), origin,
                       np.eye(3) if axes is None else axes)
    data = rng.normal(size=dims).astype(np.float32).astype(np.float64)
    return Volume(g, data)


@pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
def test_round_trip_bit_exact(tmp_path, suffix):
    vol = float32_volume()
    path = tmp_path / f"vol{suffix}"
    write_volume(vol, path)
    back = read_volume(path)
    assert np.array_equal(back.data, vol.data)
    assert np.abs(np.asarray(back.geometry.spacing) - vol.geometry.spacing).max() <= 1e-5
    assert np.abs(np.asarray(back.geometry.origin) - vol.geometry.origin).max() <= 1e-5


def test_direction_cosines_survive_round_trip(tmp_path):
    axes = Rotation.from_euler("xyz", [0.2, -0.1, 0.4]).as_matrix()
    vol = float32_volume(axes=axes)
    path = tmp_path / "rot.nii"
    write_volume(vol, path)
    back = read_volume(path)
    assert np.abs(back.geometry.axes - axes).max() <= 1e-6
    # header-field oracle: srow rows must equal axes * spacing within float32
    raw = path.read_bytes()
    srow = np.array([
        struct.unpack_from("<4f", raw, 280),
        struct.unpack_from("<4f", raw, 296),
        struct.unpack_from("<4f", raw, 312),
    ])
    expected = axes * np.asarray(vol.geometry.spacing)
    assert np.abs(srow[:, :3] - expected).max() <= 1e-6
    assert np.abs(srow[:, 3] - vol.geometry.origin).max() <= 1e-6


def test_write_is_deterministic(tmp_path):
    vol = float32_volume(seed=2)
    p1, p2 = tmp_path / "a.nii.gz", tmp_path / "b.nii.gz"
    write_volume(vol, p1)
    write_volume(vol, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_wrong_magic_is_parse_error(tmp_path):
    vol = float32_volume()
    path = tmp_path / "bad.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"xxx\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert err.value.offset == 344


def test_two_file_magic_unsupported(tmp_path):
    vol = float32_volume()
    path = tmp_path / "pair.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    raw[344:348] = b"ni1\x00"
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormat):
        read_volume(path)


def test_truncated_header_and_data(tmp_path):
    vol = float32_volume()
    path = tmp_path / "short.nii"
    write_volume(vol, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:100])
    with pytest.raises(ParseError):
        read_volume(path)
    path.write_bytes(raw[:400])  # header intact, data truncated
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert err.value.offset == 352


def test_bad_sizeof_hdr(tmp_path):
    path = tmp_path / "bad.nii"
    path.write_bytes(b"\x00" * 400)
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert err.value.offset == 0


def test_unsupported_datatype(tmp_path):
    vol = float32_volume()
    path = tmp_path / "complex.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<hh", raw, 70, 32, 64)  # complex64
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormat):
        read_volume(path)


def test_bitpix_mismatch(tmp_path):
    vol = float32_volume()
    path = tmp_path / "bitpix.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<hh", raw, 70, 16, 64)  # float32 with wrong bitpix
    path.write_bytes(bytes(raw))
    with pytest.raises(ParseError) as err:
        read_volume(path)
    assert err.value.offset == 72


def test_multivolume_rejected(tmp_path):
    vol = float32_volume()
    path = tmp_path / "fourd.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<8h", raw, 40, 4, *vol.dims, 3, 1, 1, 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(UnsupportedFormat):
        read_volume(path)


def test_qform_fallback(tmp_path):
    axes = Rotation.from_euler("xyz", [0.15, 0.25, -0.3]).as_matrix()
    vol = float32_volume(axes=axes)
    path = tmp_path / "qform.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<h", raw, 254, 0)  # clear sform_code
    path.write_bytes(bytes(raw))
    back = read_volume(path)
    assert np.abs(back.geometry.axes - axes).max() <= 1e-5
    assert np.abs(np.asarray(back.geometry.origin) - vol.geometry.origin).max() <= 1e-5


def test_spacing_only_fallback(tmp_path):
    vol = float32_volume()
    path = tmp_path / "plain.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<hh", raw, 252, 0, 0)  # no qform, no sform
    path.write_bytes(bytes(raw))
    back = read_volume(path)
    assert np.abs(np.asarray(back.geometry.spacing) - vol.geometry.spacing).max() <= 1e-5
    assert back.geometry.origin == (0.0, 0.0, 0.0)


def test_scl_slope_applied(tmp_path):
    vol = float32_volume(seed=5)
    path = tmp_path / "scaled.nii"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<ff", raw, 112, 2.0, 10.0)
    path.write_bytes(bytes(raw))
    back = read_volume(path)
    assert np.allclose(back.data, vol.data * 2.0 + 10.0, atol=1e-5)


def test_int16_data_read(tmp_path):
    g = AffineGeometry((4, 3, 2), (1.0, 1.0, 1.0))
    data = np.arange(24, dtype=np.int16).reshape((4, 3, 2), order="F")
    path = tmp_path / "i16.nii"
    header = bytearray(348)
    struct.pack_into("<i", header, 0, 348)
    struct.pack_into("<8h", header, 40, 3, 4, 3, 2, 1, 1, 1, 1)
    struct.pack_into("<hh", header, 70, 4, 16)
    struct.pack_into("<8f", header, 76, 1.0, 1.0, 1.0, 1.0, 0, 0, 0, 0)
    struct.pack_into("<f", header, 108, 352.0)
    header[344:348] = b"n+1\x00"
    path.write_bytes(bytes(header) + b"\x00" * 4 + data.tobytes(order="F"))
    back = read_volume(path)
    assert back.dims == (4, 3, 2)
    assert np.array_equal(back.data, data.astype(float))


def test_gzip_detected_by_content(tmp_path):
    # gzipped payload without the .gz suffix still reads
    vol = float32_volume(seed=6)
    nii = tmp_path / "x.nii.gz"
    write_volume(vol, nii)
    renamed = tmp_path / "x.nii"
    renamed.write_bytes(nii.read_bytes())
    back = read_volume(renamed)
    assert np.array_equal(back.data, vol.data)


def test_gzip_output_is_one_member_with_mtime_zero_around_the_plain_file(tmp_path):
    vol = float32_volume(seed=7)
    write_volume(vol, tmp_path / "v.nii.gz")
    write_volume(vol, tmp_path / "v.nii")
    raw = (tmp_path / "v.nii.gz").read_bytes()
    assert raw[:3] == b"\x1f\x8b\x08"                # gzip magic, deflate
    assert struct.unpack_from("<I", raw, 4)[0] == 0  # mtime
    member = zlib.decompressobj(31)
    decoded = member.decompress(raw)
    assert member.eof and member.unused_data == b""  # exactly one member
    assert gzip.decompress(raw) == decoded
    plain = (tmp_path / "v.nii").read_bytes()
    assert decoded == plain
    assert len(decoded) == 352 + 4 * vol.data.size
    assert decoded[352:] == vol.data.astype("<f4").tobytes(order="F")


def test_noisy_gzip_output_is_no_larger_than_level_9(tmp_path, standard_phantom):
    # noisy float32 leaves deflate only its entropy coder: the fast setting
    # must cost no more than 1% of size against the slowest one
    data = standard_phantom.volume.data
    noise = np.random.default_rng(11).normal(0.0, 0.02 * data.max(), size=data.shape)
    write_volume(standard_phantom.volume.with_data(data + noise), tmp_path / "noisy.nii.gz")
    payload = gzip.decompress((tmp_path / "noisy.nii.gz").read_bytes())
    size = (tmp_path / "noisy.nii.gz").stat().st_size
    assert size <= 1.01 * len(gzip.compress(payload, 9))


def test_header_fields_sit_at_the_nifti1_offsets(tmp_path):
    # read back with struct at the offsets of the NIfTI-1 standard, so a
    # wrong offset shared by reader and writer cannot pass a round trip
    axes = Rotation.from_euler("xyz", [0.3, -0.2, 0.1]).as_matrix() @ np.diag([1.0, 1.0, -1.0])
    vol = float32_volume(dims=(7, 5, 6), origin=(4.5, -2.25, 11.0), axes=axes)
    path = tmp_path / "fields.nii"
    write_volume(vol, path)
    raw = path.read_bytes()
    assert struct.unpack_from("<i", raw, 0) == (348,)
    assert struct.unpack_from("<8h", raw, 40) == (3, 7, 5, 6, 1, 1, 1, 1)
    assert struct.unpack_from("<hh", raw, 70) == (16, 32)   # float32, 32 bits
    pixdim = struct.unpack_from("<8f", raw, 76)
    assert pixdim[0] == -1.0                                # qfac of a reflected grid
    assert np.allclose(pixdim[1:4], vol.geometry.spacing, atol=1e-6)
    assert struct.unpack_from("<f", raw, 108) == (352.0,)  # vox_offset
    assert struct.unpack_from("<ff", raw, 112) == (1.0, 0.0)
    assert struct.unpack_from("<hh", raw, 252) == (1, 1)   # qform_code, sform_code
    b, c, d = struct.unpack_from("<3f", raw, 256)
    a = np.sqrt(1.0 - (b * b + c * c + d * d))
    rot = np.array([
        [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
        [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
        [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - c * c - b * b],
    ])
    assert np.abs(rot @ np.diag([1.0, 1.0, pixdim[0]]) - axes).max() <= 1e-6
    assert np.allclose(struct.unpack_from("<3f", raw, 268), vol.geometry.origin, atol=1e-6)
    assert raw[344:348] == b"n+1\x00"
    assert len(raw) == 352 + 4 * vol.data.size



def test_write_refuses_dims_over_the_int16_header_field(tmp_path):
    # dim is int16 in the header: 32767 voxels on an axis is the most it holds
    path = tmp_path / "wide.nii"
    write_volume(Volume(AffineGeometry((32767, 1, 1), (1.0, 1.0, 1.0)), np.zeros((32767, 1, 1))),
                 path)
    assert read_volume(path).dims == (32767, 1, 1)
    too_wide = Volume(AffineGeometry((1, 1, 32768), (1.0, 1.0, 1.0)), np.zeros((1, 1, 32768)))
    with pytest.raises(InvalidInput, match=r"dims \(1, 1, 32768\) exceed .* 32767"):
        write_volume(too_wide, tmp_path / "too_wide.nii")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["wide.nii"]


@pytest.mark.parametrize("patch, message", [
    ([("<h", 40, 0)], "dim[0] = 0 outside [1, 7] (byte offset 40)"),
    ([("<h", 40, 8)], "dim[0] = 8 outside [1, 7] (byte offset 40)"),
    ([("<h", 40, 2)], "need a 3D volume, got 2D"),
    ([("<h", 44, 0)], "non-positive spatial dims (7, 0, 6) (byte offset 40)"),
    ([("<h", 46, -6)], "non-positive spatial dims (7, 5, -6) (byte offset 40)"),
    ([("<f", 280, 0.0), ("<f", 296, 0.0), ("<f", 312, 0.0)], "affine has a zero-length column"),
    ([("<f", 296, 0.1)], "sheared affine"),
], ids=["dim0_zero", "dim0_eight", "two_d", "zero_dim", "negative_dim", "zero_column",
        "sheared"])
def test_qc_with_a_nifti_header_the_reader_refuses_is_data_error(tmp_path, capsys, patch,
                                                                  message):
    # srow rows sit at 280, 296 and 312: a column is one float of each
    path = tmp_path / "vol.nii"
    write_volume(float32_volume(), path)
    raw = bytearray(path.read_bytes())
    for fmt, at, value in patch:
        struct.pack_into(fmt, raw, at, value)
    path.write_bytes(bytes(raw))
    # the volume is read first: the ROI sidecar is never opened
    code = main(["qc", "--volume", str(path), "--rois", str(tmp_path / "rois.json"),
                 "--out", str(tmp_path / "qc")])
    err = capsys.readouterr().err
    assert code == 4
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "qc").exists()

"""The NumPy ports of scipy's rotation conversions, cubic prefilter and 3D cubic
spline read give scipy's bits. The bits were taken from scipy 1.17.1; the ports
copy the arithmetic of its Cython ``Rotation`` and of ndimage's ``ni_splines.c``
and ``ni_interpolation.c``."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import ndimage
from scipy.spatial.transform import Rotation

import slabrecon
from test_volume import _mirror_points

from slabrecon import (AffineGeometry, InterpolationMethod, RigidTransform, Volume, compose,
                       invert, resample, transform_deviation)
from slabrecon.geometry import _euler_matrix, index_map, matrix_quat, normalized_quat, quat_matrix
from slabrecon.nifti import _quaternion_fields
from slabrecon.volume import _cubic, _mirror_fold, _prefilter, _spline_filter, in_field


# the rotation ports copy scipy 1.17's Cython Rotation; older releases may round otherwise
rotation_bits = pytest.mark.skipif(
    tuple(int(v) for v in scipy.__version__.split(".")[:2]) < (1, 17),
    reason="reference bits are scipy >= 1.17's")


def same_bits(got, want) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def euler_triples(seed, n=5000):
    """``n`` triples within +-0.3 rad and ``n`` over the full range of each angle."""
    rng = np.random.default_rng(seed)
    full = rng.uniform(-np.pi, np.pi, (n, 3))
    full[:, 1] /= 2.0
    return np.concatenate([rng.uniform(-0.3, 0.3, (n, 3)), full])


@rotation_bits
def test_euler_matrix_and_back_match_scipy_bit_for_bit():
    triples = euler_triples(0)
    want = Rotation.from_euler("xyz", triples).as_matrix()
    want_angles = Rotation.from_matrix(want).as_euler("xyz")
    want_quats = Rotation.from_matrix(want).as_quat()
    for angles, mat, back, quat in zip(triples, want, want_angles, want_quats):
        assert same_bits(_euler_matrix(tuple(angles)), mat)
        assert same_bits(matrix_quat(mat), quat)
        t = RigidTransform.from_matrix(np.block([[mat, np.zeros((3, 1))], [np.zeros(3), 1.0]]))
        assert same_bits(t.rotation, back)


@rotation_bits
def test_composed_and_inverted_matrices_match_scipy_bit_for_bit():
    # a.matrix @ b.matrix and the inverse's block: the matrices compose and invert convert
    triples = euler_triples(1, n=1000)
    center = (3.0, -1.5, 8.0)
    for first, second in zip(triples[::2], triples[1::2]):
        a = RigidTransform(tuple(first), (1.0, -2.0, 0.5), center)
        b = RigidTransform(tuple(second), (-0.3, 0.7, 2.0), center)
        product = (a.matrix @ b.matrix)[:3, :3]
        want = Rotation.from_matrix(product).as_euler("xyz")
        assert same_bits(compose(a, b).rotation, want)
        want = Rotation.from_matrix(a.matrix[:3, :3].T).as_euler("xyz")
        assert same_bits(invert(a).rotation, want)


@rotation_bits
@pytest.mark.parametrize("ry", [np.pi / 2, -np.pi / 2])
def test_gimbal_lock_keeps_scipys_angles_and_warning(ry):
    rng = np.random.default_rng(2)
    for rx, rz in rng.uniform(-np.pi, np.pi, (50, 2)):
        mat = _euler_matrix((rx, ry, rz))
        with pytest.warns(UserWarning, match="Gimbal lock") as record:
            want = Rotation.from_matrix(mat).as_euler("xyz")
        assert len(record) == 1
        rigid = np.eye(4)
        rigid[:3, :3] = mat
        with pytest.warns(UserWarning, match="Gimbal lock"):
            got = RigidTransform.from_matrix(rigid).rotation
        assert same_bits(got, want)


@rotation_bits
def test_identity_converts_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert same_bits(_euler_matrix((0.0, 0.0, 0.0)), np.eye(3))
        assert same_bits(matrix_quat(np.eye(3)), Rotation.from_matrix(np.eye(3)).as_quat())
        assert same_bits(RigidTransform.from_matrix(np.eye(4)).rotation,
                         Rotation.identity().as_euler("xyz"))


@rotation_bits
def test_perturbed_matrices_take_scipys_svd_projection_bit_for_bit():
    rng = np.random.default_rng(3)
    triples = euler_triples(3, n=800)
    base = Rotation.from_euler("xyz", triples).as_matrix()
    noise = rng.normal(size=base.shape) * 10.0 ** rng.uniform(-13, -7, (len(base), 1, 1))
    projected = 0
    for mat in base + noise:
        projected += not np.all(np.isclose(mat @ mat.T, np.eye(3), atol=1e-12))
        assert same_bits(matrix_quat(mat), Rotation.from_matrix(mat).as_quat())
    assert projected > len(base) // 2   # most of them run the SVD branch


@rotation_bits
def test_nifti_qform_quaternion_matches_scipy_both_ways():
    rng = np.random.default_rng(4)
    for _ in range(2000):
        # read: the header's (b, c, d) as float32, a from the unit norm
        b, c, d = (rng.normal(size=3) * 0.5).astype(np.float32).astype(float)
        a = float(np.sqrt(max(1.0 - (b * b + c * c + d * d), 0.0)))
        assert same_bits(quat_matrix(normalized_quat((b, c, d, a))),
                         Rotation.from_quat([b, c, d, a]).as_matrix())
    for axes in Rotation.random(1000, random_state=5).as_matrix():
        for flip in (1.0, -1.0):   # a left-handed grid writes qfac = -1
            geometry = AffineGeometry((2, 2, 2), (1.0, 1.0, 1.0), axes=axes * [1.0, 1.0, flip])
            qfac, quatern = _quaternion_fields(geometry)
            want = Rotation.from_matrix(axes).as_quat()
            want = -want if want[3] < 0 else want
            assert qfac == flip and same_bits(quatern, want[:3])


@rotation_bits
def test_transform_deviation_angle_matches_scipy_bit_for_bit():
    rng = np.random.default_rng(6)
    for scale in (1e-9, 1e-6, 1e-4, 1e-2, 0.3, 3.0):
        for _ in range(200):
            a = RigidTransform(tuple(rng.uniform(-0.3, 0.3, 3)), (1.0, 2.0, 3.0))
            b = RigidTransform(tuple(np.add(a.rotation, rng.uniform(-scale, scale, 3))))
            rel = a.matrix[:3, :3] @ b.matrix[:3, :3].T
            want = float(np.degrees(np.linalg.norm(Rotation.from_matrix(rel).as_rotvec())))
            assert same_bits(transform_deviation(a, b, (0.0, 0.0, 0.0))[0], want)
    assert transform_deviation(a, a, (0.0, 0.0, 0.0)) == (0.0, 0.0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 23, 46, 64, 77])
def test_prefilter_is_spline_filter1d_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for axis in range(3):
        shape = [5, 4, 6]
        shape[axis] = n
        data = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        data[0] = 0.0   # zero lines too
        want = ndimage.spline_filter1d(data, order=3, axis=axis, mode="mirror")
        got = _prefilter(data, axis)
        assert got.flags.c_contiguous and not np.shares_memory(got, data)
        assert same_bits(got, np.moveaxis(want, axis, 0))


def signed_zero_volumes(dims, rng):
    """Random data with its first x planes -0.0, and a volume that is -0.0 everywhere:
    its reads sum -0.0 terms, which ndimage adds to +0.0."""
    data = rng.normal(size=dims) * 10.0 ** rng.uniform(-3, 3)
    data[:max(dims[0] // 3, 1)] = -0.0
    return data, np.full(dims, -0.0)


@pytest.mark.parametrize("dims", [(9, 5, 7), (6, 1, 4), (2, 3, 1), (1, 2, 2)])
def test_spline_filter_is_ndimage_bit_for_bit(dims):
    for data in signed_zero_volumes(dims, np.random.default_rng(sum(dims))):
        want = ndimage.spline_filter(data, order=3, mode="mirror")
        got = _spline_filter(data)
        assert got.flags.c_contiguous and same_bits(got, want)


@pytest.mark.parametrize("dims", [(9, 5, 7), (6, 1, 4), (2, 3, 1), (1, 1, 1)])
def test_cubic_read_is_map_coordinates_mirror_bit_for_bit(dims):
    # in the field, both outer half-voxel bands, the hull corners, and -3n to 4n per axis;
    # on (1, 1, 1) every term of a -0.0 volume is -0.0, so only a sum from +0.0 gives +0.0
    rng = np.random.default_rng(sum(dims) + 1)
    inside, far = _mirror_points(dims, rng)
    assert in_field(inside, dims).all() and not in_field(far, dims).all()
    for data in signed_zero_volumes(dims, rng):
        coeffs = _spline_filter(data)
        for idx in (inside, far):
            got = _cubic(coeffs, _mirror_fold(idx.copy(), dims))
            assert same_bits(got, ndimage.map_coordinates(data, idx, order=3, mode="mirror"))


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("dims", [(9, 5, 7), (6, 1, 4)])
def test_rotated_cubic_resample_is_map_coordinates_mirror_bit_for_bit(dims, extend):
    # a rotated target reaching several grid lengths past the hull
    rng = np.random.default_rng(8)
    source = AffineGeometry(dims, (1.0, 1.0, 1.0))
    vols = [Volume(source, data) for data in signed_zero_volumes(dims, rng)]
    target = AffineGeometry((40, 30, 36), (1.6, 1.3, 1.7), origin=(-30.0, -18.0, -28.0))
    turn = RigidTransform(rotation=(0.3, -0.2, 0.25), center=tuple(source.world_center()))
    m = index_map(target, turn, source)
    idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    inside = in_field(idx, dims)
    assert inside.any() and not inside.all()
    outs = resample(vols, target, turn, InterpolationMethod.CubicBSpline, extend)
    for vol, out in zip(vols, outs, strict=True):
        want = ndimage.map_coordinates(vol.data, idx, order=3, mode="mirror")
        if not extend:
            want[~inside] = 0.0
        assert same_bits(out.data.ravel(), want)


def test_importing_the_package_loads_no_scipy():
    src = str(Path(slabrecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    code = ("import sys, slabrecon, slabrecon.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_simulating_a_rotated_slab_loads_no_scipy(tmp_path):
    # the default scenario turns slab 1 by 1.5 degrees: the 3D cubic read runs
    src = str(Path(slabrecon.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    code = ("import sys, slabrecon.cli; "
            f"assert slabrecon.cli.main(['simulate', '--out', {str(tmp_path / 'sim')!r}]) == 0; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.strip().splitlines()[-1] == "[]"

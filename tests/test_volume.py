import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from slabrecon import (
    AffineGeometry,
    InterpolationMethod,
    InvalidInput,
    RigidTransform,
    Volume,
    invert,
    prepare_reference,
    resample,
)
from slabrecon import volume as volume_module
from slabrecon.geometry import index_map
from slabrecon.volume import _mirror_fold, _trilinear, in_field, padded_flat

METHODS = list(InterpolationMethod)


def random_volume(seed=0, dims=(9, 7, 8), spacing=(0.3, 1.2, 0.3)):
    rng = np.random.default_rng(seed)
    g = AffineGeometry(dims, spacing, origin=(1.0, -2.0, 0.5))
    return Volume(g, rng.uniform(10, 200, size=dims))


@pytest.mark.parametrize("method", METHODS)
def test_interpolation_reproduces_nodes(method):
    # the interior nodes as a grid of their own: every output voxel lands on
    # an input node, and the identity shortcut is not taken
    vol = random_volume()
    g = vol.geometry
    interior = AffineGeometry(tuple(d - 2 for d in g.dims), g.spacing,
                              tuple(g.index_to_world([[1, 1, 1]])[0]), g.axes)
    [out] = resample([vol], interior, RigidTransform.identity(), method)
    expected = vol.data[1:-1, 1:-1, 1:-1]
    rel = np.abs(out.data - expected) / np.abs(expected)
    assert rel.max() <= 1e-6


def test_constant_volume_partition_of_unity():
    g = AffineGeometry((8, 8, 8), (1.0, 1.0, 1.0))
    vol = Volume(g, np.full((8, 8, 8), 7.5))
    # off-node samples at indices 1.3 .. 5.9 on a finer, shifted grid
    target = AffineGeometry((12, 12, 12), (0.4, 0.4, 0.4), (1.3, 1.3, 1.3))
    [out] = resample([vol], target, RigidTransform.identity(),
                     InterpolationMethod.CubicBSpline)
    assert np.abs(out.data - 7.5).max() <= 1e-6


def test_one_voxel_shift_matches_index_oracle():
    # independent oracle: shifting the sampling grid by exactly one voxel
    # must equal an array index shift
    vol = random_volume(seed=3, dims=(10, 6, 7), spacing=(0.5, 1.0, 0.5))
    shift = RigidTransform(translation=(0.5, 0.0, 0.0))  # +1 voxel along x
    expected = vol.data[1:]  # pull-style: output x takes input x+1
    for method in METHODS:
        [out] = resample([vol], vol.geometry, shift, method)
        rel = np.abs(out.data[:-1] - expected) / np.abs(expected)
        assert rel.max() <= 1e-12
        assert np.all(out.data[-1] == 0.0)  # x = n lies beyond the hull


def test_trilinear_reproduces_ramp():
    g = AffineGeometry((6, 4, 4), (1.0, 1.0, 1.0))
    ramp = np.broadcast_to(np.arange(6.0)[:, None, None], (6, 4, 4))
    vol = Volume(g, np.array(ramp))
    shift = RigidTransform(translation=(0.25, 0.0, 0.0))
    [out] = resample([vol], g, shift, InterpolationMethod.Trilinear)
    assert np.abs(out.data[:-1] - (ramp[:-1] + 0.25)).max() <= 1e-9


def test_out_of_field_returns_fill_and_indicator():
    vol = random_volume()
    g = vol.geometry
    far = RigidTransform(translation=(-5.0 - g.dims[0] * g.spacing[0], 0.0, 0.0))
    voxels = np.indices(g.dims, dtype=float).reshape(3, -1).T
    moved = g.world_to_index(far.apply(g.index_to_world(voxels)))
    assert not in_field(moved.T, g.dims).any()
    for method in METHODS:
        [out] = resample([vol], g, far, method)
        assert np.all(out.data == 0.0)


def test_resample_identity_is_exact():
    vol = random_volume()
    [out] = resample([vol], vol.geometry, RigidTransform.identity(),
                     InterpolationMethod.Trilinear)
    assert np.array_equal(out.data, vol.data)


def test_resample_degenerate_target_rejected():
    vol = random_volume()
    with pytest.raises(InvalidInput):
        AffineGeometry((0, 4, 4), (1, 1, 1))
    bad = AffineGeometry((4, 4, 4), (1, 1, 1))
    object.__setattr__(bad, "dims", (0, 4, 4))  # bypass constructor validation
    with pytest.raises(InvalidInput):
        resample([vol], bad, RigidTransform.identity(), InterpolationMethod.Trilinear)


@pytest.mark.parametrize("method", METHODS)
def test_volumes_resampled_together_equal_each_alone(method):
    a, b = random_volume(seed=1), random_volume(seed=2)
    target = a.geometry.with_spacing((0.2, 1.2, 0.25))
    t = RigidTransform(rotation=(0.03, -0.02, 0.05), translation=(0.2, -0.4, 0.1),
                       center=tuple(a.geometry.world_center()))
    together = resample([a, b], target, t, method)
    alone = [resample([v], target, t, method)[0] for v in (a, b)]
    for joint, single in zip(together, alone, strict=True):
        assert joint.geometry is target
        assert np.array_equal(joint.data, single.data)


def test_volumes_on_different_grids_rejected():
    a = random_volume()
    b = random_volume(spacing=(0.3, 1.2, 0.6))
    with pytest.raises(InvalidInput, match="share a grid"):
        resample([a, b], a.geometry, RigidTransform.identity(),
                 InterpolationMethod.Trilinear)


@pytest.mark.parametrize("method", METHODS)
def test_extend_mirrors_past_the_hull(method):
    vol = random_volume()
    g = vol.geometry
    shift = RigidTransform(translation=(3 * g.spacing[0], 0.0, 0.0))  # +3 voxels along x
    [cut] = resample([vol], g, shift, method)
    [mirrored] = resample([vol], g, shift, method, extend=True)
    # output x takes input x + 3, beyond the hull n - 0.5 for the last 3 planes
    assert np.all(cut.data[-3:] == 0.0)
    assert np.all(mirrored.data[-3:] > 0.0)
    assert np.array_equal(mirrored.data[:-3], cut.data[:-3])


@settings(max_examples=20, deadline=None)
@given(
    rot=st.tuples(*[st.floats(-0.1, 0.1)] * 3),
    trans=st.tuples(*[st.floats(-1.5, 1.5)] * 3),
)
def test_constant_invariance_under_rigid_transform(rot, trans):
    g = AffineGeometry((12, 10, 12), (1.0, 1.0, 1.0))
    vol = Volume(g, np.full((12, 10, 12), 5.0))
    t = RigidTransform(rotation=rot, translation=trans, center=tuple(g.world_center()))
    [out] = resample([vol], g, t, InterpolationMethod.CubicBSpline)
    interior = out.data[3:-3, 3:-3, 3:-3]
    assert np.abs(interior - 5.0).max() <= 1e-6


def test_rigid_round_trip_on_smooth_phantom():
    # smooth blob: resample out and back stays within 2% of the dynamic range
    g = AffineGeometry((24, 20, 24), (1.0, 1.0, 1.0))
    ix, iy, iz = np.meshgrid(*map(np.arange, g.dims), indexing="ij")
    blob = 100.0 * np.exp(-(((ix - 12) / 6.0) ** 2 + ((iy - 10) / 5.0) ** 2
                            + ((iz - 12) / 6.0) ** 2))
    vol = Volume(g, blob)
    t = RigidTransform(rotation=(0.05, -0.04, 0.06), translation=(1.5, -1.0, 0.8),
                       center=tuple(g.world_center()))
    [fwd] = resample([vol], g, t, InterpolationMethod.CubicBSpline)
    [back] = resample([fwd], g, invert(t), InterpolationMethod.CubicBSpline)
    # doubly in-field region only
    inner = np.s_[4:-4, 4:-4, 4:-4]
    diff = back.data[inner] - vol.data[inner]
    rmse = np.sqrt((diff ** 2).mean())
    assert rmse <= 0.02 * (blob.max() - blob.min())


def test_volume_rejects_non_finite_and_bad_shape():
    g = AffineGeometry((3, 3, 3), (1, 1, 1))
    with pytest.raises(InvalidInput):
        Volume(g, np.full((3, 3, 3), np.nan))
    with pytest.raises(InvalidInput):
        Volume(g, np.zeros((2, 3, 3)))
    with pytest.raises(InvalidInput, match="does not match dims"):
        Volume(g, np.zeros(27))


def test_volume_data_is_immutable():
    vol = random_volume()
    with pytest.raises(ValueError):
        vol.data[0, 0, 0] = 1.0


def cubic_3d_oracle(vol, target, transform, extend):
    """The 3D cubic B-spline read at every target voxel, as ndimage gives it."""
    m = index_map(target, transform, vol.geometry)
    idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    coeffs = ndimage.spline_filter(vol.data, order=3, mode="mirror")
    values = ndimage.map_coordinates(coeffs, idx, order=3, prefilter=False, mode="mirror")
    if not extend:
        values[~in_field(idx, vol.dims)] = 0.0
    return values.reshape(target.dims)


@pytest.mark.parametrize("spacing, translation, extend, flat, cut", [
    ((0.15, 1.2, 0.15), (0.0, 0.0, 0.0), False, False, False),   # x2 up in-plane
    ((0.3, 1.2, 0.6), (0.0, 0.0, 0.0), True, False, False),      # x2 down along z
    ((0.3, 1.2, 0.3), (0.0, 1.2, 0.0), False, False, True),      # one whole slice
    ((0.3, 1.2, 0.3), (0.0, 1.2, 0.0), True, False, False),
    ((0.3, 1.2, 0.3), (0.11, -0.5, 0.7), False, False, True),    # fractional
    ((0.3, 1.2, 0.3), (0.11, -0.5, 0.7), True, False, False),
    ((0.15, 1.2, 0.2), (0.0, 0.4, 0.05), True, True, False),     # singleton y
    ((0.15, 1.2, 0.2), (0.0, 0.4, 0.0), False, True, False),
    ((0.2, 0.5, 0.9), (0.05, 0.1, -0.2), True, False, False),    # a scale per axis
])
def test_axis_aligned_cubic_matches_3d_spline(spacing, translation, extend, flat, cut):
    vol = random_volume(seed=3)
    if flat:
        vol = Volume(AffineGeometry((9, 1, 8), (0.3, 1.2, 0.3)), vol.data[:, :1])
    target = vol.geometry.with_spacing(spacing)
    shift = RigidTransform(translation=translation)
    [fast] = resample([vol], target, shift, InterpolationMethod.CubicBSpline, extend=extend)
    oracle = cubic_3d_oracle(vol, target, shift, extend)
    lo, hi = vol.value_range()
    assert np.max(np.abs(fast.data - oracle)) <= 1e-12 * (hi - lo)
    # voxels beyond the hull are exactly 0, and only those
    beyond = oracle == 0.0
    assert np.array_equal(fast.data == 0.0, beyond)
    assert beyond.any() == cut


def test_cubic_resample_without_rotation_skips_the_3d_spline(monkeypatch):
    vol = random_volume(seed=4)

    def no_3d_spline(*args, **kwargs):
        raise AssertionError("3D map_coordinates called")

    monkeypatch.setattr(ndimage, "map_coordinates", no_3d_spline)
    assert prepare_reference(vol, (0.15, 0.15)).dims == (18, 7, 16)
    shift = RigidTransform(translation=(0.1, 0.6, -0.2))
    resample([vol], vol.geometry, shift, InterpolationMethod.CubicBSpline, extend=True)
    turn = RigidTransform(rotation=(0.02, 0.0, 0.0), center=tuple(vol.geometry.world_center()))
    # a rotation runs the 3D spline as a NumPy port: no map_coordinates either
    [out] = resample([vol], vol.geometry, turn, InterpolationMethod.CubicBSpline)
    assert out.dims == vol.dims


def test_cubic_resample_without_rotation_skips_the_3d_port(monkeypatch):
    vol = random_volume(seed=4)

    def no_3d_spline(*args):
        raise AssertionError("3D spline read called")

    monkeypatch.setattr(volume_module, "_cubic", no_3d_spline)
    assert prepare_reference(vol, (0.15, 0.15)).dims == (18, 7, 16)
    shift = RigidTransform(translation=(0.1, 0.6, -0.2))
    resample([vol], vol.geometry, shift, InterpolationMethod.CubicBSpline, extend=True)
    turn = RigidTransform(rotation=(0.02, 0.0, 0.0), center=tuple(vol.geometry.world_center()))
    with pytest.raises(AssertionError, match="3D spline read"):
        resample([vol], vol.geometry, turn, InterpolationMethod.CubicBSpline)


def _mirror_points(dims, rng):
    """Random in-field points, both outer half-voxel bands of every axis, the
    two hull corners, and points from -3n to 4n per axis."""
    d = np.array(dims, dtype=float)[:, None]
    points = [rng.uniform(-0.5, d - 0.5, (3, 5000))]
    for axis in range(3):
        for band in ((-0.5, 0.0), (dims[axis] - 1.0, dims[axis] - 0.5)):
            edge = rng.uniform(-0.5, d - 0.5, (3, 500))
            edge[axis] = rng.uniform(*band, 500)
            edge[axis, :2] = band   # both ends of the band itself
            points.append(edge)
    points.append(np.hstack([-0.5 + 0 * d, d - 0.5]))   # the two hull corners
    far = rng.uniform(-3 * d, 4 * d, (3, 20000))
    return np.concatenate(points, axis=1), far


@pytest.mark.parametrize("dims", [(9, 5, 7), (6, 1, 4), (2, 3, 1)])
def test_trilinear_read_is_map_coordinates_mirror_bit_for_bit(dims):
    # the mirror twin of the objective's "nearest" read, one-voxel axes included
    rng = np.random.default_rng(sum(dims))
    data = rng.normal(size=dims)
    inside, far = _mirror_points(dims, rng)
    assert in_field(inside, dims).all() and not in_field(far, dims).all()
    for idx in (inside, far):
        got = _trilinear(*padded_flat(data, "reflect"), _mirror_fold(idx.copy(), dims))
        want = ndimage.map_coordinates(data, idx, order=1, mode="mirror")
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("extend", [False, True])
@pytest.mark.parametrize("dims", [(9, 5, 7), (6, 1, 4)])
def test_trilinear_resample_is_map_coordinates_mirror_bit_for_bit(dims, extend):
    # a rotated target reaching several grid lengths past the hull, and
    # half-voxel shifts that land on the hull corners exactly
    rng = np.random.default_rng(7)
    source = AffineGeometry(dims, (1.0, 1.0, 1.0))
    data = rng.normal(size=dims)
    data[:2] = -0.0   # reads there sum -0.0 terms, which ndimage adds to +0.0
    vols = [Volume(source, data), Volume(source, rng.uniform(0, 1, dims))]   # one stacked read
    wide = AffineGeometry((40, 30, 36), (1.6, 1.3, 1.7), origin=(-30.0, -18.0, -28.0))
    turn = RigidTransform(rotation=(0.3, -0.2, 0.25), center=tuple(source.world_center()))
    cases = [(wide, turn)] + [(source, RigidTransform(translation=(h, h, h))) for h in (-0.5, 0.5)]
    for target, transform in cases:
        m = index_map(target, transform, source)
        idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
        inside = in_field(idx, dims)
        assert inside.any() and inside.all() == (target is source)
        outs = resample(vols, target, transform, InterpolationMethod.Trilinear, extend)
        for vol, out in zip(vols, outs, strict=True):
            want = ndimage.map_coordinates(vol.data, idx, order=1, mode="mirror")
            if not extend:
                want[~inside] = 0.0
            assert np.array_equal(out.data.ravel().view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("target_dims, origin", [
    ((23, 7, 9), (-4.0, -2.0, -3.0)),   # 4 x-planes of 63 voxels a block: 6 blocks, the last of 3
    ((5, 20, 20), (2.0, -3.0, -4.0)),   # planes of 400 voxels: one a block, read in two chunks
], ids=["planes_per_block", "plane_over_block"])
def test_resample_in_many_blocks_is_map_coordinates_mirror_bit_for_bit(monkeypatch, target_dims,
                                                                      origin):
    monkeypatch.setattr(volume_module, "_READ_CHUNK", 300)
    rng = np.random.default_rng(11)
    source = AffineGeometry((9, 5, 7), (1.0, 1.0, 1.0))
    data = rng.normal(size=source.dims)
    data[:2] = -0.0   # reads there sum -0.0 terms, which ndimage adds to +0.0
    vols = [Volume(source, data), Volume(source, rng.uniform(0, 1, source.dims))]
    target = AffineGeometry(target_dims, (0.9, 0.5, 0.8), origin=origin)
    turn = RigidTransform(rotation=(0.3, -0.2, 0.25), center=tuple(source.world_center()))
    m = index_map(target, turn, source)
    idx = m[:, :3] @ np.indices(target.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    inside = in_field(idx, source.dims)
    assert inside.any() and not inside.all()
    for method in METHODS:
        for extend in (False, True):
            outs = resample(vols, target, turn, method, extend)
            for vol, out in zip(vols, outs, strict=True):
                want = ndimage.map_coordinates(vol.data, idx, order=method.value, mode="mirror")
                if not extend:
                    want[~inside] = 0.0
                assert np.array_equal(out.data.ravel().view(np.int64), want.view(np.int64))


def test_two_volume_trilinear_resample_peaks_under_two_and_a_half_outputs():
    # the output and the padded copy of each volume, about 1.1 outputs, and blocks of
    # about 16,384 voxels; a whole-grid map held 4.6 outputs at this size
    grid = AffineGeometry((120, 20, 120), (0.3, 1.2, 0.3))
    rng = np.random.default_rng(12)
    vols = [Volume(grid, rng.normal(size=grid.dims)), Volume(grid, rng.uniform(0, 1, grid.dims))]
    turn = RigidTransform(rotation=(0.02, -0.01, 0.015), translation=(0.1, -0.3, 0.2),
                          center=tuple(grid.world_center()))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outs = resample(vols, grid, turn, InterpolationMethod.Trilinear)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * sum(out.data.nbytes for out in outs)


@pytest.mark.parametrize("mode", ["edge", "reflect"])
def test_padded_flat_of_a_list_pads_each_volume_as_np_pad(mode):
    rng = np.random.default_rng(13)
    for dims in [(9, 5, 7), (6, 1, 4), (1, 1, 1)]:
        images = [rng.normal(size=dims) for _ in range(3)]
        flat, corners = padded_flat(images, mode)
        single, single_corners = padded_flat(images[1], mode)
        assert flat.shape == (3, single.size) and corners == single_corners
        for row, image in zip(flat, images, strict=True):
            assert np.array_equal(row, np.pad(image, 1, mode=mode).ravel())
        assert np.array_equal(single, flat[1])

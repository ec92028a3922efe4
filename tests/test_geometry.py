import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabrecon import AffineGeometry, InvalidInput, RigidTransform, compose, invert, transform_deviation
from slabrecon.geometry import index_map

angles = st.floats(-np.radians(10), np.radians(10))
shifts = st.floats(-5.0, 5.0)


def make_transform(rot, trans, center=(4.0, -2.0, 7.0)):
    return RigidTransform(rotation=tuple(rot), translation=tuple(trans), center=center)


def test_identity_compose_is_noop():
    t = make_transform((0.1, -0.2, 0.3), (1.0, 2.0, -3.0))
    ident = RigidTransform.identity(center=t.center)
    assert np.abs(compose(t, ident).matrix - t.matrix).max() <= 1e-12
    assert np.abs(compose(ident, t).matrix - t.matrix).max() <= 1e-12


def test_invert_pure_rotation_negates_angle():
    t = RigidTransform(rotation=(0.0, 0.0, np.radians(30)), center=(1.0, 2.0, 3.0))
    inv = invert(t)
    expected = RigidTransform(rotation=(0.0, 0.0, -np.radians(30)), center=(1.0, 2.0, 3.0))
    assert np.abs(inv.matrix - expected.matrix).max() <= 1e-12


def test_matrix_block_is_proper_rotation():
    t = make_transform((0.2, 0.15, -0.1), (2.0, -1.0, 0.5))
    rot = t.matrix[:3, :3]
    assert np.abs(rot @ rot.T - np.eye(3)).max() <= 1e-9
    assert abs(np.linalg.det(rot) - 1.0) <= 1e-9


def test_euler_order_is_rz_ry_rx():
    a, b, c = 0.2, -0.3, 0.4
    rx = np.array([[1, 0, 0], [0, np.cos(a), -np.sin(a)], [0, np.sin(a), np.cos(a)]])
    ry = np.array([[np.cos(b), 0, np.sin(b)], [0, 1, 0], [-np.sin(b), 0, np.cos(b)]])
    rz = np.array([[np.cos(c), -np.sin(c), 0], [np.sin(c), np.cos(c), 0], [0, 0, 1]])
    t = RigidTransform(rotation=(a, b, c))
    assert np.abs(t.matrix[:3, :3] - rz @ ry @ rx).max() <= 1e-12


@settings(max_examples=50, deadline=None)
@given(
    rot=st.tuples(angles, angles, angles),
    trans=st.tuples(shifts, shifts, shifts),
)
def test_inverse_maps_points_back(rot, trans):
    t = make_transform(rot, trans)
    round_trip = compose(invert(t), t)
    rng = np.random.default_rng(0)
    points = rng.uniform(-20, 40, size=(100, 3))
    back = round_trip.apply(points)
    assert np.abs(back - points).max() <= 1e-9


@settings(max_examples=50, deadline=None)
@given(
    rot=st.tuples(angles, angles, angles),
    trans=st.tuples(shifts, shifts, shifts),
)
def test_compose_matches_matrix_product(rot, trans):
    a = make_transform(rot, trans)
    b = make_transform(rot[::-1], trans[::-1], center=(0.0, 1.0, -2.0))
    assert np.abs(compose(a, b).matrix - a.matrix @ b.matrix).max() <= 1e-9


def test_from_matrix_round_trip():
    t = make_transform((0.3, -0.25, 0.12), (4.0, 0.5, -2.5))
    rebuilt = RigidTransform.from_matrix(t.matrix, center=t.center)
    assert np.allclose(rebuilt.rotation, t.rotation, atol=1e-12)
    assert np.allclose(rebuilt.translation, t.translation, atol=1e-12)


def test_deviation_is_center_free():
    # same world action expressed about two different centers
    t1 = make_transform((0.1, 0.0, 0.2), (1.0, -2.0, 0.5), center=(0.0, 0.0, 0.0))
    t2 = RigidTransform.from_matrix(t1.matrix, center=(10.0, -4.0, 3.0))
    ang, mm = transform_deviation(t1, t2, point=(5.0, 5.0, 5.0))
    assert ang <= 1e-9
    assert mm <= 1e-9


def test_non_finite_transform_rejected():
    with pytest.raises(InvalidInput):
        RigidTransform(rotation=(np.nan, 0, 0))


def test_geometry_validation():
    with pytest.raises(InvalidInput):
        AffineGeometry((0, 4, 4), (1, 1, 1))
    with pytest.raises(InvalidInput):
        AffineGeometry((4, 4, 4), (1, -1, 1))
    with pytest.raises(InvalidInput):
        AffineGeometry((4, 4, 4), (1, 1, 1), axes=np.ones((3, 3)))


def test_geometry_world_round_trip():
    axes = RigidTransform(rotation=(0.3, 0.1, -0.2)).matrix[:3, :3]
    g = AffineGeometry((5, 6, 7), (0.3, 1.2, 0.3), (2.0, -1.0, 4.0), axes)
    idx = np.array([[0, 0, 0], [4, 5, 6], [1.5, 2.25, 3.75]])
    assert np.abs(g.world_to_index(g.index_to_world(idx)) - idx).max() <= 1e-10


def oblique_geometry(rot, spacing, origin):
    axes = RigidTransform(rotation=rot).matrix[:3, :3]
    return AffineGeometry((9, 7, 11), spacing, origin, axes)


spacings = st.tuples(*[st.floats(0.2, 2.5)] * 3)
origins = st.tuples(*[st.floats(-50.0, 50.0)] * 3)
all_angles = st.tuples(*[st.floats(-np.pi, np.pi)] * 3)


@settings(max_examples=50, deadline=None)
@given(src_rot=all_angles, dst_rot=all_angles, src_spacing=spacings,
       dst_spacing=spacings, src_origin=origins, dst_origin=origins,
       rot=st.tuples(angles, angles, angles), trans=st.tuples(shifts, shifts, shifts),
       seed=st.integers(0, 2**32 - 1))
def test_index_map_matches_world_chain(src_rot, dst_rot, src_spacing, dst_spacing,
                                       src_origin, dst_origin, rot, trans, seed):
    src = oblique_geometry(src_rot, src_spacing, src_origin)
    dst = oblique_geometry(dst_rot, dst_spacing, dst_origin)
    t = make_transform(rot, trans)
    idx = np.random.default_rng(seed).uniform(-2.0, 12.0, size=(3, 200))
    m = index_map(src, t, dst)
    expected = dst.world_to_index(t.apply(src.index_to_world(idx.T))).T
    assert m.shape == (3, 4)
    assert np.abs(m[:, :3] @ idx + m[:, 3:] - expected).max() <= 1e-9

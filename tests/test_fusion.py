import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabrecon import (
    AffineGeometry,
    InvalidInput,
    PaddedSlab,
    RigidTransform,
    Volume,
    apply_result,
    fuse,
)
from slabrecon.fusion import DEFAULT_EPSILON
from slabrecon.registration import RegistrationResult


def grid(dims=(6, 8, 6)):
    return AffineGeometry(dims, (1.0, 1.2, 1.0))


def test_complementary_constant_slabs_fuse_exactly():
    g = grid()
    m0 = np.zeros(g.dims)
    m0[:, 0::2, :] = 1.0
    m1 = 1.0 - m0
    out = fuse(
        [Volume(g, 5.0 * m0), Volume(g, 5.0 * m1)],
        [Volume(g, m0), Volume(g, m1)],
    )
    assert np.array_equal(out.fused.data, np.full(g.dims, 5.0))
    assert out.uncovered_fraction == 0.0


def test_overlap_voxels_average():
    g = grid()
    ones = np.ones(g.dims)
    out = fuse(
        [Volume(g, 4.0 * ones), Volume(g, 6.0 * ones)],
        [Volume(g, ones), Volume(g, ones)],
    )
    assert np.abs(out.fused.data - 5.0).max() == 0.0
    assert np.all(out.mask_sum.data == 2.0)


def test_single_slab_partial_coverage():
    g = grid()
    m = np.zeros(g.dims)
    m[:, : g.dims[1] // 2, :] = 1.0
    signal = 3.0 * m
    out = fuse([Volume(g, signal)], [Volume(g, m)])
    assert np.array_equal(out.fused.data, signal)
    assert out.uncovered_fraction == pytest.approx(0.5)
    assert np.all(out.fused.data[out.coverage_map.data == 0.0] == 0.0)


def test_validation_errors():
    g = grid()
    ones = np.ones(g.dims)
    other = AffineGeometry(g.dims, (1.0, 1.0, 1.0))
    with pytest.raises(InvalidInput):
        fuse([], [])
    with pytest.raises(InvalidInput):
        fuse([Volume(g, ones)], [Volume(other, ones)])
    with pytest.raises(InvalidInput):
        fuse([Volume(g, ones)], [Volume(g, 2.0 * ones)])  # mask way out of range
    with pytest.raises(InvalidInput):
        fuse([Volume(g, ones)], [Volume(g, ones)], epsilon=0.0)


def test_permutation_invariance_bit_identical():
    g = grid()
    rng = np.random.default_rng(0)
    signals = [Volume(g, rng.uniform(0, 100, g.dims)) for _ in range(3)]
    masks = [Volume(g, rng.uniform(0, 1, g.dims)) for _ in range(3)]
    a = fuse(signals, masks)
    order = [2, 0, 1]
    b = fuse([signals[i] for i in order], [masks[i] for i in order])
    assert np.array_equal(a.fused.data, b.fused.data)
    assert np.array_equal(a.mask_sum.data, b.mask_sum.data)


def test_idempotence_on_covered_voxels():
    g = grid()
    rng = np.random.default_rng(1)
    m = (rng.uniform(size=g.dims) > 0.3).astype(float)
    signal = rng.uniform(10, 90, g.dims) * m
    first = fuse([Volume(g, signal)], [Volume(g, m)])
    second = fuse([first.fused], [first.coverage_map])
    covered = first.coverage_map.data > 0.5
    assert np.array_equal(second.fused.data[covered], first.fused.data[covered])


def test_disjoint_unit_masks_reproduce_mosaic():
    g = grid()
    rng = np.random.default_rng(2)
    m0 = np.zeros(g.dims)
    m0[:, 0::2, :] = 1.0
    m1 = 1.0 - m0
    s0 = rng.uniform(0, 50, g.dims) * m0
    s1 = rng.uniform(0, 50, g.dims) * m1
    out = fuse([Volume(g, s0), Volume(g, s1)], [Volume(g, m0), Volume(g, m1)])
    assert np.array_equal(out.fused.data, s0 + s1)


@settings(max_examples=15, deadline=None)
@given(
    c=st.floats(1.0, 200.0),
    rot=st.tuples(*[st.floats(-0.05, 0.05)] * 3),
    trans=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
)
def test_constant_slabs_fuse_to_constant_for_any_transforms(c, rot, trans):
    # the division must normalize the transported weights exactly
    g = AffineGeometry((14, 10, 14), (0.5, 1.2, 0.5))
    m0 = np.zeros(g.dims)
    m0[:, 0::2, :] = 1.0
    m1 = 1.0 - m0
    pads = [
        PaddedSlab(Volume(g, c * m0), Volume(g, m0), 0),
        PaddedSlab(Volume(g, c * m1), Volume(g, m1), 1),
    ]
    results = [
        RegistrationResult(
            RigidTransform(rotation=rot, translation=trans,
                           center=tuple(g.world_center())), 2.0, (), 0),
        RegistrationResult(
            RigidTransform(rotation=tuple(-r for r in rot),
                           translation=tuple(-t for t in trans),
                           center=tuple(g.world_center())), 2.0, (), 0),
    ]
    resliced = [apply_result(p, r, g) for p, r in zip(pads, results)]
    out = fuse([s for s, _ in resliced], [m for _, m in resliced])
    covered = out.coverage_map.data > 0.5
    assert np.abs(out.fused.data[covered] - c).max() <= 1e-6 * c


def test_fused_is_finite_and_zero_outside_coverage():
    g = grid()
    rng = np.random.default_rng(3)
    m = np.zeros(g.dims)
    m[2:4, :, 2:4] = 1.0
    out = fuse([Volume(g, rng.uniform(0, 9, g.dims) * m)], [Volume(g, m)])
    assert np.all(np.isfinite(out.fused.data))
    assert np.all(out.fused.data[out.coverage_map.data == 0.0] == 0.0)


@pytest.mark.parametrize("k", range(1, 7))
def test_fused_sums_are_the_sorted_sums_bit_for_bit(k):
    # ties, +0.0 against -0.0, and values whose float sum depends on the order
    g = grid()
    rng = np.random.default_rng(k)
    ties = np.array([0.0, -0.0, 0.1, 0.2, 0.3, 0.7, 1.0])

    def draw():
        return np.where(rng.random(g.dims) < 0.5, rng.choice(ties, g.dims), rng.random(g.dims))

    signals = [draw() * 90.0 - 10.0 for _ in range(k)]
    masks = [draw() for _ in range(k)]
    signal_sum = np.sort(np.stack(signals), axis=0).sum(axis=0)
    mask_sum = np.sort(np.stack(masks), axis=0).sum(axis=0)
    covered = mask_sum >= DEFAULT_EPSILON
    fused = np.zeros(g.dims)
    np.divide(signal_sum, mask_sum, out=fused, where=covered)
    for r in range(k):   # every cyclic rotation of the input order
        out = fuse([Volume(g, s) for s in signals[r:] + signals[:r]],
                   [Volume(g, m) for m in masks[r:] + masks[:r]])
        assert np.array_equal(out.mask_sum.data.view(np.int64), mask_sum.view(np.int64))
        assert np.array_equal(out.fused.data.view(np.int64), fused.view(np.int64))
        assert np.array_equal(out.coverage_map.data, covered.astype(float))


@pytest.mark.parametrize("epsilon", [1.0001, 2.0])
def test_epsilon_over_one_rejected(epsilon):
    # a mask sum adds weights in [0, 1]: an epsilon of 2 left every voxel of two slabs uncovered
    g = grid()
    ones = np.ones(g.dims)
    assert fuse([Volume(g, ones)], [Volume(g, ones)], epsilon=1.0).uncovered_fraction == 0.0
    with pytest.raises(InvalidInput, match=r"epsilon must be in \(0, 1\]"):
        fuse([Volume(g, ones)], [Volume(g, ones)], epsilon=epsilon)

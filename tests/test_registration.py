import dataclasses

import numpy as np
import pytest

from slabrecon import (
    AffineGeometry,
    EmptyOverlap,
    InterleavedLayout,
    MotionScenario,
    PhantomSpec,
    RegistrationConfig,
    RigidTransform,
    Volume,
    apply_result,
    generate_phantom,
    invert,
    joint_histogram,
    nmi,
    pad_slab,
    phantom_geometry,
    prepare_reference,
    register_rigid,
    simulate_acquisition,
    transform_deviation,
)
from slabrecon.registration import RegistrationResult, _compass_search

FAST_CONFIG = RegistrationConfig(pyramid=(2, 1), max_iterations=25, step_halvings=3)


def bin_exact_volume(seed=0, dims=(12, 10, 12), bins=64):
    """Random volume whose intensities sit exactly on histogram bin centers."""
    rng = np.random.default_rng(seed)
    g = AffineGeometry(dims, (1.0, 1.0, 1.0))
    data = rng.integers(0, bins, size=dims).astype(float)
    data[0, 0, 0] = 0.0
    data[-1, -1, -1] = bins - 1.0
    return Volume(g, data)


def full_mask(volume):
    return Volume(volume.geometry, np.ones(volume.dims))


@pytest.fixture(scope="module")
def motion_dataset(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    motion = RigidTransform(rotation=(np.radians(3.0), 0.0, 0.0),
                            translation=(0.0, 0.0, 2.0), center=center)
    scenario = MotionScenario((RigidTransform.identity(center), motion),
                              noise_sigma_pct=2.0)
    ds = simulate_acquisition(truth, interleaved_layout, scenario, seed=7)
    reference = prepare_reference(ds.lr, (0.3, 0.3))
    return ds, reference, motion


# --- joint histogram ---------------------------------------------------------

def test_self_histogram_is_diagonal():
    vol = bin_exact_volume()
    h = joint_histogram(vol, vol, full_mask(vol), RigidTransform.identity(), bins=64)
    off_diag = h.counts.sum() - np.trace(h.counts)
    assert off_diag <= 1e-9 * h.total_weight


def test_histogram_marginals_sum_to_total():
    rng = np.random.default_rng(4)
    g = AffineGeometry((10, 8, 10), (1, 1, 1))
    a = Volume(g, rng.uniform(0, 1, g.dims))
    b = Volume(g, rng.uniform(0, 1, g.dims))
    h = joint_histogram(a, b, full_mask(a), RigidTransform.identity(), bins=32)
    pa, pb = h.marginals()
    assert abs(pa.sum() - h.total_weight) <= 1e-9 * h.total_weight
    assert abs(pb.sum() - h.total_weight) <= 1e-9 * h.total_weight


def test_empty_mask_raises():
    vol = bin_exact_volume()
    empty = Volume(vol.geometry, np.zeros(vol.dims))
    with pytest.raises(EmptyOverlap):
        joint_histogram(vol, vol, empty, RigidTransform.identity(), bins=16)


def test_noise_marginal_entropy_matches_bruteforce_oracle():
    rng = np.random.default_rng(5)
    g = AffineGeometry((22, 20, 22), (1, 1, 1))
    a = Volume(g, rng.uniform(0, 1, g.dims))
    b = Volume(g, rng.uniform(0, 1, g.dims))
    bins = 8
    h = joint_histogram(a, b, full_mask(a), RigidTransform.identity(), bins=bins)
    ha, hb, _ = h.entropies()
    assert abs(ha - 3.0) / 3.0 <= 0.05  # log2(8) bits for uniform noise
    assert abs(hb - 3.0) / 3.0 <= 0.05

    # independent oracle: brute-force nearest-bin counting of the moving image
    values = a.data.ravel()
    lo, hi = values.min(), values.max()
    oracle_counts = np.zeros(bins)
    for v in values[:: 7]:  # subsample for speed, same convention
        oracle_counts[int(round((v - lo) / (hi - lo) * (bins - 1)))] += 1
    p = oracle_counts / oracle_counts.sum()
    oracle = -(p[p > 0] * np.log2(p[p > 0])).sum()
    assert abs(ha - oracle) <= 0.02

    # moving marginal is exactly a count of nearest-bin assignments
    pa, _ = h.marginals()
    full_counts = np.zeros(bins)
    c = np.clip((values - lo) / (hi - lo), 0, 1) * (bins - 1)
    for k in np.rint(c).astype(int):
        full_counts[k] += 1
    assert np.abs(pa - full_counts).max() <= 1e-6


# --- NMI ---------------------------------------------------------------------

def test_nmi_identical_images_is_two():
    vol = bin_exact_volume(seed=1)
    h = joint_histogram(vol, vol, full_mask(vol), RigidTransform.identity(), bins=64)
    assert abs(nmi(h) - 2.0) <= 1e-6


def test_nmi_independent_images_near_one():
    rng = np.random.default_rng(6)
    g = AffineGeometry((50, 50, 50), (1, 1, 1))  # >= 1e5 samples
    a = Volume(g, rng.uniform(0, 1, g.dims))
    b = Volume(g, rng.uniform(0, 1, g.dims))
    h = joint_histogram(a, b, full_mask(a), RigidTransform.identity(), bins=16)
    assert abs(nmi(h) - 1.0) <= 0.05


def test_nmi_symmetry_under_role_swap():
    a = bin_exact_volume(seed=2)
    b = bin_exact_volume(seed=3)
    h_ab = joint_histogram(a, b, full_mask(a), RigidTransform.identity(), bins=64)
    h_ba = joint_histogram(b, a, full_mask(b), RigidTransform.identity(), bins=64)
    assert abs(nmi(h_ab) - nmi(h_ba)) <= 1e-9


def test_nmi_invariant_under_bin_preserving_scaling():
    a = bin_exact_volume(seed=2)
    b = bin_exact_volume(seed=3)
    h1 = joint_histogram(a, b, full_mask(a), RigidTransform.identity(), bins=64)
    scaled = a.with_data(a.data * 2.0)  # min-max normalization absorbs the factor
    h2 = joint_histogram(scaled, b, full_mask(a), RigidTransform.identity(), bins=64)
    assert abs(nmi(h1) - nmi(h2)) <= 1e-9


def test_nmi_degenerate_single_bin_returns_two():
    g = AffineGeometry((6, 6, 6), (1, 1, 1))
    vol = Volume(g, np.full(g.dims, 3.0))
    h = joint_histogram(vol, vol, full_mask(vol), RigidTransform.identity(), bins=16)
    assert h.degenerate
    assert nmi(h) == 2.0


def test_nmi_range(motion_dataset):
    ds, reference, _ = motion_dataset
    padded = pad_slab(ds.slabs[1], ds.layout, 1)
    for ty in (0.0, 0.6, 1.2, -2.4):
        t = RigidTransform(translation=(0.0, ty, 0.0))
        h = joint_histogram(padded.signal, reference, padded.mask, t, bins=64)
        value = nmi(h)
        assert 1.0 - 1e-9 <= value <= 2.0 + 1e-9


# --- registration ------------------------------------------------------------

def test_self_registration_recovers_identity(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    ds = simulate_acquisition(truth, interleaved_layout,
                              MotionScenario.identity(2, center), seed=0)
    reference = prepare_reference(ds.lr, (0.3, 0.3))
    padded = pad_slab(ds.slabs[0], interleaved_layout, 0)
    result = register_rigid(padded, reference)
    ang, mm = transform_deviation(invert(result.transform),
                                  RigidTransform.identity(center), center)
    assert ang <= 0.05
    assert mm <= 0.05


def test_known_motion_recovery(motion_dataset, interleaved_layout):
    ds, reference, motion = motion_dataset
    padded = pad_slab(ds.slabs[1], interleaved_layout, 1)
    result = register_rigid(padded, reference)
    ang, mm = transform_deviation(invert(result.transform), motion,
                                  tuple(ds.ground_truth.geometry.world_center()))
    assert ang <= 0.5
    assert mm <= 0.15


def test_metric_trace_is_monotone(motion_dataset, interleaved_layout):
    ds, reference, _ = motion_dataset
    padded = pad_slab(ds.slabs[1], interleaved_layout, 1)
    result = register_rigid(padded, reference, FAST_CONFIG)
    for _, level_trace in result.trace:
        diffs = np.diff(np.asarray(level_trace))
        assert np.all(diffs >= 0.0)
    first = result.trace[0][1]
    assert result.final_nmi > first[0]  # motion present: metric must improve


def test_registration_is_deterministic(motion_dataset, interleaved_layout):
    ds, reference, _ = motion_dataset
    padded = pad_slab(ds.slabs[1], interleaved_layout, 1)
    r1 = register_rigid(padded, reference, FAST_CONFIG)
    r2 = register_rigid(padded, reference, FAST_CONFIG)
    assert r1.transform.parameters().tobytes() == r2.transform.parameters().tobytes()
    assert r1.final_nmi == r2.final_nmi
    assert r1.trace == r2.trace


def test_empty_padded_mask_fails():
    g = AffineGeometry((6, 8, 6), (0.3, 1.2, 0.3))
    sig = Volume(g, np.zeros(g.dims))
    mask = Volume(g, np.zeros(g.dims))
    from slabrecon import PaddedSlab, RegistrationFailed

    with pytest.raises(RegistrationFailed):
        register_rigid(PaddedSlab(sig, mask, 0), sig)


# --- reslicing ---------------------------------------------------------------

def test_apply_result_identity_keeps_volumes(motion_dataset, interleaved_layout):
    ds, _, _ = motion_dataset
    padded = pad_slab(ds.slabs[0], interleaved_layout, 0)
    identity = RegistrationResult(RigidTransform.identity(), 2.0, (), 0)
    signal, mask = apply_result(padded, identity, padded.signal.geometry)
    assert np.abs(signal.data - padded.signal.data).max() <= 1e-6
    assert np.abs(mask.data - padded.mask.data).max() <= 1e-6


def test_apply_result_half_voxel_mask_boundary():
    g = AffineGeometry((20, 6, 20), (1.0, 1.2, 1.0))
    mask_data = np.zeros(g.dims)
    mask_data[5:15, :, 5:15] = 1.0
    from slabrecon import PaddedSlab

    padded = PaddedSlab(Volume(g, 7.0 * mask_data), Volume(g, mask_data), 0)
    half = RegistrationResult(RigidTransform(translation=(0.5, 0.0, 0.0)), 2.0, (), 0)
    signal, mask = apply_result(padded, half, g)
    # reslicing pulls with the inverse, so the support moves +0.5 voxel and
    # the step edge midpoint lands on the first previously-masked voxel
    boundary = mask.data[5, 3, 10]
    assert abs(boundary - 0.5) <= 0.05
    assert mask.data.min() >= 0.0 and mask.data.max() <= 1.0


def test_apply_result_transports_signal_and_mask_consistently():
    # constant slab: resliced signal must equal c x resliced mask exactly,
    # so mask-normalized fusion reproduces c bit-near-exactly
    g = AffineGeometry((16, 8, 16), (0.5, 1.2, 0.5))
    mask_data = np.zeros(g.dims)
    mask_data[:, 0::2, :] = 1.0
    c = 42.0
    from slabrecon import PaddedSlab

    padded = PaddedSlab(Volume(g, c * mask_data), Volume(g, mask_data), 0)
    move = RegistrationResult(
        RigidTransform(rotation=(0.03, 0.01, -0.02), translation=(0.7, 0.4, -0.3),
                       center=tuple(g.world_center())),
        2.0, (), 0,
    )
    signal, mask = apply_result(padded, move, g)
    assert np.abs(signal.data - c * mask.data).max() <= 1e-9 * c


def test_fast_config_validation():
    with pytest.raises(Exception):
        RegistrationConfig(bins=4)
    with pytest.raises(Exception):
        RegistrationConfig(pyramid=())
    cfg = dataclasses.replace(RegistrationConfig(), bins=32)
    assert cfg.bins == 32


def test_compass_search_scores_each_pose_once():
    # a concave quadratic with one coupled pair: the search steps back onto
    # poses it already scored (the reverse step, failed pattern moves)
    target = np.array([0.37, -0.52, 0.11, 0.013, -0.021, 0.007])
    weights = np.array([1.0, 2.0, 0.5, 300.0, 200.0, 400.0])
    seen = []

    def objective(p):
        seen.append(p.tobytes())
        d = p - target
        return -float((weights * d * d).sum() + 5.0 * d[0] * d[4])

    steps = np.array([0.15] * 3 + [np.radians(0.5)] * 3)
    params, best, trace, evaluations = _compass_search(
        objective, np.zeros(6), steps, RegistrationConfig())
    assert len(seen) == len(set(seen)) == evaluations
    assert best == objective(params) == trace[-1]
    assert np.abs(params - target).max() < 0.01


def test_report_lists_evaluations_per_level(motion_dataset, interleaved_layout):
    ds, reference, _ = motion_dataset
    padded = pad_slab(ds.slabs[1], interleaved_layout, 1)
    result = register_rigid(padded, reference, FAST_CONFIG)
    levels = result.to_dict()["trace"]
    assert [level["stride"] for level in levels] == list(FAST_CONFIG.pyramid)
    assert [level["evaluations"] for level in levels] == list(result.evaluations)
    for level in levels:
        # the first sweep scores the start and its 12 neighbours
        assert level["evaluations"] >= 13

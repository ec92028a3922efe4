import dataclasses

import numpy as np
import pytest
from scipy import ndimage

from slabrecon import (
    AffineGeometry,
    EmptyOverlap,
    InterleavedLayout,
    InvalidInput,
    JointHistogram,
    MotionScenario,
    PaddedSlab,
    PhantomSpec,
    RegistrationConfig,
    RegistrationFailed,
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
from slabrecon.geometry import index_map
from slabrecon.registration import (
    MAX_BINS,
    RegistrationResult,
    _accumulate,
    _compass_search,
    _MaskedNmiObjective,
    _trilinear,
)
from slabrecon.volume import in_field

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


# --- the objective's trilinear read -----------------------------------------

def random_pair(seed=0, dims=(11, 7, 13), spacing=(0.5, 1.2, 0.4)):
    """Moving and fixed noise on one non-cubic grid, and a mask that leaves
    a two-voxel border out."""
    rng = np.random.default_rng(seed)
    g = AffineGeometry(dims, spacing)
    mask = np.zeros(dims)
    mask[2:-2, 2:-2, 2:-2] = rng.uniform(0, 1, (dims[0] - 4, dims[1] - 4, dims[2] - 4)) > 0.3
    return (Volume(g, rng.normal(0, 10, dims)), Volume(g, rng.normal(0, 10, dims)),
            Volume(g, mask))


def test_trilinear_read_is_map_coordinates_nearest_bit_for_bit():
    moving, fixed, mask = random_pair()
    objective = _MaskedNmiObjective(moving, mask, fixed, 64)
    dims = np.array(fixed.dims)
    rng = np.random.default_rng(1)
    hull = rng.uniform(-0.5, dims[:, None] - 0.5, (3, 20000))
    # indices in [0, 0.5) with all 53 bits set: there 1 - (1 - f) differs from f
    fine = rng.uniform(0, 1, (3, 2000)) ** 3 / 2
    points = [hull, fine, rng.integers(0, dims[:, None], (3, 500)).astype(float)]
    for axis in range(3):   # each axis at both hull ends, the others anywhere
        for end in (-0.5, dims[axis] - 0.5):
            edge = rng.uniform(-0.5, dims[:, None] - 0.5, (3, 200))
            edge[axis] = end
            points.append(edge)
    points.append(np.array([[-0.5, -0.5, -0.5], dims - 0.5]).T)   # the two hull corners
    idx = np.concatenate(points, axis=1)
    assert in_field(idx, fixed.dims).all()
    got = _trilinear(objective.fixed_flat, objective.fixed_corners, idx)
    want = ndimage.map_coordinates(fixed.data, idx, order=1, mode="nearest")
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("stride", [1, 2])
@pytest.mark.parametrize("pose, overlap", [
    (RigidTransform(rotation=(0.01, -0.02, 0.015), translation=(0.2, -0.3, 0.1),
                    center=(2.5, 3.6, 2.4)), "full"),
    (RigidTransform(rotation=(0.0, 0.05, 0.0), translation=(2.9, 1.3, -1.1),
                    center=(2.5, 3.6, 2.4)), "partial"),
    (RigidTransform(translation=(40.0, 0.0, 0.0)), "none"),
])
def test_objective_histogram_is_the_map_coordinates_histogram(pose, overlap, stride):
    moving, fixed, mask = random_pair()
    objective = _MaskedNmiObjective(moving, mask, fixed, 64).at_stride(stride)
    m = index_map(moving.geometry, pose, fixed.geometry)
    idx = m[:, :3] @ objective.index + m[:, 3:]
    inside = in_field(idx, fixed.dims)
    assert {"full": inside.all(), "partial": 0 < inside.sum() < inside.size,
            "none": not inside.any()}[overlap]
    h = objective.histogram(pose)
    if overlap == "none":
        assert h is None
        return
    values = ndimage.map_coordinates(fixed.data, idx[:, inside], order=1, mode="nearest")
    want = _accumulate(objective.mov_base[inside], values, *fixed.value_range(), 64)
    assert np.array_equal(h.counts.view(np.int64), want.view(np.int64))


def plane_mask_pair(seed=0, dims=(12, 10, 14), spacing=(0.5, 1.0, 0.25)):
    """Moving and fixed noise, and a mask of whole odd y planes, as ``pad_slab``
    gives an interleaved slab; the top plane is one of them. The spacings are
    powers of two, so half-voxel translations map to exact half indices."""
    rng = np.random.default_rng(seed)
    g = AffineGeometry(dims, spacing)
    mask = np.zeros(dims)
    mask[:, 1::2, :] = 1.0
    return (Volume(g, rng.normal(0, 10, dims)), Volume(g, rng.normal(0, 10, dims)),
            Volume(g, mask))


def reference_histogram(moving, fixed, mask, pose, bins):
    """The objective's histogram from its definition: masked voxels that map
    in-field, the reference read by ``map_coordinates``, hard moving bins and
    linear partial-volume fixed bins."""
    sel = mask.data >= 0.5
    idx = np.array(np.nonzero(sel), dtype=float)
    m = index_map(moving.geometry, pose, fixed.geometry)
    idx = m[:, :3] @ idx + m[:, 3:]
    inside = in_field(idx, fixed.dims)
    values = ndimage.map_coordinates(fixed.data, idx.compress(inside, axis=1),
                                     order=1, mode="nearest")
    mov = moving.data[sel]   # its range is over every masked voxel
    rows = np.rint(np.clip((mov - mov.min()) / (mov.max() - mov.min()), 0.0, 1.0) * (bins - 1))
    rows = rows.astype(np.int64).compress(inside) * bins
    lo, hi = fixed.data.min(), fixed.data.max()
    c = np.clip((values - lo) / (hi - lo), 0.0, 1.0) * (bins - 1)
    k = np.floor(c).astype(np.int64)
    f = c - k
    k2 = np.minimum(k + 1, bins - 1)
    counts = np.bincount(rows + k, weights=1.0 - f, minlength=bins * bins)
    counts += np.bincount(rows + k2, weights=f, minlength=bins * bins)
    return counts.reshape(bins, bins), idx, inside


@pytest.mark.parametrize("pose_name", ["in-field", "benchmark motion", "on the hull"])
def test_objective_histogram_with_plane_mask_is_the_reference_histogram(pose_name):
    moving, fixed, mask = plane_mask_pair()
    center = tuple(fixed.geometry.world_center())
    half = np.array(fixed.geometry.spacing) / 2
    pose = {
        "in-field": RigidTransform(rotation=(0.0, 0.004, 0.0), translation=(0.1, 0.0, 0.0),
                                   center=center),
        "benchmark motion": RigidTransform(rotation=(np.radians(1.5), 0.0, 0.0),
                                           translation=(0.0, 0.0, 0.6), center=center),
        # x half a voxel down, y a whole voxel up (the top plane leaves), z half up
        "on the hull": RigidTransform(translation=(-half[0], 2 * half[1], half[2])),
    }[pose_name]
    want, idx, inside = reference_histogram(moving, fixed, mask, pose, 64)
    hull_hi = np.array(fixed.dims)[:, None] - 0.5
    if pose_name == "in-field":
        assert inside.all()
    else:
        assert 0 < inside.sum() < inside.size
    if pose_name == "on the hull":
        assert (idx[0] == -0.5).any() and (idx[2] == hull_hi[2]).any()
    h = _MaskedNmiObjective(moving, mask, fixed, 64).histogram(pose)
    assert np.array_equal(h.counts.view(np.int64), want.view(np.int64))
    assert h.total_weight == want.sum()


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
    # poses it already scored (the reverse step after a move)
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


def test_compass_search_steps_along_one_axis_at_a_time():
    # the coupled quadratic above: with axis steps only, every pose the search
    # scores is one step along one parameter from a pose it scored before
    target = np.array([0.37, -0.52, 0.11, 0.013, -0.021, 0.007])
    weights = np.array([1.0, 2.0, 0.5, 300.0, 200.0, 400.0])
    seen = []

    def objective(p):
        seen.append(p.copy())
        d = p - target
        return -float((weights * d * d).sum() + 5.0 * d[0] * d[4])

    steps = np.array([0.15] * 3 + [np.radians(0.5)] * 3)
    _compass_search(objective, np.zeros(6), steps, RegistrationConfig())
    assert len(seen) > 13
    for k in range(1, len(seen)):
        differing = (np.asarray(seen[:k]) != seen[k]).sum(axis=1)
        assert (differing == 1).any(), f"pose {k} is not an axis step from an earlier one"


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


# --- samples per level -------------------------------------------------------

def _flat(objective, dims):
    return np.ravel_multi_index(objective.index.astype(np.intp), dims)


def test_finest_level_scores_a_fixed_draw_of_16_samples_per_bin(motion_dataset,
                                                                interleaved_layout):
    ds, reference, _ = motion_dataset
    padded = pad_slab(ds.slabs[1], interleaved_layout, 1)
    dims = padded.signal.dims
    full = _MaskedNmiObjective(padded.signal, padded.mask, reference, 64)
    assert full.n_samples == 129_536
    level = full.at_stride(1)
    assert level.n_samples == 16 * 64 * 64 == 65_536
    drawn, every = _flat(level, dims), _flat(full, dims)
    assert (np.diff(drawn) > 0).all()   # distinct, in raster order
    position = np.searchsorted(every, drawn)
    assert np.array_equal(every[position], drawn)   # a subset of the stride-1 samples
    assert np.array_equal(level.mov_base, full.mov_base[position])
    # the draw depends on the mask alone: a second build and a scaled signal agree
    again = _MaskedNmiObjective(padded.signal, padded.mask, reference, 64).at_stride(1)
    doubled = Volume(padded.signal.geometry, 2.0 * padded.signal.data)
    scaled = _MaskedNmiObjective(doubled, padded.mask, reference, 64).at_stride(1)
    assert np.array_equal(again.index, level.index)
    assert np.array_equal(scaled.index, level.index)
    assert np.array_equal(scaled.mov_base, level.mov_base)
    # the coarser levels are under the cap and keep their whole lattice
    for stride, count in ((2, 32_384), (4, 8_096)):
        coarse = full.at_stride(stride)
        on_lattice = (full.index[0] % stride == 0) & (full.index[2] % stride == 0)
        assert coarse.n_samples == count == on_lattice.sum()
        assert np.array_equal(coarse.index, full.index[:, on_lattice])


def test_objective_at_or_under_the_cap_keeps_every_sample_at_every_stride():
    moving, fixed, mask = random_pair()
    full = _MaskedNmiObjective(moving, mask, fixed, 64)
    assert full.n_samples < 16 * 64 * 64
    for stride in (1, 2, 3):
        on_lattice = (full.index[0] % stride == 0) & (full.index[2] % stride == 0)
        level = full.at_stride(stride)
        assert np.array_equal(level.index, full.index[:, on_lattice])
        assert np.array_equal(level.mov_base, full.mov_base[on_lattice])
    # 8 bins: the cap is 1,024 samples; exactly that many are all kept, one more is not
    for dims in ((16, 8, 8), (1025, 1, 1)):
        volume = bin_exact_volume(seed=2, dims=dims, bins=8)
        whole = _MaskedNmiObjective(volume, full_mask(volume), volume, 8)
        level = whole.at_stride(1)
        assert level.n_samples == 1024
        assert (np.diff(_flat(level, dims)) > 0).all()
        assert np.array_equal(level.index, whole.index) == (whole.n_samples == 1024)


# --- typed errors ------------------------------------------------------------

_GRID = AffineGeometry((6, 4, 6), (1.0, 1.2, 1.0))
_IMAGE = Volume(_GRID, np.arange(144.0).reshape(_GRID.dims))
_FULL_MASK = Volume(_GRID, np.ones(_GRID.dims))
_ODD_VOXEL_MASK = Volume(_GRID, np.pad(np.ones((1, 1, 1)), ((1, 4), (0, 3), (1, 4))))


@pytest.mark.parametrize("call, error, match", [
    (lambda: joint_histogram(_IMAGE, _IMAGE, Volume(_GRID.with_spacing((2.0, 1.2, 1.0)),
                                                    np.ones((3, 4, 6))),
                             RigidTransform.identity()),
     InvalidInput, "moving image and mask must share a grid"),
    # the one masked voxel sits at x = z = 1, off the stride-2 lattice
    (lambda: register_rigid(PaddedSlab(_IMAGE, _ODD_VOXEL_MASK, 0), _IMAGE,
                            RegistrationConfig(pyramid=(2, 1))),
     RegistrationFailed, "mask empty at sampling stride 2"),
    (lambda: joint_histogram(_IMAGE, _IMAGE, _FULL_MASK, RigidTransform.identity(), bins=4),
     InvalidInput, "need at least 8 bins"),
    (lambda: joint_histogram(_IMAGE, _IMAGE, _FULL_MASK,
                             RigidTransform(translation=(100.0, 0.0, 0.0))),
     EmptyOverlap, "no masked voxel lands inside the fixed image"),
    (lambda: nmi(JointHistogram(np.zeros((8, 8)), 0.0)), InvalidInput, "histogram has no weight"),
], ids=["mask_on_another_grid", "mask_empty_at_stride", "too_few_bins", "no_sample_in_field",
        "zero_weight_histogram"])
def test_registration_raises_its_typed_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_bins_and_pyramid_strides_are_bounded():
    image = bin_exact_volume(seed=5, dims=(6, 5, 6))
    assert RegistrationConfig(bins=MAX_BINS).bins == MAX_BINS
    assert RegistrationConfig(pyramid=(4, 2.0)).pyramid == (4, 2)   # a whole float may stay
    with pytest.raises(InvalidInput, match=f"at most {MAX_BINS}"):
        RegistrationConfig(bins=MAX_BINS + 1)
    with pytest.raises(InvalidInput, match=f"at most {MAX_BINS}"):
        joint_histogram(image, image, full_mask(image), RigidTransform.identity(),
                        bins=MAX_BINS + 1)
    for pyramid in ((4, 2.5), (1.5,), (2, float("nan"))):
        with pytest.raises(InvalidInput, match="pyramid strides must be whole numbers"):
            RegistrationConfig(pyramid=pyramid)

import numpy as np
import pytest

from slabrecon import (
    PRESETS,
    AffineGeometry,
    InterpolationMethod,
    InvalidInput,
    LayoutMismatch,
    MotionScenario,
    RigidTransform,
    Volume,
    classify_motion,
    invert,
    resample,
    rician_noise,
    simulate_acquisition,
    split_volume,
)


def test_identity_zero_noise_slabs_equal_split(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    ds = simulate_acquisition(truth, interleaved_layout,
                              MotionScenario.identity(2, center), seed=0)
    expected = split_volume(truth, interleaved_layout)
    for slab, exp in zip(ds.slabs, expected):
        assert np.array_equal(slab.data, exp.data)


@pytest.mark.parametrize("preset", ["ns_7t_32ch_t2w_interleaved", "ns_7t_32ch_t2w_contiguous",
                                    "cmrr_7t_32ch_t2w_interleaved4"])
@pytest.mark.parametrize("rotation, translation", [
    ((np.radians(1.5), 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((0.0, 0.0, 0.0), (0.0, 0.0, 0.6)),
    ((0.0, 0.0, 0.0), (0.0, 1.2, 0.0)),
], ids=["rot_x", "trans_z", "trans_y_one_slice"])
def test_moved_slab_is_its_part_of_the_moved_full_grid(preset, rotation, translation):
    # the oracle resamples the whole truth and splits it; the simulator
    # resamples only each slab's own slices: the same spline at the same points
    preset = PRESETS[preset]
    layout = preset.layout
    g = AffineGeometry((14, layout.final_slices, 16), preset.voxel_mm)
    truth = Volume(g, np.random.default_rng(5).uniform(0.0, 190.0, g.dims))
    moved = RigidTransform(rotation=rotation, translation=translation,
                           center=tuple(g.world_center()))
    scenario = MotionScenario((moved,) * layout.num_slabs)
    ds = simulate_acquisition(truth, layout, scenario, seed=0)

    [full] = resample([truth], g, invert(moved), InterpolationMethod.CubicBSpline, extend=True)
    expected = split_volume(full.with_data(np.abs(full.data)), layout)
    tol = 1e-12 * np.ptp(truth.data)
    for slab, exp in zip(ds.slabs, expected, strict=True):
        assert slab.geometry.same_grid(exp.geometry)
        np.testing.assert_allclose(slab.data, exp.data, rtol=0.0, atol=tol)


def test_simulation_is_seed_deterministic(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    scen = MotionScenario(
        (RigidTransform.identity(center),
         RigidTransform(rotation=(0.02, 0, 0), center=center)),
        noise_sigma_pct=2.0,
    )
    a = simulate_acquisition(truth, interleaved_layout, scen, seed=11)
    b = simulate_acquisition(truth, interleaved_layout, scen, seed=11)
    c = simulate_acquisition(truth, interleaved_layout, scen, seed=12)
    for va, vb in zip(a.slabs, b.slabs):
        assert np.array_equal(va.data, vb.data)
    assert np.array_equal(a.lr.data, b.lr.data)
    assert not np.array_equal(a.slabs[0].data, c.slabs[0].data)


def test_lr_doubles_voxel_along_z(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    ds = simulate_acquisition(truth, interleaved_layout,
                              MotionScenario.identity(2, center), seed=0)
    assert ds.lr.geometry.spacing == (0.3, 1.2, 0.6)
    assert ds.lr.dims[2] == truth.dims[2] // 2
    assert ds.lr.dims[1] == truth.dims[1]


def test_slab_count_mismatch_rejected(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    with pytest.raises(LayoutMismatch):
        simulate_acquisition(truth, interleaved_layout,
                             MotionScenario.identity(3), seed=0)


def test_truth_slice_count_mismatch_rejected(interleaved_layout):
    g = AffineGeometry((6, 45, 6), (0.3, 1.2, 0.3))
    with pytest.raises(LayoutMismatch):
        simulate_acquisition(Volume(g, np.zeros(g.dims)), interleaved_layout,
                             MotionScenario.identity(2), seed=0)


# --- noise model -------------------------------------------------------------

def test_rician_zero_sigma_is_identity():
    g = AffineGeometry((5, 5, 5), (1, 1, 1))
    vol = Volume(g, np.random.default_rng(0).uniform(0, 10, g.dims))
    out = rician_noise(vol, 0.0, seed=3)
    assert np.array_equal(out.data, vol.data)


def test_rician_same_seed_bit_identical():
    g = AffineGeometry((6, 6, 6), (1, 1, 1))
    vol = Volume(g, np.full(g.dims, 4.0))
    a = rician_noise(vol, 0.5, seed=9)
    b = rician_noise(vol, 0.5, seed=9)
    assert np.array_equal(a.data, b.data)


def test_rician_background_mean_matches_rayleigh_oracle():
    # zero signal -> Rayleigh magnitude with mean sigma * sqrt(pi / 2)
    g = AffineGeometry((40, 40, 40), (1, 1, 1))
    vol = Volume(g, np.zeros(g.dims))
    sigma = 2.5
    out = rician_noise(vol, sigma, seed=1)
    expected = sigma * np.sqrt(np.pi / 2.0)
    assert abs(out.data.mean() - expected) / expected <= 0.02


@pytest.mark.parametrize("sigma", [0.37, 2.5, 15.0])
def test_rician_is_the_written_out_formula_bit_for_bit(sigma):
    # the noise is computed in place; it must keep the bits of the formula
    # sqrt((x + n1)^2 + n2^2) with the same draws, not those of np.hypot
    g = AffineGeometry((11, 7, 9), (1, 1, 1))
    vol = Volume(g, np.random.default_rng(4).uniform(-3.0, 120.0, g.dims))
    rng = np.random.default_rng(6)
    n1 = rng.standard_normal(g.dims) * sigma
    n2 = rng.standard_normal(g.dims) * sigma
    expected = np.sqrt((vol.data + n1) ** 2 + n2 ** 2)
    out = rician_noise(vol, sigma, seed=6)
    assert np.array_equal(out.data.view(np.int64), expected.view(np.int64))


# --- motion taxonomy ---------------------------------------------------------

def test_classification_labels():
    t = RigidTransform(rotation=(0.01, 0.0, 0.0), translation=(0.0, 0.0, 2.0))
    assert classify_motion(t) == ["rot_x", "trans_z"]
    assert classify_motion(RigidTransform.identity()) == []


@pytest.mark.parametrize("axis", range(6))
def test_each_motion_component_alone_gets_its_own_label(axis):
    values = [0.0] * 6
    values[axis] = 0.02
    t = RigidTransform(rotation=values[:3], translation=values[3:])
    names = ["rot_x", "rot_y", "rot_z", "trans_x", "trans_y", "trans_z"]
    assert classify_motion(t) == [names[axis]]
    # rotations and z translations are coil-possible; x and y translations are not
    scenario = MotionScenario((RigidTransform.identity(), t))
    assert scenario.realistic == (names[axis] not in ("trans_x", "trans_y"))


def test_realistic_scenario_rules():
    possible = MotionScenario((
        RigidTransform.identity(),
        RigidTransform(rotation=(np.radians(4.0), 0, 0), translation=(0, 0, 2.0)),
    ))
    assert possible.realistic

    ap_shift = MotionScenario((
        RigidTransform.identity(),
        RigidTransform(translation=(0.0, 1.2, 0.0)),
    ))
    assert not ap_shift.realistic  # slab-normal translation is coil-impossible

    too_big = MotionScenario((
        RigidTransform(rotation=(np.radians(9.0), 0, 0)),
        RigidTransform.identity(),
    ))
    assert not too_big.realistic


def test_scenario_serialization_roundtrip_fields():
    scen = MotionScenario(
        (RigidTransform.identity(), RigidTransform(translation=(0, 0, 1.0))),
        noise_sigma_pct=2.0,
    )
    payload = scen.to_dict()
    assert payload["noise_sigma_pct"] == 2.0
    assert payload["labels"] == [[], ["trans_z"]]
    assert payload["realistic"] is True
    assert len(payload["transforms"]) == 2


@pytest.mark.parametrize("call, match", [
    (lambda: MotionScenario.identity(2, noise_sigma_pct=-0.5), "noise sigma must be >= 0"),
    (lambda: rician_noise(Volume(AffineGeometry((2, 2, 2), (1.0, 1.0, 1.0)), np.ones((2, 2, 2))),
                          -1.0, seed=0), "sigma must be >= 0"),
], ids=["scenario", "rician_noise"])
def test_negative_noise_sigma_is_invalid(call, match):
    with pytest.raises(InvalidInput, match=match):
        call()


def test_translation_over_the_bound_is_not_realistic():
    # z is the one coil-possible translation: only the 3 mm bound refuses it
    def moved(tz):
        return MotionScenario((RigidTransform.identity(),
                               RigidTransform(translation=(0.0, 0.0, tz))))

    assert moved(2.9).realistic
    assert not moved(3.1).realistic
    assert not moved(-3.1).realistic

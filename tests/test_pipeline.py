"""End-to-end invariants that span simulation, registration and fusion."""

import multiprocessing
import os
import warnings

import numpy as np
import pytest

from slabrecon import (
    ContiguousLayout,
    InterleavedLayout,
    InvalidInput,
    MotionScenario,
    NestedLayout,
    PhantomSpec,
    RegistrationConfig,
    RegistrationFailed,
    RigidTransform,
    apply_result,
    generate_phantom,
    get_preset,
    pad_slab,
    phantom_geometry,
    prepare_reference,
    reconstruct,
    register_rigid,
    shift_index,
    simulate_acquisition,
)
from slabrecon.registration import RegistrationResult

from conftest import rmse_fraction


def possible_motion(kind, center):
    table = {
        "rot_x": RigidTransform(rotation=(np.radians(4.0), 0, 0), center=center),
        "rot_y": RigidTransform(rotation=(0, np.radians(4.0), 0), center=center),
        "rot_z": RigidTransform(rotation=(0, 0, np.radians(4.0)), center=center),
        "trans_z": RigidTransform(translation=(0, 0, 2.5), center=center),
    }
    return table[kind]


@pytest.mark.parametrize("kind", ["rot_x", "rot_y", "rot_z", "trans_z"])
def test_possible_motion_round_trip(standard_phantom, interleaved_layout, kind):
    # coil-possible motions reconstruct within 3% of the dynamic range and
    # never trip the slice-redundancy flag
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    scen = MotionScenario(
        (RigidTransform.identity(center), possible_motion(kind, center)))
    ds = simulate_acquisition(truth, interleaved_layout, scen, seed=13)
    padded = [pad_slab(s, interleaved_layout, j) for j, s in enumerate(ds.slabs)]
    flagged = shift_index(padded, interleaved_layout).flag
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fusion, _ = reconstruct(list(ds.slabs), interleaved_layout, ds.lr)
    rmse = rmse_fraction(fusion.fused, fusion.coverage_map, truth)
    assert rmse <= 0.03
    assert not flagged


def test_contiguous_rotation_loses_at_most_interface(contiguous_phantom,
                                                     contiguous_layout):
    truth = contiguous_phantom.volume
    center = tuple(truth.geometry.world_center())
    scen = MotionScenario(
        (RigidTransform.identity(center),
         RigidTransform(rotation=(np.radians(3.0), 0, 0), center=center)))
    ds = simulate_acquisition(truth, contiguous_layout, scen, seed=5)
    fusion, _ = reconstruct(list(ds.slabs), contiguous_layout, ds.lr)
    assert fusion.uncovered_fraction <= 0.02


def test_nested_four_slab_round_trip():
    layout = NestedLayout(
        (InterleavedLayout(8, slabs=2, slice_thickness_mm=1.2),
         InterleavedLayout(8, slabs=2, slice_thickness_mm=1.2)),
        overlap_slices=1,
    )
    spec = PhantomSpec(length_mm=30.0)
    truth = generate_phantom(spec, phantom_geometry(layout.final_slices)).volume
    center = tuple(truth.geometry.world_center())
    ds = simulate_acquisition(truth, layout,
                              MotionScenario.identity(4, center), seed=2)
    fusion, results = reconstruct(list(ds.slabs), layout, ds.lr)
    assert len(results) == 4
    assert fusion.uncovered_fraction == 0.0
    # the shared slice between the two pairs carries double mask weight
    assert np.all(np.abs(fusion.mask_sum.data[:, 15, :] - 2.0) <= 1e-6)
    assert rmse_fraction(fusion.fused, fusion.coverage_map, truth) <= 0.01


def test_single_slab_reconstruction_matches_apply_result(standard_phantom):
    layout = ContiguousLayout(slices_per_slab=46, slabs=1, overlap_slices=0,
                              slice_thickness_mm=1.2)
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    ds = simulate_acquisition(truth, layout, MotionScenario.identity(1, center),
                              seed=4)
    fusion, results = reconstruct(list(ds.slabs), layout, ds.lr)
    reference = prepare_reference(ds.lr, (0.3, 0.3))
    padded = pad_slab(ds.slabs[0], layout, 0)
    result = register_rigid(padded, reference)
    signal, mask = apply_result(padded, result, padded.signal.geometry)
    covered = fusion.coverage_map.data > 0.5
    assert np.allclose(fusion.fused.data[covered],
                       (signal.data / mask.data)[covered], atol=1e-9)


def test_reconstruct_warns_on_information_loss(standard_phantom, interleaved_layout):
    truth = standard_phantom.volume
    center = tuple(truth.geometry.world_center())
    scen = MotionScenario(
        (RigidTransform.identity(center),
         RigidTransform(translation=(0.0, 1.2, 0.0), center=center)))
    ds = simulate_acquisition(truth, interleaved_layout, scen, seed=6)
    with pytest.warns(UserWarning, match="uncovered"):
        fusion, _ = reconstruct(list(ds.slabs), interleaved_layout, ds.lr)
    assert fusion.uncovered_fraction > 0.4  # information loss across the slab


def _preset_dataset(preset, seed=0):
    """The preset's phantom with slab 1 moved by the CLI's default motion, 2% noise."""
    p = get_preset(preset)
    layout = p.build_layout()
    truth = generate_phantom(PhantomSpec(),
                             phantom_geometry(layout.final_slices, p.voxel_mm)).volume
    center = tuple(truth.geometry.world_center())
    transforms = [RigidTransform.identity(center) for _ in range(layout.num_slabs)]
    transforms[1] = RigidTransform(rotation=(np.radians(1.5), 0.0, 0.0),
                                   translation=(0.0, 0.0, 0.6), center=center)
    scenario = MotionScenario(tuple(transforms), noise_sigma_pct=2.0)
    return layout, simulate_acquisition(truth, layout, scenario, seed=seed)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.parametrize("preset", ["ns_7t_32ch_t2w_interleaved",
                                    "cmrr_7t_32ch_t2w_interleaved4"])
def test_reconstruct_registers_like_a_serial_loop(preset):
    # the 4-slab preset has more slabs than a 2-CPU machine runs at once
    layout, ds = _preset_dataset(preset)
    cfg = RegistrationConfig(pyramid=(4, 2), max_iterations=10, step_halvings=2)
    fds = _open_fds()
    _, results = reconstruct(list(ds.slabs), layout, ds.lr, cfg)
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds
    spacing = ds.slabs[0].geometry.spacing
    reference = prepare_reference(ds.lr, (spacing[0], spacing[2]))
    serial = [register_rigid(pad_slab(slab, layout, j), reference, cfg)
              for j, slab in enumerate(ds.slabs)]
    assert len(results) == len(serial) == layout.num_slabs
    for got, want in zip(results, serial):
        assert got.transform.parameters().tobytes() == want.transform.parameters().tobytes()
        assert got.transform.center == want.transform.center
        assert got.final_nmi == want.final_nmi
        assert got.trace == want.trace
        assert got.evaluations == want.evaluations


def _small_three_slab_dataset():
    layout = InterleavedLayout(6, slabs=3, slice_thickness_mm=1.2)
    truth = generate_phantom(PhantomSpec(length_mm=30.0),
                             phantom_geometry(layout.final_slices)).volume
    center = tuple(truth.geometry.world_center())
    ds = simulate_acquisition(truth, layout, MotionScenario.identity(3, center), seed=1)
    return layout, ds, center


def _failing_from_slab_1(center, failure):
    """A stand-in for register_rigid: identity for slab 0, ``failure`` from slab 1 on."""
    def fake(padded, reference, config=None):
        if padded.slab_index >= 1:
            failure(padded.slab_index)
        return RegistrationResult(RigidTransform.identity(center), 2.0, (), 0)
    return fake


def _raise_registration_failed(j):
    raise RegistrationFailed(f"boom {j}")


def _raise_invalid_input(j):
    raise InvalidInput(f"bad slab {j}")


def _exit_without_result(j):
    os._exit(5)


@pytest.mark.parametrize("failure, error, message", [
    (_raise_registration_failed, RegistrationFailed, r"^slab 1: boom 1$"),
    (_exit_without_result, RegistrationFailed,
     r"^slab 1: worker exited with code 5 and no result$"),
    (_raise_invalid_input, InvalidInput, r"^bad slab 1$"),
])
def test_slab_failing_in_a_worker_raises_for_the_lowest_slab(monkeypatch, failure,
                                                             error, message):
    # slabs 1 and 2 both fail, each in its own forked worker
    layout, ds, center = _small_three_slab_dataset()
    monkeypatch.setattr("slabrecon.fusion.register_rigid",
                        _failing_from_slab_1(center, failure))
    fds = _open_fds()
    with pytest.raises(error, match=message):
        reconstruct(list(ds.slabs), layout, ds.lr)
    assert multiprocessing.active_children() == []
    assert _open_fds() == fds


def _reconstruct_small(_):
    layout, ds, _ = _small_three_slab_dataset()
    cfg = RegistrationConfig(pyramid=(2,), max_iterations=3, step_halvings=1)
    _, results = reconstruct(list(ds.slabs), layout, ds.lr, cfg)
    return [r.transform.parameters().tobytes() for r in results]


def test_reconstruct_runs_in_a_daemonic_pool_worker():
    # a Pool worker may not start children, so it registers every slab itself
    with multiprocessing.get_context("fork").Pool(1) as pool:
        in_worker = pool.map(_reconstruct_small, [0])[0]
    assert in_worker == _reconstruct_small(0)

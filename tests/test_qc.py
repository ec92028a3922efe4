import json

import numpy as np
import pytest

from slabrecon import (
    AffineGeometry,
    ContiguousLayout,
    DegenerateInput,
    EllipsoidROI,
    EmptyROI,
    InterleavedLayout,
    InvalidInput,
    LayoutMismatch,
    MotionScenario,
    RigidTransform,
    ROIStats,
    Volume,
    compute_qc,
    fuse,
    pad_slab,
    relative_contrast,
    roi_stats,
    shift_index,
    simulate_acquisition,
    snr,
    write_volume,
)
from slabrecon.cli import main
from slabrecon.reports import read_json


def cube_volume(value=10.0, dims=(12, 12, 12)):
    g = AffineGeometry(dims, (1.0, 1.0, 1.0))
    return Volume(g, np.full(dims, value))


# --- ROI statistics ----------------------------------------------------------

def test_roi_stats_constant_volume():
    vol = cube_volume(10.0)
    roi = EllipsoidROI((5.5, 5.5, 5.5), (3.0, 2.0, 2.5))
    stats = roi_stats(vol, roi)
    assert stats.mean == 10.0
    assert stats.std == 0.0
    assert stats.count >= 10


def test_roi_count_matches_exhaustive_scan_oracle():
    vol = cube_volume(1.0, dims=(9, 9, 9))
    roi = EllipsoidROI((4.0, 4.0, 4.0), (1.5, 1.5, 1.5))
    stats = roi_stats(vol, roi)
    # brute force: test every voxel center with plain python
    count = 0
    for i in range(9):
        for j in range(9):
            for k in range(9):
                if ((i - 4.0) ** 2 + (j - 4.0) ** 2 + (k - 4.0) ** 2) / 1.5 ** 2 <= 1.0:
                    count += 1
    assert stats.count == count


def test_roi_respects_orientation():
    rng = np.random.default_rng(0)
    g = AffineGeometry((15, 15, 15), (1.0, 1.0, 1.0))
    vol = Volume(g, rng.uniform(size=g.dims))
    axes = RigidTransform(rotation=(0.0, 0.0, np.pi / 4)).matrix[:3, :3]
    roi = EllipsoidROI((7.0, 7.0, 7.0), (5.0, 1.2, 1.2), axes=axes)
    stats = roi_stats(vol, roi)
    # oracle with the same inequality, exhaustive
    count = 0
    for i in range(15):
        for j in range(15):
            for k in range(15):
                local = axes.T @ (np.array([i, j, k]) - 7.0)
                if (local / np.array([5.0, 1.2, 1.2])).dot(
                        local / np.array([5.0, 1.2, 1.2])) <= 1.0:
                    count += 1
    assert stats.count == count


def test_roi_outside_volume_raises():
    vol = cube_volume()
    with pytest.raises(EmptyROI):
        roi_stats(vol, EllipsoidROI((100.0, 100.0, 100.0), (1.0, 1.0, 1.0)))


# --- RC and SNR --------------------------------------------------------------

def test_relative_contrast_formula():
    assert relative_contrast(ROIStats(150.0, 0.0, 5), ROIStats(100.0, 0.0, 5)) == 0.4
    assert relative_contrast(ROIStats(7.0, 0.0, 5), ROIStats(7.0, 0.0, 5)) == 0.0


def test_relative_contrast_antisymmetry_and_scale_invariance():
    gm, wm = ROIStats(140.0, 1.0, 9), ROIStats(90.0, 1.0, 9)
    assert relative_contrast(gm, wm) == -relative_contrast(wm, gm)
    k = 3.7
    scaled = relative_contrast(ROIStats(k * 140.0, k, 9), ROIStats(k * 90.0, k, 9))
    assert abs(scaled - relative_contrast(gm, wm)) <= 1e-15


def test_relative_contrast_zero_denominator():
    with pytest.raises(DegenerateInput):
        relative_contrast(ROIStats(0.0, 0.0, 5), ROIStats(0.0, 0.0, 5))


def test_snr_formula():
    assert snr(ROIStats(112.0, 0.0, 5), ROIStats(0.0, 4.0, 50)) == 28.0
    with pytest.raises(DegenerateInput):
        snr(ROIStats(112.0, 0.0, 5), ROIStats(0.0, 0.0, 50))


def test_snr_against_gaussian_noise_oracle():
    rng = np.random.default_rng(7)
    g = AffineGeometry((20, 20, 20), (1.0, 1.0, 1.0))
    sigma = 3.0
    data = np.full(g.dims, 50.0)
    data[:10] = np.abs(rng.normal(0.0, sigma, size=(10, 20, 20)))
    vol = Volume(g, data)
    bg = roi_stats(vol, EllipsoidROI((4.0, 9.5, 9.5), (4.0, 8.0, 8.0)))
    gm = roi_stats(vol, EllipsoidROI((15.0, 9.5, 9.5), (3.0, 6.0, 6.0)))
    assert bg.count >= 500
    value = snr(gm, bg)
    # folding |N(0, s)| shrinks the std to s * sqrt(1 - 2/pi)
    expected = 50.0 / (sigma * np.sqrt(1.0 - 2.0 / np.pi))
    assert abs(value - expected) / expected <= 0.05


# --- shift index -------------------------------------------------------------

def simulate_padded_pair(truth, layout, shift_mm, noise_pct, seed):
    center = tuple(truth.geometry.world_center())
    scen = MotionScenario(
        (RigidTransform.identity(center),
         RigidTransform(translation=(0.0, shift_mm, 0.0), center=center)),
        noise_sigma_pct=noise_pct,
    )
    ds = simulate_acquisition(truth, layout, scen, seed=seed)
    return [pad_slab(s, layout, j) for j, s in enumerate(ds.slabs)]


def test_zero_motion_rho_close_to_baseline(standard_phantom, interleaved_layout):
    padded = simulate_padded_pair(standard_phantom.volume, interleaved_layout,
                                  0.0, 2.0, seed=2)
    report = shift_index(padded, interleaved_layout)
    assert not report.flag
    assert abs(report.margin) <= 0.05


@pytest.mark.parametrize("direction", [1.0, -1.0])
def test_one_slice_shift_is_flagged(standard_phantom, interleaved_layout, direction):
    padded = simulate_padded_pair(standard_phantom.volume, interleaved_layout,
                                  direction * 1.2, 2.0, seed=2)
    report = shift_index(padded, interleaved_layout)
    assert report.flag
    assert report.margin >= 0.15


def test_flag_invariant_under_scaling_and_slab_swap(standard_phantom, interleaved_layout):
    padded = simulate_padded_pair(standard_phantom.volume, interleaved_layout,
                                  1.2, 2.0, seed=4)
    base = shift_index(padded, interleaved_layout)

    scaled = [
        type(p)(p.signal.with_data(3.0 * p.signal.data), p.mask, p.slab_index)
        for p in padded
    ]
    assert shift_index(scaled, interleaved_layout).flag == base.flag

    swapped = shift_index(padded[::-1], interleaved_layout)
    assert swapped.flag == base.flag


def test_constant_slabs_give_degenerate_report(interleaved_layout):
    g = AffineGeometry((6, 46, 6), (0.3, 1.2, 0.3))
    m0 = np.zeros(g.dims)
    m0[:, 0::2, :] = 1.0
    from slabrecon import PaddedSlab

    pads = [
        PaddedSlab(Volume(g, 5.0 * m0), Volume(g, m0), 0),
        PaddedSlab(Volume(g, 5.0 * (1 - m0)), Volume(g, 1 - m0), 1),
    ]
    report = shift_index(pads, interleaved_layout)
    assert report.degenerate
    assert not report.flag
    assert report.rho is None


@pytest.mark.parametrize("shift_mm", [0.0, 1.2, -1.2])
def test_shift_index_same_for_padded_summed_and_fused(standard_phantom, interleaved_layout,
                                                      shift_mm):
    padded = simulate_padded_pair(standard_phantom.volume, interleaved_layout,
                                  shift_mm, 2.0, seed=1)
    summed = padded[0].signal.with_data(sum(p.signal.data for p in padded))
    fused = fuse([p.signal for p in padded], [p.mask for p in padded]).fused
    expected = shift_index(padded, interleaved_layout).to_dict()
    assert shift_index(summed, interleaved_layout).to_dict() == expected
    assert shift_index(fused, interleaved_layout).to_dict() == expected


def test_shift_index_rejects_negative_foreground_fraction(standard_phantom,
                                                          interleaved_layout):
    with pytest.raises(InvalidInput):
        shift_index(standard_phantom.volume, interleaved_layout, foreground_fraction=-0.1)


def test_shift_index_rejects_non_interleaved(standard_phantom):
    layout = ContiguousLayout(23, slabs=2, overlap_slices=1)
    with pytest.raises(LayoutMismatch):
        shift_index(standard_phantom.volume, layout)


def test_shift_index_rejects_wrong_slice_count(standard_phantom):
    layout = InterleavedLayout(10, slabs=2)
    with pytest.raises(LayoutMismatch):
        shift_index(standard_phantom.volume, layout)


# --- report assembly ---------------------------------------------------------

def test_compute_qc_report(standard_phantom):
    qc = compute_qc(standard_phantom.volume, standard_phantom.rois)
    assert qc.rc == pytest.approx(0.4, abs=1e-12)
    assert qc.snr is None  # noise-free background has zero std
    payload = qc.to_dict()
    assert set(payload["rois"]) == {"GM", "WM", "BG"}


# --- typed errors through `slabrecon qc` -------------------------------------

def _qc_command(tmp_path, rois, slices=8, coverage=None):
    """``slabrecon qc`` on a 6 x ``slices`` x 5 volume of 1 mm voxels (centres on
    whole millimetres) with an interleaved layout of 1 slice per slab."""
    geometry = AffineGeometry((6, slices, 5), (1.0, 1.2, 1.0))
    write_volume(Volume(geometry, np.random.default_rng(0).uniform(1.0, 2.0, geometry.dims)),
                 tmp_path / "vol.nii")
    (tmp_path / "layout.json").write_text(json.dumps(
        {"kind": "interleaved", "slices_per_slab": 1, "slabs": slices}))
    (tmp_path / "rois.json").write_text(rois if isinstance(rois, str) else json.dumps(rois))
    argv = ["qc", "--volume", str(tmp_path / "vol.nii"), "--rois", str(tmp_path / "rois.json"),
            "--layout", str(tmp_path / "layout.json"), "--out", str(tmp_path / "qc")]
    if coverage is not None:
        write_volume(Volume(geometry, np.full(geometry.dims, coverage)), tmp_path / "cov.nii")
        argv += ["--coverage", str(tmp_path / "cov.nii")]
    return main(argv)


_GM = {"center_mm": [2.0, 2.4, 2.0], "semi_axes_mm": [1.5, 1.5, 1.5]}


@pytest.mark.parametrize("rois, message", [
    ({"GM": {**_GM, "semi_axes_mm": [0.0, 1.5, 1.5]}}, "ellipsoid semi-axes must be > 0"),
    ({"GM": {**_GM, "axes": [[2, 0, 0], [0, 1, 0], [0, 0, 1]]}}, "ROI axes must be orthonormal"),
    ({"GM": {**_GM, "center_mm": [2.5, 2.4, 2.5], "semi_axes_mm": [0.1, 0.1, 0.1]}},
     "ROI 'GM' contains no voxel centers"),
    ("[1, 2]", "ROI sidecar must be a JSON object keyed by label"),
], ids=["zero_semi_axis", "non_orthonormal_axes", "no_voxel_centre", "not_an_object"])
def test_qc_command_with_an_roi_it_cannot_measure_is_data_error(tmp_path, capsys, rois,
                                                                message):
    code = _qc_command(tmp_path, rois)
    err = capsys.readouterr().err
    assert code == 4
    assert message in err and "Traceback" not in err


def test_qc_command_shift_index_on_three_slices_is_data_error(tmp_path, capsys):
    code = _qc_command(tmp_path, {"GM": _GM}, slices=3)
    err = capsys.readouterr().err
    assert code == 4
    assert "shift index needs at least 4 slices" in err


def test_qc_command_with_an_all_zero_stack_reports_a_degenerate_shift(tmp_path):
    # a coverage map of zeros leaves no voxel for the shift index to correlate
    assert _qc_command(tmp_path, {"GM": _GM}, coverage=0.0) == 0
    shift = read_json(tmp_path / "qc" / "qc.json")["qc"]["shift"]
    assert shift["degenerate"] is True and shift["flag"] is False
    assert shift["rho"] is None and shift["rho0"] is None and shift["margin"] is None

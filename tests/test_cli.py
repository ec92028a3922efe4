import json

import numpy as np
import pytest

from slabrecon import RegistrationFailed, RigidTransform
from slabrecon.cli import main
from slabrecon.registration import RegistrationResult
from slabrecon.reports import read_json


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One full simulate -> reconstruct -> qc run on the default preset."""
    root = tmp_path_factory.mktemp("pipeline")
    sim, rec, qc = root / "sim", root / "rec", root / "qc"
    assert main(["simulate", "--out", str(sim), "--seed", "3"]) == 0
    assert main([
        "reconstruct",
        "--slabs", str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz"),
        "--lr", str(sim / "lr.nii.gz"),
        "--out", str(rec), "--seed", "3",
    ]) == 0
    assert main([
        "qc",
        "--volume", str(rec / "fused.nii.gz"),
        "--rois", str(sim / "rois.json"),
        "--out", str(qc),
    ]) == 0
    return sim, rec, qc


def test_simulate_outputs(pipeline_dirs):
    sim, _, _ = pipeline_dirs
    for name in ("truth.nii.gz", "slab_00.nii.gz", "slab_01.nii.gz",
                 "lr.nii.gz", "scenario.json", "rois.json"):
        assert (sim / name).exists()
    scenario = read_json(sim / "scenario.json")
    assert scenario["seed"] == 3
    assert scenario["layout"]["final_slices"] == 46
    assert scenario["scenario"]["realistic"] is True


def test_reconstruct_report(pipeline_dirs):
    _, rec, _ = pipeline_dirs
    report = read_json(rec / "report.json")
    assert report["tool"] == "slabrecon"
    assert len(report["registrations"]) == 2
    for entry in report["registrations"]:
        assert 1.0 <= entry["final_nmi"] <= 2.0
        assert len(entry["transform"]["matrix_4x4_row_major"]) == 16
    assert report["fusion"]["uncovered_fraction"] <= 0.02
    assert report["qc"]["shift_preregistration"]["flag"] is False
    assert report["config"]["seed"] == 3
    assert "total" in report["timing_s"]
    for name in ("fused.nii.gz", "coverage.nii.gz", "mask_sum.nii.gz"):
        assert (rec / name).exists()


def test_qc_report(pipeline_dirs):
    _, _, qc = pipeline_dirs
    payload = read_json(qc / "qc.json")
    assert abs(payload["qc"]["rc"] - 0.4) <= 0.05  # noisy fused volume
    assert payload["qc"]["snr"] > 5.0
    assert set(payload["qc"]["rois"]) == {"GM", "WM", "BG"}


def _qc_shift(sim, rec, out, *extra):
    code = main([
        "qc", "--layout", "ns_7t_32ch_t2w_interleaved",
        "--volume", str(rec / "fused.nii.gz"), "--rois", str(sim / "rois.json"),
        "--out", str(out), *extra,
    ])
    return code, (read_json(out / "qc.json")["qc"]["shift"] if code == 0 else None)


def test_qc_shift_block_same_with_and_without_coverage(pipeline_dirs, tmp_path):
    sim, rec, _ = pipeline_dirs
    code, plain = _qc_shift(sim, rec, tmp_path / "plain")
    assert code == 0
    assert plain["rho"] is not None and plain["flag"] is False
    code, covered = _qc_shift(sim, rec, tmp_path / "covered",
                              "--coverage", str(rec / "coverage.nii.gz"))
    assert code == 0
    assert covered == plain


def test_qc_coverage_on_another_grid_is_data_error(pipeline_dirs, tmp_path):
    sim, rec, _ = pipeline_dirs
    code, _ = _qc_shift(sim, rec, tmp_path / "qc", "--coverage", str(sim / "lr.nii.gz"))
    assert code == 4


def test_missing_lr_is_usage_error(capsys, tmp_path):
    code = main(["reconstruct", "--slabs", "a.nii", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--lr" in captured.err


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("fusion_epsilonn = 0.05\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert "fusion_epsilonn" in capsys.readouterr().err


def test_unknown_preset_is_data_error(tmp_path):
    code = main(["simulate", "--out", str(tmp_path / "out"), "--layout", "nope"])
    assert code == 4


def test_register_command(pipeline_dirs, tmp_path):
    sim, _, _ = pipeline_dirs
    out = tmp_path / "reg"
    code = main([
        "register",
        "--slab", str(sim / "slab_00.nii.gz"),
        "--lr", str(sim / "lr.nii.gz"),
        "--slab-index", "0",
        "--out", str(out),
    ])
    assert code == 0
    payload = read_json(out / "transform.json")
    assert payload["slab_index"] == 0
    # truth motion is identity (noisy slab): hold the standard recovery bounds
    params = payload["result"]["transform"]
    assert np.abs(np.asarray(params["rotation_deg"])).max() <= 0.5
    assert np.abs(np.asarray(params["translation_mm"])).max() <= 0.15


def test_layout_file_round_trip(tmp_path):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(json.dumps({
        "kind": "interleaved", "slabs": 2, "slices_per_slab": 5,
        "slice_thickness_mm": 1.2, "voxel_mm": [0.3, 1.2, 0.3],
    }))
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--layout", str(layout_file)]) == 0
    scenario = read_json(sim / "scenario.json")
    assert scenario["layout"]["final_slices"] == 10


def test_config_echoed_into_report(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text('\n'.join([
        "# comment line",
        "noise_sigma_pct = 0.0",
        'scenario = [[0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]',
        "phantom_fov_mm = [14.4, 12.0]",
    ]) + '\n')
    sim = tmp_path / "sim"
    assert main(["simulate", "--out", str(sim), "--config", str(cfg), "--seed", "9"]) == 0
    scenario = read_json(sim / "scenario.json")
    assert scenario["config"]["noise_sigma_pct"] == 0.0
    assert scenario["config"]["phantom_fov_mm"] == [14.4, 12.0]
    assert scenario["scenario"]["labels"] == [[], []]


def test_slab_failing_in_a_worker_exits_3(pipeline_dirs, tmp_path, monkeypatch, capsys):
    # slab 1 is registered in a forked worker; its failure still exits 3
    def fail_slab_1(padded, reference, config=None):
        if padded.slab_index == 1:
            raise RegistrationFailed("metric not finite at the starting point")
        return RegistrationResult(RigidTransform.identity(), 2.0, (), 0)

    monkeypatch.setattr("slabrecon.fusion.register_rigid", fail_slab_1)
    sim, _, _ = pipeline_dirs
    out = tmp_path / "rec"
    code = main([
        "reconstruct",
        "--slabs", str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz"),
        "--lr", str(sim / "lr.nii.gz"),
        "--out", str(out), "--seed", "3",
    ])
    assert code == 3
    assert "slab 1: metric not finite" in capsys.readouterr().err
    error = read_json(out / "report.json")["error"]
    assert error == {"type": "RegistrationFailed",
                     "message": "slab 1: metric not finite at the starting point"}

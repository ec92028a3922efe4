import gzip
import json
import struct

import numpy as np
import pytest

from slabrecon import RegistrationFailed, RigidTransform
from slabrecon import read_volume
from slabrecon.cli import main
from slabrecon.registration import MAX_BINS, RegistrationResult
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


def test_qc_coverage_on_another_grid_is_data_error_without_a_layout(pipeline_dirs, tmp_path,
                                                                     capsys):
    # the map is read and checked whether or not the shift index will use it
    sim, rec, _ = pipeline_dirs
    code = main([
        "qc", "--volume", str(rec / "fused.nii.gz"), "--rois", str(sim / "rois.json"),
        "--coverage", str(sim / "lr.nii.gz"), "--out", str(tmp_path / "qc"),
    ])
    assert code == 4
    assert "coverage map and volume must share one grid" in capsys.readouterr().err
    assert not (tmp_path / "qc" / "qc.json").exists()


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

    monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1})
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


@pytest.mark.parametrize("key, value", [
    ("rotation_step_deg", "0.5"), ("translation_step_factor", "0.5"), ("tolerance", "1e-5"),
])
def test_deleted_registration_key_is_usage_error(tmp_path, capsys, key, value):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(f"{key} = {value}\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{not json", '{"GM": {"semi_axes_mm": [1, 1, 1]}}',
    '{"GM": {"center_mm": [1, 2], "semi_axes_mm": [1, 1, 1]}}',
])
def test_malformed_roi_file_is_data_error(pipeline_dirs, tmp_path, capsys, text):
    _, rec, _ = pipeline_dirs
    rois = tmp_path / "rois.json"
    rois.write_text(text)
    code = main(["qc", "--volume", str(rec / "fused.nii.gz"), "--rois", str(rois),
                 "--out", str(tmp_path / "qc")])
    assert code == 4
    assert "ROI" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "{not json", '{"kind": "interleaved"}', '{"kind": "interleaved", "slices_per_slab": "x"}',
    '{"kind":"interleaved","slices_per_slab":4,"voxel_mm":5}',
    '{"kind":"interleaved","slices_per_slab":4,"voxel_mm":[0.3,1.2]}',
])
def test_malformed_layout_file_is_usage_error(tmp_path, capsys, text):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(text)
    code = main(["simulate", "--out", str(tmp_path / "sim"), "--layout", str(layout_file)])
    assert code == 2
    assert "layout" in capsys.readouterr().err


@pytest.mark.parametrize("command, line", [
    ("reconstruct", 'bins = "x"'),
    ("reconstruct", "pyramid = 3"),
    ("reconstruct", 'max_iterations = "5"'),
    ("simulate", 'scenario = [[0, 0, 0, 0, 0, "a"], [0, 0, 0, 0, 0, 0]]'),
])
def test_config_value_of_the_wrong_type_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                       command, line):
    sim, _, _ = pipeline_dirs
    cfg = tmp_path / "typed.cfg"
    cfg.write_text(line + "\n")
    inputs = {
        "reconstruct": ["--slabs", str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz"),
                        "--lr", str(sim / "lr.nii.gz")],
        "simulate": [],
    }[command]
    code = main([command, *inputs, "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert line.split(" =")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "simulate"])
@pytest.mark.parametrize("line", [
    "bins = 4", "pyramid = [0]", "noise_sigma_pct = -1", "phantom_fov_mm = [0, 0]",
    "phantom_head_width_mm = 5.0", "lr_inplane_factor = 0.5",
])
def test_config_value_out_of_range_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                  command, line):
    sim, _, _ = pipeline_dirs
    cfg = tmp_path / "range.cfg"
    cfg.write_text(line + "\n")
    inputs = {
        "reconstruct": ["--slabs", str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz"),
                        "--lr", str(sim / "lr.nii.gz")],
        "simulate": [],
    }[command]
    code = main([command, *inputs, "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert line.split(" =")[0] in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "register"])
@pytest.mark.parametrize("line", ["max_iterations = 0", "max_iterations = -3",
                                  "step_halvings = -2"])
def test_search_budget_out_of_range_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                   command, line):
    # no sweep, or a negative halving budget, would skip registration and exit 0
    sim, _, _ = pipeline_dirs
    cfg = tmp_path / "search.cfg"
    cfg.write_text(line + "\n")
    inputs = {
        "reconstruct": ["--slabs", str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz")],
        "register": ["--slab", str(sim / "slab_01.nii.gz"), "--slab-index", "1"],
    }[command]
    code = main([command, *inputs, "--lr", str(sim / "lr.nii.gz"),
                 "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["reconstruct", "register"])
@pytest.mark.parametrize("line", [f"bins = {MAX_BINS + 1}", "pyramid = [4, 2.5]"])
def test_registration_config_past_its_bounds_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                            command, line):
    # one bin over the bound: at 100,000 bins np.bincount asked for 74.5 GiB;
    # a stride of 2.5 ran as stride 2 while report.json said 2.5
    sim, _, _ = pipeline_dirs
    cfg = tmp_path / "bounds.cfg"
    cfg.write_text(line + "\n")
    inputs = {
        "reconstruct": ["--slabs", str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz")],
        "register": ["--slab", str(sim / "slab_01.nii.gz"), "--slab-index", "1"],
    }[command]
    code = main([command, *inputs, "--lr", str(sim / "lr.nii.gz"),
                 "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reconstruct_report_times_each_registration(pipeline_dirs):
    # slab 1 registers in a forked worker when there are 2 CPUs: its time comes back too
    _, rec, _ = pipeline_dirs
    register_s = read_json(rec / "report.json")["timing_s"]["register_s"]
    assert len(register_s) == 2
    assert all(seconds > 0 for seconds in register_s)


def test_phantom_fov_under_one_voxel_is_usage_error(tmp_path, capsys):
    # 0.1 mm / 0.3 mm rounds to 0 phantom columns
    cfg = tmp_path / "fov.cfg"
    cfg.write_text("phantom_fov_mm = [0.1, 0.1]\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert "phantom_fov_mm" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["phantom_length_mm = 0", "phantom_length_mm = -5"])
def test_simulate_with_a_phantom_length_not_positive_is_usage_error(tmp_path, capsys, line):
    # a zero length once simulated a flat slab of matrix, a negative one a sliver
    cfg = tmp_path / "length.cfg"
    cfg.write_text(line + "\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert "phantom_length_mm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["phantom_body_width_mm = 0", "phantom_body_width_mm = -1"])
def test_simulate_with_a_phantom_body_width_not_positive_is_usage_error(tmp_path, capsys, line):
    cfg = tmp_path / "width.cfg"
    cfg.write_text(line + "\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert "phantom_body_width_mm" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("voxel", [[0, 1.2, 0.3], [0.3, -1.2, 0.3]])
def test_layout_file_voxel_not_positive_is_usage_error(tmp_path, capsys, voxel):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(json.dumps({"kind": "interleaved", "slices_per_slab": 4,
                                       "voxel_mm": voxel}))
    code = main(["simulate", "--out", str(tmp_path / "sim"), "--layout", str(layout_file)])
    assert code == 2
    assert "voxel_mm" in capsys.readouterr().err


@pytest.mark.parametrize("layout", ["cmrr_7t_32ch_t2w_interleaved4", "ns_7t_32ch_t2w_contiguous"])
def test_qc_with_a_layout_that_is_not_interleaved_skips_the_shift_index(pipeline_dirs, tmp_path,
                                                                       layout):
    # nested and contiguous layouts have no shift index: RC and SNR are still written
    sim, rec, qc = pipeline_dirs
    code = main([
        "qc", "--layout", layout,
        "--volume", str(rec / "fused.nii.gz"), "--rois", str(sim / "rois.json"),
        "--coverage", str(rec / "coverage.nii.gz"), "--out", str(tmp_path / "qc"),
    ])
    assert code == 0
    payload = read_json(tmp_path / "qc" / "qc.json")["qc"]
    assert payload["shift"] is None
    assert payload == read_json(qc / "qc.json")["qc"]


def _inputs(command, sim, rec):
    """The input flags each command requires, on the files of ``pipeline_dirs``."""
    slabs = [str(sim / "slab_00.nii.gz"), str(sim / "slab_01.nii.gz")]
    return {
        "simulate": [],
        "reconstruct": ["--slabs", *slabs, "--lr", str(sim / "lr.nii.gz")],
        "register": ["--slab", slabs[1], "--slab-index", "1", "--lr", str(sim / "lr.nii.gz")],
        "qc": ["--volume", str(rec / "fused.nii.gz"), "--rois", str(sim / "rois.json")],
    }[command]


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
@pytest.mark.parametrize("line", ["fusion_epsilon = 0", "foreground_fraction = -1"])
def test_fusion_and_shift_keys_out_of_range_are_usage_errors(pipeline_dirs, tmp_path, capsys,
                                                             command, line):
    # checked with the other keys, not first by fuse or shift_index mid-run
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "range.cfg"
    cfg.write_text(line + "\n")
    code = main([command, *_inputs(command, sim, rec), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    assert code == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "register", "qc"])
@pytest.mark.parametrize("setting", [
    "scenario = [[1, 2]]", "scenario = [[NaN, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0]]",
    "seed = -1", "--seed -1",
])
def test_scenario_rows_and_seed_are_checked_under_every_command(pipeline_dirs, tmp_path, capsys,
                                                                command, setting):
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text(setting + "\n")
    flags = setting.split() if setting.startswith("--") else ["--config", str(cfg)]
    code = main([command, *_inputs(command, sim, rec), "--out", str(tmp_path / "out"), *flags])
    assert code == 2
    assert setting.strip("-").split()[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "qc"])
@pytest.mark.parametrize("line", [
    "phantom_length_mm = NaN", "phantom_fov_mm = [NaN, 10.0]", "phantom_fov_mm = [1e999, 10.0]",
    "phantom_head_width_mm = Infinity", "shift_threshold = NaN",
])
def test_non_finite_config_value_is_usage_error(pipeline_dirs, tmp_path, capsys, command, line):
    # 1e999 is valid JSON grammar that reads as inf
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "finite.cfg"
    cfg.write_text(line + "\n")
    code = main([command, *_inputs(command, sim, rec), "--layout", "ns_7t_32ch_t2w_interleaved",
                 "--out", str(tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"value for {line.split(' =')[0]!r}" in err and "not a finite number" in err
    assert not (tmp_path / "out").exists()


def test_layout_file_with_a_nan_voxel_is_usage_error(tmp_path, capsys):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text('{"kind": "interleaved", "slices_per_slab": 4, '
                           '"voxel_mm": [NaN, 1.2, 0.3]}')
    code = main(["simulate", "--out", str(tmp_path / "sim"), "--layout", str(layout_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"layout file {layout_file}" in err and "NaN is not a finite number" in err


def test_roi_sidecar_with_an_infinite_semi_axis_is_data_error(pipeline_dirs, tmp_path, capsys):
    _, rec, _ = pipeline_dirs
    rois = tmp_path / "rois.json"
    rois.write_text('{"GM": {"center_mm": [0, 0, 0], "semi_axes_mm": [Infinity, 1, 1]}}')
    code = main(["qc", "--volume", str(rec / "fused.nii.gz"), "--rois", str(rois),
                 "--out", str(tmp_path / "qc")])
    err = capsys.readouterr().err
    assert code == 4
    assert f"ROI sidecar {rois}" in err and "Infinity is not a finite number" in err
    assert not (tmp_path / "qc").exists()


def test_nifti_with_a_nan_origin_is_data_error(pipeline_dirs, tmp_path, capsys):
    sim, rec, _ = pipeline_dirs
    raw = bytearray(gzip.decompress((rec / "fused.nii.gz").read_bytes()))
    struct.pack_into("<f", raw, 280 + 12, float("nan"))   # srow_x[3], the sform's x offset
    volume = tmp_path / "fused.nii"
    volume.write_bytes(bytes(raw))
    code = main(["qc", "--volume", str(volume), "--rois", str(sim / "rois.json"),
                 "--out", str(tmp_path / "qc")])
    assert code == 4
    assert "origin must be finite" in capsys.readouterr().err


def test_qc_takes_the_layout_from_its_config_file(pipeline_dirs, tmp_path):
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "qc.cfg"
    cfg.write_text('layout = "ns_7t_32ch_t2w_interleaved"\n')
    out = tmp_path / "from_config"
    assert main(["qc", *_inputs("qc", sim, rec), "--out", str(out), "--config", str(cfg)]) == 0
    shift = read_json(out / "qc.json")["qc"]["shift"]
    assert shift is not None
    assert shift == _qc_shift(sim, rec, tmp_path / "from_flag")[1]


def test_report_counts_every_masked_voxel_and_the_samples_each_level_scores(pipeline_dirs):
    # NS slabs: 88 x 23 x 64 acquired voxels; strides 4 and 2 keep every voxel of
    # their in-plane lattice, and stride 1 scores 16 samples per bin of 64 x 64
    sim, rec, _ = pipeline_dirs
    registrations = read_json(rec / "report.json")["registrations"]
    assert len(registrations) == 2
    for j, registration in enumerate(registrations):
        acquired = read_volume(sim / f"slab_{j:02d}.nii.gz").data.size
        assert registration["masked_voxels"] == acquired == 88 * 23 * 64
        assert [level["stride"] for level in registration["trace"]] == [4, 2, 1]
        assert [level["samples"] for level in registration["trace"]] == [
            22 * 23 * 16, 44 * 23 * 32, 16 * 64 * 64]


def _unreadable(tmp_path, kind):
    """A path that does not exist, a directory, or a file that is not UTF-8."""
    path = tmp_path / f"input-{kind}"
    if kind == "directory":
        path.mkdir()
    elif kind == "not UTF-8":
        path.write_bytes(b"\xff\xfe{}")
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
def test_simulate_with_an_unreadable_config_file_is_usage_error(tmp_path, capsys, kind):
    cfg = _unreadable(tmp_path, kind)
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    assert f"config file {cfg}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["missing", "directory", "not UTF-8"])
def test_qc_with_an_unreadable_roi_sidecar_is_data_error(pipeline_dirs, tmp_path, capsys, kind):
    _, rec, _ = pipeline_dirs
    rois = _unreadable(tmp_path, kind)
    code = main(["qc", "--volume", str(rec / "fused.nii.gz"), "--rois", str(rois),
                 "--out", str(tmp_path / "qc")])
    assert code == 4
    assert f"ROI sidecar {rois}" in capsys.readouterr().err
    assert not (tmp_path / "qc").exists()


@pytest.mark.parametrize("fields", [
    '"voxel_mm": ["nan", 1.2, 0.3]', '"voxel_mm": [0.3, true, 0.3]',
    '"slice_thickness_mm": "inf"', '"slices_per_slab": "4"', '"slabs": true',
    '"slabs": 2.5',
])
def test_layout_file_number_fields_take_json_numbers_only(tmp_path, capsys, fields):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text('{"kind": "interleaved", "slices_per_slab": 4, ' + fields + "}")
    code = main(["simulate", "--out", str(tmp_path / "sim"), "--layout", str(layout_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert "layout" in err and ("is not a number" in err or "is not an integer" in err)
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("entry", [
    '"center_mm": [0, 0, 0], "semi_axes_mm": ["inf", 1, 1]',
    '"center_mm": ["0", 0, 0], "semi_axes_mm": [1, 1, 1]',
    '"center_mm": [0, 0, 0], "semi_axes_mm": [true, 1, 1]',
    '"center_mm": [0, 0, 0], "semi_axes_mm": [1, 1, 1], '
    '"axes": [[1, 0, 0], [0, 1, 0], [0, 0, "1"]]',
])
def test_roi_sidecar_number_fields_take_json_numbers_only(pipeline_dirs, tmp_path, capsys,
                                                          entry):
    _, rec, _ = pipeline_dirs
    rois = tmp_path / "rois.json"
    rois.write_text('{"GM": {' + entry + "}}")
    code = main(["qc", "--volume", str(rec / "fused.nii.gz"), "--rois", str(rois),
                 "--out", str(tmp_path / "qc")])
    err = capsys.readouterr().err
    assert code == 4
    assert "ROI 'GM'" in err and "is not a number" in err
    assert not (tmp_path / "qc").exists()


@pytest.mark.parametrize("key, template", [
    ("phantom_fov_mm", "[{}, 10.0]"), ("phantom_length_mm", "{}"), ("seed", "-{}"),
])
def test_config_integer_too_large_for_a_float_is_usage_error(tmp_path, capsys, key, template):
    # JSON integers are exact: 1 and 400 zeros reads as an int that float() cannot hold
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(f"{key} = {template.format('1' + '0' * 400)}\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"value for {key!r}" in err and "too large for a float" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, offset, patch", [
    ("vox_offset", 108, [("<f", 108, (float("nan"),))]),
    ("vox_offset", 108, [("<f", 108, (float("inf"),))]),
    ("quatern", 256, [("<h", 254, (0,)), ("<3f", 256, (float("nan"), 0.0, 0.0))]),
], ids=["nan_vox_offset", "inf_vox_offset", "qform_only_nan_quatern"])
def test_qc_with_a_malformed_nifti_header_is_data_error(pipeline_dirs, tmp_path, capsys,
                                                        field, offset, patch):
    # a non-finite vox_offset, or a qform-only file with a NaN quaternion
    sim, rec, _ = pipeline_dirs
    raw = bytearray(gzip.decompress((rec / "fused.nii.gz").read_bytes()))
    for fmt, at, values in patch:
        struct.pack_into(fmt, raw, at, *values)
    bad = tmp_path / "bad.nii"
    bad.write_bytes(bytes(raw))
    code = main(["qc", "--volume", str(bad), "--rois", str(sim / "rois.json"),
                 "--out", str(tmp_path / "qc")])
    err = capsys.readouterr().err
    assert code == 4
    assert field in err and f"(byte offset {offset})" in err
    assert not (tmp_path / "qc").exists()


_NAN, _INF = float("nan"), float("inf")
_QFORM_ONLY = ("<h", 254, (0,))     # sform_code 0
_NO_FORM = ("<h", 252, (0,))        # and qform_code 0


@pytest.mark.parametrize("field, offset, patch", [
    ("srow", 280, [("<f", 280, (_NAN,))]),
    ("srow", 280, [("<f", 292, (_INF,))]),
    ("qoffset", 268, [_QFORM_ONLY, ("<f", 268, (_NAN,))]),
    ("pixdim", 76, [_QFORM_ONLY, ("<f", 80, (_NAN,))]),
    ("pixdim", 76, [_QFORM_ONLY, _NO_FORM, ("<f", 80, (_NAN,))]),
    ("pixdim", 76, [_QFORM_ONLY, _NO_FORM, ("<f", 84, (_INF,))]),
], ids=["nan_srow", "inf_srow_origin", "qform_only_nan_qoffset", "qform_only_nan_pixdim",
        "no_form_nan_pixdim", "no_form_inf_pixdim"])
def test_qc_with_a_non_finite_geometry_field_names_the_field(pipeline_dirs, tmp_path, capsys,
                                                            field, offset, patch):
    # a non-finite value is a malformed field, not a shear, an origin or a spacing
    sim, rec, _ = pipeline_dirs
    raw = bytearray(gzip.decompress((rec / "fused.nii.gz").read_bytes()))
    for fmt, at, values in patch:
        struct.pack_into(fmt, raw, at, *values)
    bad = tmp_path / "bad.nii"
    bad.write_bytes(bytes(raw))
    code = main(["qc", "--volume", str(bad), "--rois", str(sim / "rois.json"),
                 "--out", str(tmp_path / "qc")])
    err = capsys.readouterr().err
    assert code == 4
    assert f"error: {field} " in err and "must be finite" in err
    assert f"(byte offset {offset})" in err
    assert not (tmp_path / "qc").exists()


def _unreadable_volume(tmp_path, source, kind):
    """``_unreadable``'s missing path or directory, or ``source``'s gzip cut in
    half or with its deflate data overwritten."""
    if kind not in ("truncated", "corrupt deflate"):
        return _unreadable(tmp_path, kind)
    raw = source.read_bytes()
    path = tmp_path / f"volume-{kind}.nii.gz"
    path.write_bytes(raw[:len(raw) // 2] if kind == "truncated"
                     else raw[:10] + b"\xff" * (len(raw) - 10))   # keeps the 10-byte header
    return path


@pytest.mark.parametrize("kind", ["missing", "directory", "truncated", "corrupt deflate"])
def test_qc_with_an_unreadable_volume_is_data_error(pipeline_dirs, tmp_path, capsys, kind):
    sim, rec, _ = pipeline_dirs
    volume = _unreadable_volume(tmp_path, rec / "fused.nii.gz", kind)
    code = main(["qc", "--volume", str(volume), "--rois", str(sim / "rois.json"),
                 "--out", str(tmp_path / "qc")])
    err = capsys.readouterr().err
    assert code == 4
    assert str(volume) in err and "Traceback" not in err
    assert not (tmp_path / "qc").exists()


def test_reconstruct_with_a_missing_slab_is_data_error(pipeline_dirs, tmp_path, capsys):
    sim, _, _ = pipeline_dirs
    missing = tmp_path / "slab_01.nii.gz"
    code = main(["reconstruct", "--slabs", str(sim / "slab_00.nii.gz"), str(missing),
                 "--lr", str(sim / "lr.nii.gz"), "--out", str(tmp_path / "rec")])
    err = capsys.readouterr().err
    assert code == 4
    assert str(missing) in err and "Traceback" not in err
    assert not (tmp_path / "rec").exists()


def test_out_under_a_regular_file_is_usage_error(tmp_path, capsys):
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    code = main(["simulate", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"--out directory {out}" in err and "Traceback" not in err


def _identity_registration(padded, reference, config=None):
    return RegistrationResult(RigidTransform.identity(), 2.0, (), 0)


@pytest.mark.parametrize("command, blocked", [("simulate", "truth.nii.gz"),
                                              ("reconstruct", "report.json")])
def test_an_output_file_that_cannot_be_written_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                              monkeypatch, command, blocked):
    # a directory in the output file's place: the rename fails, its temp file is removed
    monkeypatch.setattr("slabrecon.fusion.register_rigid", _identity_registration)
    sim, rec, _ = pipeline_dirs
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    code = main([command, *_inputs(command, sim, rec), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"cannot write {out / blocked}" in err and "Traceback" not in err
    assert not list(out.glob("*.tmp.*"))


@pytest.mark.parametrize("command", ["simulate", "register"])
def test_out_under_a_regular_file_exits_before_simulating_or_registering(
        pipeline_dirs, tmp_path, capsys, monkeypatch, command):
    def work(*args, **kwargs):
        pytest.fail(f"{command} ran before it made --out")

    monkeypatch.setattr("slabrecon.cli.simulate_acquisition", work)
    monkeypatch.setattr("slabrecon.cli.register_rigid", work)
    sim, rec, _ = pipeline_dirs
    (tmp_path / "afile").write_text("")
    out = tmp_path / "afile" / "sub"
    code = main([command, *_inputs(command, sim, rec), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"--out directory {out}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["simulate", "qc"])
def test_phantom_fov_with_no_finite_column_count_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                                command):
    # 1.7e308 mm is finite, but over a 0.3 mm column it overflows to inf columns
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "fov.cfg"
    cfg.write_text("phantom_fov_mm = [1.7e308, 10.0]\n")
    code = main([command, *_inputs(command, sim, rec), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "phantom_fov_mm" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "reconstruct", "register", "qc"])
def test_scenario_row_count_other_than_the_slab_count_is_usage_error(pipeline_dirs, tmp_path,
                                                                     capsys, command):
    # one well-formed row against the default preset's two slabs
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario = [[0, 0, 0, 0, 0, 0]]\n")
    code = main([command, *_inputs(command, sim, rec), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "scenario lists 1 slabs, layout has 2" in err
    assert not (tmp_path / "out").exists()


def test_lr_inplane_factor_that_leaves_no_z_column_is_usage_error(tmp_path, capsys):
    # 64 columns of 0.3 mm make 19.2 mm, under half of one 60 mm LR voxel
    cfg = tmp_path / "lr.cfg"
    cfg.write_text("lr_inplane_factor = 200.0\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "lr_inplane_factor" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fov", ["[9900.0, 0.6]", "[1e300, 10.0]"])
def test_phantom_grid_over_the_nifti_dim_limit_is_usage_error(tmp_path, capsys, fov):
    # NIfTI-1 stores dim as int16: 33,000 columns cannot be written
    cfg = tmp_path / "fov.cfg"
    cfg.write_text(f"phantom_fov_mm = {fov}\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 2
    assert "phantom_fov_mm" in err and "32767" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["reconstruct", "register"])
def test_pyramid_stride_past_the_slab_grid_is_usage_error(pipeline_dirs, tmp_path, capsys,
                                                          command):
    # on the 88 x 64 slab a stride of 100 sampled x = z = 0 only: register exited 0 with a
    # rotation tens of degrees off; 16 is the largest stride that samples 4 columns
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "pyramid.cfg"
    cfg.write_text("pyramid = [100]\n")
    code = main([command, *_inputs(command, sim, rec), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "pyramid" in err and "over 16" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["simulate", "reconstruct"])
@pytest.mark.parametrize("line", ["noise_sigma_pct = 1e300", "noise_sigma_pct = 100.5",
                                  "fusion_epsilon = 2", "fusion_epsilon = 1.0001"])
def test_noise_and_fusion_epsilon_past_their_bounds_are_usage_errors(pipeline_dirs, tmp_path,
                                                                     capsys, command, line):
    # 1e300 % noise exited 4 on non-finite values; an epsilon over 1, more than a mask
    # sum adds where one slab covers a voxel, exited 0 with every voxel uncovered
    sim, rec, _ = pipeline_dirs
    cfg = tmp_path / "bound.cfg"
    cfg.write_text(line + "\n")
    code = main([command, *_inputs(command, sim, rec), "--out", str(tmp_path / "out"),
                 "--config", str(cfg)])
    assert code == 2
    assert line.split(" =")[0] in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_phantom_over_the_voxel_budget_is_usage_error(tmp_path, capsys):
    # [3000, 3000] mm asked generate_phantom for 34 GiB; now nothing is allocated
    cfg = tmp_path / "budget.cfg"
    cfg.write_text("phantom_fov_mm = [3000.0, 3000.0]\n")
    code = main(["simulate", "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "phantom_fov_mm" in err and "over 16777216 voxels" in err
    assert not (tmp_path / "out").exists()

import gzip
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from slabrecon import AffineGeometry, Volume, write_volume

ROOT = Path(__file__).resolve().parents[1]


def test_shift_detection_study_runs():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "shift_detection_study.py"), "--runs", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any("no-shift" in line and "flags 0/2" in line for line in lines)
    assert any("1-slice shift" in line and "flags 2/2" in line for line in lines)
    assert any(line.startswith("regime separation:") for line in lines)


def test_motion_recovery_sweep_runs():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "motion_recovery_sweep.py"), "--runs", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("run 00: rot err") for line in lines)
    assert "recovered 1/1 within 0.5 deg / 0.15 mm (100%)" in lines


def test_motion_recovery_sweep_registers_every_nested_slab(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    summary_path = tmp_path / "accuracy.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "motion_recovery_sweep.py"), "--runs", "1",
         "--preset", "cmrr_7t_32ch_t2w_interleaved4", "--json", str(summary_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert any(line.startswith("run 00: rot err") for line in lines)
    for slab in (0, 2, 3):
        assert any(line.startswith(f"run 00 slab {slab}: rot err") for line in lines)
    assert any(line.startswith("motionless: recovered") and "/3 within" in line
               for line in lines)
    summary = json.loads(summary_path.read_text())
    assert summary["moved"]["slabs"] == 1 and summary["motionless"]["slabs"] == 3


def test_motion_recovery_sweep_digest_is_one_timing_free_line_per_registration():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))

    def digest():
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "motion_recovery_sweep.py"), "--runs", "1",
             "--digest"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    lines = digest()
    assert len(lines) == 2
    for slab, line in enumerate(lines):
        assert re.fullmatch(rf"run 00 slab {slab} transform [0-9a-f]{{64}} evaluations "
                            r"\d+,\d+,\d+ final_nmi [0-9.]+ trace [0-9a-f]{64}", line), line
    assert lines[0].split()[5] != lines[1].split()[5]   # the moved slab's transform differs
    assert digest() == lines


def test_output_digest_hashes_files_and_reports_without_timing(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    out = tmp_path / "out"
    (out / "qc").mkdir(parents=True)
    volume, qc = b"\x1f\x8b volume bytes", b'{"qc": {}}\n'
    (out / "fused.nii.gz").write_bytes(volume)
    (out / "qc" / "qc.json").write_bytes(qc)
    report = {"tool": "slabrecon", "fusion": {"uncovered_fraction": 0.0}}

    def digest(seconds):
        (out / "report.json").write_text(json.dumps(dict(report, timing_s={"total": seconds})))
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digest.py"), str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    lines = digest(1.5)
    assert lines == digest(2.5)   # only timing_s changed
    stripped = (json.dumps(dict(report, timing_s={}), indent=2, sort_keys=True) + "\n").encode()
    sha = [hashlib.sha256(data).hexdigest() for data in (volume, qc, stripped)]
    assert lines == [
        f"{sha[0]}  fused.nii.gz",
        f"{sha[1]}  qc/qc.json",
        f"{sha[2]}  report.json (timing_s stripped)",
    ]


def test_output_digest_decoded_compares_gzip_files_by_their_data(tmp_path):
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    volume = Volume(AffineGeometry((6, 5, 4), (0.3, 1.2, 0.3)),
                    np.random.default_rng(0).normal(100.0, 2.0, size=(6, 5, 4)))
    fast, slow = tmp_path / "fast", tmp_path / "slow"
    fast.mkdir()
    slow.mkdir()
    write_volume(volume, fast / "fused.nii.gz")
    nifti = gzip.decompress((fast / "fused.nii.gz").read_bytes())
    (slow / "fused.nii.gz").write_bytes(gzip.compress(nifti, 9, mtime=0))
    assert (slow / "fused.nii.gz").read_bytes() != (fast / "fused.nii.gz").read_bytes()

    def digest(out, *flags):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "output_digest.py"), *flags, str(out)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()

    assert digest(fast) != digest(slow)
    decoded = digest(fast, "--decoded")
    assert decoded == digest(slow, "--decoded")
    assert decoded == [f"{hashlib.sha256(nifti).hexdigest()}  fused.nii.gz (decompressed)"]


def test_objective_timing_times_every_stride_at_both_poses():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "objective_timing.py"), "--evals", "2"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [[stride, pose] for stride in ("4", "2", "1")
                                         for pose in ("identity", "motion")]
    for stride, pose, samples, share, median, *_ in rows:
        assert int(samples) > 0 and float(median) > 0
        # identity keeps every sample in-field; the motion moves some out
        assert float(share) == 1.0 if pose == "identity" else 0.0 < float(share) < 1.0

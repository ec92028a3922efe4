import json
import os
import subprocess
import sys
from pathlib import Path

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

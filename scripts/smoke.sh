#!/usr/bin/env bash
# Smoke test of the `slabrecon` console script found on PATH: one
# simulate -> reconstruct -> qc run, and the exit codes of bad inputs and
# configs. It writes into the current directory, so run it from an empty one:
#
#     cd "$(mktemp -d)" && bash /path/to/repo/scripts/smoke.sh
#
# `python` must import the same package as `slabrecon`. The last check
# reconstructs again pinned to one CPU with `taskset` and diffs the outputs
# with the forked run's; without `taskset` it is skipped, and the script says
# so. Any failed check stops the script with exit 1 and names the check.
set -euo pipefail
scripts="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

fail() { echo "smoke: FAILED: $*" >&2; exit 1; }

# expect CODE CHECK COMMAND...: COMMAND exits with CODE
expect() {
  local want=$1 check=$2 code=0
  shift 2
  "$@" > /dev/null 2>&1 || code=$?
  test "$code" -eq "$want" || fail "$check: exit $code, want $want"
}

# importing the package loads no scipy module, nor does simulating the default
# scenario, whose slab 1 turns 1.5 degrees (the 3D cubic read)
python -c 'import sys, slabrecon, slabrecon.cli
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded
assert slabrecon.cli.main(["simulate", "--out", "sim_rotated", "--seed", "0"]) == 0
loaded = sorted(m for m in sys.modules if m.startswith("scipy"))
assert not loaded, loaded' || fail "scipy loaded by the package or by simulate"
test -s sim_rotated/slab_01.nii.gz || fail "simulate wrote no slab_01.nii.gz"

slabrecon --help > /dev/null || fail "slabrecon --help"
slabrecon simulate --out sim --seed 0 || fail "simulate"
slabrecon reconstruct --slabs sim/slab_00.nii.gz sim/slab_01.nii.gz \
  --lr sim/lr.nii.gz --out rec --seed 0 || fail "reconstruct"
slabrecon qc --volume rec/fused.nii.gz --rois sim/rois.json \
  --layout ns_7t_32ch_t2w_interleaved --coverage rec/coverage.nii.gz --out qc || fail "qc"
test -s qc/qc.json || fail "qc wrote no qc.json"

# an input volume that cannot be read exits 4, an --out that cannot be made exits 2
expect 4 "unreadable --volume" \
  slabrecon qc --volume missing.nii.gz --rois sim/rois.json --out qc_missing
touch afile
expect 2 "--out under a file" slabrecon simulate --out afile/sub

# an output file that cannot be written exits 2 and leaves no temp file behind
mkdir -p blocked/truth.nii.gz
expect 2 "unwritable output file" slabrecon simulate --out blocked
test -z "$(find blocked -name '*.tmp.*')" || fail "temp file left in blocked/"

# a config whose LR grid has no z column, whose phantom grid is over NIfTI-1's
# 32767 voxels per axis or over the phantom voxel budget, exits 2 before --out is made
printf 'lr_inplane_factor = 200.0\n' > lr.cfg
printf 'phantom_fov_mm = [9900.0, 0.6]\n' > fov.cfg
printf 'phantom_fov_mm = [3000.0, 3000.0]\n' > budget.cfg
for cfg in lr fov budget; do
  expect 2 "$cfg.cfg" slabrecon simulate --config "$cfg.cfg" --out "sim_$cfg"
  test ! -e "sim_$cfg" || fail "$cfg.cfg made its --out"
done

# a pyramid stride that samples under 4 columns along x or z of the slab grid
# exits 2 once the inputs are read, before --out is made
printf 'pyramid = [100]\n' > pyramid.cfg
expect 2 "pyramid.cfg under register" slabrecon register --config pyramid.cfg \
  --slab sim/slab_01.nii.gz --lr sim/lr.nii.gz --slab-index 1 --out reg_pyramid
expect 2 "pyramid.cfg under reconstruct" slabrecon reconstruct --config pyramid.cfg \
  --slabs sim/slab_00.nii.gz sim/slab_01.nii.gz --lr sim/lr.nii.gz --out rec_pyramid
for out in reg_pyramid rec_pyramid; do
  test ! -e "$out" || fail "pyramid.cfg made $out"
done

# on one CPU every slab registers and reslices in the calling process:
# the forked workers must write the same bytes
if command -v taskset > /dev/null; then
  taskset -c 0 slabrecon reconstruct --slabs sim/slab_00.nii.gz sim/slab_01.nii.gz \
    --lr sim/lr.nii.gz --out rec_serial --seed 0 || fail "reconstruct on one CPU"
  python "$scripts/output_digest.py" rec > rec.sha256
  python "$scripts/output_digest.py" rec_serial > rec_serial.sha256
  test -s rec.sha256 || fail "empty digest of rec"
  diff rec.sha256 rec_serial.sha256 || fail "forked and one-CPU outputs differ"
else
  echo "smoke: skipped: the one-CPU taskset diff (taskset not found)"
fi
echo "smoke: passed"

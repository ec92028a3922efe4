#!/usr/bin/env python3
"""Milliseconds per masked-NMI objective evaluation, at each pyramid stride.

Simulates the NS interleaved preset in memory with the CLI's default
scenario (slab 1 moved 1.5 degrees about x and 0.6 mm along z, 2% noise),
builds the registration objective of slab 1 against the prepared
reference once, and times single evaluations of it at two poses:
identity, where every sample lands inside the reference, and the
scenario's motion, where some land outside. The objective's set-up is not
timed, unlike the benchmark's ``registration.joint_histogram_ms``, which
builds a new objective per call. BLAS is pinned to one thread, as in the
benchmark, unless the environment sets it.

    PYTHONPATH=src python scripts/objective_timing.py --evals 40
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from slabrecon import (  # noqa: E402
    MotionScenario,
    PhantomSpec,
    RegistrationConfig,
    RigidTransform,
    generate_phantom,
    get_preset,
    pad_slab,
    phantom_geometry,
    prepare_reference,
    simulate_acquisition,
)
from slabrecon.geometry import index_map  # noqa: E402
from slabrecon.registration import _MaskedNmiObjective  # noqa: E402
from slabrecon.volume import in_field  # noqa: E402

PRESET = "ns_7t_32ch_t2w_interleaved"
MOVED_SLAB = 1


def build_objective(seed):
    """The objective of the moved slab, and the poses to time it at."""
    acquisition = get_preset(PRESET)
    layout, voxel = acquisition.build_layout(), acquisition.voxel_mm
    truth = generate_phantom(PhantomSpec(), phantom_geometry(layout.final_slices, voxel)).volume
    center = tuple(truth.geometry.world_center())
    motion = RigidTransform(rotation=(np.radians(1.5), 0.0, 0.0), translation=(0.0, 0.0, 0.6),
                            center=center)
    transforms = [RigidTransform.identity(center)] * layout.num_slabs
    transforms[MOVED_SLAB] = motion
    dataset = simulate_acquisition(truth, layout, MotionScenario(tuple(transforms), 2.0),
                                   seed=seed)
    reference = prepare_reference(dataset.lr, (voxel[0], voxel[2]))
    padded = pad_slab(dataset.slabs[MOVED_SLAB], layout, MOVED_SLAB)
    objective = _MaskedNmiObjective(padded.signal, padded.mask, reference,
                                    RegistrationConfig().bins)
    return objective, {"identity": RigidTransform.identity(center), "motion": motion}


def in_field_share(objective, pose) -> float:
    m = index_map(objective.moving_geometry, pose, objective.fixed_geometry)
    idx = m[:, :3] @ objective.index + m[:, 3:]
    return float(in_field(idx, objective.fixed_geometry.dims).mean())


def time_evaluations(objective, pose, evals) -> np.ndarray:
    """Wall milliseconds of ``evals`` single evaluations, after one warm-up."""
    objective(pose)
    times = np.empty(evals)
    for k in range(evals):
        start = time.perf_counter()
        objective(pose)
        times[k] = (time.perf_counter() - start) * 1e3
    return times


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--evals", type=int, default=40, help="timed evaluations per stride "
                    "and pose (default 40)")
    ap.add_argument("--seed", type=int, default=0, help="noise seed of the simulation")
    args = ap.parse_args()
    if args.evals < 1:
        ap.error("--evals must be >= 1")
    objective, poses = build_objective(args.seed)
    print(f"{PRESET}, slab {MOVED_SLAB}, noise seed {args.seed}, {args.evals} evaluations each")
    print("stride  pose      samples  in-field  ms/eval median  [q1, q3]")
    for stride in RegistrationConfig().pyramid:
        level = objective.at_stride(stride)
        for name, pose in poses.items():
            q1, median, q3 = np.percentile(time_evaluations(level, pose, args.evals),
                                           [25, 50, 75])
            print(f"{stride:>6}  {name:<8}  {level.n_samples:>7}  "
                  f"{in_field_share(level, pose):>8.4f}  {median:>14.2f}  "
                  f"[{q1:.2f}, {q3:.2f}]")

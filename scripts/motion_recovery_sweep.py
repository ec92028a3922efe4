#!/usr/bin/env python3
"""Transform-recovery sweep on the phantom of an acquisition preset.

Each run draws a random coil-possible motion (rotations up to 5 degrees,
z-translation up to 3 mm) for the second slab and leaves the other slabs
still, simulates the acquisition with Rician noise, registers every padded
slab to the LR reference and compares the recovered motion against the
ground truth. Moved and motionless slabs are summarised apart. The default
25 runs register 50 slabs on a two-slab preset, as many registrations as
acceptance criterion 1, within 5 minutes on 2 cores.

    PYTHONPATH=src python scripts/motion_recovery_sweep.py --runs 10 \
        --preset cmrr_7t_16ch_t2w_interleaved --json accuracy.json

With ``--digest`` it prints only one line per registration: run, slab,
the SHA-256 of the transform matrix bytes, the evaluations per level, the
final NMI and the SHA-256 of the trace. The lines hold no timing, so
whether a code change moved any registration is one ``diff`` of the
output of two checkouts.
"""

import argparse
import hashlib
import json
import time

import numpy as np

from slabrecon import (
    MotionScenario,
    PhantomSpec,
    RegistrationConfig,
    RigidTransform,
    generate_phantom,
    get_preset,
    invert,
    pad_slab,
    phantom_geometry,
    prepare_reference,
    register_rigid,
    simulate_acquisition,
    transform_deviation,
)

PRESETS = (
    "ns_7t_32ch_t2w_interleaved",
    "cmrr_7t_16ch_t2w_interleaved",
    "cmrr_7t_32ch_t2w_interleaved4",
)
MAX_DEG, MAX_MM = 0.5, 0.15
MOVED_SLAB = 1


def random_possible_motion(rng, center) -> RigidTransform:
    angles = np.radians(rng.uniform(-5.0, 5.0, size=3))
    tz = rng.uniform(-3.0, 3.0)
    return RigidTransform(rotation=tuple(angles), translation=(0.0, 0.0, tz),
                          center=center)


def summarise(errors, seconds) -> dict:
    """Recovered count, median and max errors and registration wall time."""
    errors = np.asarray(errors)
    ok = (errors[:, 0] <= MAX_DEG) & (errors[:, 1] <= MAX_MM)
    return {
        "slabs": len(errors),
        "recovered": int(ok.sum()),
        "median_deg": float(np.median(errors[:, 0])),
        "max_deg": float(errors[:, 0].max()),
        "median_mm": float(np.median(errors[:, 1])),
        "max_mm": float(errors[:, 1].max()),
        "registration_s": seconds,
    }


def print_summary(prefix, s):
    print(f"{prefix}recovered {s['recovered']}/{s['slabs']} within "
          f"{MAX_DEG} deg / {MAX_MM} mm ({100 * s['recovered'] / s['slabs']:.0f}%)")
    print(f"{prefix}rotation err: median {s['median_deg']:.4f} deg, "
          f"max {s['max_deg']:.4f} deg")
    print(f"{prefix}translation err: median {s['median_mm']:.4f} mm, "
          f"max {s['max_mm']:.4f} mm")
    print(f"{prefix}registration {s['registration_s']:.1f}s "
          f"({s['registration_s'] / s['slabs']:.2f}s per slab)")


def digest_line(record) -> str:
    """Run, slab and the exact outcome of one registration, without timing."""
    result = record["result"]
    matrix = hashlib.sha256(result.transform.matrix.tobytes()).hexdigest()
    trace = hashlib.sha256(json.dumps(result.to_dict()["trace"]).encode()).hexdigest()
    evaluations = ",".join(str(n) for n in result.evaluations)
    return (f"run {record['run']:02d} slab {record['slab']} transform {matrix} "
            f"evaluations {evaluations} final_nmi {result.final_nmi!r} trace {trace}")


def run_sweep(runs=25, base_seed=0, noise_pct=2.0, preset=PRESETS[0], config=None,
              verbose=True):
    """Returns the summary dict and one record per registered slab."""
    acquisition = get_preset(preset)
    layout, voxel = acquisition.build_layout(), acquisition.voxel_mm
    truth = generate_phantom(PhantomSpec(), phantom_geometry(layout.final_slices, voxel)).volume
    center = tuple(truth.geometry.world_center())
    config = config or RegistrationConfig()

    records = []
    t_start = time.perf_counter()
    for run in range(runs):
        rng = np.random.default_rng(np.random.SeedSequence([base_seed, run]))
        truths = [RigidTransform.identity(center)] * layout.num_slabs
        truths[MOVED_SLAB] = random_possible_motion(rng, center)
        scenario = MotionScenario(tuple(truths), noise_sigma_pct=noise_pct)
        dataset = simulate_acquisition(truth, layout, scenario, seed=base_seed + run)
        reference = prepare_reference(dataset.lr, (voxel[0], voxel[2]))
        for j, slab in enumerate(dataset.slabs):
            t_reg = time.perf_counter()
            result = register_rigid(pad_slab(slab, layout, j), reference, config)
            seconds = time.perf_counter() - t_reg
            ang, mm = transform_deviation(invert(result.transform), truths[j], center)
            records.append({"run": run, "slab": j, "moved": j == MOVED_SLAB,
                            "deg": ang, "mm": mm, "seconds": seconds, "result": result})
            if verbose:
                label = f"run {run:02d}" if j == MOVED_SLAB else f"run {run:02d} slab {j}"
                print(f"{label}: rot err {ang:.4f} deg, trans err {mm:.4f} mm")
    elapsed = time.perf_counter() - t_start

    summary = {"preset": preset, "runs": runs, "seed": base_seed, "noise_pct": noise_pct,
               "elapsed_s": elapsed}
    for role, moved in (("moved", True), ("motionless", False)):
        picked = [r for r in records if r["moved"] == moved]
        summary[role] = summarise([(r["deg"], r["mm"]) for r in picked],
                                  sum(r["seconds"] for r in picked))
    if verbose:
        print(f"\nmoved slab {MOVED_SLAB} of {layout.num_slabs}, {preset}, "
              f"{noise_pct:g}% noise")
        print_summary("", summary["moved"])
        print_summary("motionless: ", summary["motionless"])
        print(f"elapsed {elapsed:.1f}s ({elapsed / runs:.2f}s per run)")
    return summary, records


if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--noise-pct", type=float, default=2.0)
    ap.add_argument("--preset", choices=PRESETS, default=PRESETS[0])
    ap.add_argument("--json", metavar="PATH", help="write the summary as JSON")
    ap.add_argument("--digest", action="store_true",
                    help="print only one timing-free digest line per registration")
    args = ap.parse_args()
    summary, records = run_sweep(args.runs, args.seed, args.noise_pct, args.preset,
                                 verbose=not args.digest)
    if args.digest:
        for record in records:
            print(digest_line(record))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")

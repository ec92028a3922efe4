#!/usr/bin/env python3
"""Self-test of the benchmark's correctness checks.

Each check gets a right answer, which it must accept, and deliberately
wrong answers, which it must reject. Exits 0 only if every check does
both.

    python3 bench/selftest.py
"""

import sys

import numpy as np

from run import import_program

slabrecon = import_program()
import checks  # noqa: E402


def cases():
    """(check name, problems for the right answer, [problems per wrong answer])."""
    center = (13.0, 27.0, 9.5)
    chosen = slabrecon.RigidTransform(rotation=(np.radians(1.5), 0.0, 0.0),
                                      translation=(0.0, 0.0, 0.6), center=center)

    def motion(rotation_deg, translation):
        estimate = slabrecon.RigidTransform(rotation=tuple(np.radians(rotation_deg)),
                                            translation=translation, center=center)
        return checks.motion(estimate, chosen, center)

    yield "motion", motion((1.5, 0.0, 0.0), (0.0, 0.0, 0.6)), [
        motion((2.5, 0.0, 0.0), (0.0, 0.0, 0.6)),        # off by 1 degree
        motion((1.5, 0.0, 0.0), (0.0, 0.6, 0.6)),        # half a slice along y
    ]

    yield "trace_monotone", checks.trace_monotone(
        [(4, [1.10, 1.15, 1.15]), (2, [1.16, 1.20]), (1, [1.21])]), [
        checks.trace_monotone([(4, [1.10, 1.15]), (2, [1.16, 1.159])]),
    ]

    yield "uncovered_small", checks.uncovered_small(0.007), [
        checks.uncovered_small(0.03),
        checks.uncovered_small(-0.001),
    ]

    mask_sum = np.linspace(0.0, 2.0, 60).reshape(3, 4, 5)
    yield "mask_sum_range", checks.mask_sum_range(mask_sum, 2), [
        checks.mask_sum_range(mask_sum * 1.01, 2),
        checks.mask_sum_range(mask_sum - 0.01, 2),
    ]

    yield "flag_equals", checks.flag_equals(False, False, "shift"), [
        checks.flag_equals(True, False, "shift"),
        checks.flag_equals(False, True, "shift"),
    ]

    rng = np.random.default_rng(0)
    truth = rng.choice([0.0, 80.0, 100.0, 150.0], size=(20, 20, 20))
    covered = np.ones(truth.shape, dtype=bool)
    fused = truth + rng.normal(0.0, 0.01 * 150.0, size=truth.shape)
    yield "fused_rmse", checks.fused_rmse(fused, covered, truth), [
        checks.fused_rmse(1.2 * fused, covered, truth),          # scaled volume
        checks.fused_rmse(np.roll(fused, 1, axis=1), covered, truth),  # one slice off
    ]

    yield "rc_near_oracle", checks.rc_near_oracle(0.41, "fused"), [
        checks.rc_near_oracle(0.47, "fused"),
        checks.rc_near_oracle(None, "fused"),
    ]

    predicted = checks.rician_snr_prediction(150.0, 3.4)
    yield "snr_near_prediction", checks.snr_near_prediction(1.05 * predicted, predicted), [
        checks.snr_near_prediction(predicted / 1.5, predicted),   # noise 1.5x too high
        checks.snr_near_prediction(None, predicted),
    ]

    written = rng.normal(100.0, 30.0, size=(6, 7, 8))
    read = written.astype(np.float32).astype(np.float64)
    yield "readback_equal", checks.readback_equal(read, written), [
        checks.readback_equal(written, written),                  # not a float32 cast
        checks.readback_equal(read * (1 + 1e-6), written),
        checks.readback_equal(read[:, :-1], written),
    ]

    owned = np.arange(1, 12, 2)
    mask = np.zeros((5, 12, 6))
    mask[:, owned, :] = 1.0
    signal = rng.uniform(1.0, 2.0, size=mask.shape) * mask
    leaked = signal.copy()
    leaked[0, 0, 0] = 0.5
    yield "padded_slab", checks.padded_slab(signal, mask, owned), [
        checks.padded_slab(signal, np.roll(mask, 1, axis=1), owned),  # other slab's slices
        checks.padded_slab(leaked, mask, owned),                       # signal off the mask
    ]


def main():
    bad = 0
    for name, right, wrongs in cases():
        rejected = [bool(w) for w in wrongs]
        ok = not right and all(rejected)
        bad += not ok
        print(f"[{'ok' if ok else 'BROKEN'}] {name}: accepts the right answer: {not right}; "
              f"rejects {sum(rejected)}/{len(wrongs)} wrong answers")
        for problems in wrongs:
            for p in problems:
                print(f"      rejected: {p}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

"""Correctness checks applied to every benchmark case.

Each check returns a list of problems; an empty list means the output is
right. Every expected value is either computed here, apart from the
program, or is a property the method must have. None is a stored copy of
an earlier output.
"""

import numpy as np
from slabrecon import transform_deviation

# registration accuracy: the criterion-1 bound of the acceptance suite
MAX_ROTATION_DEG = 0.5
MAX_GAP_MM = 0.15
# RC oracle of the spec intensities: 2 (150 - 100) / (150 + 100)
RC_ORACLE = 0.4
# tolerance of the test suite for RC of a noisy volume
RC_TOL = 0.05
# fused RMSE over covered voxels, as a share of the truth dynamic range;
# 2% Rician noise averaged by the mask-normalised fusion measures 3.1-3.5%
FUSED_RMSE_BOUND = 0.045
# relative SNR tolerance: the background std of ~300 Rayleigh samples has a
# standard error of ~4.4%, so 0.25 is more than five standard errors
SNR_REL_TOL = 0.25
# The moved slab's 0.6 mm z motion carries anatomy past the edge of its field
# of view, so a right reconstruction leaves ~0.7% of voxels uncovered; the
# bound is the share at which the program warns of between-slab loss.
MAX_UNCOVERED = 0.02
MASK_TOL = 1e-6


def motion(estimate, chosen, point):
    """The recovered motion lies within the bound of the chosen one."""
    angle, gap = transform_deviation(estimate, chosen, point)
    if angle <= MAX_ROTATION_DEG and gap <= MAX_GAP_MM:
        return []
    return [f"motion off by {angle:.3f} deg / {gap:.3f} mm "
            f"(bound {MAX_ROTATION_DEG} deg / {MAX_GAP_MM} mm)"]


def trace_monotone(trace):
    """Compass search only accepts improvements: NMI never drops in a level."""
    problems = []
    for stride, values in trace:
        steps = np.diff(np.asarray(values, dtype=float))
        if steps.size and steps.min() < 0:
            problems.append(f"trace at stride {stride} drops by {-steps.min():.3g}")
    return problems


def uncovered_small(fraction):
    if 0 <= fraction <= MAX_UNCOVERED:
        return []
    return [f"uncovered fraction {fraction:.4f} outside [0, {MAX_UNCOVERED}]"]


def mask_sum_range(mask_sum, num_slabs):
    lo, hi = float(np.min(mask_sum)), float(np.max(mask_sum))
    if lo >= -MASK_TOL and hi <= num_slabs + MASK_TOL:
        return []
    return [f"mask_sum in [{lo:.6f}, {hi:.6f}], outside [0, {num_slabs}]"]


def flag_equals(flag, expected, what):
    return [] if bool(flag) == expected else [f"{what} flag {flag}, expected {expected}"]


def fused_rmse(fused, covered, truth):
    """RMSE over covered voxels as a share of the truth dynamic range."""
    diff = fused[covered] - truth[covered]
    share = float(np.sqrt((diff ** 2).mean()) / (truth.max() - truth.min()))
    if share < FUSED_RMSE_BOUND:
        return []
    return [f"fused RMSE {100 * share:.2f}% >= {100 * FUSED_RMSE_BOUND}% of range"]


def rc_near_oracle(rc, what):
    if rc is not None and abs(rc - RC_ORACLE) <= RC_TOL:
        return []
    return [f"{what} RC {rc} not within {RC_TOL} of {RC_ORACLE}"]


def rician_snr_prediction(gm_mean, sigma):
    """GM / std of the Rayleigh background: sigma * sqrt(2 - pi/2)."""
    return gm_mean / (sigma * np.sqrt(2.0 - np.pi / 2.0))


def snr_near_prediction(value, predicted):
    if value is not None and abs(value - predicted) <= SNR_REL_TOL * predicted:
        return []
    return [f"SNR {value} not within {100 * SNR_REL_TOL:.0f}% of {predicted:.2f}"]


def readback_equal(read, written):
    """NIfTI stores float32: reading back gives the float32 cast exactly."""
    expected = np.asarray(written).astype(np.float32).astype(np.float64)
    if read.shape == expected.shape and np.array_equal(read, expected):
        return []
    return ["NIfTI read-back differs from the float32 cast of the written data"]


def padded_slab(signal, mask, owned):
    """Mask is 1 exactly on the slab's own slices; signal is 0 off the mask."""
    expected = np.zeros(mask.shape[1], dtype=bool)
    expected[owned] = True
    problems = []
    if not (np.all(mask[:, expected, :] == 1.0) and np.all(mask[:, ~expected, :] == 0.0)):
        problems.append("padded mask is not 1 exactly on the owned slices")
    if np.any(signal[mask == 0.0] != 0.0):
        problems.append("padded signal is non-zero where the mask is 0")
    return problems

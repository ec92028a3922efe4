"""Rigid registration of padded slabs to the reference by normalized
mutual information, evaluated only on acquired-signal voxels.

The joint histogram pairs each masked moving voxel with the reference
intensity interpolated at the transformed voxel position; the null slices
carry no anatomy and never enter the metric. NMI = (H(A) + H(B)) / H(A, B)
with Shannon entropies in bits, so 2 means identical and 1 independent.

The reference is read by ``volume._trilinear``, the package's one trilinear
read, from a flat copy padded with one edge-replicated voxel per side: the
values of ``ndimage.map_coordinates(order=1, mode="nearest")``, to the bit.
"Nearest" and "mirror" are two paddings of one read: reslicing
(``apply_result``) reads a reflect-padded copy at folded indices, "mirror".
Samples mapped out of the field are read at the nearest hull point and
binned with zero weight, not removed: ``bincount`` sums in input order and
``x + 0.0 == x``, so the counts have the bits of the in-field samples alone.

The optimizer is a deterministic derivative-free compass search over
(tx, ty, tz, rx, ry, rz): axis steps only, greedy per parameter, with
fixed initial steps halved on stall (Kolda, Lewis & Torczon, SIAM Review
45:385, 2003), run coarse-to-fine over in-plane sampling strides; a level
with more than 16 samples per joint-histogram bin scores a seeded draw of
that many.
Identical inputs and config give bit-identical results.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyOverlap, InvalidInput, RegistrationFailed
from .geometry import AffineGeometry, RigidTransform, index_map, invert
from .layout import PaddedSlab
from .volume import InterpolationMethod, Volume, _trilinear, in_field, padded_flat, resample

_NMI_SLACK = 1e-9
# the most samples a pyramid level scores per joint-histogram bin (Mattes et al.,
# IEEE TMI 22:120, 2003; Klein, Staring & Pluim, IEEE TIP 16:2879, 2007)
_SAMPLES_PER_BIN = 16
# the most joint-histogram bins per axis: 256^2 cells already match the 65,536 samples
# a level scores at the default 64 bins, and 8-bit intensities need no finer bins;
# 100,000 bins would ask np.bincount for 74.5 GiB of counts
MAX_BINS = 256

# Compass-search steps at stride 1; coarser levels scale them by the stride.
_ROTATION_STEP_DEG = 0.5            # the accuracy bound; halving refines below it
_TRANSLATION_STEP_VOXELS = 0.5      # of the in-plane voxel: sub-voxel from the start
_SWEEP_GAIN_TOLERANCE = 1e-5        # a sweep gaining less NMI has stalled: halve


@dataclass(frozen=True)
class JointHistogram:
    """B x B partial-volume weighted joint intensity histogram."""

    counts: np.ndarray
    total_weight: float

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return self.counts.sum(axis=1), self.counts.sum(axis=0)

    def entropies(self) -> tuple[float, float, float]:
        """(H(moving), H(fixed), H(joint)) in bits."""
        p = self.counts / self.total_weight
        pa = p.sum(axis=1)
        pb = p.sum(axis=0)
        return _entropy_bits(pa), _entropy_bits(pb), _entropy_bits(p.ravel())

    @property
    def degenerate(self) -> bool:
        _, _, hab = self.entropies()
        return hab == 0.0


def _entropy_bits(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum()) if nz.size else 0.0


def _bin_coordinates(values: np.ndarray, lo: float, hi: float, bins: int) -> np.ndarray:
    """Fractional bins in ``[0, bins - 1]``, scaled in place in ``values`` unless ``hi <= lo``."""
    if hi <= lo:
        return np.zeros(values.shape)
    values -= lo
    values /= hi - lo
    np.clip(values, 0.0, 1.0, out=values)
    values *= bins - 1
    return values


def _accumulate(mov_base, fixed_values, fixed_lo, fixed_hi, bins, inside=None) -> np.ndarray:
    """Hard binning on the moving side, linear partial-volume on the fixed side.

    ``mov_base`` is each sample's moving bin times ``bins``: its row offset.
    ``fixed_values`` is binned in place; samples not ``inside`` get zero weight.
    """
    c = _bin_coordinates(fixed_values, fixed_lo, fixed_hi, bins)
    low = np.floor(c)
    f = np.subtract(c, low, out=c)   # the weight of the bin above
    w = 1.0 - f
    if inside is not None:
        w[~inside] = 0.0
        f[~inside] = 0.0
    k = mov_base + low.astype(np.int64)
    counts = np.bincount(k, weights=w, minlength=bins * bins)
    k += low < bins - 1   # the bin above, or the top bin itself
    counts += np.bincount(k, weights=f, minlength=bins * bins)
    return counts.reshape(bins, bins)


def nmi(h: JointHistogram) -> float:
    """(H(A) + H(B)) / H(A, B); a one-bin degenerate histogram returns 2.0."""
    if h.total_weight <= 0:
        raise InvalidInput("histogram has no weight")
    ha, hb, hab = h.entropies()
    if hab == 0.0:
        return 2.0  # perfect dependence by convention
    value = (ha + hb) / hab
    if not 1.0 - _NMI_SLACK <= value <= 2.0 + _NMI_SLACK:
        raise InvalidInput(f"NMI {value} outside [1, 2]")
    return float(value)


def joint_histogram(moving: Volume, fixed: Volume, mask: Volume,
                    transform: RigidTransform, bins: int = 64) -> JointHistogram:
    """Histogram of (moving[v], fixed(T(v))) over masked, in-field voxels.

    Intensity ranges: min-max of the moving image over masked voxels, and
    of the fixed image over its full grid (the reference carries no mask).
    """
    h = _MaskedNmiObjective(moving, mask, fixed, bins).histogram(transform)
    if h is None:
        raise EmptyOverlap("no masked voxel lands inside the fixed image")
    return h


def _check_bins(bins: int) -> None:
    if not 8 <= bins <= MAX_BINS:
        raise InvalidInput(f"need at least 8 bins and at most {MAX_BINS}, got {bins}")


@dataclass(frozen=True)
class RegistrationConfig:
    bins: int = 64
    pyramid: tuple[int, ...] = (4, 2, 1)        # in-plane sampling strides
    max_iterations: int = 50                    # compass sweeps per level
    step_halvings: int = 5

    def __post_init__(self):
        _check_bins(self.bins)
        if len(self.pyramid) < 1 or any(s < 1 or not float(s).is_integer() for s in self.pyramid):
            raise InvalidInput(f"pyramid strides must be whole numbers >= 1, got {self.pyramid}")
        if self.max_iterations < 1 or self.step_halvings < 0:
            raise InvalidInput("max_iterations must be >= 1 and step_halvings >= 0")
        object.__setattr__(self, "pyramid", tuple(int(s) for s in self.pyramid))


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    final_nmi: float
    trace: tuple
    masked_voxels: int                  # every masked voxel of the slab
    evaluations: tuple[int, ...] = ()   # distinct poses scored, per pyramid level
    samples: tuple[int, ...] = ()       # masked voxels scored, per pyramid level
    seconds: float = field(default=0.0, compare=False)   # wall time of register_rigid

    def to_dict(self) -> dict:
        return {
            "transform": self.transform.to_dict(),
            "motion_estimate": invert(self.transform).to_dict(),
            "final_nmi": self.final_nmi,
            "masked_voxels": self.masked_voxels,
            "reslice_interpolation": "trilinear",
            "mask_interpolation": "trilinear",
            "trace": [
                {"stride": stride, "nmi": [float(v) for v in values],
                 "evaluations": evaluations, "samples": samples}
                for (stride, values), evaluations, samples
                in zip(self.trace, self.evaluations, self.samples, strict=True)
            ],
        }


class _MaskedNmiObjective:
    """NMI of the masked moving voxels against the fixed image read at their
    transformed positions.

    Owns the sample setup shared by ``joint_histogram`` and the registration
    search: the mask selection, the moving range (over all masked voxels),
    the fixed range (over its full grid), the moving bin of each sample (as
    its row offset in the histogram) and the samples a pyramid level scores
    (``at_stride``). The fixed image is kept edge-padded for ``_trilinear``;
    the stride subsets share it. Samples that land out of the field are
    binned with zero weight, which keeps the counts' bits.
    """

    def __init__(self, moving: Volume, mask: Volume, fixed: Volume, bins: int):
        _check_bins(bins)
        if not mask.geometry.same_grid(moving.geometry, tol=1e-6):
            raise InvalidInput("moving image and mask must share a grid")
        sel = mask.data >= 0.5
        if not sel.any():
            raise EmptyOverlap("mask selects no voxels")
        values = moving.data[sel]
        moving_range = (float(values.min()), float(values.max()))
        self.fixed_range = fixed.value_range()
        mov_bins = np.rint(_bin_coordinates(values, *moving_range, bins)).astype(np.int64)
        self.mov_base = mov_bins * bins
        self.index = np.array(np.nonzero(sel), dtype=float)  # (3, N) moving voxel indices
        self.moving_geometry = moving.geometry
        self.fixed_geometry = fixed.geometry
        self.fixed_flat, self.fixed_corners = padded_flat(fixed.data, "edge")
        self.bins = bins

    @property
    def n_samples(self) -> int:
        return self.index.shape[1]

    def at_stride(self, stride: int) -> "_MaskedNmiObjective":
        """The samples on every ``stride``-th voxel along x and z or, above
        ``_SAMPLES_PER_BIN`` per histogram bin, a seeded draw of that many. The
        draw depends on the mask alone and keeps raster order, for cache-friendly
        reads and a fixed ``bincount`` order."""
        keep = np.flatnonzero((self.index[0] % stride == 0) & (self.index[2] % stride == 0))
        if not keep.size:
            raise EmptyOverlap(f"mask empty at sampling stride {stride}")
        cap = _SAMPLES_PER_BIN * self.bins * self.bins
        if keep.size > cap:
            keep = np.sort(np.random.default_rng(0).choice(keep, cap, replace=False))
        subset = copy.copy(self)
        subset.index = self.index[:, keep]
        subset.mov_base = self.mov_base[keep]
        return subset

    def histogram(self, transform: RigidTransform) -> JointHistogram | None:
        """Joint histogram at ``transform``; None when no sample lands in-field."""
        m = index_map(self.moving_geometry, transform, self.fixed_geometry)
        idx = m[:, :3] @ self.index
        idx += m[:, 3:]
        inside = in_field(idx, self.fixed_geometry.dims)
        if inside.all():
            inside = None
        elif not inside.any():
            return None
        else:   # read out-of-field samples at the nearest hull point; they get zero weight
            np.clip(idx, -0.5, np.asarray(self.fixed_geometry.dims)[:, None] - 0.5, out=idx)
        fixed_values = _trilinear(self.fixed_flat, self.fixed_corners, idx)
        counts = _accumulate(self.mov_base, fixed_values, *self.fixed_range, self.bins, inside)
        return JointHistogram(counts, float(counts.sum()))

    def __call__(self, transform: RigidTransform) -> float:
        """Returns NMI, or -inf when no masked voxel lands in-field."""
        h = self.histogram(transform)
        return -np.inf if h is None else nmi(h)


def _params_to_transform(params: np.ndarray, center) -> RigidTransform:
    return RigidTransform(
        rotation=tuple(params[3:6]), translation=tuple(params[0:3]), center=center
    )


def _compass_search(objective, params0, steps0, config) -> tuple[np.ndarray, float, list, int]:
    """Greedy per-parameter search, fixed order tx, ty, tz, rx, ry, rz.

    Each sweep tries a step up and down along each axis and keeps stepping
    while the value improves; a sweep that gains less than the tolerance
    halves the steps, up to ``config.step_halvings`` times.

    The reverse step after a move comes back to a pose already scored, so
    each pose is scored once (keyed on its parameter bytes). Returns the
    parameters, their value, the best value after each sweep and the
    number of distinct poses scored.
    """
    scored = {}

    def score(p):
        key = p.tobytes()
        if key not in scored:
            scored[key] = objective(p)
        return scored[key]

    params = np.array(params0, dtype=float)
    best = score(params)
    if not np.isfinite(best):
        raise RegistrationFailed("metric not finite at the starting point")
    steps = np.array(steps0, dtype=float)
    trace = [float(best)]
    halvings = 0
    for _ in range(config.max_iterations):
        sweep_start = best
        for i in range(6):
            for sign in (1.0, -1.0):
                cand = params.copy()
                cand[i] += sign * steps[i]
                value = score(cand)
                if value > best:
                    while value > best:
                        params, best = cand, value
                        cand = params.copy()
                        cand[i] += sign * steps[i]
                        value = score(cand)
                    break
        trace.append(float(best))
        if best - sweep_start < _SWEEP_GAIN_TOLERANCE:
            if halvings >= config.step_halvings:
                break
            steps *= 0.5
            halvings += 1
    return params, best, trace, len(scored)


def register_rigid(padded: PaddedSlab, reference: Volume,
                   config: RegistrationConfig | None = None) -> RegistrationResult:
    """Estimate the rigid transform mapping the padded slab onto the reference.

    Starts at identity (between-scan motion is small), maximizes masked NMI
    with trilinear sampling during the search; reslicing happens separately
    (see apply_result).
    """
    start = time.perf_counter()
    config = config or RegistrationConfig()
    try:
        samples = _MaskedNmiObjective(padded.signal, padded.mask, reference, config.bins)
        levels = [samples.at_stride(stride) for stride in config.pyramid]
    except EmptyOverlap as exc:
        raise RegistrationFailed(str(exc)) from exc
    # Rotations pivot about the masked-region centroid: for one-sided slabs
    # (contiguous blocks) a volume-centred pivot makes rotation steps act
    # like translations over the mask and the coordinate search stalls.
    geometry = padded.signal.geometry
    center = tuple(geometry.index_to_world(samples.index.mean(axis=1))[0])

    trans_step = _TRANSLATION_STEP_VOXELS * geometry.spacing[0]
    rot_step = np.radians(_ROTATION_STEP_DEG)
    steps = np.array([trans_step] * 3 + [rot_step] * 3)

    params = np.zeros(6)
    trace = []
    evaluations = []
    for stride, objective_data in zip(config.pyramid, levels):
        def objective(p):
            return objective_data(_params_to_transform(p, center))

        params, final_value, level_trace, level_evaluations = _compass_search(
            objective, params, steps * stride, config
        )
        trace.append((stride, tuple(level_trace)))
        evaluations.append(level_evaluations)

    return RegistrationResult(
        transform=_params_to_transform(params, center),
        final_nmi=float(final_value),
        trace=tuple(trace),
        masked_voxels=samples.n_samples,
        evaluations=tuple(evaluations),
        samples=tuple(level.n_samples for level in levels),
        seconds=time.perf_counter() - start,
    )


def apply_result(padded: PaddedSlab, result: RegistrationResult,
                 target: AffineGeometry) -> tuple[Volume, Volume]:
    """Reslice signal and mask onto the grid ``target`` with the estimated
    transform. ``fusion.reconstruct`` passes slab 0's padded grid, the grid
    every slab is fused on.

    Both are transported with the same trilinear kernel: the mask keeps
    fractional values in [0, 1] and, because the kernel is linear and
    positive, the mask-division in fusion normalizes the transported
    weights exactly (normalized convolution). A prefiltered cubic spline
    is unusable here: on null-slice combs its coefficients ring and the
    signal/mask reads no longer cancel.
    """
    return tuple(resample([padded.signal, padded.mask], target,
                          invert(result.transform), InterpolationMethod.Trilinear))

"""Rigid registration of padded slabs to the reference by normalized
mutual information, evaluated only on acquired-signal voxels.

The joint histogram pairs each masked moving voxel with the reference
intensity interpolated at the transformed voxel position; the null slices
carry no anatomy and never enter the metric. NMI = (H(A) + H(B)) / H(A, B)
with Shannon entropies in bits, so 2 means identical and 1 independent.

The optimizer is a deterministic derivative-free compass search over
(tx, ty, tz, rx, ry, rz), greedy per parameter with step halving on
stall, run coarse-to-fine over in-plane sampling strides. Identical
inputs and config give bit-identical results.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EmptyOverlap, InvalidInput, RegistrationFailed
from .geometry import AffineGeometry, RigidTransform, index_map, invert
from .layout import PaddedSlab
from .volume import InterpolationMethod, Volume, in_field, resample_all

_NMI_SLACK = 1e-9


@dataclass(frozen=True)
class JointHistogram:
    """B x B partial-volume weighted joint intensity histogram."""

    counts: np.ndarray
    moving_range: tuple[float, float]
    fixed_range: tuple[float, float]
    total_weight: float

    @property
    def bins(self) -> int:
        return self.counts.shape[0]

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
    if hi <= lo:
        return np.zeros(values.shape)
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0) * (bins - 1)


def _accumulate(mov_bins, fixed_values, fixed_lo, fixed_hi, bins) -> np.ndarray:
    """Hard binning on the moving side, linear partial-volume on the fixed side."""
    c = _bin_coordinates(fixed_values, fixed_lo, fixed_hi, bins)
    k = np.floor(c).astype(np.int64)
    f = c - k
    k2 = np.minimum(k + 1, bins - 1)
    base = mov_bins.astype(np.int64) * bins
    counts = np.bincount(base + k, weights=1.0 - f, minlength=bins * bins)
    counts += np.bincount(base + k2, weights=f, minlength=bins * bins)
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


@dataclass(frozen=True)
class RegistrationConfig:
    bins: int = 64
    pyramid: tuple[int, ...] = (4, 2, 1)        # in-plane sampling strides
    rotation_step_deg: float = 0.5
    translation_step_factor: float = 0.5        # x the in-plane voxel size (mm)
    tolerance: float = 1e-5
    max_iterations: int = 50                    # compass sweeps per level
    step_halvings: int = 5

    def __post_init__(self):
        if self.bins < 8:
            raise InvalidInput("need at least 8 bins")
        if len(self.pyramid) < 1 or any(s < 1 for s in self.pyramid):
            raise InvalidInput("pyramid strides must be >= 1")
        object.__setattr__(self, "pyramid", tuple(int(s) for s in self.pyramid))


@dataclass(frozen=True)
class RegistrationResult:
    transform: RigidTransform
    final_nmi: float
    trace: tuple
    masked_voxels: int
    evaluations: tuple[int, ...] = ()   # distinct poses scored, per pyramid level

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
                 "evaluations": evaluations}
                for (stride, values), evaluations
                in zip(self.trace, self.evaluations, strict=True)
            ],
        }


class _MaskedNmiObjective:
    """NMI of the masked moving voxels against the fixed image read at their
    transformed positions.

    Owns the sample setup shared by ``joint_histogram`` and the registration
    search: the mask selection, the moving range (over all masked voxels),
    the fixed range (over its full grid), the moving bin of each sample and
    the in-plane stride subset (``at_stride``).
    """

    def __init__(self, moving: Volume, mask: Volume, fixed: Volume, bins: int):
        if bins < 8:
            raise InvalidInput("need at least 8 bins")
        if not mask.geometry.same_grid(moving.geometry, tol=1e-6):
            raise InvalidInput("moving image and mask must share a grid")
        sel = mask.data >= 0.5
        if not sel.any():
            raise EmptyOverlap("mask selects no voxels")
        values = moving.data[sel]
        self.moving_range = (float(values.min()), float(values.max()))
        self.fixed_range = fixed.value_range()
        self.mov_bins = np.rint(
            _bin_coordinates(values, *self.moving_range, bins)
        ).astype(np.int64)
        self.index = np.array(np.nonzero(sel), dtype=float)  # (3, N) moving voxel indices
        self.moving_geometry = moving.geometry
        self.fixed = fixed
        self.bins = bins

    @property
    def n_samples(self) -> int:
        return self.index.shape[1]

    def at_stride(self, stride: int) -> "_MaskedNmiObjective":
        """The samples on every ``stride``-th voxel along x and z."""
        keep = (self.index[0] % stride == 0) & (self.index[2] % stride == 0)
        if not keep.any():
            raise EmptyOverlap(f"mask empty at sampling stride {stride}")
        subset = copy.copy(self)
        subset.index = self.index[:, keep]
        subset.mov_bins = self.mov_bins[keep]
        return subset

    def histogram(self, transform: RigidTransform) -> JointHistogram | None:
        """Joint histogram at ``transform``; None when no sample lands in-field."""
        m = index_map(self.moving_geometry, transform, self.fixed.geometry)
        idx = m[:, :3] @ self.index + m[:, 3:]
        inside = in_field(idx, self.fixed.dims)
        if not inside.any():
            return None
        # "nearest", unlike the mirror mode of resampling: the two differ in
        # the outer half-voxel band, and the NMI values depend on it
        fixed_values = ndimage.map_coordinates(
            self.fixed.data, idx.compress(inside, axis=1), order=1, mode="nearest"
        )
        counts = _accumulate(self.mov_bins.compress(inside), fixed_values,
                             *self.fixed_range, self.bins)
        return JointHistogram(counts, self.moving_range, self.fixed_range,
                              float(counts.sum()))

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

    After each sweep the aggregated move is retried once (pattern move),
    which keeps the search from stalling in valleys where rotation and
    translation trade off against each other.

    The reverse step after a move and a failed pattern move come back to
    poses already scored, so each pose is scored once (keyed on its
    parameter bytes). Returns the parameters, their value, the best value
    after each sweep and the number of distinct poses scored.
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
        sweep_origin = params.copy()
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
        delta = params - sweep_origin
        if np.any(delta != 0.0):
            cand = params + delta
            value = score(cand)
            while value > best:
                params, best = cand, value
                cand = params + delta
                value = score(cand)
        trace.append(float(best))
        if best - sweep_start < config.tolerance:
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

    trans_step = config.translation_step_factor * geometry.spacing[0]
    rot_step = np.radians(config.rotation_step_deg)
    steps = np.array([trans_step] * 3 + [rot_step] * 3)

    params = np.zeros(6)
    trace = []
    evaluations = []
    final_value = None
    for stride, objective_data in zip(config.pyramid, levels):
        def objective(p):
            return objective_data(_params_to_transform(p, center))

        params, final_value, level_trace, level_evaluations = _compass_search(
            objective, params, steps * stride, config
        )
        trace.append((stride, tuple(level_trace)))
        evaluations.append(level_evaluations)

    if final_value is None or not np.isfinite(final_value):
        raise RegistrationFailed("registration produced a non-finite metric")
    return RegistrationResult(
        transform=_params_to_transform(params, center),
        final_nmi=float(final_value),
        trace=tuple(trace),
        masked_voxels=levels[-1].n_samples,
        evaluations=tuple(evaluations),
    )


def apply_result(padded: PaddedSlab, result: RegistrationResult,
                 reference_geometry: AffineGeometry) -> tuple[Volume, Volume]:
    """Reslice signal and mask onto ``reference_geometry`` with the estimated
    transform.

    Both are transported with the same trilinear kernel: the mask keeps
    fractional values in [0, 1] and, because the kernel is linear and
    positive, the mask-division in fusion normalizes the transported
    weights exactly (normalized convolution). A prefiltered cubic spline
    is unusable here: on null-slice combs its coefficients ring and the
    signal/mask reads no longer cancel.
    """
    signal, mask = resample_all([padded.signal, padded.mask], reference_geometry,
                                invert(result.transform), InterpolationMethod.Trilinear)
    return signal.volume, mask.volume

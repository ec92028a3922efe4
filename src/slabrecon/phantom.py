"""Analytic layered phantom: a curved, spiral-laminated structure.

The phantom mimics the geometry that matters for multi-slab validation: a
bright core wrapped by alternating bright/dark laminae (rolled bilaminar
ribbon), a dark outer rim, a surrounding homogeneous matrix and empty
background. The main axis runs along y (the slice axis), bows gently in z,
widens at the anterior end, and the lamina pattern swirls and rolls slowly
along the axis. A deterministic smooth modulation of the bright lamina
decorrelates neighbouring slices so that slice-redundancy statistics have
something to measure. Everything is a pure function of the voxel-centre
coordinates: two calls produce bit-identical volumes.

The phantom is the ground truth, so it is piecewise constant: tissue
boundaries are hard, and every voxel holds exactly one of the spec
intensities, except on the bright lamina, which carries the texture. Each
expression is evaluated only where its answer can show: the envelope on the
bounding box of the structure and its matrix, the tissues on the structure's
voxels, and the texture on the lamina voxels, not on the whole grid. Any
band-limiting of a real acquisition belongs to the acquisition model in
``simulate.py``, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput
from .geometry import AffineGeometry
from .nifti import MAX_DIM
from .qc import EllipsoidROI
from .volume import Volume

DEFAULT_INPLANE_FOV_MM = (26.4, 19.2)
# the most phantom voxels, 2^24: 128 MiB per float64 copy, 32x the largest preset grid.
# A simulate run peaks at 5-8 full-grid copies (NS and nested4 presets), so about 1 GiB
# at the budget; [3000, 3000] mm asked for 4.6e9 voxels, 34 GiB per copy.
MAX_PHANTOM_VOXELS = 2**24


@dataclass(frozen=True)
class PhantomSpec:
    """Shape and intensity parameters of the synthetic structure.

    The generated volume holds exactly these intensities, with hard edges
    between tissues; only the bright lamina deviates, by the texture
    modulation of relative size ``texture_amplitude``.
    """

    length_mm: float = 42.0
    height_mm: float = 7.0
    body_width_mm: float = 10.0
    head_width_mm: float = 17.0

    srlm_thickness_mm: float = 0.7      # dark lamina, plausible range 0.5-1.0
    sp_thickness_mm: float = 1.0        # bright lamina, plausible range 0.5-1.5
    alveus_thickness_mm: float = 0.3    # dark outer rim

    intensity_bright: float = 150.0     # bright laminae and core
    intensity_dark: float = 80.0        # dark laminae and rim
    intensity_matrix: float = 100.0     # surrounding homogeneous tissue
    intensity_background: float = 0.0

    # curvature of the rolled cross-section and of the main axis
    axis_bow_mm: float = 1.2            # z-deflection of the main axis
    swirl_rad_per_mm: float = 0.02      # in-plane rotation of the roll along y
    # radial breathing of the laminae along the axis; the period is three
    # slice thicknesses so 1.2 mm and 2.4 mm slice lags decorrelate equally
    roll_amplitude_mm: float = 0.2
    roll_period_mm: float = 3.6
    head_falloff: float = 0.18          # axial extent of the head widening
    core_fraction: float = 0.34         # core radius as fraction of half-width
    matrix_margin_mm: tuple[float, float, float] = (3.2, 3.0, 2.6)  # x, y, z

    # along-axis modulation of the bright lamina (slice decorrelation)
    texture_amplitude: float = 0.25

    def __post_init__(self):
        if not (self.length_mm > 0 and self.body_width_mm > 0):
            raise InvalidInput("length and body width must be > 0")
        if self.head_width_mm <= self.body_width_mm:
            raise InvalidInput("head width must exceed body width")
        for th in (self.srlm_thickness_mm, self.sp_thickness_mm, self.alveus_thickness_mm):
            if not 0 < th < self.height_mm:
                raise InvalidInput("layer thicknesses must be positive and below height")
        for i in (self.intensity_bright, self.intensity_dark,
                  self.intensity_matrix, self.intensity_background):
            if i < 0:
                raise InvalidInput("intensities must be >= 0")
        if min(self.matrix_margin_mm) < 0:
            raise InvalidInput("matrix margins must be >= 0")
        if not (self.head_falloff > 0 and self.roll_period_mm > 0):
            raise InvalidInput("head falloff and roll period must be > 0")
        if not 0 < self.core_fraction < 1:
            raise InvalidInput("core fraction must be in (0, 1)")
        if not 0 <= self.texture_amplitude < 0.34:
            # bright lamina must stay brighter than the matrix
            raise InvalidInput("texture amplitude must be in [0, 0.34)")


@dataclass(frozen=True)
class GeneratedPhantom:
    volume: Volume
    rois: dict = field(default_factory=dict)


# fixed plane-wave table for the lamina modulation: columns kx, ky, kz
# (rad/mm), phase (rad), amplitude. ky stays below the slice Nyquist rate
# (2.6 rad/mm at 1.2 mm slices) so rigid resampling stays faithful. The
# dominant along-axis wavenumber is 2*pi/3.6, which decorrelates 1.2 mm
# and 2.4 mm slice lags by the same amount (cos 120 deg = cos 240 deg):
# slice-redundancy baselines stay flat while identical slices stand out.
_KY3 = 2.0 * np.pi / 3.6
_TEXTURE_WAVES = np.array([
    [0.52, _KY3, 1.71, 0.93, 1.00],
    [1.33, _KY3, 0.47, 5.61, 0.90],
    [1.92, _KY3, 1.18, 2.44, 0.95],
    [0.77, _KY3, 1.95, 4.07, 0.85],
    [1.58, _KY3, 0.66, 1.18, 0.90],
    [0.44, _KY3, 1.42, 3.32, 0.80],
    [1.12, _KY3, 0.86, 5.02, 0.95],
    [1.76, _KY3, 1.60, 0.31, 0.85],
    [0.63, 0.42, 0.94, 2.85, 0.35],
    [1.41, 0.28, 1.33, 4.66, 0.35],
])


def _texture(x, y, z):
    acc = np.zeros(np.broadcast(x, y, z).shape)
    for kx, ky, kz, phase, amp in _TEXTURE_WAVES:
        acc += amp * np.cos(kx * x + ky * y + kz * z + phase)
    return acc / _TEXTURE_WAVES[:, 4].sum()


def phantom_geometry(final_slices: int,
                     spacing=(0.3, 1.2, 0.3),
                     inplane_fov_mm=DEFAULT_INPLANE_FOV_MM) -> AffineGeometry:
    """Default axis-aligned grid: the stack covers the full structure length,
    with round(fov / spacing) columns along x and z. ``InvalidInput`` for a grid
    with no finite column count, over ``MAX_DIM`` voxels on an axis (``simulate``
    writes it as NIfTI-1) or over ``MAX_PHANTOM_VOXELS`` voxels."""
    sx, sy, sz = spacing
    columns = (inplane_fov_mm[0] / sx, inplane_fov_mm[1] / sz)
    if not all(map(np.isfinite, columns)):
        raise InvalidInput(f"in-plane FOV {list(inplane_fov_mm)} mm has no finite column "
                           f"count at {sx} x {sz} mm")
    dims = (int(round(columns[0])), int(final_slices), int(round(columns[1])))
    grid = f"in-plane FOV {list(inplane_fov_mm)} mm gives a {' x '.join(map(str, dims))} grid"
    if max(dims) > MAX_DIM:   # simulate writes truth.nii.gz on this grid
        raise InvalidInput(f"{grid}, over {MAX_DIM} voxels on an axis, the NIfTI-1 limit")
    if math.prod(dims) > MAX_PHANTOM_VOXELS:
        raise InvalidInput(f"{grid}, over {MAX_PHANTOM_VOXELS} voxels")
    return AffineGeometry(dims, (sx, sy, sz))


def canonical_rois(spec: PhantomSpec, geometry: AffineGeometry) -> dict:
    """GM / WM / BG ellipsoids placed where the phantom guarantees pure tissue."""
    cx, cy, cz = geometry.world_center()
    y0 = cy - spec.length_mm / 2.0
    t_gm = 0.10
    y_gm = y0 + t_gm * spec.length_mm
    az_gm = cz + spec.axis_bow_mm * np.cos(np.pi * t_gm)
    wm_off = spec.height_mm / 2.0 + spec.matrix_margin_mm[2] / 2.0
    return {
        "GM": EllipsoidROI((cx, y_gm, az_gm), (0.9, 1.6, 0.7), label="GM"),
        "WM": EllipsoidROI((cx, cy, cz - wm_off), (2.5, 3.0, 0.8), label="WM"),
        "BG": EllipsoidROI((2.0, cy, 2.0), (1.5, 6.0, 1.7), label="BG"),
    }


def generate_phantom(spec: PhantomSpec, geometry: AffineGeometry) -> GeneratedPhantom:
    """Evaluate the analytic phantom at the voxel centres of ``geometry``.

    The grid is ``intensity_background`` outside the index box that can hold
    structure or matrix voxels (its bounds come from the spec, padded by one
    voxel). The box is evaluated for the structure and its matrix envelope;
    the tissue expressions (rim, core, laminae) run on the structure's voxels
    only, and the texture on the bright-lamina voxels only. Every voxel gets
    the arithmetic of a full-grid evaluation, so the same bits.
    """
    min_lamina = min(spec.srlm_thickness_mm, spec.sp_thickness_mm)
    if max(geometry.spacing[0], geometry.spacing[2]) > min_lamina / 1.5 + 1e-12:
        raise InvalidInput(
            f"in-plane spacing {geometry.spacing[0]}x{geometry.spacing[2]} mm cannot "
            f"resolve {min_lamina} mm laminae (need <= thickness/1.5)"
        )

    nx, ny, nz = geometry.dims
    sx, sy, sz = geometry.spacing
    cx = (nx - 1) * sx / 2.0
    cy = (ny - 1) * sy / 2.0
    cz = (nz - 1) * sz / 2.0
    y0 = cy - spec.length_mm / 2.0
    mx, my, mz = spec.matrix_margin_mm

    # the index box that holds every structure and matrix voxel; the head is
    # wider than the body, and the axis bows by at most |axis_bow_mm| in z
    half_x = spec.head_width_mm / 2.0 + mx
    half_z = abs(spec.axis_bow_mm) + spec.height_mm / 2.0 + mz
    box = tuple(
        slice(max(0, int(np.floor(lo / s)) - 1), min(n, int(np.ceil(hi / s)) + 2))
        for lo, hi, s, n in ((cx - half_x, cx + half_x, sx, nx),
                             (y0 - my, y0 + spec.length_mm + my, sy, ny),
                             (cz - half_z, cz + half_z, sz, nz))
    )
    # voxel-centre world coordinates on the grid's own axes, cut to the box
    x = (np.arange(nx) * sx)[box[0], None, None]
    y = (np.arange(ny) * sy)[None, box[1], None]
    z = (np.arange(nz) * sz)[None, None, box[2]]

    t = (y - y0) / spec.length_mm
    t_c = np.clip(t, 0.0, 1.0)

    # main-axis position, head widening and blunt end caps
    axis_z = cz + spec.axis_bow_mm * np.cos(np.pi * t_c)
    width_env = spec.body_width_mm + (spec.head_width_mm - spec.body_width_mm) * np.exp(
        -((t_c / spec.head_falloff) ** 2)
    )
    s = np.clip(2.0 * t - 1.0, -1.0, 1.0)
    end_cap = np.sqrt(np.maximum(0.0, 1.0 - s ** 16))
    width = width_env * end_cap
    height = spec.height_mm * end_cap

    dx = x - cx
    dz = z - axis_z
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(width > 0, dx / (width / 2.0), np.inf)
        v = np.where(height > 0, dz / (height / 2.0), np.inf)
    rho2 = u * u + v * v
    inside = (rho2 <= 1.0) & (t >= 0.0) & (t <= 1.0)

    # homogeneous matrix envelope around the structure (no end-cap pinching)
    rho_env = np.hypot(dx / (width_env / 2.0 + mx), dz / (spec.height_mm / 2.0 + mz))
    envelope = (rho_env <= 1.0) & (y >= y0 - my) & (y <= y0 + spec.length_mm + my)
    inner = np.where(envelope, spec.intensity_matrix, spec.intensity_background)

    # the structure's tissues are worked out on its own voxels only
    i, j, k = np.nonzero(inside)
    x, y, z, dx, dz, u, v, rho2, width = (
        np.broadcast_to(a, inside.shape)[i, j, k]
        for a in (x, y, z, dx, dz, u, v, rho2, width))

    m = np.hypot(dx, dz)                       # radial mm distance from the axis
    rho = np.sqrt(rho2)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_bound = np.where(rho > 1e-9, m / np.where(rho > 1e-9, rho, 1.0), np.inf)

    phi = np.arctan2(v, u)                     # u and v are finite inside
    phi_eff = phi - spec.swirl_rad_per_mm * (y - cy)
    cycle = spec.sp_thickness_mm + spec.srlm_thickness_mm
    q = (
        m
        + cycle * ((phi_eff + np.pi) / (2.0 * np.pi))
        + spec.roll_amplitude_mm
        * np.cos(2.0 * np.pi * (y - cy) / spec.roll_period_mm + 0.7)
    )

    # Hard tissue masks. Each mask is closed, so a voxel exactly on a
    # boundary belongs to the tissue that mask selects. The rim wins over
    # the core, the core over the laminae, and the structure over the matrix.
    rim = m >= m_bound - spec.alveus_thickness_mm
    # the core is homogeneous: canonical GM measurements need pure tissue
    core = m <= spec.core_fraction * width / 2.0
    bright_lamina = np.mod(q, cycle) <= spec.sp_thickness_mm

    tissue = np.where(core & ~rim, spec.intensity_bright, spec.intensity_dark)
    # the textured bright lamina is what is left once rim and core are taken
    lamina = ~rim & ~core & bright_lamina
    tissue[lamina] = spec.intensity_bright * (
        1.0 + spec.texture_amplitude * _texture(x[lamina], y[lamina], z[lamina])
    )
    inner[i, j, k] = tissue
    data = np.full(geometry.dims, spec.intensity_background, dtype=float)
    data[box] = inner

    return GeneratedPhantom(Volume(geometry, data), canonical_rois(spec, geometry))

import dataclasses

import numpy as np
import pytest

from slabrecon import (
    InvalidInput,
    PhantomSpec,
    generate_phantom,
    get_preset,
    phantom_geometry,
    relative_contrast,
    roi_stats,
)
from slabrecon.phantom import DEFAULT_INPLANE_FOV_MM, _texture


def test_generation_is_deterministic(standard_phantom):
    again = generate_phantom(PhantomSpec(), phantom_geometry(46))
    assert np.array_equal(standard_phantom.volume.data, again.volume.data)


def test_canonical_rois_land_on_pure_tissue(standard_phantom):
    spec = PhantomSpec()
    vol = standard_phantom.volume
    gm = roi_stats(vol, standard_phantom.rois["GM"])
    wm = roi_stats(vol, standard_phantom.rois["WM"])
    bg = roi_stats(vol, standard_phantom.rois["BG"])
    assert gm.mean == spec.intensity_bright and gm.std == 0.0
    assert wm.mean == spec.intensity_matrix and wm.std == 0.0
    assert bg.mean == 0.0 and bg.std == 0.0
    assert min(gm.count, wm.count, bg.count) >= 10
    assert bg.count >= 500


def test_default_relative_contrast_oracle(standard_phantom):
    # hand-computed: 2 * (150 - 100) / (150 + 100) = 0.4
    gm = roi_stats(standard_phantom.volume, standard_phantom.rois["GM"])
    wm = roi_stats(standard_phantom.volume, standard_phantom.rois["WM"])
    assert abs(relative_contrast(gm, wm) - 0.4) <= 1e-12


def test_dark_lamina_thickness_in_voxels(standard_phantom):
    # scan the central row of several middle slices and measure runs of the
    # dark lamina intensity between bright neighbours
    spec = PhantomSpec()
    vol = standard_phantom.volume
    nx, ny, nz = vol.dims
    runs = []
    for j in range(ny // 2 - 3, ny // 2 + 4):
        plane = vol.data[:, j, :]
        row = plane[:, int(round(np.argmax(plane.sum(axis=0))))]
        dark = row == spec.intensity_dark
        x = 0
        while x < nx:
            if dark[x]:
                start = x
                while x < nx and dark[x]:
                    x += 1
                before = row[start - 1] if start > 0 else 0.0
                after = row[x] if x < nx else 0.0
                if before > spec.intensity_matrix and after > spec.intensity_matrix:
                    runs.append(x - start)
            else:
                x += 1
    assert runs, "no lamina crossings found"
    assert 2 <= np.median(runs) <= 4
    assert max(runs) <= 5


def test_head_wider_than_body(standard_phantom):
    vol = standard_phantom.volume
    fg = vol.data > 0.0
    widths = fg.any(axis=2).sum(axis=0)  # in-plane x extent per slice
    n = len(widths)
    head = widths[int(0.08 * n):int(0.22 * n)].max()
    body = widths[int(0.45 * n):int(0.60 * n)].max()
    assert head > body


def test_unresolvable_spacing_rejected():
    geom = phantom_geometry(46, spacing=(0.6, 1.2, 0.6))
    with pytest.raises(InvalidInput):
        generate_phantom(PhantomSpec(), geom)


def test_spec_validation():
    with pytest.raises(InvalidInput):
        PhantomSpec(head_width_mm=9.0)  # narrower than the body
    with pytest.raises(InvalidInput):
        PhantomSpec(srlm_thickness_mm=0.0)
    with pytest.raises(InvalidInput):
        PhantomSpec(texture_amplitude=0.5)


def test_bright_lamina_stays_above_matrix(standard_phantom):
    spec = PhantomSpec()
    data = standard_phantom.volume.data
    bright = data[data > spec.intensity_matrix]
    assert bright.min() > spec.intensity_matrix
    assert bright.max() <= spec.intensity_bright * (1 + spec.texture_amplitude) + 1e-9


def test_intensities_follow_spec_overrides():
    spec = dataclasses.replace(PhantomSpec(), intensity_bright=200.0,
                               intensity_matrix=50.0, texture_amplitude=0.0)
    ph = generate_phantom(spec, phantom_geometry(46))
    values = set(np.unique(ph.volume.data))
    assert values == {0.0, 50.0, 80.0, 200.0}


@pytest.mark.parametrize("spec", [
    PhantomSpec(),
    PhantomSpec(sp_thickness_mm=1.3, texture_amplitude=0.1),
], ids=["default", "thick_lamina_weak_texture"])
@pytest.mark.parametrize("preset", ["ns_7t_32ch_t2w_interleaved", "cmrr_7t_16ch_t2w_interleaved"])
def test_texture_matches_the_full_grid_formula(preset, spec):
    # the texture is evaluated on lamina voxels only; each one must carry the
    # bits of the formula evaluated on the whole grid
    p = get_preset(preset)
    geometry = phantom_geometry(p.build_layout().final_slices, p.voxel_mm)
    data = generate_phantom(spec, geometry).volume.data
    (nx, ny, nz), (sx, sy, sz) = geometry.dims, geometry.spacing
    x = (np.arange(nx) * sx)[:, None, None]
    y = (np.arange(ny) * sy)[None, :, None]
    z = (np.arange(nz) * sz)[None, None, :]
    expected = spec.intensity_bright * (1.0 + spec.texture_amplitude * _texture(x, y, z))
    constants = [spec.intensity_bright, spec.intensity_dark, spec.intensity_matrix,
                 spec.intensity_background]
    textured = ~np.isin(data, constants)
    assert textured.any()
    assert data[textured].tobytes() == expected[textured].tobytes()


@pytest.mark.parametrize("preset", ["ns_7t_32ch_t2w_interleaved", "cmrr_7t_16ch_t2w_interleaved",
                                    "cmrr_7t_32ch_t2w_interleaved4"])
def test_texture_stays_inside_the_dark_rim(preset):
    # the dark outer rim separates the textured lamina from the matrix and the
    # background; a textured rim would put texture next to them all around
    spec = PhantomSpec()
    p = get_preset(preset)
    data = generate_phantom(spec, phantom_geometry(p.build_layout().final_slices,
                                                   p.voxel_mm)).volume.data
    textured = ~np.isin(data, [spec.intensity_bright, spec.intensity_dark,
                               spec.intensity_matrix, spec.intensity_background])
    outer = np.isin(data, [spec.intensity_matrix, spec.intensity_background])
    touches_outer = np.zeros_like(outer)
    for axis in (0, 2):   # in-plane neighbours; the grid edge is background, far from texture
        touches_outer |= np.roll(outer, 1, axis) | np.roll(outer, -1, axis)
    assert textured.any()
    assert (textured & touches_outer).sum() <= 0.01 * textured.sum()


def _drawn_specs(count, seed):
    # anatomies drawn in the cohort's ranges: lamina thicknesses in their
    # plausible ranges, length x0.9-1.05, widths x0.9-1.1 and x0.95-1.1
    rng = np.random.default_rng(seed)
    base = PhantomSpec()
    return [dataclasses.replace(
        base,
        srlm_thickness_mm=rng.uniform(0.5, 1.0), sp_thickness_mm=rng.uniform(0.5, 1.5),
        length_mm=base.length_mm * rng.uniform(0.9, 1.05),
        body_width_mm=base.body_width_mm * rng.uniform(0.9, 1.1),
        head_width_mm=base.head_width_mm * rng.uniform(0.95, 1.1),
        axis_bow_mm=rng.uniform(0.6, 1.8), swirl_rad_per_mm=rng.uniform(0.0, 0.04),
    ) for _ in range(count)]


def _full_grid_oracle(spec, geometry):
    """The phantom formulas on every voxel of the grid: ``(data, inside | envelope)``."""
    (nx, ny, nz), (sx, sy, sz) = geometry.dims, geometry.spacing
    x = (np.arange(nx) * sx)[:, None, None]
    y = (np.arange(ny) * sy)[None, :, None]
    z = (np.arange(nz) * sz)[None, None, :]
    cx, cy, cz = (nx - 1) * sx / 2.0, (ny - 1) * sy / 2.0, (nz - 1) * sz / 2.0
    y0 = cy - spec.length_mm / 2.0
    t = (y - y0) / spec.length_mm
    t_c = np.clip(t, 0.0, 1.0)
    axis_z = cz + spec.axis_bow_mm * np.cos(np.pi * t_c)
    width_env = spec.body_width_mm + (spec.head_width_mm - spec.body_width_mm) * np.exp(
        -((t_c / spec.head_falloff) ** 2))
    end_cap = np.sqrt(np.maximum(0.0, 1.0 - np.clip(2.0 * t - 1.0, -1.0, 1.0) ** 16))
    width, height = width_env * end_cap, spec.height_mm * end_cap
    dx, dz = x - cx, z - axis_z
    with np.errstate(divide="ignore", invalid="ignore"):
        u = np.where(width > 0, dx / (width / 2.0), np.inf)
        v = np.where(height > 0, dz / (height / 2.0), np.inf)
    rho2 = u * u + v * v
    inside = (rho2 <= 1.0) & (t >= 0.0) & (t <= 1.0)
    mx, my, mz = spec.matrix_margin_mm
    rho_env = np.hypot(dx / (width_env / 2.0 + mx), dz / (spec.height_mm / 2.0 + mz))
    envelope = (rho_env <= 1.0) & (y >= y0 - my) & (y <= y0 + spec.length_mm + my)

    m = np.hypot(dx, dz)
    rho = np.sqrt(rho2)
    with np.errstate(divide="ignore", invalid="ignore"):
        m_bound = np.where(rho > 1e-9, m / np.where(rho > 1e-9, rho, 1.0), np.inf)
    phi = np.arctan2(v, np.where(np.isfinite(u), u, 1.0))
    cycle = spec.sp_thickness_mm + spec.srlm_thickness_mm
    q = (m + cycle * ((phi - spec.swirl_rad_per_mm * (y - cy) + np.pi) / (2.0 * np.pi))
         + spec.roll_amplitude_mm * np.cos(2.0 * np.pi * (y - cy) / spec.roll_period_mm + 0.7))
    rim = m >= m_bound - spec.alveus_thickness_mm
    core = m <= spec.core_fraction * width / 2.0
    lamina = inside & ~rim & ~core & (np.mod(q, cycle) <= spec.sp_thickness_mm)
    data = np.select(
        [inside & rim, inside & core, lamina, inside, envelope],
        [spec.intensity_dark, spec.intensity_bright,
         spec.intensity_bright * (1.0 + spec.texture_amplitude * _texture(x, y, z)),
         spec.intensity_dark, spec.intensity_matrix],
        default=spec.intensity_background)
    return data, inside | envelope


@pytest.mark.parametrize("spec", [PhantomSpec(), *_drawn_specs(3, seed=20)],
                         ids=["default", "drawn0", "drawn1", "drawn2"])
@pytest.mark.parametrize("fov", [DEFAULT_INPLANE_FOV_MM, (12.0, 6.0)], ids=["fov", "small_fov"])
@pytest.mark.parametrize("preset", ["ns_7t_32ch_t2w_interleaved", "cmrr_7t_16ch_t2w_interleaved",
                                    "cmrr_7t_32ch_t2w_interleaved4"])
def test_structure_voxels_match_the_full_grid_oracle(preset, fov, spec):
    # the phantom is evaluated on a bounding box, and its tissues on the
    # structure's voxels only; no structure or matrix voxel may fall outside
    # the box, whether the FOV holds the whole structure or cuts through it,
    # and every voxel keeps the bits of the formulas on the whole grid
    p = get_preset(preset)
    geometry = phantom_geometry(p.build_layout().final_slices, p.voxel_mm, fov)
    data = generate_phantom(spec, geometry).volume.data
    expected, structure = _full_grid_oracle(spec, geometry)
    assert structure.any()
    assert np.array_equal(data != spec.intensity_background, structure)
    assert data.tobytes() == expected.tobytes()


def test_fov_that_misses_the_structure_is_all_background():
    # two slices 60 mm apart straddle the 42 mm structure and its margins
    geometry = phantom_geometry(2, (0.3, 60.0, 0.3))
    spec = PhantomSpec(intensity_background=5.0)
    data = generate_phantom(spec, geometry).volume.data
    assert not _full_grid_oracle(spec, geometry)[1].any()
    assert np.array_equal(data, np.full(geometry.dims, 5.0))


@pytest.mark.parametrize("length", [0.0, -5.0])
def test_length_not_positive_rejected(length):
    with pytest.raises(InvalidInput, match="length"):
        PhantomSpec(length_mm=length)


@pytest.mark.parametrize("width", [0.0, -1.0])
def test_body_width_not_positive_rejected(width):
    with pytest.raises(InvalidInput, match="body width"):
        PhantomSpec(body_width_mm=width)


@pytest.mark.parametrize("margin", [(-0.1, 3.0, 2.6), (3.2, -1.0, 2.6), (3.2, 3.0, -2.6)])
def test_negative_matrix_margin_rejected(margin):
    with pytest.raises(InvalidInput, match="margin"):
        PhantomSpec(matrix_margin_mm=margin)


@pytest.mark.parametrize("falloff", [0.0, -0.18])
def test_head_falloff_not_positive_rejected(falloff):
    with pytest.raises(InvalidInput, match="falloff"):
        PhantomSpec(head_falloff=falloff)


@pytest.mark.parametrize("period", [0.0, -3.6])
def test_roll_period_not_positive_rejected(period):
    with pytest.raises(InvalidInput, match="roll period"):
        PhantomSpec(roll_period_mm=period)


@pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.34])
def test_core_fraction_outside_the_open_unit_interval_rejected(fraction):
    with pytest.raises(InvalidInput, match="core fraction"):
        PhantomSpec(core_fraction=fraction)


def test_phantom_grid_with_no_finite_column_count_rejected():
    # 1.7e308 / 0.3 overflows to inf; int(round(inf)) would raise OverflowError
    with pytest.raises(InvalidInput, match="no finite column count"):
        phantom_geometry(80, (0.3, 1.2, 0.3), (1.7e308, 10.0))

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
from slabrecon.phantom import _texture


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

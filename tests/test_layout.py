import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slabrecon import (
    AffineGeometry,
    ContiguousLayout,
    InterleavedLayout,
    InvalidInput,
    LayoutMismatch,
    MotionScenario,
    NestedLayout,
    PRESETS,
    RigidTransform,
    Volume,
    get_preset,
    pad_slab,
    phantom_geometry,
    prepare_reference,
    simulate_acquisition,
    split_volume,
    write_volume,
)
from slabrecon.cli import main
from slabrecon.geometry import index_map
from slabrecon.layout import layout_from_dict
from slabrecon.volume import in_field


def stack_volume(layout, seed=0, nx=6, nz=5):
    rng = np.random.default_rng(seed)
    g = AffineGeometry((nx, layout.final_slices, nz),
                       (0.3, layout.slice_thickness_mm, 0.3))
    return Volume(g, rng.uniform(1, 100, size=g.dims))


# --- layout arithmetic -------------------------------------------------------

def test_interleaved_final_slices():
    assert InterleavedLayout(23, slabs=2).final_slices == 46
    assert InterleavedLayout(15, slabs=3).final_slices == 45


def test_contiguous_final_slices():
    assert ContiguousLayout(23, slabs=2, overlap_slices=1).final_slices == 45
    assert ContiguousLayout(23, slabs=2, overlap_slices=0).final_slices == 46


def test_nested_four_slab_final_slices():
    layout = get_preset("cmrr_7t_32ch_t2w_interleaved4").layout
    assert layout.num_slabs == 4
    assert layout.final_slices == 2 * (2 * 16) - 1  # two 32-slice pairs, one shared slice


def test_nested_ownership_overlap_slice():
    layout = get_preset("cmrr_7t_32ch_t2w_interleaved4").layout
    owned = [layout.owned_slices(j) for j in range(4)]
    counts = np.zeros(layout.final_slices, dtype=int)
    for indices in owned:
        counts[indices] += 1
    assert counts[31] == 2  # the shared slice between the two pairs
    assert np.all(np.delete(counts, 31) == 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(2, 3))
def test_interleaved_ownership_is_partition(n, k):
    layout = InterleavedLayout(n, slabs=k)
    counts = np.zeros(layout.final_slices, dtype=int)
    for j in range(k):
        counts[layout.owned_slices(j)] += 1
    assert np.all(counts == 1)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_contiguous_ownership_covers_with_overlap(data):
    n = data.draw(st.integers(2, 40))
    k = data.draw(st.integers(2, 4))
    overlap = data.draw(st.integers(0, (n - 1) if k == 2 else n // 2))
    layout = ContiguousLayout(n, slabs=k, overlap_slices=overlap)
    counts = np.zeros(layout.final_slices, dtype=int)
    for j in range(k):
        counts[layout.owned_slices(j)] += 1
    assert set(np.unique(counts)) <= {1, 2}
    assert (counts == 2).sum() == (k - 1) * overlap


# --- padding -----------------------------------------------------------------

def test_pad_interleaved_slab0_placement():
    layout = InterleavedLayout(23, slabs=2, slice_thickness_mm=1.2)
    g = AffineGeometry((6, 23, 5), (0.3, 2.4, 0.3))
    acquired = Volume(g, np.random.default_rng(0).uniform(1, 10, g.dims))
    padded = pad_slab(acquired, layout, 0)
    assert padded.signal.dims[1] == 46
    assert np.array_equal(padded.signal.data[:, 0::2, :], acquired.data)
    assert np.all(padded.signal.data[:, 1::2, :] == 0.0)
    # mask: 1 on acquired slices, 0 on null slices; per-column sum = 23
    assert np.all(padded.mask.data[:, 0::2, :] == 1.0)
    assert np.all(padded.mask.data[:, 1::2, :] == 0.0)
    assert np.all(padded.mask.data.sum(axis=1) == 23)


def test_pad_interleaved_slab1_parity_and_world_positions():
    layout = InterleavedLayout(23, slabs=2, slice_thickness_mm=1.2)
    g = AffineGeometry((4, 23, 4), (0.3, 2.4, 0.3), origin=(0.0, 1.2, 0.0))
    acquired = Volume(g, np.ones(g.dims))
    padded = pad_slab(acquired, layout, 1)
    assert np.all(padded.mask.data[:, 1::2, :] == 1.0)
    assert np.all(padded.mask.data[:, 0::2, :] == 0.0)
    # world position of acquired slice s equals padded slice 1+2s
    w_acq = acquired.geometry.index_to_world([[0, 3, 0]])[0]
    w_pad = padded.signal.geometry.index_to_world([[0, 1 + 2 * 3, 0]])[0]
    assert np.abs(w_acq - w_pad).max() <= 1e-9


def test_pad_contiguous_posterior_slab():
    layout = ContiguousLayout(23, slabs=2, overlap_slices=1, slice_thickness_mm=1.2)
    g = AffineGeometry((4, 23, 4), (0.3, 1.2, 0.3), origin=(0.0, 22 * 1.2, 0.0))
    acquired = Volume(g, np.full(g.dims, 3.0))
    padded = pad_slab(acquired, layout, 1)
    assert padded.signal.dims[1] == 45
    occupied = np.where(padded.mask.data[0, :, 0] == 1.0)[0]
    assert occupied[0] == 22 and occupied[-1] == 44
    assert np.all(padded.signal.data[:, :22, :] == 0.0)


def test_pad_smallest_interleaved_case():
    layout = InterleavedLayout(1, slabs=2, slice_thickness_mm=1.2)
    g = AffineGeometry((3, 1, 3), (1.0, 1.2, 1.0))
    acquired = Volume(g, np.ones(g.dims))
    p0 = pad_slab(acquired, layout, 0)
    g1 = AffineGeometry((3, 1, 3), (1.0, 1.2, 1.0), origin=(0.0, 1.2, 0.0))
    p1 = pad_slab(Volume(g1, np.ones(g1.dims)), layout, 1)
    assert p0.signal.dims[1] == 2
    assert np.array_equal(p0.mask.data + p1.mask.data, np.ones((3, 2, 3)))


def test_pad_slab_mask_zero_implies_signal_zero():
    layout = InterleavedLayout(5, slabs=2)
    g = AffineGeometry((4, 5, 4), (0.3, 2.4, 0.3))
    acquired = Volume(g, np.random.default_rng(1).uniform(1, 9, g.dims))
    padded = pad_slab(acquired, layout, 0)
    assert np.all(padded.signal.data[padded.mask.data == 0.0] == 0.0)


def test_pad_slab_slice_count_mismatch():
    layout = InterleavedLayout(23, slabs=2)
    g = AffineGeometry((4, 22, 4), (0.3, 2.4, 0.3))
    with pytest.raises(LayoutMismatch):
        pad_slab(Volume(g, np.zeros(g.dims)), layout, 0)
    with pytest.raises(LayoutMismatch):
        layout.owned_slices(2)


@pytest.mark.parametrize("layout", [
    InterleavedLayout(15, slabs=3),
    ContiguousLayout(23, slabs=2, overlap_slices=1),
    PRESETS["cmrr_7t_32ch_t2w_interleaved4"].layout,
])
def test_slab_index_out_of_range(layout):
    k = layout.num_slabs
    for j in (-1, k):
        with pytest.raises(LayoutMismatch, match=rf"^slab index {j} out of range for {k} slabs$"):
            layout.owned_slices(j)


# --- splitting ---------------------------------------------------------------

@pytest.mark.parametrize("layout", [
    InterleavedLayout(23, slabs=2, slice_thickness_mm=1.2),
    ContiguousLayout(23, slabs=2, overlap_slices=1, slice_thickness_mm=1.2),
    InterleavedLayout(15, slabs=3, slice_thickness_mm=1.2),
])
def test_split_then_pad_reassembles(layout):
    full = stack_volume(layout)
    slabs = split_volume(full, layout)
    rebuilt = np.zeros(full.dims)
    weight = np.zeros(full.dims)
    for j, slab in enumerate(slabs):
        padded = pad_slab(slab, layout, j)
        rebuilt += padded.signal.data
        weight += padded.mask.data
    assert np.array_equal(rebuilt / weight, full.data)


def test_split_interleaved_sources_disjoint():
    layout = InterleavedLayout(23, slabs=2)
    full = stack_volume(layout, seed=5)
    s0, s1 = split_volume(full, layout)
    assert s0.dims[1] == s1.dims[1] == 23
    assert np.array_equal(s0.data, full.data[:, 0::2, :])
    assert np.array_equal(s1.data, full.data[:, 1::2, :])


def test_split_contiguous_shares_overlap_slice():
    layout = ContiguousLayout(23, slabs=2, overlap_slices=1)
    full = stack_volume(layout, seed=6)
    s0, s1 = split_volume(full, layout)
    assert np.array_equal(s0.data[:, -1, :], s1.data[:, 0, :])


def test_split_dimension_mismatch():
    layout = InterleavedLayout(23, slabs=2)
    g = AffineGeometry((4, 45, 4), (0.3, 1.2, 0.3))
    with pytest.raises(LayoutMismatch):
        split_volume(Volume(g, np.zeros(g.dims)), layout)


# --- reference preparation ---------------------------------------------------

def test_prepare_reference_doubles_inplane_dim():
    g = AffineGeometry((10, 46, 14), (0.3, 1.2, 0.6))
    lr = Volume(g, np.random.default_rng(2).uniform(0, 50, g.dims))
    ref = prepare_reference(lr, (0.3, 0.3))
    assert ref.dims == (10, 46, 28)
    assert ref.geometry.spacing == (0.3, 1.2, 0.3)


def test_prepare_reference_identity_copy():
    g = AffineGeometry((8, 10, 8), (0.3, 1.2, 0.3))
    lr = Volume(g, np.random.default_rng(3).uniform(0, 50, g.dims))
    ref = prepare_reference(lr, (0.3, 0.3))
    assert np.array_equal(ref.data, lr.data)


def test_prepare_reference_constant_preserved():
    g = AffineGeometry((8, 10, 8), (0.3, 1.2, 0.6))
    lr = Volume(g, np.full(g.dims, 11.0))
    ref = prepare_reference(lr, (0.3, 0.3))
    assert np.abs(ref.data - 11.0).max() <= 1e-6


def test_prepare_reference_rejects_bad_spacing():
    g = AffineGeometry((8, 10, 8), (0.3, 1.2, 0.6))
    lr = Volume(g, np.zeros(g.dims))
    with pytest.raises(InvalidInput):
        prepare_reference(lr, (0.0, 0.3))
    with pytest.raises(InvalidInput):
        prepare_reference(lr, (0.6, 1.2))  # finer LR than target violates pre


# --- presets -----------------------------------------------------------------

def test_preset_table_values():
    p = PRESETS["ns_7t_32ch_t2w_interleaved"]
    assert p.voxel_mm == (0.3, 1.2, 0.3)
    assert p.slices_per_slab == 23
    assert p.metadata["tr_ms"] == 5000
    assert p.metadata["te_ms"] == 82.0
    assert p.metadata["refocusing_angle_deg"] == 60
    assert p.metadata["fov_mm"] == "173x173"
    assert p.metadata["acquisition_matrix"] == "576x576"
    assert p.metadata["bandwidth_hz_per_px"] == 121
    assert p.metadata["turbo_factor"] == 9
    assert isinstance(p.layout, InterleavedLayout)

    lr = PRESETS["ns_7t_32ch_t2w_lr"]
    assert lr.voxel_mm == (0.3, 1.2, 0.6)
    assert lr.final_slices == 46
    assert lr.metadata["tr_ms"] == 8000

    c16 = PRESETS["cmrr_7t_16ch_t2w_interleaved"]
    assert c16.voxel_mm == (0.25, 1.2, 0.25)
    assert c16.slices_per_slab == 30
    assert c16.final_slices == 60
    assert c16.metadata["te_ms"] == 64.0
    assert c16.metadata["bandwidth_hz_per_px"] == 175

    c32 = PRESETS["cmrr_7t_32ch_t2w_interleaved4"]
    assert c32.voxel_mm == (0.25, 1.2, 0.25)
    assert c32.slices_per_slab == 16
    assert c32.final_slices == 63
    assert c32.metadata["refocusing_angle_deg"] == 120

    gre = PRESETS["ns_7t_32ch_t2star_gre3"]
    assert gre.layout.slabs == 3
    assert gre.final_slices == 45
    assert gre.metadata["tr_ms"] == 791

    assert PRESETS["cmrr_7t_16ch_t2w_lr"].final_slices == 60
    assert PRESETS["cmrr_7t_32ch_t2w_lr"].final_slices == 62


def test_expected_preset_names_exist():
    expected = {
        "ns_7t_32ch_t2w_interleaved", "ns_7t_32ch_t2w_contiguous",
        "ns_7t_32ch_t2w_lr", "cmrr_7t_16ch_t2w_interleaved",
        "cmrr_7t_16ch_t2w_lr", "cmrr_7t_32ch_t2w_interleaved4",
        "cmrr_7t_32ch_t2w_lr", "ns_7t_32ch_t2star_gre3",
    }
    assert expected == set(PRESETS)


def test_unknown_preset_rejected():
    with pytest.raises(InvalidInput):
        get_preset("nope")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_layout_from_dict_inverts_to_dict(name):
    layout = PRESETS[name].build_layout()
    assert layout_from_dict(layout.to_dict()) == layout


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_padded_slab_grid_lies_inside_reference(name):
    # the LR grid rounds n * s / s' half up, so an odd HR column count still
    # leaves the reference covering every padded-slab voxel
    preset = PRESETS[name]
    layout = preset.build_layout()
    geom = phantom_geometry(layout.final_slices, preset.voxel_mm)
    ds = simulate_acquisition(Volume(geom, np.zeros(geom.dims)), layout,
                              MotionScenario.identity(layout.num_slabs))
    pad = pad_slab(ds.slabs[0], layout, 0).signal.geometry
    reference = prepare_reference(ds.lr, (preset.voxel_mm[0], preset.voxel_mm[2]))
    m = index_map(pad, RigidTransform.identity(), reference.geometry)
    idx = m[:, :3] @ np.indices(pad.dims, dtype=float).reshape(3, -1) + m[:, 3:]
    assert in_field(idx, reference.dims).all()


_CHILD = {"kind": "interleaved", "slices_per_slab": 4}


@pytest.mark.parametrize("spec, message", [
    ({**_CHILD, "slices_per_slab": 0}, "slices_per_slab must be >= 1"),
    ({**_CHILD, "slice_thickness_mm": 0}, "slice thickness must be > 0"),
    ({**_CHILD, "slabs": 1}, "interleaved layout needs at least 2 slabs"),
    ({"kind": "contiguous", "slices_per_slab": 4, "slabs": 0},
     "contiguous layout needs at least 1 slab"),
    ({"kind": "contiguous", "slices_per_slab": 4, "overlap_slices": 4},
     "overlap must be in [0, slices_per_slab)"),
    ({"kind": "contiguous", "slices_per_slab": 4, "slabs": 3, "overlap_slices": 3},
     "overlap must not exceed half a slab for 3+ slabs"),
    ({"kind": "nested", "children": [_CHILD]}, "nested layout needs at least 2 children"),
    ({"kind": "nested", "children": [_CHILD, {**_CHILD, "slices_per_slab": 5}]},
     "nested children must share slice count and thickness"),
    ({"kind": "nested", "children": [_CHILD, _CHILD], "overlap_slices": -1},
     "overlap must be >= 0"),
    ({**_CHILD, "kind": "spiral"}, "unknown layout kind 'spiral'"),
], ids=["no_slices", "zero_thickness", "one_interleaved_slab", "no_contiguous_slab",
        "overlap_a_whole_slab", "overlap_over_half_a_slab", "one_child", "unequal_children",
        "negative_overlap", "unknown_kind"])
def test_layout_file_the_layout_refuses_is_usage_error(tmp_path, capsys, spec, message):
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(json.dumps(spec))
    code = main(["simulate", "--out", str(tmp_path / "sim"), "--layout", str(layout_file)])
    err = capsys.readouterr().err
    assert code == 2
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "sim").exists()


def test_register_with_a_slab_spacing_other_than_the_layout_is_data_error(tmp_path, capsys):
    # two interleaved slabs of 1.2 mm slices: each slab's slices lie 2.4 mm apart
    # (1.5 mm is exact in the float32 header, so the message shows it as given)
    layout_file = tmp_path / "layout.json"
    layout_file.write_text(json.dumps(_CHILD))
    slab = tmp_path / "slab.nii"
    write_volume(Volume(AffineGeometry((6, 4, 5), (0.3, 1.5, 0.3)), np.ones((6, 4, 5))), slab)
    code = main(["register", "--layout", str(layout_file), "--slab", str(slab), "--lr", str(slab),
                 "--slab-index", "0", "--out", str(tmp_path / "reg")])
    err = capsys.readouterr().err
    assert code == 4
    assert "acquired slice spacing 1.5 mm does not match layout slab spacing 2.4 mm" in err
    assert not (tmp_path / "reg").exists()

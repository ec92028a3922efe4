"""Command-line interface: simulate, reconstruct, register, qc.

Exit codes: 0 success, 2 usage/config error, 3 registration failure,
4 data error. Every number printed to the console is also present in the
JSON report written next to the output volumes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from .config import PipelineConfig, parse_config_file, resolve_config
from .errors import (
    ConfigError,
    InvalidInput,
    RegistrationFailed,
    SlabreconError,
)
from .fusion import fuse, reconstruct
from .geometry import RigidTransform
from .layout import (
    InterleavedLayout,
    SlabLayout,
    get_preset,
    layout_from_dict,
    pad_slab,
    prepare_reference,
)
from .nifti import read_volume, write_volume
from .phantom import PhantomSpec, generate_phantom, phantom_geometry
from .qc import compute_qc, load_rois, save_rois, shift_index
from .registration import register_rigid
from .reports import run_report, write_json
from .simulate import MotionScenario, simulate_acquisition

_USAGE_EXIT = 2
_REGISTRATION_EXIT = 3
_DATA_EXIT = 4


def resolve_layout(name: str) -> tuple[SlabLayout, tuple[float, float, float]]:
    """Preset name or path to a JSON layout file -> (layout, voxel spacing)."""
    if os.path.exists(name):
        with open(name, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        layout = layout_from_dict(spec)
        voxel = tuple(spec.get("voxel_mm", (0.3, layout.slice_thickness_mm, 0.3)))
        return layout, voxel
    preset = get_preset(name)
    return preset.build_layout(), preset.voxel_mm


def _load_config(args) -> PipelineConfig:
    file_values = parse_config_file(args.config) if args.config else None
    overrides = {}
    for key in ("layout", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    return resolve_config(file_values, **overrides)


def _default_scenario(config: PipelineConfig, num_slabs: int, center) -> MotionScenario:
    transforms = config.scenario_transforms(num_slabs, center)
    if config.scenario is None and num_slabs >= 2:
        # modest coil-possible motion on the second slab
        transforms[1] = RigidTransform(
            rotation=(np.radians(1.5), 0.0, 0.0),
            translation=(0.0, 0.0, 0.6),
            center=center,
        )
    return MotionScenario(tuple(transforms), noise_sigma_pct=config.noise_sigma_pct)


def cmd_simulate(args) -> int:
    config = _load_config(args)
    layout, voxel = resolve_layout(config.layout)
    spec = PhantomSpec(
        length_mm=config.phantom_length_mm,
        height_mm=config.phantom_height_mm,
        body_width_mm=config.phantom_body_width_mm,
        head_width_mm=config.phantom_head_width_mm,
    )
    geometry = phantom_geometry(layout.final_slices, voxel, tuple(config.phantom_fov_mm))
    phantom = generate_phantom(spec, geometry)
    scenario = _default_scenario(config, layout.num_slabs, phantom.volume.geometry.world_center())
    lr_spacing = (voxel[0], voxel[1], config.lr_inplane_factor * voxel[2])
    dataset = simulate_acquisition(
        phantom.volume, layout, scenario, lr_spacing=lr_spacing,
        seed=config.seed, rois=phantom.rois,
    )

    os.makedirs(args.out, exist_ok=True)
    write_volume(dataset.ground_truth, os.path.join(args.out, "truth.nii.gz"))
    slab_paths = []
    for j, slab in enumerate(dataset.slabs):
        name = f"slab_{j:02d}.nii.gz"
        write_volume(slab, os.path.join(args.out, name))
        slab_paths.append(name)
    write_volume(dataset.lr, os.path.join(args.out, "lr.nii.gz"))
    save_rois(dataset.rois, os.path.join(args.out, "rois.json"))
    write_json(os.path.join(args.out, "scenario.json"), {
        "config": config.to_dict(),
        "layout": layout.to_dict(),
        "seed": config.seed,
        "scenario": scenario.to_dict(),
        "files": {"truth": "truth.nii.gz", "lr": "lr.nii.gz", "slabs": slab_paths},
    })
    print(f"simulated {len(dataset.slabs)} slabs + LR reference into {args.out}")
    return 0


def _shift_before_registration(slabs, layout, config):
    if not isinstance(layout, InterleavedLayout):
        return None
    padded = [pad_slab(slab, layout, j) for j, slab in enumerate(slabs)]
    return shift_index(
        padded, layout,
        threshold=config.shift_threshold,
        foreground_fraction=config.foreground_fraction,
    )


def cmd_reconstruct(args) -> int:
    t_start = time.perf_counter()
    config = _load_config(args)
    layout, _ = resolve_layout(config.layout)
    slabs = [read_volume(p) for p in args.slabs]
    lr = read_volume(args.lr)

    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.json")
    try:
        shift = _shift_before_registration(slabs, layout, config)
        fusion, results = reconstruct(
            slabs, layout, lr,
            reg_config=config.registration_config(),
            epsilon=config.fusion_epsilon,
        )
    except SlabreconError as exc:
        write_json(report_path, run_report(
            config.to_dict(),
            error={"type": type(exc).__name__, "message": str(exc)},
        ))
        raise

    write_volume(fusion.fused, os.path.join(args.out, "fused.nii.gz"))
    write_volume(fusion.coverage_map, os.path.join(args.out, "coverage.nii.gz"))
    write_volume(fusion.mask_sum, os.path.join(args.out, "mask_sum.nii.gz"))
    report = run_report(
        config.to_dict(),
        registrations=[r.to_dict() for r in results],
        fusion=fusion.to_dict(),
        qc={"shift_preregistration": shift.to_dict() if shift else None},
        timing_s={"total": time.perf_counter() - t_start},
    )
    write_json(report_path, report)

    for j, r in enumerate(results):
        print(f"slab {j}: final NMI {r.final_nmi:.6f}")
    print(f"uncovered fraction: {fusion.uncovered_fraction:.6f}")
    if shift is not None:
        print(f"between-slab shift flag: {shift.flag} "
              f"(rho {shift.rho}, rho0 {shift.rho0})")
    return 0


def cmd_register(args) -> int:
    config = _load_config(args)
    layout, _ = resolve_layout(config.layout)
    slab = read_volume(args.slab)
    lr = read_volume(args.lr)
    padded = pad_slab(slab, layout, args.slab_index)
    reference = prepare_reference(lr, (slab.geometry.spacing[0], slab.geometry.spacing[2]))
    result = register_rigid(padded, reference, config.registration_config())
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "transform.json"), {
        "config": config.to_dict(),
        "slab_index": args.slab_index,
        "result": result.to_dict(),
    })
    print(f"slab {args.slab_index}: final NMI {result.final_nmi:.6f}")
    return 0


def cmd_qc(args) -> int:
    config = _load_config(args)
    volume = read_volume(args.volume)
    rois = load_rois(args.rois)
    shift = None
    if args.layout is not None:
        layout, _ = resolve_layout(config.layout)
        target = volume
        if args.coverage is not None:
            coverage = read_volume(args.coverage)
            from .fusion import FusionOutput  # local import to keep startup light

            mask_sum = coverage  # coverage doubles as weight for reporting only
            target = FusionOutput(volume, mask_sum, coverage,
                                  1.0 - float(coverage.data.mean()))
        shift = shift_index(
            target, layout,
            threshold=config.shift_threshold,
            foreground_fraction=config.foreground_fraction,
        )
    qc = compute_qc(volume, rois, shift)
    os.makedirs(args.out, exist_ok=True)
    write_json(os.path.join(args.out, "qc.json"), {
        "config": config.to_dict(),
        "qc": qc.to_dict(),
    })
    if qc.rc is not None:
        print(f"RC: {qc.rc:.6f}")
    if qc.snr is not None:
        print(f"SNR: {qc.snr:.6f}")
    if shift is not None:
        print(f"shift flag: {shift.flag} (rho {shift.rho}, rho0 {shift.rho0})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slabrecon",
        description="multi-slab volume reconstruction, simulation and QC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--layout", help="layout preset name or JSON layout file")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a synthetic multi-slab dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("reconstruct", help="combine slabs + LR reference into one volume")
    common(p)
    p.add_argument("--slabs", nargs="+", required=True, help="acquired slab volumes, in slab order")
    p.add_argument("--lr", required=True, help="low-resolution reference volume")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("register", help="register a single padded slab to the reference")
    common(p)
    p.add_argument("--slab", required=True, help="acquired slab volume")
    p.add_argument("--lr", required=True, help="low-resolution reference volume")
    p.add_argument("--slab-index", type=int, required=True, help="slab position in the layout")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("qc", help="quality metrics for a reconstructed volume")
    common(p)
    p.add_argument("--volume", required=True, help="volume to evaluate")
    p.add_argument("--rois", required=True, help="ROI sidecar JSON")
    p.add_argument("--coverage", help="coverage map volume (optional)")
    p.set_defaults(func=cmd_qc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _USAGE_EXIT
    except RegistrationFailed as exc:
        print(f"registration failed: {exc}", file=sys.stderr)
        return _REGISTRATION_EXIT
    except SlabreconError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _DATA_EXIT


if __name__ == "__main__":
    sys.exit(main())

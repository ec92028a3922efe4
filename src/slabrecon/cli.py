"""Command-line interface: simulate, reconstruct, register, qc.

Exit codes: 0 success, 2 usage/config error, 3 registration failure,
4 data error. A bad flag, config file or layout file, a pyramid stride too
coarse for the slab grid read (``registration.check_strides``), an ``--out``
directory that cannot be created and an output file that cannot be written
exit 2. An input NIfTI volume or ROI sidecar that cannot be read or parsed
(missing, a directory, a truncated or corrupt ``.gz``), an unknown preset
and data that disagree with the layout exit 4. Every command makes ``--out``
once its config and inputs are loaded and checked, before it simulates,
registers or measures: an input error leaves no directory, a later failure
leaves the directory as it stands. Every number printed to the console is
also present in the JSON report written next to the output volumes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .config import parse_config_file, resolve_config
from .errors import (
    ConfigError,
    InvalidInput,
    RegistrationFailed,
    SlabreconError,
)
from .fusion import reconstruct
from .layout import InterleavedLayout, pad_slab, prepare_reference
from .nifti import read_volume, write_volume
from .phantom import generate_phantom
from .qc import compute_qc, load_rois, save_rois, shift_index
from .registration import check_strides, register_rigid
from .reports import run_report, write_json
from .simulate import simulate_acquisition

_USAGE_EXIT = 2
_REGISTRATION_EXIT = 3
_DATA_EXIT = 4


def _make_out(path):
    """Create the output directory ``path``; one that cannot be made is a usage error."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {path}: {exc.strerror or exc}") from exc


def _check_strides(config, slabs):
    """The pyramid against each slab's in-plane grid (``check_strides``): a usage error."""
    try:
        for slab in slabs:
            check_strides(config.pyramid, slab.dims)
    except InvalidInput as exc:
        raise ConfigError(f"configuration: pyramid: {exc}") from None


def _load_config(args):
    """``resolve_config``'s ``(config, layout, phantom_grid)`` from the config file and
    the common flags, and whether ``--layout`` or the config file named the layout."""
    file_values = parse_config_file(args.config) if args.config else {}
    named = args.layout is not None or "layout" in file_values
    return (*resolve_config(file_values, layout=args.layout, seed=args.seed), named)


def cmd_simulate(args) -> int:
    config, layout, geometry, _ = _load_config(args)
    phantom = generate_phantom(config.phantom_spec(), geometry)
    scenario = config.motion_scenario(layout.num_slabs, geometry.world_center())

    _make_out(args.out)
    dataset = simulate_acquisition(phantom.volume, layout, scenario,
                                   lr_inplane_factor=config.lr_inplane_factor, seed=config.seed)
    write_volume(dataset.ground_truth, os.path.join(args.out, "truth.nii.gz"))
    slab_paths = []
    for j, slab in enumerate(dataset.slabs):
        name = f"slab_{j:02d}.nii.gz"
        write_volume(slab, os.path.join(args.out, name))
        slab_paths.append(name)
    write_volume(dataset.lr, os.path.join(args.out, "lr.nii.gz"))
    save_rois(phantom.rois, os.path.join(args.out, "rois.json"))
    write_json(os.path.join(args.out, "scenario.json"), {
        "config": config.to_dict(),
        "layout": layout.to_dict(),
        "seed": config.seed,
        "scenario": scenario.to_dict(),
        "files": {"truth": "truth.nii.gz", "lr": "lr.nii.gz", "slabs": slab_paths},
    })
    print(f"simulated {len(dataset.slabs)} slabs + LR reference into {args.out}")
    return 0


def _shift_index(stack, layout, config):
    """Shift index of a volume or of padded slabs (an iterable, consumed only
    for an interleaved layout); None for other layouts, where it is undefined,
    and for no layout."""
    if not isinstance(layout, InterleavedLayout):
        return None
    return shift_index(
        stack, layout,
        threshold=config.shift_threshold,
        foreground_fraction=config.foreground_fraction,
    )


def cmd_reconstruct(args) -> int:
    t_start = time.perf_counter()
    config, layout, _, _ = _load_config(args)
    slabs = [read_volume(p) for p in args.slabs]
    lr = read_volume(args.lr)
    _check_strides(config, slabs)

    _make_out(args.out)
    report_path = os.path.join(args.out, "report.json")
    try:
        shift = _shift_index((pad_slab(slab, layout, j) for j, slab in enumerate(slabs)),
                             layout, config)
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
        timing_s={"total": time.perf_counter() - t_start,
                  "register_s": [r.seconds for r in results]},
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
    config, layout, _, _ = _load_config(args)
    slab = read_volume(args.slab)
    lr = read_volume(args.lr)
    padded = pad_slab(slab, layout, args.slab_index)
    reference = prepare_reference(lr, (slab.geometry.spacing[0], slab.geometry.spacing[2]))
    _check_strides(config, [slab])

    _make_out(args.out)
    result = register_rigid(padded, reference, config.registration_config())
    write_json(os.path.join(args.out, "transform.json"), {
        "config": config.to_dict(),
        "slab_index": args.slab_index,
        "result": result.to_dict(),
    })
    print(f"slab {args.slab_index}: final NMI {result.final_nmi:.6f}")
    return 0


def cmd_qc(args) -> int:
    config, layout, _, named = _load_config(args)
    volume = read_volume(args.volume)
    rois = load_rois(args.rois)
    stack = volume
    if args.coverage is not None:
        coverage = read_volume(args.coverage)
        if not coverage.geometry.same_grid(volume.geometry, tol=1e-6):
            raise InvalidInput("coverage map and volume must share one grid")
        stack = volume.with_data(np.where(coverage.data >= 0.5, volume.data, 0.0))

    _make_out(args.out)
    # the shift index needs a layout named by --layout or the config file
    shift = _shift_index(stack, layout if named else None, config)
    qc = compute_qc(volume, rois)
    write_json(os.path.join(args.out, "qc.json"), {
        "config": config.to_dict(),
        "qc": {**qc.to_dict(), "shift": shift.to_dict() if shift else None},
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

    p = sub.add_parser("reconstruct", help="combine slabs + LR reference into one volume",
                       description="Combine slabs + LR reference into one volume. Linux only: "
                                   "the slabs register and reslice in forked workers, one "
                                   "per CPU that os.sched_getaffinity reports.")
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
    p.add_argument("--coverage",
                   help="coverage map on the volume's grid; the shift index ignores "
                        "voxels where it is < 0.5")
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

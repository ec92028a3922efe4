"""Mask-normalized fusion of registered slabs into one consistent volume.

The fused intensity is the sum of registered signals divided by the sum of
registered masks, which keeps intensities consistent wherever slabs
overlap partially. Voxels whose mask sum stays below a small floor are
declared uncovered and set to zero rather than inpainted: information loss
is something to detect, not to hide.
"""

from __future__ import annotations

import multiprocessing
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, RegistrationFailed
from .layout import SlabLayout, pad_slab, prepare_reference
from .registration import (
    RegistrationConfig,
    RegistrationResult,
    apply_result,
    register_rigid,
)
from .volume import Volume

DEFAULT_EPSILON = 0.05
UNCOVERED_WARN_FRACTION = 0.02


@dataclass(frozen=True)
class FusionOutput:
    fused: Volume
    mask_sum: Volume
    coverage_map: Volume
    uncovered_fraction: float

    def to_dict(self) -> dict:
        return {
            "uncovered_fraction": self.uncovered_fraction,
            "covered_voxels": int(self.coverage_map.data.sum()),
            "total_voxels": self.fused.geometry.n_voxels,
        }


def _canonical_sum(arrays: list[np.ndarray]) -> np.ndarray:
    """Per-voxel sum in ascending order, the bits of ``np.sort(np.stack(arrays),
    axis=0).sum(axis=0)``: an odd-even transposition network of elementwise
    min/max sorts each voxel's values, then they are added to 0 first to last."""
    values = list(arrays)
    for rnd in range(len(values)):
        for i in range(rnd % 2, len(values) - 1, 2):
            values[i:i + 2] = np.minimum(*values[i:i + 2]), np.maximum(*values[i:i + 2])
    return sum(values)


def fuse(signals: list[Volume], masks: list[Volume],
         epsilon: float = DEFAULT_EPSILON) -> FusionOutput:
    """Divide the summed signals by the summed masks where coverage suffices.

    Masks are fractional weights in [0, 1]. Summation happens in a
    canonical per-voxel order so the output is bit-identical under any
    permutation of the input slabs.
    """
    if len(signals) == 0 or len(signals) != len(masks):
        raise InvalidInput("need the same non-zero number of signals and masks")
    if epsilon <= 0:
        raise InvalidInput("epsilon must be > 0")
    geom = signals[0].geometry
    for vol in list(signals[1:]) + list(masks):
        if not vol.geometry.same_grid(geom, tol=1e-6):
            raise InvalidInput("all signals and masks must share one grid")
    for m in masks:
        lo, hi = m.value_range()
        if lo < -1e-6 or hi > 1.0 + 1e-6:
            raise InvalidInput(f"mask values [{lo:.3f}, {hi:.3f}] outside [0, 1]")

    signal_sum = _canonical_sum([s.data for s in signals])
    mask_sum = _canonical_sum([m.data for m in masks])
    covered = mask_sum >= epsilon
    fused = np.zeros(geom.dims)   # uncovered voxels stay 0
    np.divide(signal_sum, mask_sum, out=fused, where=covered)
    return FusionOutput(
        fused=Volume(geom, fused),
        mask_sum=Volume(geom, mask_sum),
        coverage_map=Volume(geom, covered.astype(float)),
        uncovered_fraction=float(1.0 - covered.mean()),
    )


def _register_slab(padded, reference, config, target) -> tuple:
    """``register_rigid``, with the slab's number in front of a failure, then
    ``apply_result`` onto ``target``: the result, resliced signal and mask."""
    try:
        result = register_rigid(padded, reference, config)
    except RegistrationFailed as exc:
        raise RegistrationFailed(f"slab {padded.slab_index}: {exc}") from exc
    return (result, *apply_result(padded, result, target))


def _register_in_child(send, padded, reference, config, target) -> None:
    """Worker body: send one slab's registration and reslice, or the exception it raised."""
    try:
        outcome = _register_slab(padded, reference, config, target)
    except Exception as exc:  # the parent raises it, in slab order
        outcome = exc
    with send:
        send.send(outcome)


def _register_slabs(padded, reference, config, target) -> list[tuple]:
    """``_register_slab`` of every padded slab, in batches of one per CPU.

    The caller forks a child for every slab of a batch but the first, which
    it registers and reslices itself, then reads the children's outcomes in
    slab order; they equal a serial loop's. A child gets its inputs through
    fork (never pickled) and sends back its outcome or exception over a pipe.
    The first failure in slab order is raised: the children still running
    are stopped and later batches never start. A daemonic process, such as a
    Pool worker, may not fork, so its batches hold one slab.
    """
    ctx = multiprocessing.get_context("fork")
    batch = 1 if ctx.current_process().daemon else len(os.sched_getaffinity(0))
    outcomes = []
    for first in range(0, len(padded), batch):
        children = []
        try:
            for j in range(first + 1, min(first + batch, len(padded))):
                receive, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_register_in_child,
                                    args=(send, padded[j], reference, config, target))
                child.start()
                send.close()
                children.append((j, receive, child))
            outcomes.append(_register_slab(padded[first], reference, config, target))
            for j, receive, child in children:
                try:
                    outcome = receive.recv()
                except EOFError:   # the child ended without sending
                    child.join()
                    raise RegistrationFailed(
                        f"slab {j}: worker exited with code {child.exitcode} "
                        "and no result") from None
                child.join()
                if isinstance(outcome, Exception):
                    raise outcome
                outcomes.append(outcome)
        finally:
            for _, receive, child in children:
                if child.exitcode is None:   # still running after a failure
                    child.terminate()
                child.join()
                child.close()
                receive.close()
    return outcomes


def reconstruct(slabs: list[Volume], layout: SlabLayout, lr: Volume,
                reg_config: RegistrationConfig | None = None,
                epsilon: float = DEFAULT_EPSILON) -> tuple[FusionOutput, list[RegistrationResult]]:
    """Prepare the reference, pad, register and reslice (see ``_register_slabs``), fuse.

    Every slab is resliced onto slab 0's padded grid. Linux only: the slabs
    register and reslice in forked workers, one per CPU that
    ``os.sched_getaffinity`` reports.
    """
    if len(slabs) != layout.num_slabs:
        raise InvalidInput(
            f"got {len(slabs)} slabs, layout expects {layout.num_slabs}"
        )
    hr_inplane = (slabs[0].geometry.spacing[0], slabs[0].geometry.spacing[2])
    reference = prepare_reference(lr, hr_inplane)
    padded = [pad_slab(slab, layout, j) for j, slab in enumerate(slabs)]
    results, signals, masks = zip(*_register_slabs(padded, reference, reg_config,
                                                   padded[0].signal.geometry))
    fusion = fuse(list(signals), list(masks), epsilon)
    if fusion.uncovered_fraction > UNCOVERED_WARN_FRACTION:
        warnings.warn(
            f"uncovered fraction {fusion.uncovered_fraction:.3f} exceeds "
            f"{UNCOVERED_WARN_FRACTION}: probable between-slab information loss",
            stacklevel=2,
        )
    return fusion, list(results)

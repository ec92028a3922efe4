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
from multiprocessing import connection

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
            raise InvalidInput(
                f"mask values [{lo:.3f}, {hi:.3f}] outside [0, 1]"
            )

    signal_sum = np.sort(np.stack([s.data for s in signals]), axis=0).sum(axis=0)
    mask_sum = np.sort(np.stack([m.data for m in masks]), axis=0).sum(axis=0)

    covered = mask_sum >= epsilon
    fused = np.zeros(geom.dims)
    np.divide(signal_sum, mask_sum, out=fused, where=covered)
    fused[~covered] = 0.0
    uncovered = 1.0 - covered.mean()
    return FusionOutput(
        fused=Volume(geom, fused),
        mask_sum=Volume(geom, mask_sum),
        coverage_map=Volume(geom, covered.astype(float)),
        uncovered_fraction=float(uncovered),
    )


def _register_in_child(send, padded, reference, config) -> None:
    """Worker body: send one slab's result, or the exception it raised."""
    try:
        outcome = register_rigid(padded, reference, config)
    except Exception as exc:  # the parent raises it, in slab order
        outcome = exc
    with send:
        send.send(outcome)


def _register_slabs(padded, reference, config) -> list:
    """``register_rigid`` of every padded slab: a result or an exception each.

    The calling process registers slab 0; every other slab runs in a forked
    child. A child reads the slabs, the reference and the config from the
    memory fork gave it (copy-on-write, never pickled) and sends back only
    its result or exception over a pipe. At most as many registrations run
    at once as this process has CPUs. A daemonic caller registers every
    slab itself.
    """
    def register_here(j):
        try:
            return register_rigid(padded[j], reference, config)
        except RegistrationFailed as exc:
            return exc

    if multiprocessing.current_process().daemon:
        # a daemonic process, such as a Pool worker, may not start children
        return [register_here(j) for j in range(len(padded))]

    ctx = multiprocessing.get_context("fork")
    cpus = len(os.sched_getaffinity(0))
    outcomes = [None] * len(padded)
    waiting = list(range(1, len(padded)))
    running = {}   # read end -> (slab, worker)

    def start(limit):
        while waiting and len(running) < limit:
            j = waiting.pop(0)
            receive, send = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_register_in_child,
                                 args=(send, padded[j], reference, config))
            worker.start()
            send.close()
            running[receive] = (j, worker)

    def stop(receive) -> int:
        _, worker = running.pop(receive)
        receive.close()
        worker.join()
        exitcode = worker.exitcode
        worker.close()
        return exitcode

    try:
        start(cpus - 1)
        outcomes[0] = register_here(0)
        start(cpus)
        while running:
            for receive in connection.wait(running):
                j = running[receive][0]
                try:
                    outcomes[j] = receive.recv()
                except EOFError:   # the worker ended without sending
                    pass
                exitcode = stop(receive)
                if outcomes[j] is None:
                    outcomes[j] = RegistrationFailed(
                        f"worker exited with code {exitcode} and no result")
                start(cpus)
    finally:
        for receive, (_, worker) in list(running.items()):
            worker.terminate()
            stop(receive)
    return outcomes


def reconstruct(slabs: list[Volume], layout: SlabLayout, lr: Volume,
                reg_config: RegistrationConfig | None = None,
                epsilon: float = DEFAULT_EPSILON) -> tuple[FusionOutput, list[RegistrationResult]]:
    """Full pipeline: prepare reference, pad, register, reslice, fuse.

    The slabs are registered at the same time: the calling process takes
    slab 0 and forks one worker per other slab, with at most as many
    registrations running at once as the process has CPUs (a daemonic
    process, which may not fork workers, registers them one after another).
    The results equal those of registering the slabs one after another,
    and a failure is raised for the lowest-numbered slab that failed.
    """
    if len(slabs) != layout.num_slabs:
        raise InvalidInput(
            f"got {len(slabs)} slabs, layout expects {layout.num_slabs}"
        )
    reg_config = reg_config or RegistrationConfig()
    hr_inplane = (slabs[0].geometry.spacing[0], slabs[0].geometry.spacing[2])
    reference = prepare_reference(lr, hr_inplane)
    padded = [pad_slab(slab, layout, j) for j, slab in enumerate(slabs)]

    results = []
    for j, outcome in enumerate(_register_slabs(padded, reference, reg_config)):
        if isinstance(outcome, RegistrationFailed):
            raise RegistrationFailed(f"slab {j}: {outcome}") from outcome
        if isinstance(outcome, Exception):
            raise outcome
        results.append(outcome)

    target = padded[0].signal.geometry
    resliced = [apply_result(pad, res, target) for pad, res in zip(padded, results)]
    fusion = fuse([sig for sig, _ in resliced], [msk for _, msk in resliced], epsilon)
    if fusion.uncovered_fraction > UNCOVERED_WARN_FRACTION:
        warnings.warn(
            f"uncovered fraction {fusion.uncovered_fraction:.3f} exceeds "
            f"{UNCOVERED_WARN_FRACTION}: probable between-slab information loss",
            stacklevel=2,
        )
    return fusion, results

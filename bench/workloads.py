"""The benchmark workloads.

Each workload has ``setup`` (build the inputs; timed as set-up), ``round``
(the cases of one round, in the order the workload seed gives) and, per
case, ``run`` (timed) and ``check`` (not timed). ``check`` returns one
entry per operation: (name, problems); an empty list of problems is a
right answer.
"""

import contextlib
import io
import json
import os

import numpy as np

import slabrecon
import slabrecon.cli

import checks

NS = "ns_7t_32ch_t2w_interleaved"
CMRR = "cmrr_7t_16ch_t2w_interleaved"
NOISE_PCT = 2.0


def _standard_phantom(preset):
    p = slabrecon.get_preset(preset)
    layout = p.build_layout()
    geometry = slabrecon.phantom_geometry(layout.final_slices, p.voxel_mm)
    return layout, slabrecon.generate_phantom(slabrecon.PhantomSpec(), geometry)


def _ordered(items, seed):
    """The round's fixed cases, in an order drawn from the workload seed."""
    order = np.random.default_rng(seed).permutation(len(items))
    return [items[i] for i in order]


def _cli(tracer, argv):
    """slabrecon.cli.main in-process, console output discarded."""
    span = tracer.span(f"cli.{argv[0]}") if tracer.active else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(io.StringIO()):
        return slabrecon.cli.main(argv)


class ReconstructInterleaved:
    """`slabrecon simulate` inputs on disk, then `reconstruct` + `qc` per case."""

    name = "reconstruct_interleaved"
    NOISE_SEEDS = (0, 1)
    # slab 1 carries the CLI's default motion: 1.5 deg about x, 0.6 mm along z
    SCENARIO = ([0.0, 0.0, 0.0, 0.0, 0.0, 0.0], [1.5, 0.0, 0.0, 0.0, 0.0, 0.6])

    def __init__(self, workdir, tracer):
        self.workdir = workdir
        self.tracer = tracer

    def setup(self):
        self.layout, phantom = _standard_phantom(NS)
        self.truth = phantom.volume.data
        self.center = tuple(phantom.volume.geometry.world_center())
        self.motions = [
            slabrecon.RigidTransform(rotation=tuple(np.radians(row[:3])),
                                     translation=tuple(row[3:]), center=self.center)
            for row in self.SCENARIO
        ]
        config = os.path.join(self.workdir, "simulate.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            fh.write(f"scenario = {json.dumps(self.SCENARIO)}\n"
                     f"noise_sigma_pct = {NOISE_PCT}\n")
        for seed in self.NOISE_SEEDS:
            out = self._input_dir(seed)
            code = _cli(self.tracer, ["simulate", "--config", config, "--layout", NS,
                                      "--seed", str(seed), "--out", out])
            if code != 0:
                raise RuntimeError(f"slabrecon simulate exited {code}")

    def _input_dir(self, seed):
        return os.path.join(self.workdir, f"input_{seed}")

    def round(self, seed):
        return [(f"noise{s}", s) for s in _ordered(self.NOISE_SEEDS, seed)]

    def run(self, seed):
        src = self._input_dir(seed)
        out = os.path.join(self.workdir, f"recon_{seed}")
        slabs = [os.path.join(src, f"slab_{j:02d}.nii.gz") for j in range(self.layout.num_slabs)]
        codes = [
            _cli(self.tracer, ["reconstruct", "--layout", NS, "--seed", str(seed),
                               "--slabs", *slabs, "--lr", os.path.join(src, "lr.nii.gz"),
                               "--out", out]),
            _cli(self.tracer, ["qc", "--layout", NS,
                               "--volume", os.path.join(out, "fused.nii.gz"),
                               "--coverage", os.path.join(out, "coverage.nii.gz"),
                               "--rois", os.path.join(src, "rois.json"),
                               "--out", os.path.join(out, "qc")]),
        ]
        return out, codes

    def check(self, seed, output):
        out, codes = output
        if codes != [0, 0]:
            return [("reconstruct", [f"cli exit codes {codes}"])]
        report = _read_json(os.path.join(out, "report.json"))
        qc = _read_json(os.path.join(out, "qc", "qc.json"))["qc"]
        problems = []
        for j, entry in enumerate(report["registrations"]):
            est = entry["motion_estimate"]
            estimate = slabrecon.RigidTransform(
                rotation=tuple(np.radians(est["rotation_deg"])),
                translation=tuple(est["translation_mm"]), center=tuple(est["center_mm"]))
            trace = [(level["stride"], level["nmi"]) for level in entry["trace"]]
            problems += [f"slab {j}: {p}" for p in
                         checks.motion(estimate, self.motions[j], self.center)
                         + checks.trace_monotone(trace)]
        fused = slabrecon.read_volume(os.path.join(out, "fused.nii.gz")).data
        coverage = slabrecon.read_volume(os.path.join(out, "coverage.nii.gz")).data
        mask_sum = slabrecon.read_volume(os.path.join(out, "mask_sum.nii.gz")).data
        problems += checks.uncovered_small(report["fusion"]["uncovered_fraction"])
        problems += checks.mask_sum_range(mask_sum, self.layout.num_slabs)
        problems += checks.flag_equals(
            report["qc"]["shift_preregistration"]["flag"], False, "pre-registration shift")
        problems += checks.fused_rmse(fused, coverage > 0.5, self.truth)
        problems += checks.rc_near_oracle(qc["rc"], "fused")
        return [("reconstruct", problems)]


class SimulateQC:
    """Phantom, acquisition, NIfTI round trip, padding and QC; no registration."""

    name = "simulate_qc"
    # Alternate the two interleaved presets; each is seen clean and shifted.
    # Case times cluster by preset and scenario, so the round holds five
    # cases and its median case is an NS shifted one, not a value from the
    # gap between two clusters.
    ROUND = ((NS, False), (CMRR, True), (NS, True), (CMRR, False), (NS, True))
    SHIFT_MM = 1.2   # one slice along y, the slab normal

    def __init__(self, workdir, tracer):
        self.workdir = workdir

    def setup(self):
        self.spec = slabrecon.PhantomSpec()
        self.grids = {}
        for preset in (NS, CMRR):
            p = slabrecon.get_preset(preset)
            layout = p.build_layout()
            self.grids[preset] = (layout, slabrecon.phantom_geometry(layout.final_slices,
                                                                     p.voxel_mm))
        self.cases_made = 0

    def round(self, seed):
        cases = []
        for preset, shifted in self.ROUND:
            noise_seed = int(np.random.SeedSequence([seed, self.cases_made])
                             .generate_state(1)[0])
            self.cases_made += 1
            label = f"{'cmrr' if preset == CMRR else 'ns'}-{'shift' if shifted else 'clean'}"
            cases.append((f"{label}-{noise_seed}", (preset, shifted, noise_seed)))
        return cases

    def run(self, case):
        preset, shifted, noise_seed = case
        layout, geometry = self.grids[preset]
        phantom = slabrecon.generate_phantom(self.spec, geometry)
        center = tuple(geometry.world_center())
        moved = slabrecon.RigidTransform(
            translation=(0.0, self.SHIFT_MM if shifted else 0.0, 0.0), center=center)
        scenario = slabrecon.MotionScenario(
            (slabrecon.RigidTransform.identity(center), moved), noise_sigma_pct=NOISE_PCT)
        dataset = slabrecon.simulate_acquisition(phantom.volume, layout, scenario,
                                                 seed=noise_seed)
        written = list(dataset.slabs) + [dataset.lr]
        read = []
        for k, volume in enumerate(written):
            path = os.path.join(self.workdir, f"qc_{k}.nii.gz")
            slabrecon.write_volume(volume, path)
            read.append(slabrecon.read_volume(path))
        padded = [slabrecon.pad_slab(slab, layout, j) for j, slab in enumerate(read[:-1])]
        shift = slabrecon.shift_index(padded, layout)
        qc = slabrecon.compute_qc(read[-1], phantom.rois)
        return phantom, written, read, padded, shift, qc

    def check(self, case, output):
        preset, shifted, _ = case
        phantom, written, read, padded, shift, qc = output
        layout = self.grids[preset][0]
        problems = []
        for w, r in zip(written, read):
            problems += checks.readback_equal(r.data, w.data)
        for j, pad in enumerate(padded):
            owned = np.arange(j, pad.mask.dims[1], layout.num_slabs)
            problems += checks.padded_slab(pad.signal.data, pad.mask.data, owned)
        problems += checks.flag_equals(shift.flag, shifted, "shift")
        problems += checks.rc_near_oracle(qc.rc, "LR")
        sigma = NOISE_PCT / 100.0 * float(phantom.volume.data.max())
        problems += checks.snr_near_prediction(
            qc.snr, checks.rician_snr_prediction(self.spec.intensity_bright, sigma))
        return [("qc", problems)]


def _read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {w.name: w for w in (ReconstructInterleaved, SimulateQC)}

"""Spans around the program's public calls, recorded from outside it.

A traced run replaces each public function listed in ``LAYERS`` with a
wrapper, in every ``slabrecon`` module that holds it, and restores the
originals afterwards. The wrapper records one span: name, start, end,
parent span and case id. Spans stay in memory until the run ends. The
per-layer metrics are derived from them by ``layer_metrics``.
"""

import functools
import os
import statistics
import sys
import time
from contextlib import contextmanager

import slabrecon

# span name -> public function; the name's prefix is the program module
LAYERS = {
    "fusion.reconstruct": slabrecon.reconstruct,
    "registration.register_rigid": slabrecon.register_rigid,
    "registration.apply_result": slabrecon.apply_result,
    "fusion.fuse": slabrecon.fuse,
    "layout.prepare_reference": slabrecon.prepare_reference,
    "layout.pad_slab": slabrecon.pad_slab,
    "simulate.simulate_acquisition": slabrecon.simulate_acquisition,
    "phantom.generate_phantom": slabrecon.generate_phantom,
    "nifti.write": slabrecon.write_volume,
    "nifti.read": slabrecon.read_volume,
    "qc.shift_index": slabrecon.shift_index,
    "qc.compute_qc": slabrecon.compute_qc,
}

# per-layer metric -> span whose summed duration per case it reports
TIMED = {
    "registration.apply_result_s": "registration.apply_result",
    "fusion.fuse_s": "fusion.fuse",
    "layout.prepare_reference_s": "layout.prepare_reference",
    "layout.pad_slab_s": "layout.pad_slab",
    "simulate.simulate_acquisition_s": "simulate.simulate_acquisition",
    "phantom.generate_phantom_s": "phantom.generate_phantom",
    "nifti.write_s": "nifti.write",
    "nifti.read_s": "nifti.read",
    "qc.shift_index_s": "qc.shift_index",
    "qc.compute_qc_s": "qc.compute_qc",
}
REGISTER = "registration.register_rigid"
PROBE = "probe.joint_histogram"
CLI_PREFIX = "cli."


class Tracer:
    """Span recorder. Spans are only taken while ``active`` is set."""

    def __init__(self):
        self.spans = []
        self.case = None
        self.active = False
        self.registrations = []   # (padded, reference, result) of the current case
        self._stack = []

    @contextmanager
    def span(self, name):
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": self._stack[-1] if self._stack else None,
                  "case": self.case}
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter()

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if name == REGISTER:
                record["sweeps"] = sum(len(values) - 1 for _, values in result.trace)
                record["masked_voxels"] = result.masked_voxels
                self.registrations.append((args[0], args[1], result))
            elif name == "nifti.write":
                record["bytes"] = os.path.getsize(args[1])
            return result
        return traced

    @contextmanager
    def patched(self):
        """Wrap every LAYERS function wherever a slabrecon module binds it."""
        saved = []
        modules = [m for n, m in sys.modules.items()
                   if n == "slabrecon" or n.startswith("slabrecon.")]
        for name, fn in LAYERS.items():
            wrapper = self._wrap(name, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        saved.append((module, attr, value))
                        setattr(module, attr, wrapper)
        try:
            yield
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    def probe(self):
        """One stride-1 joint histogram + NMI per registration of the case,
        at the solution: the cost of one objective evaluation."""
        for padded, reference, result in self.registrations:
            with self.span(PROBE):
                slabrecon.nmi(slabrecon.joint_histogram(
                    padded.signal, reference, padded.mask, result.transform))
        self.registrations = []


def _duration(span):
    return span["end"] - span["start"]


def _by_case(spans, cases):
    grouped = {case: [] for case in cases}
    for span in spans:
        if span["case"] in grouped:
            grouped[span["case"]].append(span)
    return grouped


def _per_case(grouped, value):
    """Median over cases of value(spans of one case); None where no case has any."""
    values = [value(spans) for spans in grouped.values()]
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def _sum(name):
    def value(spans):
        picked = [_duration(s) for s in spans if s["name"] == name]
        return sum(picked) if picked else None
    return value


def _per_registration(field=None):
    """Mean per register_rigid call of its duration, or of a recorded field."""
    def value(spans):
        regs = [s for s in spans if s["name"] == REGISTER]
        if not regs:
            return None
        return sum(_duration(s) if field is None else s[field] for s in regs) / len(regs)
    return value


def layer_metrics(spans, case_ids, setup_ids):
    """Per-layer metrics: medians per case of the summed spans of each layer.

    A layer that the timed cases never call but set-up does is reported
    per set-up; a layer called in neither is 0, the workload not using it.
    """
    cases = _by_case(spans, case_ids)
    setups = _by_case(spans, setup_ids)

    def either(value):
        got = _per_case(cases, value)
        if got is None:
            got = _per_case(setups, value)
        return 0.0 if got is None else got

    def ms_per_sweep(group):
        regs = [s for s in group if s["name"] == REGISTER]
        sweeps = sum(s["sweeps"] for s in regs)
        return 1000.0 * sum(_duration(s) for s in regs) / sweeps if sweeps else None

    def probe_ms(group):
        probes = [_duration(s) for s in group if s["name"] == PROBE]
        return 1000.0 * sum(probes) / len(probes) if probes else None

    def written_mb(group):
        sizes = [s["bytes"] for s in group if s["name"] == "nifti.write"]
        return sum(sizes) / 1e6 if sizes else None

    metrics = {
        "registration.register_rigid_s": (either(_per_registration()), "s/slab"),
        "registration.sweeps": (either(_per_registration("sweeps")), "count/slab"),
        "registration.ms_per_sweep": (either(ms_per_sweep), "ms"),
        "registration.masked_voxels": (either(_per_registration("masked_voxels")), "count"),
        "registration.joint_histogram_ms": (either(probe_ms), "ms"),
        "nifti.written_mb": (either(written_mb), "MB"),
    }
    for metric, name in TIMED.items():
        metrics[metric] = (either(_sum(name)), "s")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def self_times(spans, case_ids):
    """Median per case of each span name's summed self time (duration minus
    the time its child spans cover)."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += _duration(span)
    grouped = {case: {} for case in case_ids}
    for index, span in enumerate(spans):
        if span["case"] in grouped:
            acc = grouped[span["case"]]
            acc[span["name"]] = acc.get(span["name"], 0.0) + _duration(span) - child_time[index]
    names = sorted({name for acc in grouped.values() for name in acc})
    return {name: statistics.median(acc.get(name, 0.0) for acc in grouped.values())
            for name in names}


def coverage(spans, case_walls):
    """Median share of a case's wall time spent inside program-layer spans.

    The benchmark's own spans do not count: ``cli.*`` around ``cli.main``,
    and the probe, which runs after the case's timer stops."""
    covered = {case: 0.0 for case in case_walls}
    for span in spans:
        own = span["name"].startswith(CLI_PREFIX) or span["name"] == PROBE
        if own or span["case"] not in covered:
            continue
        parent = span["parent"]
        if parent is None or spans[parent]["name"].startswith(CLI_PREFIX):
            covered[span["case"]] += _duration(span)
    return statistics.median(covered[c] / wall for c, wall in case_walls.items())

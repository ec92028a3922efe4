#!/usr/bin/env python3
"""slabrecon benchmark: run one workload for a fixed time and check every output.

    python3 bench/run.py --workload reconstruct_interleaved --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, derived from spans recorded around the program's public
calls. Result and trace files go to ``bench/out/``. The program is
imported from ``src/`` of the same checkout, never from an installed copy.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

sys.dont_write_bytecode = True   # the same import cost on every run
# One process, one thread: a second BLAS thread spins on the small matrix
# products of registration, costs a core and gains no wall time.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3


def import_program():
    """Import slabrecon from this checkout's sources, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "slabrecon", "__init__.py")):
        sys.exit(f"error: no slabrecon sources at {SRC}")
    sys.path.insert(0, SRC)
    import slabrecon
    import slabrecon.cli  # noqa: F401  (the workloads drive its main)

    if not os.path.abspath(slabrecon.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported slabrecon from {slabrecon.__file__}, not {SRC}")
    return slabrecon


def measure(workload, seed, seconds, tracer, traced):
    setup_times = []
    for rep in range(SETUP_REPEATS):
        tracer.case, tracer.active = f"setup{rep}", traced
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)
    tracer.active = False

    # Whole rounds, and no round that is expected to end past `seconds`:
    # a run measures at most `seconds` unless its first round is longer.
    case_walls, ops, rounds = {}, [], 0
    loop_start = time.perf_counter()
    while True:
        for label, case in workload.round(seed):
            case_id = f"round{rounds}/{label}"
            tracer.case, tracer.active = case_id, traced
            start = time.perf_counter()
            output = workload.run(case)
            case_walls[case_id] = time.perf_counter() - start
            tracer.active = False
            if traced:
                tracer.probe()
            ops += [(f"{case_id}/{op}", problems)
                    for op, problems in workload.check(case, output)]
            output = None   # so the next case's peak memory is its own
        rounds += 1
        loop_s = time.perf_counter() - loop_start
        if loop_s * (rounds + 1) / rounds > seconds:
            return setup_times, case_walls, ops, rounds, loop_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import spans
    import workloads
    import_s = time.perf_counter() - _STARTED
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    tracer = spans.Tracer()
    workdir = os.path.join(HERE, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, tracer)
        with tracer.patched() if args.trace else contextlib.nullcontext():
            setup_times, case_walls, ops, rounds, loop_s = measure(
                workload, args.seed, args.seconds, tracer, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [(op, problems) for op, problems in ops if problems]
    case_p50_s = statistics.median(case_walls.values())
    end_to_end = {
        "setup_s": {"value": import_s + statistics.median(setup_times), "unit": "s"},
        "case_p50_s": {"value": case_p50_s, "unit": "s"},
        "cases_per_min": {"value": 60.0 * len(case_walls) / sum(case_walls.values()),
                          "unit": "1/min"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        * 1024 / 1e6, "unit": "MB"},
    }
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{rounds} round(s), {len(case_walls)} cases in {loop_s:.1f} s; "
          f"{len(ops)} operations attempted, {len(failed)} failed")
    for op, problems in failed:
        print(f"  FAILED {op}: {'; '.join(problems)}")
    for name, m in end_to_end.items():
        print(f"  {name:<14} {m['value']:12.4f} {m['unit']}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "import_s": import_s, "setup_times_s": setup_times,
              "case_walls_s": case_walls, "rounds": rounds, "loop_s": loop_s,
              "end_to_end": end_to_end}
    metrics = end_to_end
    if args.trace:
        case_ids = list(case_walls)
        setup_ids = [f"setup{rep}" for rep in range(SETUP_REPEATS)]
        metrics = spans.layer_metrics(tracer.spans, case_ids, setup_ids)
        record.update(per_layer=metrics, self_time_s=spans.self_times(tracer.spans, case_ids),
                      span_coverage=spans.coverage(tracer.spans, case_walls),
                      spans=tracer.spans)
        print(f"  spans cover {100 * record['span_coverage']:.1f}% of the median case")
        print("  self time per case (median):")
        for name, value in sorted(record["self_time_s"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<32} {value:10.4f} s")
        for name, m in metrics.items():
            print(f"  {name:<34} {m['value']:12.4f} {m['unit']}")

    os.makedirs(OUT, exist_ok=True)
    kind = "trace" if args.trace else "result"
    path = os.path.join(OUT, f"{kind}-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

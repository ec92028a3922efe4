#!/usr/bin/env python3
"""Run every workload over several seeds and report the run-to-run spread.

    python3 bench/spread.py                       # 10 seeds x all workloads
    python3 bench/spread.py --workloads simulate_qc --seeds 5

Each run is the BENCHMARK.json command in its own process, run one after
another. Per workload and end-to-end metric this prints the median of the
runs and their spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound. It also prints the failed share of operations, which
must be the same in every run. Raw results go to ``bench/out/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(spec, workload, seed, trace):
    argv = spec["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    steady = True
    for workload in args.workloads.split(","):
        results = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(spec, workload, seed, args.trace)
            results.append(result)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"{result['failed']}/{result['attempted']} failed, " + ", ".join(
                      f"{m['name']} {result['metrics'][m['name']]['value']:.4g}"
                      for m in metrics), flush=True)
        path = os.path.join(HERE, "out", f"spread-{workload}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: all correct {correct}; failed share per run "
              f"{sorted(shares)} ({'identical' if len(shares) == 1 else 'DIFFERS'})")
        steady &= correct and len(shares) == 1
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if min(values) <= 0:
                print(f"  {m['name']:<34} median {statistics.median(values):.4g} {m['unit']}")
                continue
            median, share = spread(values)
            line = f"  {m['name']:<34} median {median:12.4f} {m['unit']:<10} spread {share:.4f}"
            if "bound" in m:
                ok = m["name"] == "setup_s" or share < m["bound"] / 3
                steady &= ok
                line += f"  bound {m['bound']}  {'ok' if ok else 'TOO WIDE'}"
            print(line, flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs the command in BENCHMARK.json once per seed on each named workload
and prints, per metric, the median and the distance between the first
and third quartiles as a share of the median, next to the metric's
bound. Run from the repository root:

    python3 perfbench/spread.py --runs 10 paper_cold sweep_variants serve_mixed
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="+")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    worst = 0.0
    for workload in args.workloads:
        values = {}
        started = time.monotonic()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = bench["command"] + [
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]),
                "--trace", "0",
            ]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed} failed:\n{done.stdout}\n{done.stderr}")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        per_run = (time.monotonic() - started) / args.runs
        print(f"{workload} ({args.runs} runs, {per_run:.0f} s per run)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<20} median {median:<14.6g} spread {spread:7.2%}"
                  + (f"  bound {bound:.0%}" if bound is not None else "")
                  + "  [" + " ".join(f"{v:.4g}" for v in vals) + "]")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")


if __name__ == "__main__":
    main()

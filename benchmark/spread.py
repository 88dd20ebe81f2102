#!/usr/bin/env python3
"""Measure the run-to-run spread behind the bounds in BENCHMARK.json.

Runs the benchmark command the way the driver does, ten times per
workload with another seed each time, and prints for every end-to-end
metric its median and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to
the metric's bound. Run from the root of the checkout:

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--workload NAME]
"""
import argparse
import json
import statistics
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    parser.add_argument("--values", action="store_true", help="also print each run's value")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    section = "end_to_end" if args.trace == "0" else "per_layer"
    bounds = {m["name"]: m.get("bound") for m in spec[section]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            record = json.loads(out.strip().splitlines()[-1])
            if not record["correct"] or record["failed"]:
                sys.exit(f"{workload} seed {seed}: {record['failed']} of {record['attempted']} failed")
            for name in bounds:
                values[name].append(record["metrics"][name]["value"])
            print(f"# {workload} seed {seed} done", file=sys.stderr)
        print(f"{workload}:")
        for name, bound in bounds.items():
            q1, _, q3 = statistics.quantiles(values[name], n=4)
            median = statistics.median(values[name])
            spread = (q3 - q1) / abs(median) if median else float("nan")
            limit = "" if bound is None else f"  bound {bound:.2f}  spread/bound {spread / bound:.2f}"
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<34} median {median:>14.4f}  spread {spread:7.4f}{limit}")
            if args.values:
                print("    " + " ".join(f"{v:.4g}" for v in values[name]))
    if args.trace == "0":
        print(f"largest spread/bound outside setup_s: {worst:.2f} (aim below 0.33)")


if __name__ == "__main__":
    main()

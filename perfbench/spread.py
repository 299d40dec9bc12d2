#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints each metric's spread.

    python3 perfbench/spread.py --workloads http-short,durable --seeds 1-10

For every workload and end-to-end metric it prints the median and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to the metric's bound in BENCHMARK.json.
Runs one at a time; a failed or incorrect run is reported and skipped.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-5")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", args.trace]
            start = time.time()
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.time() - start
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print("%s seed %d: exit %d, no result" %
                      (workload, seed, done.returncode))
                continue
            if done.returncode != 0 or not result["correct"]:
                print("%s seed %d: exit %d correct %s" %
                      (workload, seed, done.returncode, result["correct"]))
                continue
            shown = []
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                shown.append("%s=%.4g" % (name, m["value"]))
            print("%s seed %d (%.1fs): %s" % (workload, seed, wall,
                                             " ".join(shown)))
            sys.stdout.flush()
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            print("  %-28s median %12.5g  spread %6.3f  bound %s%s" % (
                name, med, spread, bound,
                "" if bound is None or spread <= bound / 3 else "  <-- wide"))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""A/A spread of the end-to-end metrics: the evidence behind the bounds.

Run from the root of a checkout:

    python3 perfbench/aa_spread.py --runs 10 --first-seed 1 [WORKLOAD ...]

Runs `perfbench/run.py --trace 0` once per seed for each workload (all
four by default), with the run length BENCHMARK.json fixes, and prints a
markdown table per workload: each metric's median over the runs, the
distance between its first and third quartile (statistics.quantiles,
n=4) as a share of the median, its minimum and maximum, and the bound.
Exits 1 if any run failed.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for w in workloads:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            p = subprocess.run(
                bench["command"]
                + ["--workload", w, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True)
            result = json.loads(p.stdout.strip().splitlines()[-1]) if p.stdout.strip() else None
            if p.returncode != 0 or not result or not result["correct"]:
                ok = False
                print("%s seed %d failed: %s" % (w, seed, p.stderr[-500:]), file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print("\n### %s (%d runs, seeds %d-%d)\n" % (
            w, args.runs, args.first_seed, args.first_seed + args.runs - 1))
        print("| metric | median | IQR / median | min | max | bound |")
        print("|---|---|---|---|---|---|")
        for name, v in values.items():
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            print("| `%s` | %.4g | %.3f | %.4g | %.4g | %s |" % (
                name, med, (q3 - q1) / med, min(v), max(v), bounds.get(name)))
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

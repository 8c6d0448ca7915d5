#!/usr/bin/env python3
"""Steadiness check for the muppet benchmark.

    python3 muppetbench/steady.py [--runs 10] [--seed0 1]

Runs every workload of BENCHMARK.json --runs times through run.py for
its run_seconds, one seed per run (seed0, seed0+1, ...), alternating the
workload order from run to run.
For each end-to-end metric it prints the median, the first and third
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound in BENCHMARK.json, plus each
workload's share of failed operations. Run from the checkout root.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    spec = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    a = ap.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: [] for w in workloads}
    for i in range(a.runs):
        order = workloads if i % 2 == 0 else workloads[::-1]
        for w in order:
            seed = a.seed0 + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode:
                sys.exit("run failed (%s seed %d):\n%s" % (w, seed, out.stderr[-2000:]))
            res = json.loads(out.stdout.strip().splitlines()[-1])
            results[w].append(res)
            print("run %2d %-14s seed %-3d %s" % (i, w, seed, " ".join(
                "%s=%.4g" % (k, v["value"]) for k, v in res["metrics"].items())), flush=True)
    print()
    print("%-14s %-12s %12s %12s %12s %8s %6s" % ("workload", "metric", "q1", "median", "q3", "spread", "bound"))
    for w in workloads:
        runs = results[w]
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
            print("%-14s %-12s %12.5g %12.5g %12.5g %8.4f %6.3g%s" % (
                w, m["name"], q1, med, q3, spread, m["bound"], flag))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print("%-14s failed share per run: %s; all correct: %s" % (
            w, shares, all(r["correct"] for r in runs)))


if __name__ == "__main__":
    main()

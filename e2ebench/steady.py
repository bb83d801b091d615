#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report how steady it is.

    python3 e2ebench/steady.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                               [--seconds S] [--trace 0|1]

Runs e2ebench/run.py once per workload and seed, from the repository root.
With --trace 0, prints for each end-to-end metric the median and the
distance between the first and third quartile (statistics.quantiles, n=4)
as a share of the median, next to a third of the metric's bound from
BENCHMARK.json.  With --trace 1, checks that the count metrics (operation
counts, trace sizes, graph sizes and linear rewrites) repeat exactly across
the seeds.  Exits 1 if a run fails, a spread reaches a third of its bound
(setup_s excepted), or a count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Per-layer metrics that are counts of deterministic work.
COUNTS = ("runtime.ops_per_item", "runtime.fused.trace_instrs",
          "runtime.fused.super", "opt.actors_after", "opt.edges_after",
          "linear.combined", "linear.freq_translated", "linear.native_actors")


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"run failed: {' '.join(cmd)}")
    result = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"incorrect output: {' '.join(cmd)}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    ok = True
    for wl in args.workloads.split(","):
        runs = [run(wl, s, args.seconds, args.trace)
                for s in range(args.first_seed, args.first_seed + args.seeds)]
        if args.trace:
            for name in COUNTS:
                values = sorted({r[name] for r in runs})
                same = len(values) == 1
                ok &= same
                print(f"{wl:8} {name:28} {'repeats' if same else 'DIFFERS'} "
                      f"{values}")
            continue
        for m in spec["end_to_end"]:
            values = [r[m["name"]] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3 or m["name"] == "setup_s"
            ok &= steady
            print(f"{wl:8} {m['name']:12} median {med:14.6g} {m['unit']:4} "
                  f"spread {spread:7.4f} (bound/3 {m['bound'] / 3:.4f}) "
                  f"{'ok' if steady else 'UNSTEADY'}  "
                  f"values {[round(v, 6) for v in values]}")
        sys.stdout.flush()
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

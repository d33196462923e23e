#!/usr/bin/env python3
"""Run one workload on several seeds and report each end-to-end metric's
spread: the distance between its first and third quartile as a share of
its median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/spread.py --workload shard-hot --seeds 1 2 3 4 5

A spread under a third of the bound is steady; over the bound fails.
With --trace 1 (say, --seeds 4 4) it instead lists the exact per-layer
counts (calls, minor words, counters) that differ between the runs.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    runs = []
    for seed in args.seeds:
        out = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", args.trace],
            stdout=subprocess.PIPE, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if out.returncode != 0 or not result["correct"]:
            print(f"seed {seed}: exit {out.returncode}, {result['failed']} failed")
            return 1
        runs.append(result["metrics"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    if len(runs) < 2:
        return 0
    if args.trace == "1":
        inexact = ("p50_us", "self_ms", "unaccounted_us", "probes",
                   "max_queue_depth", "loadgen.", "trace.", "serve.rtt.minor_words")
        differ = [k for k in runs[0]
                  if not any(x in k for x in inexact)
                  and len({r[k]["value"] for r in runs}) > 1]
        for k in differ:
            print(f"{k}: " + " ".join(str(r[k]["value"]) for r in runs))
        print(f"{len(differ)} exact counts differ")
        return 1 if differ else 0
    worst = 0
    for metric in bench["end_to_end"] if args.trace == "0" else []:
        values = [r[metric["name"]]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        spread = (q3 - q1) / med
        verdict = ("steady" if spread < metric["bound"] / 3 else
                   "within bound" if spread <= metric["bound"] else "TOO NOISY")
        if verdict == "TOO NOISY" and metric["name"] != "setup_s":
            worst = 1
        print(f"{metric['name']:20s} median {med:12.4f} {metric['unit']:5s} "
              f"spread {spread:6.3f} bound {metric['bound']:.2f} {verdict}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

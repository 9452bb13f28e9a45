#!/usr/bin/env python3
"""Run the benchmark once per seed and print, for every metric, the median
and the quartile spread (q3 - q1) / median of the runs, with the quartiles
taken as statistics.quantiles(values, n=4) gives them.

    python3 perfbench/spread.py --workload check_corpus --seeds 1-10
    python3 perfbench/spread.py --workload core_shrink --seeds 3,5,8 --seconds 10

Run from the repository root.  Prints a per-run line, then the table.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", default="20")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    runs = []
    for seed in seeds(args.seeds):
        cmd = ["bash", "perfbench/run.sh", "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds,
               "--trace", args.trace]
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v:.6g}" for k, v in values.items()),
              flush=True)
        runs.append(values)
    if len(runs) < 2:
        return
    print(f"{'metric':32} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in runs[0]:
        vals = [r[name] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()

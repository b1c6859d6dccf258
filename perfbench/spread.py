"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload dyn-churn --seeds 1-10 --seconds 20

Runs run.py once per seed, one run at a time, and prints for each
metric the median and the interquartile range as a share of the
median (statistics.quantiles(values, n=4)), the figure the bounds in
BENCHMARK.json are set against.  --jsonl appends every run's result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7,11")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--jsonl", help="append each run's result to this file")
    args = parser.parse_args()
    values = {}
    units = {}
    for seed in seed_list(args.seeds):
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            check=True, capture_output=True, text=True, cwd=os.path.dirname(HERE),
        ).stdout.splitlines()
        result = json.loads(out[-1])
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): {out[-2]}", flush=True)
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        if args.jsonl:
            with open(args.jsonl, "a") as log:
                log.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
    print(f"{'metric':30} {'median':>14} {'unit':>6} {'IQR/median':>11}")
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2 and med:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = f"{(q3 - q1) / abs(med):11.4f}"
        else:
            share = f"{'-':>11}"
        print(f"{name:30} {med:14.6g} {units[name]:>6} {share}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

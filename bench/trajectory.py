"""Run perfbench as it is and write one BENCH_<tag>.json trajectory point.

    python3 bench/trajectory.py --tag T [--checkout DIR] [--parent DIR]

For every workload in the checkout's BENCHMARK.json (default: this
repository), this script runs `perfbench/run.py --seed 1 --seconds 10`
in three fresh `--trace 0` processes, interleaved across workloads, and
then in one `--trace 1` process.  Fresh processes because a run is one
sample of a bimodal number: dynamic updates, for one, run in a fast or
a slow process-wide mode.  With `--parent`, the parent checkout's runs
alternate with the checkout's, workload by workload, the pair's order
flipping from round to round, so drift in the machine falls on both
sides alike; the parent's runs go to BENCH_<tag>-parent.json.  It
changes no harness file.
BENCH_<tag>.json, at the root of the repository holding this script,
keeps every run's value with the median and min-max of each end-to-end
metric, the traced run's per-layer split, each run's correctness facts
and machine-speed factor, and what produced them: Python version, core
count, seed, seconds, commit and whether the checkout was clean.
Metrics known to misread carry a `suspect` note.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 3  # untraced processes per workload
SEED = 1
SECONDS = 10.0

# metrics that misread until perfbench/ changes, and why
_ZERO = "reads 0.0 on working code: no query runs this span any more"
SUSPECT = {
    "hash.bucket_evals_per_update":
        "reads 0.0 on working code: bucketing no longer calls the counted hash",
    "query.drain_ms": _ZERO,
    "query.reduce_ms": _ZERO,
    "cells.touches_per_update":
        "last_keys_touched * reps (perfbench/workloads.py:274), 1 296 at k = 2, "
        "where an update to one-index samplers touches 144 top cells",
    "cells.ns_per_touch": "divided by cells.touches_per_update, which misreads",
    "decode.samplers":
        "the live sampler count, not stats()['decodes_last_query'] "
        "(4 608 against 32 on dyn-churn)",
    "decode.edges_per_sampler": "derived from decode.samplers, which misreads",
}
_SHARDS = "includes building two fresh shard matchers (perfbench/workloads.py:306)"
SUSPECT_IN = {"dyn-approx-shards": {"query_ms_p50": _SHARDS, "query_ms_p90": _SHARDS}}
NOTES = [
    "no metric reports the tracer's hash.scheme_eval span: the dynamic "
    "update's hashing time shows only in perfbench/out/trace-*.jsonl",
]

SUMMARY = re.compile(
    r": (?P<rounds>\d+) rounds, (?P<checked>\d+) answers checked, \d+ failed, "
    r"misses per round (?P<misses>\d+) \(limit (?P<limit>\d+),.*"
    r"reference loop at (?P<speed>[0-9.]+)x its nominal time")


def parse_run(stdout: str) -> dict:
    """The facts of one perfbench/run.py process from its standard
    output: the summary line and the last line, a JSON object."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"expected a summary line and a JSON line, got {stdout!r}")
    result = json.loads(lines[-1])
    summary = SUMMARY.search(lines[-2])
    if summary is None:
        raise ValueError(f"unreadable summary line {lines[-2]!r}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": int(summary["rounds"]),
        "checked": int(summary["checked"]),
        "misses_per_round": int(summary["misses"]),
        "miss_limit": int(summary["limit"]),
        "speed_factor": float(summary["speed"]),
        "metrics": {name: (m["value"], m["unit"]) for name, m in result["metrics"].items()},
    }


def _note(entry: dict, workload: str, name: str) -> dict:
    note = SUSPECT_IN.get(workload, {}).get(name) or SUSPECT.get(name)
    if note:
        entry["suspect"] = note
    return entry


def summarize(workload: str, plain: list, traced: dict) -> dict:
    """One workload's entry: every untraced run's value of each metric
    with their median and min-max, the traced run's per-layer values,
    and each run's facts."""
    end_to_end = {}
    for name, (_, unit) in plain[0]["metrics"].items():
        values = [run["metrics"][name][0] for run in plain]
        end_to_end[name] = _note({
            "unit": unit, "values": values, "median": statistics.median(values),
            "min": min(values), "max": max(values),
        }, workload, name)
    per_layer = {name: _note({"unit": unit, "value": value}, workload, name)
                 for name, (value, unit) in traced["metrics"].items()}
    facts = [{"trace": trace, **{k: v for k, v in run.items() if k != "metrics"}}
             for trace, runs in ((0, plain), (1, [traced])) for run in runs]
    return {"end_to_end": end_to_end, "per_layer": per_layer, "runs": facts}


def run_perfbench(checkout: str, workload: str, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return parse_run(proc.stdout)


def git_state(checkout: str) -> dict:
    """The checkout's commit, and the paths that differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", checkout, *args], capture_output=True,
                              text=True, check=True).stdout
    changed = [line[3:] for line in git("status", "--porcelain").splitlines()]
    return {"commit": git("rev-parse", "HEAD").strip(), "clean": not changed,
            "changed": changed}


def measure(checkouts: list, workloads: list, run) -> tuple:
    """Every checkout's untraced and traced runs of every workload, by
    checkout then workload.  Untraced runs are interleaved across
    workloads, and across checkouts within a workload, in an order that
    flips each round."""
    plain = {c: {w: [] for w in workloads} for c in checkouts}
    for i in range(RUNS):
        for w in workloads:
            for c in checkouts[::-1] if i % 2 else checkouts:
                plain[c][w].append(run(c, w, 0))
    traced = {c: {} for c in checkouts}
    for w in workloads:
        for c in checkouts:
            traced[c][w] = run(c, w, 1)
    return plain, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tag", required=True, help="names the file BENCH_<tag>.json")
    parser.add_argument("--checkout", default=ROOT,
                        help="source checkout to measure (default: this repository)")
    parser.add_argument("--parent", help="parent checkout to measure alternately with "
                        "the checkout, into BENCH_<tag>-parent.json")
    args = parser.parse_args(argv)
    if not re.fullmatch(r"[A-Za-z0-9._-]+", args.tag):
        parser.error(f"--tag {args.tag!r} must be letters, digits, '.', '_' or '-'")
    with open(os.path.join(args.checkout, "BENCHMARK.json")) as fh:
        workloads = [w["name"] for w in json.load(fh)["workloads"]]
    tags = {args.checkout: args.tag}
    if args.parent is not None:
        if os.path.realpath(args.parent) == os.path.realpath(args.checkout):
            parser.error("--parent must be another checkout than --checkout")
        tags = {args.parent: f"{args.tag}-parent", **tags}
    states = {c: git_state(c) for c in tags}

    def run(checkout, workload, trace):
        print(f"{tags[checkout]} {workload} trace={trace}", file=sys.stderr, flush=True)
        return run_perfbench(checkout, workload, trace)

    plain, traced = measure(list(tags), workloads, run)
    for c, tag in tags.items():
        out = {
            "tag": tag,
            **states[c],
            "python": platform.python_version(),
            "cores": os.cpu_count(),
            "seed": SEED,
            "seconds": SECONDS,
            "runs": RUNS,
            "notes": NOTES,
            "workloads": {w: summarize(w, plain[c][w], traced[c][w]) for w in workloads},
        }
        path = os.path.join(ROOT, f"BENCH_{tag}.json")
        with open(path, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

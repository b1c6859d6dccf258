"""Benchmark of the streamkmatch matchers: one workload per run.

    python3 perfbench/run.py --workload ins-weighted --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
its `src/` directory.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones, measured untraced; with --trace 1
they are the per-layer split from a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import tracemalloc

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

SETUP_BATCHES_PER_ROUND = 3
SETUP_BATCH_S = 0.005  # each set-up batch builds the matchers this long, at least
MIN_QUERIES = 100      # a run makes at least this many queries
MEMORY_QUERIES = 4     # query points in the round measured under tracemalloc


def _import_package():
    """Import streamkmatch from this checkout's src/ and nowhere else."""
    init = os.path.join(SRC, "streamkmatch", "__init__.py")
    if not os.path.isfile(init):
        sys.exit(f"error: no package source at {init}; run from a source checkout")
    sys.path.insert(0, SRC)
    import streamkmatch

    if os.path.dirname(os.path.abspath(streamkmatch.__file__)) != os.path.dirname(init):
        sys.exit(f"error: imported streamkmatch from {streamkmatch.__file__}, not {SRC}")


class SetupTimer:
    """Seconds to build a workload's matcher(s) once, rescaled by the
    probe like every other timing.  Each batch builds them often enough
    to last SETUP_BATCH_S; batches are spread over the run, before each
    round, and the median is reported."""

    def __init__(self, w, seed):
        from workloads import build, clock

        self.w, self.seed, self.build = w, seed, build
        t0 = clock()
        build(w, seed)
        self.count = max(5, math.ceil(SETUP_BATCH_S / max(clock() - t0, 1e-6)))
        self.samples = []

    def batch(self) -> None:
        from workloads import PROBE_NOMINAL_S, clock, probe

        w, seed, build, pc = self.w, self.seed, self.build, clock
        before = probe()
        t0 = pc()
        for _ in range(self.count):
            build(w, seed)
        took = (pc() - t0) / self.count
        scale = (before + probe()) / 2 / PROBE_NOMINAL_S
        self.samples.append(took / scale)


def min_rounds(w) -> int:
    return math.ceil(MIN_QUERIES / (w.updates // w.every))


def run_plain(w, seed, seconds, rec) -> float:
    """Rounds until the time is up; returns the set-up time."""
    from workloads import run_round

    setup = SetupTimer(w, seed)
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < min_rounds(w) or time.perf_counter() < deadline:
        for _ in range(SETUP_BATCHES_PER_ROUND):
            setup.batch()
        run_round(w, seed, rec)
        rounds += 1
    return statistics.median(setup.samples)


def end_to_end(rec, setup_s) -> dict:
    from workloads import percentile

    queries = sorted(rec.queries)
    return {
        "setup_s": (setup_s, "s"),
        "updates_per_s": (statistics.median(rec.round_rates), "1/s"),
        "update_us_p50": (statistics.median(rec.round_p50) * 1e6, "us"),
        "update_us_p99": (statistics.median(rec.round_p99) * 1e6, "us"),
        "query_ms_p50": (percentile(queries, 0.50) * 1e3, "ms"),
        "query_ms_p90": (percentile(queries, 0.90) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


class GcWatch:
    """Collections and their pauses, through gc.callbacks."""

    def __init__(self):
        self.full = 0
        self.pause = 0.0
        self._t0 = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t0 = time.thread_time()
        else:
            self.pause += time.thread_time() - self._t0
            if info["generation"] == 2:
                self.full += 1


def bytes_per_live_edge(w, seed) -> float:
    """tracemalloc bytes held by the package's own allocations, per
    live edge, at the end of a round cut short after MEMORY_QUERIES
    query points, with its matcher(s) still alive.  A whole round under
    tracemalloc takes minutes on the dynamic workloads."""
    from workloads import Recorder, run_round

    w = w._replace(updates=MEMORY_QUERIES * w.every)
    rec = Recorder(w.updates)
    held = []

    def snapshot():
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, os.path.join(SRC, "streamkmatch", "*"))])
        held.append(sum(stat.size for stat in snap.statistics("filename")))

    rec.at_end = snapshot
    gc.collect()
    tracemalloc.start()
    try:
        run_round(w, seed, rec)
    finally:
        tracemalloc.stop()
    return held[0] / rec.facts["live_edges"]


def run_traced(w, seed, seconds, rec):
    """Untraced and traced rounds alternate until time is up; the
    untraced ones give the tracing overhead and the GC figures."""
    from tracing import Tracer
    from workloads import Recorder, run_round

    tracer = Tracer()
    traced = Recorder(w.updates)
    watch = GcWatch()
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        gc.callbacks.append(watch)
        try:
            run_round(w, seed, rec)
        finally:
            gc.callbacks.remove(watch)
        tracer.install()
        try:
            run_round(w, seed, traced, tracer.top)
        finally:
            tracer.uninstall()
        rounds += 1
        if time.perf_counter() >= deadline:
            break
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(out_dir, f"trace-{w.name}-{seed}.jsonl"))
    state_bytes = bytes_per_live_edge(w, seed)
    return per_layer(w, rec, traced, tracer, watch, rounds, state_bytes), traced


def per_layer(w, plain, traced, t, watch, rounds, state_bytes) -> dict:
    updates = w.updates * rounds
    queries = len(traced.queries)
    steps = t.counted("update", "reducer.steps") + t.counted("query", "reducer.steps")
    step_s = t.total("update", "reducer.step_upto") + t.total("query", "reducer.step_upto")
    solves = t.counted("query", "solve.calls")
    solved_edges = t.counted("query", "solve.edges_in")
    samplers = sum(s for s, _ in traced.query_facts)
    fails = sum(f for _, f in traced.query_facts)
    update_self = t.self_time("update", "update")
    plain_rate = statistics.median(plain.round_rates)
    traced_rate = statistics.median(traced.round_rates)
    facts = traced.facts
    return {
        "reducer.steps_per_update": (t.counted("update", "reducer.steps") / updates, "count"),
        "reducer.steps_max": (t.steps_max, "count"),
        "reducer.budget": (facts.get("budget", 0), "count"),
        "reducer.ns_per_step": (step_s / steps * 1e9 if steps else 0.0, "ns"),
        "ingest.self_us": (update_self / updates * 1e6, "us"),
        "hash.bucket_evals_per_update": (t.counted("update", "hash.bucket") / updates, "count"),
        "query.drain_ms": (t.total("query", "query.drain") / queries * 1e3, "ms"),
        "query.reduce_ms": (t.total("query", "query.reduce") / queries * 1e3, "ms"),
        "query.solve_ms": (t.total("query", "solve") / queries * 1e3, "ms"),
        "query.decode_ms": (t.self_time("query", "query") / queries * 1e3, "ms"),
        "solve.edges_in": (solved_edges / solves if solves else 0.0, "count"),
        "solve.calls_per_query": (solves / queries, "count"),
        "space.stored_edges_peak": (facts.get("stored_edges_peak", 0), "edges"),
        "space.bound": (facts.get("space_bound", 0), "edges"),
        "cells.touches_per_update": (traced.touches / updates, "count"),
        "cells.ns_per_touch": (update_self / traced.touches * 1e9 if traced.touches else 0.0, "ns"),
        "hash.vertex_evals": (t.counted("update", "hash.vertex") / updates, "count"),
        "hash.level_evals": (t.counted("update", "hash.level") / updates, "count"),
        "round.us_per_update": (t.total("update", "round_weight") / updates * 1e6, "us"),
        "decode.samplers": (samplers / queries if w.kind != "ins" else 0.0, "count"),
        "decode.fails": (fails / queries if w.kind != "ins" else 0.0, "count"),
        "decode.edges_per_sampler": (solved_edges / samplers if samplers else 0.0, "ratio"),
        "merge.ms": (t.total("merge", "merge") / queries * 1e3, "ms"),
        "cells.live": (facts["cells"], "count"),
        "state.bytes_per_live_edge": (state_bytes, "B"),
        "gc.full_collections": (watch.full / rounds, "count"),
        "gc.pause_ms": (watch.pause / rounds * 1e3, "ms"),
        "trace.updates_per_s": (traced_rate, "1/s"),
        "trace.overhead_pct": ((plain_rate - traced_rate) / plain_rate * 100, "%"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    from workloads import WORKLOADS, Recorder, misses_limit

    w = WORKLOADS.get(args.workload)
    if w is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    rec = Recorder(w.updates)
    recs = [rec]
    if args.trace:
        metrics, traced = run_traced(w, args.seed, args.seconds, rec)
        recs.append(traced)
    else:
        metrics = end_to_end(rec, run_plain(w, args.seed, args.seconds, rec))
    round_misses = [m for r in recs for m in r.round_misses]
    checked = sum(r.checked for r in recs)
    failed = sum(r.failed for r in recs)
    per_round = round_misses[0]
    limit = misses_limit(w, checked // len(round_misses))
    correct = all(m == per_round for m in round_misses) and per_round <= limit
    print(f"{w.name} seed={args.seed}: {len(round_misses)} rounds, "
          f"{checked} answers checked, {failed} failed, "
          f"misses per round {per_round} (limit {limit}, paper bound "
          f"{w.miss_bound:.4f} per query); machine speed: reference loop at "
          f"{statistics.median(rec.speed):.3f}x its nominal time")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in recs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

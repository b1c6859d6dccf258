"""The four workloads, each a closed loop run in whole rounds.

A round builds fresh matcher(s) and feeds one seeded stream, one
update after the previous returns, with a query every `every` updates.
Every round of a run repeats the same operations with the same matcher
randomness, so counts depend only on the seed.  Only the calls into the
package are timed; generating inputs and checking answers are not.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
import traceback
from array import array
from typing import NamedTuple

from streamkmatch import (
    DELETE,
    DynamicMatcher,
    Edge,
    INSERT,
    InsertMatcher,
    NO_K_MATCHING,
    StreamElement,
)

from checker import FAIL, MISS, InsertOnlyOptimum, judge, optimum
from streams import InsertStream, InsertedPrefix, mix64, pair_number, window_stream


class Workload(NamedTuple):
    name: str
    kind: str            # "ins", "dyn" or "shards"
    n: int
    k: int
    epsilon: object      # None: exact dynamic mode
    weight_max: int
    updates: int         # per round
    every: int           # updates between queries (the epoch, for shards)
    window: int = 0      # live edges kept by the dynamic streams
    miss_bound: float = 0.0  # the paper's per-query failure probability


def _dyn_miss_bound(k: int) -> float:
    """1 - success probability of the sampler-grid matcher."""
    return 11 / (20 * k ** 3 * math.log(2 * k))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ins-weighted",
                 "ins", n=100_000, k=3, epsilon=1 / 16, weight_max=10 ** 6,
                 updates=20_000, every=200, miss_bound=1 / 16),
        Workload("ins-unweighted",
                 "ins", n=100_000, k=3, epsilon=1 / 16, weight_max=1,
                 updates=20_000, every=200, miss_bound=1 / 16),
        Workload("dyn-churn",
                 "dyn", n=200, k=2, epsilon=None, weight_max=8,
                 updates=1_600, every=64, window=32, miss_bound=_dyn_miss_bound(2)),
        Workload("dyn-approx-shards",
                 "shards", n=200, k=2, epsilon=0.1, weight_max=10 ** 6,
                 updates=1_600, every=64, window=32, miss_bound=_dyn_miss_bound(2)),
    )
}


def misses_limit(w: Workload, queries: int, alarm: float = 1e-6) -> int:
    """Largest miss count per round that the paper's bound explains:
    the smallest L with P(Binomial(queries, miss_bound) > L) <= alarm."""
    p = w.miss_bound
    tail = 1.0
    for misses in range(queries + 1):
        tail -= math.comb(queries, misses) * p ** misses * (1 - p) ** (queries - misses)
        if tail <= alarm:
            return misses
    return queries


def matcher_rng(seed: int) -> random.Random:
    return random.Random(f"matcher/{seed}")


def build(w: Workload, seed: int):
    """The matcher(s) a round starts from: what set-up time measures."""
    if w.kind == "ins":
        return InsertMatcher(w.n, w.k, w.epsilon, matcher_rng(seed))
    if w.kind == "dyn":
        return DynamicMatcher(w.n, w.k, matcher_rng(seed), epsilon=w.epsilon)
    # coordinator plus two shards, all from the same randomness
    return [DynamicMatcher(w.n, w.k, matcher_rng(seed), epsilon=w.epsilon)
            for _ in range(3)]


def _answer(ans):
    if ans is NO_K_MATCHING:
        return None
    return [(e.u, e.v, e.wt) for e in ans.edges]


# Timings are the calling thread's CPU time.  On a shared virtual
# machine the hypervisor takes the CPU away for milliseconds at a time
# (steal time), and a wall clock charges that to whichever update was
# running; it is not the program's cost (README, "Steadiness").
clock = time.thread_time

# The machine's speed drifts by tens of percent over seconds (README,
# "Steadiness").  A fixed reference loop, run at every query point
# outside the timed spans, measures that speed; each round's timings are
# rescaled to the speed at which the loop takes PROBE_NOMINAL_S.  The
# loop is 61-bit modular arithmetic, the field work of the hashes and
# fingerprints; of the loops tried it tracked the matchers' throughput
# most closely.  Single updates slow down about half as much as the
# loop (log-log slope 0.3 to 1, around 0.6), so their percentiles are
# rescaled by the square root of the factor.
PROBE_NOMINAL_S = 1e-3
_FIELD = (1 << 61) - 1


def probe() -> float:
    """Seconds the reference loop takes now (the fastest of three)."""
    pc = clock
    best = math.inf
    for _ in range(3):
        t0 = pc()
        acc, z = 0, 123456789123456789
        for i in range(2000):
            acc = (acc + z * i) % _FIELD
            z = (z * 48271 + i) % _FIELD
        best = min(best, pc() - t0)
    return best


class Recorder:
    """Timings and outcomes of one run.

    Update latencies live in one preallocated array reused by every
    round, so memory does not grow with the run; each round is reduced
    to its throughput and percentiles.  Throughput and query latencies
    (pooled over the run) are rescaled by the round's median probe(),
    per-update percentiles by its square root (README, "Steadiness").
    """

    def __init__(self, round_updates: int):
        self.lat = array("d", bytes(8 * round_updates))
        self.queries = array("d")
        self.round_rates = []
        self.round_p50 = []
        self.round_p99 = []
        self.round_probes = []  # the probe times of the current round
        self.round_queries = array("d")
        self.speed = []         # per round: median probe / PROBE_NOMINAL_S
        self.attempted = 0
        self.failed = 0
        self.misses = 0
        self.checked = 0
        self.round_misses = []
        self.facts = {}         # end-of-round counts of the last round
        self.query_facts = []   # (live samplers, decode fails) per traced query
        self.touches = 0        # cell touches of traced updates
        self.at_end = None      # called with the round's matcher(s) alive
        self._misses_at_start = 0

    def start_round(self) -> None:
        self._misses_at_start = self.misses
        self.round_probes = [probe()]
        self.round_queries = array("d")

    def end_round(self, count: int) -> None:
        scale = statistics.median(self.round_probes) / PROBE_NOMINAL_S
        root = math.sqrt(scale)
        lat = sorted(self.lat[:count])
        self.speed.append(scale)
        self.round_rates.append(count / sum(lat) * scale)
        self.round_p50.append(percentile(lat, 0.50) / root)
        self.round_p99.append(percentile(lat, 0.99) / root)
        self.queries.extend(q / scale for q in self.round_queries)
        self.round_misses.append(self.misses - self._misses_at_start)

    def fault(self, what: str) -> None:
        if self.failed == 0:
            print(f"first failed operation: {what}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
        self.failed += 1

    def grade(self, ans, live, k: int, opt, ratio: float) -> None:
        self.round_probes.append(probe())
        outcome = judge(_answer(ans), live, k, opt, ratio)
        self.checked += 1
        if outcome == FAIL:
            if self.failed == 0:
                print(f"first wrong answer: {ans!r} (optimum {opt})", file=sys.stderr)
            self.failed += 1
        elif outcome == MISS:
            self.misses += 1


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def _identity(name, fn, after=None):
    return fn


def run_round(w: Workload, seed: int, rec: Recorder, wrap=_identity) -> None:
    """One round; `wrap(name, fn, after)` may trace the calls."""
    rec.start_round()
    if w.kind == "ins":
        _ins_round(w, seed, rec, wrap)
    else:
        _dyn_round(w, seed, rec, wrap)
    rec.end_round(w.updates)


def _ins_round(w, seed, rec, wrap):
    stream = InsertStream(w.n, seed, w.weight_max)
    matcher = build(w, seed)
    insert = wrap("update", matcher.process_insert)
    query = wrap("query", matcher.query)
    best = InsertOnlyOptimum(w.k)
    lat, queries, pc = rec.lat, rec.round_queries, clock
    for i in range(w.updates):
        u, v, wt = stream.edge(i)
        e = Edge(u, v, wt)
        t0 = pc()
        try:
            insert(e)
        except Exception:
            lat[i] = pc() - t0
            rec.fault(f"insert {e}")
        else:
            lat[i] = pc() - t0
        rec.attempted += 1
        best.add((wt, u, v))
        if (i + 1) % w.every == 0:
            rec.attempted += 1
            t0 = pc()
            try:
                ans = query()
            except Exception:
                rec.fault(f"query after {i + 1} inserts")
                continue
            queries.append(pc() - t0)
            rec.grade(ans, InsertedPrefix(stream, i + 1), w.k, best.optimum(), 1.0)
    if rec.at_end is not None:
        rec.at_end()
    rec.facts = {
        "budget": matcher.budget,
        "stored_edges_peak": matcher.peak_stored_edges,
        "space_bound": matcher.space_bound,
        "live_edges": w.updates,
        "cells": 0,
    }


def _dyn_round(w, seed, rec, wrap):
    shards = w.kind == "shards"
    grids = build(w, seed)
    coord = grids[0] if shards else grids
    ratio = 1.0 if w.epsilon is None else 1 - w.epsilon
    route_key = mix64(seed)

    def samplers():
        rec.query_facts.append((coord.live_sampler_count, coord.last_fail_count))

    def feeder(g):
        def touched():
            rec.touches += g.last_keys_touched * g.reps
        return wrap("update", g.process_update, touched)

    query = wrap("query", coord.query, samplers)
    if shards:
        feeders = [feeder(g) for g in grids[1:]]
        merge = wrap("merge", coord.merge_from)
    else:
        feeders = [feeder(coord)]
    lat, queries, pc = rec.lat, rec.round_queries, clock
    stream = window_stream(w.n, w.window, w.updates, seed, w.weight_max)
    for i, (sign, u, v, wt, live) in enumerate(stream):
        el = StreamElement(Edge(u, v, wt), INSERT if sign > 0 else DELETE)
        feed = feeders[mix64(pair_number(u, v) ^ route_key) & 1] if shards else feeders[0]
        t0 = pc()
        try:
            feed(el)
        except Exception:
            lat[i] = pc() - t0
            rec.fault(f"update {el}")
        else:
            lat[i] = pc() - t0
        rec.attempted += 1
        if (i + 1) % w.every == 0:
            rec.attempted += 1
            t0 = pc()
            try:
                if shards:
                    # close the epoch: fold its shard grids into the
                    # coordinator and start fresh ones
                    merge(grids[1])
                    merge(grids[2])
                    grids[1:] = [DynamicMatcher(w.n, w.k, matcher_rng(seed),
                                                epsilon=w.epsilon) for _ in range(2)]
                    feeders = [feeder(g) for g in grids[1:]]
                ans = query()
            except Exception:
                rec.fault(f"query after {i + 1} updates")
                continue
            queries.append(pc() - t0)
            opt = optimum([(x, a, b) for (a, b), x in live.items()], w.k)
            rec.grade(ans, live, w.k, opt, ratio)
    if rec.at_end is not None:
        rec.at_end()
    rec.facts = {
        "cells": len(coord.cells),
        "live_edges": w.window,
    }

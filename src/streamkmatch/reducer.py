"""Compact and reduced subgraphs under a vertex-partition hash.

Given a hash f from vertices into 4k^2 buckets:

  * the compact subgraph keeps, for each unordered bucket pair, only
    the heaviest edge running between the two buckets (edges whose
    endpoints share a bucket are dropped);
  * the reduced subgraph then trims the compact subgraph in two steps:
    per bucket, keep only edges among the 2k heaviest incident to that
    bucket (an edge must survive via both endpoint buckets), and then
    keep only the 4k^2 heaviest edges overall.

The reduced subgraph has at most 4k^2 edges and preserves the best
k-matching whose vertices all land in distinct buckets.

ReducerState runs the same computation in micro-steps (one element
touch each) so a stream consumer can spread the work across arrivals
with a fixed per-arrival budget.
"""

from __future__ import annotations

from .core import Edge, InvalidParameter
from .hashing import UniversalHash, random_universal
from .selection import top_t_steps

# Calibrated micro-step constant: a full reduction of m edges yields at
# most C_RED * (m + k^2) micro-steps.  Pinned by a calibration test.
C_RED = 24

_BETA = lambda e: e.beta  # noqa: E731  (used as a selection key everywhere)


def new_vertex_partition(k: int, rng) -> UniversalHash:
    """A universal hash from vertices into [4k^2]."""
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    return random_universal(4 * k * k, rng)


def compact_subgraph(edges, f: UniversalHash):
    """Definitional compact subgraph: heaviest edge per bucket pair."""
    best = {}
    for e in edges:
        i, j = f(e.u), f(e.v)
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        cur = best.get(pair)
        if cur is None or e.beta > cur.beta:
            best[pair] = e
    return list(best.values())


class ReducerState:
    """Resumable computation of the reduced subgraph.

    phase walks BucketFilter -> PairDedup -> TopPerBucket -> GlobalTop
    -> Done; output is available once phase == "Done".  step() advances
    at most the configured number of micro-steps and is a no-op after
    completion.
    """

    def __init__(self, edges, f: UniversalHash, k: int, budget_per_step: int):
        if budget_per_step < 1:
            raise InvalidParameter("budget_per_step must be >= 1")
        self.input_edges = list(edges)
        self.f = f
        self.k = k
        self.budget = budget_per_step
        self.phase = "BucketFilter"
        self.output = None
        self.steps_total = 0
        self._gen = self._run()

    @property
    def done(self) -> bool:
        return self.phase == "Done"

    def step(self) -> int:
        """Advance up to budget micro-steps; returns steps executed."""
        return self.step_upto(self.budget)

    def step_upto(self, limit: int) -> int:
        if self.phase == "Done":
            return 0
        executed = 0
        gen = self._gen
        try:
            while executed < limit:
                next(gen)
                executed += 1
        except StopIteration:
            self.phase = "Done"
        self.steps_total += executed
        return executed

    def run_to_completion(self) -> list:
        while self.phase != "Done":
            self.step_upto(1 << 30)
        return self.output

    def _run(self):
        k = self.k
        f = self.f
        cap_bucket = 2 * k
        cap_global = 4 * k * k

        # phase 1: drop intra-bucket edges, tagging each with its pair
        tagged = []
        for e in self.input_edges:
            yield
            i, j = f(e.u), f(e.v)
            if i != j:
                tagged.append(((i, j) if i < j else (j, i), e))

        # phase 2: heaviest edge per bucket pair
        self.phase = "PairDedup"
        best = {}
        for pair, e in tagged:
            yield
            cur = best.get(pair)
            if cur is None or e.beta > cur[1].beta:
                best[pair] = (pair, e)

        # phase 3: per bucket, keep only the 2k heaviest incident edges;
        # an edge survives iff kept by both of its endpoint buckets
        self.phase = "TopPerBucket"
        buckets = {}
        for pair, e in best.values():
            yield
            buckets.setdefault(pair[0], []).append(e)
            buckets.setdefault(pair[1], []).append(e)
        marks = {}
        for incident in buckets.values():
            if len(incident) <= cap_bucket:
                kept = incident
                for _ in incident:
                    yield
            else:
                out = [None]
                yield from top_t_steps(incident, cap_bucket, _BETA, out)
                kept = out[0]
            for e in kept:
                yield
                marks[e] = marks.get(e, 0) + 1
        survivors = []
        for pair, e in best.values():
            yield
            if marks.get(e, 0) == 2:
                survivors.append(e)

        # phase 4: keep the 4k^2 heaviest overall
        self.phase = "GlobalTop"
        if len(survivors) <= cap_global:
            for _ in survivors:
                yield
            self.output = survivors
        else:
            out = [None]
            yield from top_t_steps(survivors, cap_global, _BETA, out)
            self.output = out[0]


def reduce(edges, f: UniversalHash, k: int) -> list:
    """Definitional reduced subgraph (the drained micro-step machine)."""
    return ReducerState(edges, f, k, 1).run_to_completion()

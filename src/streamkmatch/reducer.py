"""Reduced subgraphs under a vertex-partition hash, paid for in units.

Given a hash f from vertices into r = 4k^2 buckets, the reduced
subgraph of a set of edges is built in four phases:

  * drop edges whose endpoints share a bucket;
  * keep, for each unordered bucket pair, only the heaviest
    edge running between the two buckets (the compact subgraph);
  * per bucket, keep only edges among the 2k heaviest
    incident to that bucket (an edge must survive via both endpoint
    buckets);
  * keep only the 4k^2 heaviest edges overall.

The reduced subgraph has at most 4k^2 edges and preserves the best
k-matching whose vertices all land in distinct buckets.

ReducerState runs the computation under the budget protocol of
selection.py, so a stream consumer can spread it across arrivals with a
fixed per-arrival budget.  One unit is one element touch: one per input
edge, one per tagged edge, one per bucket pair when bucketing it, the
units of each bucket's top-2k selection, one per edge a bucket keeps,
one per bucket pair when collecting the survivors, and the units of the
global top-4k^2 selection.  `step_upto(limit)` resumes the machine with
one `send(limit)`; the machine yields only when the limit is spent and
work remains.  Every slice of real work, each list slice and dict walk
included, belongs to a charged slice of units, and the uncharged work
between two slices is O(1) (a resume passes through at most the
select's recursion depth, O(log k) frames), so a call that returns u
does O(u + 1) work, and an arrival, which resumes at most one machine
per hash, does O(budget + hashes) work.

The machine works on entries (wt, u, v, code, edge): their natural
order is the edge heaviness order beta = (wt, u, v), and code = i*r + j
names the bucket pair i < j.  The entries a reduction keeps (`kept`)
can be carried into the next reduction under the same hash, which then
takes them without hashing their endpoints again.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

from .core import InvalidParameter
from .hashing import UniversalHash, random_universal
from .selection import _touch, top_t_steps, walk

# Calibrated unit constant: a full reduction of m edges spends at most
# C_RED * (m + k^2) units.  Pinned by a calibration test.
C_RED = 24


def new_vertex_partition(k: int, rng) -> UniversalHash:
    """A universal hash from vertices into [4k^2]."""
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    return random_universal(4 * k * k, rng)


class ReducerState:
    """Resumable computation of the reduced subgraph of carry + edges.

    `edges` is a sequence that must not change before the reduction is
    done; `carry` is the `kept` list of an earlier reduction under the
    same f.  `done` turns true when the machine returns; `kept` and
    `output` are set from then on.
    """

    def __init__(self, edges, f: UniversalHash, k: int, carry=()):
        self.edges = edges
        self.carry = carry
        self.f = f
        self.k = k
        self.done = False
        self.kept = None
        self._gen = self._run()
        next(self._gen)  # to the first budget request; no work done yet

    @property
    def output(self):
        """The reduced subgraph's edges (None until done)."""
        return None if self.kept is None else [x[4] for x in self.kept]

    def step_upto(self, limit: int) -> int:
        """Spend up to limit units; returns units spent (0 once done)."""
        if self.done:
            return 0
        if limit < 0:
            raise InvalidParameter(f"budget {limit} must be >= 0")
        try:
            self._gen.send(limit)
        except StopIteration as stop:
            self.done = True
            return limit - stop.value
        return limit

    def run_to_completion(self) -> list:
        while not self.done:
            self.step_upto(1 << 30)
        return self.output

    def _run(self):
        budget = yield
        f, r = self.f, self.f.r
        edges, carry = self.edges, self.carry
        cap_bucket = 2 * self.k
        cap_global = 4 * self.k * self.k

        # phases 1 and 2: the heaviest entry per bucket pair.  Carried
        # entries hold distinct pairs already; new edges are bucketed
        # straight in, and intra-bucket ones dropped.  Each tagged entry
        # (carried or crossing) costs one more unit after bucketing.
        best = {}
        crossing = 0

        def carried(pos, end):
            for x in carry[pos:end]:
                best[x[3]] = x

        def bucketed(pos, end):
            nonlocal crossing
            for e in edges[pos:end]:
                u, v, wt = e
                i, j = f(u), f(v)
                if i == j:
                    continue
                x = (wt, u, v, i * r + j, e) if i < j else (wt, u, v, j * r + i, e)
                crossing += 1
                cur = best.get(x[3])
                if cur is None or x > cur:
                    best[x[3]] = x

        budget = yield from walk(len(carry), budget, carried)
        budget = yield from walk(len(edges), budget, bucketed)
        budget = yield from walk(len(carry) + crossing, budget, _touch)

        # phase 3: per bucket, keep only the 2k heaviest incident
        # entries; an entry survives iff kept by both of its buckets
        buckets = defaultdict(list)
        pairs = iter(best.values())

        def spread(pos, end):
            for x in islice(pairs, end - pos):
                i, j = divmod(x[3], r)
                buckets[i].append(x)
                buckets[j].append(x)

        budget = yield from walk(len(best), budget, spread)
        marks = {}

        def mark(pos, end):
            for x in kept[pos:end]:
                marks[x[3]] = marks.get(x[3], 0) + 1

        for kept in buckets.values():
            n = len(kept)
            if n <= cap_bucket and 2 * n <= budget:
                # the bucket's n touches and n marks fit in one slice
                budget -= 2 * n
                mark(0, n)
                continue
            kept, budget = yield from top_t_steps(kept, cap_bucket, budget)
            budget = yield from walk(len(kept), budget, mark)
        buckets = kept = None  # each phase frees its lists as it ends
        survivors = []
        pairs = iter(best.values())

        def survive(pos, end):
            survivors.extend([x for x in islice(pairs, end - pos) if marks.get(x[3]) == 2])

        budget = yield from walk(len(best), budget, survive)
        best = marks = None

        # phase 4: keep the 4k^2 heaviest overall
        self.kept, budget = yield from top_t_steps(survivors, cap_global, budget)
        return budget


def reduce(edges, f: UniversalHash, k: int, carry=()) -> list:
    """Reduced subgraph of carry (kept entries of an earlier reduction
    under f) and edges, computed in one go."""
    return ReducerState(list(edges), f, k, carry).run_to_completion()

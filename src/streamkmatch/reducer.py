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

ReducerState is a Meter (selection.py) over one routine that yields
each charged pass as `(n, visit)`, so a stream consumer can spread the
computation across arrivals with a fixed per-arrival budget.  One unit
is one element touch: one per input edge, one per tagged edge, one per
bucket pair when bucketing it, the units of each bucket's top-2k
selection, one per edge a bucket keeps, one per bucket pair when
collecting the survivors, and the units of the global top-4k^2
selection.  The units bound the touches the machine really makes from
above.  A bucket of at most 2k entries keeps them all, so it is
charged its 2n units for O(1) work; an over-full bucket records the
entries it cuts during the charged keep pass of its selection, as None
in their pair's slot, and the survivors are the pairs no bucket cut.
Every slice of real work, each list slice and dict walk included,
belongs to a charged pass, and the uncharged work between two passes
is O(1) (a resume passes through at most the select's recursion depth,
O(log k) frames), so each `step_upto` call that spends u units still
does O(u + 1) work, and an arrival, which steps at most one machine
per hash, does O(budget + hashes) work.

The machine works on entries (wt, u, v, code, edge): their natural
order is the edge heaviness order beta = (wt, u, v), and code = i*r + j
names the bucket pair i < j.  Bucketing evaluates f inline from its
coefficients (f.a, f.b, f.r), the value f(u) gives without a call per
endpoint.  The entries a reduction keeps (`kept`) can be carried into
the next reduction under the same hash, which then takes them without
hashing their endpoints again.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import islice

from .core import InvalidParameter
from .hashing import FIELD_PRIME, UniversalHash, random_universal
from .selection import Meter, select_steps, top_t_steps

# Calibrated unit constant: a full reduction of m edges spends at most
# C_RED * (m + k^2) units.  Pinned by a calibration test.
C_RED = 24


def new_vertex_partition(k: int, rng) -> UniversalHash:
    """A universal hash from vertices into [4k^2]."""
    if k < 1:
        raise InvalidParameter("k must be >= 1")
    return random_universal(4 * k * k, rng)


class ReducerState(Meter):
    """Resumable computation of the reduced subgraph of carry + edges.

    `edges` is a sequence that must not change before the reduction is
    done; `carry` is the `kept` list of an earlier reduction under the
    same f.  `done` turns true when the machine returns; `kept` and
    `output` are set from then on.
    """

    kept = None

    def __init__(self, edges, f: UniversalHash, k: int, carry=()):
        self.edges = edges
        self.carry = carry
        self.f = f
        self.k = k
        super().__init__(self._run())

    @property
    def output(self):
        """The reduced subgraph's edges (None until done)."""
        return None if self.kept is None else [x[4] for x in self.kept]

    def run_to_completion(self) -> list:
        super().run_to_completion()
        return self.output

    def _run(self):
        a, b, r, p = self.f.a, self.f.b, self.f.r, FIELD_PRIME
        edges, carry = self.edges, self.carry
        cap_bucket = 2 * self.k
        cap_global = 4 * self.k * self.k

        # phases 1 and 2: the heaviest entry per bucket pair.  Carried
        # entries hold distinct pairs already; new edges are bucketed
        # straight in, with f evaluated inline, and intra-bucket ones
        # dropped.  Each tagged entry (carried or crossing) costs one
        # more unit after bucketing.
        best = {}
        crossing = 0

        def carried(pos, end):
            for x in carry[pos:end]:
                best[x[3]] = x

        def bucketed(pos, end):
            nonlocal crossing
            for e in edges[pos:end]:
                u, v, wt = e
                i = (a * u + b) % p % r
                j = (a * v + b) % p % r
                if i == j:
                    continue
                code = i * r + j if i < j else j * r + i
                crossing += 1
                cur = best.get(code)
                # (wt, u, v) beats cur iff the entry would: a tie on
                # beta is the same pair and the same edge
                if cur is None or (wt, u, v) > cur:
                    best[code] = (wt, u, v, code, e)

        yield len(carry), carried
        yield len(edges), bucketed
        yield len(carry) + crossing, None

        # phase 3: per bucket, keep only the 2k heaviest incident
        # entries; an entry survives iff neither of its buckets cuts
        # it, and a cut entry's slot in best is set to None
        buckets = defaultdict(list)
        pairs = iter(best.values())

        def spread(pos, end):
            for x in islice(pairs, end - pos):
                code = x[3]
                buckets[code // r].append(x)
                buckets[code % r].append(x)

        yield len(best), spread

        def cut(pos, end):
            # positions past the bucket's end are its kept entries'
            # marks, which slice to nothing
            for x in incident[pos:end]:
                if x < threshold:
                    best[x[3]] = None

        for incident in buckets.values():
            n = len(incident)
            if n <= cap_bucket:
                # n touches and n marks, and nothing to cut
                yield 2 * n, None
            else:
                # select the threshold, then one keep pass that cuts
                # the lighter entries, then 2k marks
                threshold = yield from select_steps(incident, n - cap_bucket)
                yield n + cap_bucket, cut
        buckets = incident = None  # each phase frees its lists as it ends
        survivors = []
        pairs = iter(best.values())

        def survive(pos, end):
            survivors.extend(filter(None, islice(pairs, end - pos)))

        yield len(best), survive
        best = None

        # phase 4: keep the 4k^2 heaviest overall
        self.kept = yield from top_t_steps(survivors, cap_global)


def reduce(edges, f: UniversalHash, k: int, carry=()) -> list:
    """Reduced subgraph of carry (kept entries of an earlier reduction
    under f) and edges, computed in one go."""
    return ReducerState(list(edges), f, k, carry).run_to_completion()

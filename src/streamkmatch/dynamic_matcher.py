"""Fully dynamic streaming k-matching over a grid of l0-samplers.

Every edge update touches d2*d2 grid keys: one per pair (i, j) of the
two-level hash values of its endpoints, combined with the edge's weight
(or rounded weight bucket in approximation mode).  Each key owns an
l0-sampler over the universe of vertex pairs; a query draws one edge
from every live sampler, then solves max-weight k-matching exactly on
the sampled subgraph.  With the scheme built for parameter 2k and the
sampler failure rate delta = 1/(20 k^4 ln 2k), the answer is optimal
with probability at least 1 - 11/(20 k^3 ln 2k).

One cell engine, CellGrid, holds every sampler (Cormode & Firmani
2014).  A sampler is R repetitions, each subsampling the universe at
geometric rates (level l keeps index x iff the repetition's hash of x
is divisible by 2^l) with a one-sparse recovery cell per level.  A
cell holds the sums (count, sum of i, sum of payload, sum of z^i); it
decodes when its level holds a single live index, and the fingerprint
makes a false decode vanishingly unlikely.  Only the cell of an
index's exact level is stored; query time takes suffix sums.

All cells live in one dict keyed by (sampler base, repetition, level),
and all samplers share the level hashes and the fingerprint base z.
Sharing keeps each per-sampler failure bound (a per-cell union bound)
and buys an order of magnitude on updates.  A matcher sampler's base
is weight key * d4^2 + pair, so weights need no registry; L0Sampler is
the grid's single sampler at base 0.  The matcher's payload is the
true weight, so approximation mode reports exact weights although its
keys only know the rounded bucket.  Every field is a sum: deletions
are exact inverses, and grids with the same randomness merge cell-wise.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .core import (
    Edge,
    INSERT,
    InvalidParameter,
    MalformedStream,
    StreamElement,
    edge_at_index,
    matching_of,
)
from .hashing import FIELD_PRIME, build_hash_scheme, random_kwise, scheme_eval
from .solver import NO_K_MATCHING, max_weight_k_matching


def default_delta(k: int) -> float:
    return 1.0 / (20 * k ** 4 * math.log(2 * k))


def round_weight(w, epsilon: float) -> int:
    """The integer t with (1+eps)^(t-1) < w <= (1+eps)^t, exactly."""
    if w <= 0:
        raise InvalidParameter("weight must be positive for rounding")
    if not (0 < epsilon < 1):
        raise InvalidParameter("epsilon must lie in (0, 1)")
    base = Fraction(1) + Fraction(epsilon)
    t = math.ceil(math.log(w) / math.log1p(epsilon))
    fw = Fraction(w)
    while base ** t < fw:
        t += 1
    while base ** (t - 1) >= fw:
        t -= 1
    return t


class Fail:
    """Sentinel: the sampler could not decode any live index."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Fail"

    def __bool__(self):
        return False


FAIL = Fail()


class Sample(NamedTuple):
    index: int
    count: int  # multiplicity of the decoded index


def _bump(counts: dict, key, d) -> None:
    """Add d to counts[key], dropping the key when it reaches zero."""
    c = counts.get(key, 0) + d
    if c:
        counts[key] = c
    else:
        del counts[key]


class CellGrid:
    """Many l0-samplers over [0, universe) sharing hashes and cells.

    A sampler is named by an integer base; `_counts` keeps the net
    count of each sampler that has one.  Only positive counts decode:
    a suffix whose count is zero or negative (a delete whose insert has
    not arrived) is skipped.
    """

    def __init__(self, universe: int, delta: float, rng):
        if universe < 1:
            raise InvalidParameter("universe size must be >= 1")
        if not (0 < delta < 1):
            raise InvalidParameter("delta must lie in (0, 1)")
        self.universe = universe
        self.delta = delta
        self.levels = max(1, math.ceil(math.log2(max(universe, 2)))) + 1
        self.reps = max(1, math.ceil(math.log2(1 / delta)))
        kappa = self.reps + 2
        span = 1 << (self.levels - 1)
        self.level_hashes = [
            random_kwise(kappa, span, rng) for _ in range(self.reps)
        ]
        self.z = rng.randrange(1, FIELD_PRIME)
        self.cells = {}   # (base, rep, exact level) packed -> [c0, c1, payload, fp]
        self._counts = {}  # base -> net count, zeros dropped
        # a cell key is (base << _shift) | (rep << _lev_bits) | level
        self._lev_bits = (self.levels - 1).bit_length()
        self._shift = self._lev_bits + (self.reps - 1).bit_length()

    def _add(self, bases, index: int, d: int, payload) -> None:
        """Add d copies of index, each carrying payload, to every sampler
        in bases."""
        top = self.levels - 1
        lev_bits = self._lev_bits
        rls = []
        for rep, g in enumerate(self.level_hashes):
            val = g(index)
            lev = (val & -val).bit_length() - 1 if val else top
            rls.append((rep << lev_bits) | lev)
        di = d * index
        dp = d * payload
        dz = d * pow(self.z, index, FIELD_PRIME)
        cells = self.cells
        cget = cells.get
        counts = self._counts
        shift = self._shift
        for base in bases:
            _bump(counts, base, d)
            kb = base << shift
            for rl in rls:
                key = kb | rl
                cell = cget(key)
                if cell is None:
                    cells[key] = [d, di, dp, dz]
                else:
                    cell[0] += d
                    cell[1] += di
                    cell[2] += dp
                    cell[3] += dz
                    if not (cell[0] or cell[1] or cell[2] or cell[3]):
                        del cells[key]

    def _decode(self, bases):
        """Query each sampler in bases once.  Returns the decoded
        (index, count, payload per copy) triples and the fail count."""
        q = FIELD_PRIME
        z = self.z
        universe = self.universe
        cget = self.cells.get
        shift = self._shift
        lev_bits = self._lev_bits
        reps = range(self.reps)
        levels = range(self.levels - 1, -1, -1)
        zpow = {}  # z^j of the candidates this query has seen
        found = []
        fails = 0
        for base in bases:
            kb = base << shift
            got = None
            for rep in reps:
                rb = kb | (rep << lev_bits)
                c0 = c1 = c2 = fp = 0
                for lev in levels:
                    c = cget(rb | lev)
                    if c is not None:
                        c0 += c[0]
                        c1 += c[1]
                        c2 += c[2]
                        fp += c[3]
                    if c0 <= 0 or c1 % c0:
                        continue
                    j = c1 // c0
                    if not 0 <= j < universe:
                        continue
                    zj = zpow.get(j)
                    if zj is None:
                        zj = zpow[j] = pow(z, j, q)
                    if (fp - c0 * zj) % q == 0:
                        if c2 % c0 == 0:
                            got = (j, c0, c2 // c0)
                        break
                if got is not None:
                    break
            if got is None:
                fails += 1
            else:
                found.append(got)
        return found, fails

    def _merge_cells(self, other: "CellGrid") -> None:
        """Cell-wise add of a grid built with the same randomness."""
        cells = self.cells
        for key, c in other.cells.items():
            mine = cells.get(key)
            if mine is None:
                cells[key] = list(c)
            else:
                for idx in range(4):
                    mine[idx] += c[idx]
                if not (mine[0] or mine[1] or mine[2] or mine[3]):
                    del cells[key]
        for base, cnt in other._counts.items():
            _bump(self._counts, base, cnt)


class L0Sampler(CellGrid):
    """One l0-sampler: the grid's sampler at base 0, payload 0."""

    def update(self, index: int, delta: int) -> None:
        if not (0 <= index < self.universe):
            raise InvalidParameter(f"index {index} outside universe")
        if delta:
            self._add((0,), index, delta, 0)

    def query(self):
        """A decoded (index, multiplicity), or FAIL."""
        found, _ = self._decode((0,))
        return Sample(*found[0][:2]) if found else FAIL

    def merge(self, other: "L0Sampler") -> None:
        """Cell-wise addition; both samplers must share hashes and z."""
        if (
            other.universe != self.universe
            or other.level_hashes != self.level_hashes
            or other.z != self.z
        ):
            raise InvalidParameter("samplers built with different randomness")
        self._merge_cells(other)

    def cells_snapshot(self) -> str:
        """Cells as sorted decimal integer lines: rep, level, c0, c1, fp."""
        rep_of, lev_mask = self._lev_bits, (1 << self._lev_bits) - 1
        return "\n".join(
            f"{key >> rep_of} {key & lev_mask} {c[0]} {c[1]} {c[3] % FIELD_PRIME}"
            for key, c in sorted(self.cells.items())
        )


class DynamicMatcher(CellGrid):
    def __init__(self, n: int, k: int, rng, epsilon=None, delta=None, validate=False):
        if k < 1:
            raise InvalidParameter("k must be >= 1")
        if n < 2 * k:
            raise InvalidParameter(f"n={n} cannot host a {k}-matching")
        if epsilon is not None and not (0 < epsilon < 1):
            raise InvalidParameter("epsilon must lie in (0, 1)")
        self.n = n
        self.k = k
        self.epsilon = epsilon
        # the scheme draws from rng before the grid: seeded answers
        # depend on that order
        self.scheme = build_hash_scheme(n, 2 * k, rng)
        if delta is None:
            delta = default_delta(k)
        super().__init__(n * (n - 1) // 2, delta, rng)
        self._weight_keys = set()  # every weight key seen
        self._weight_counts = {}   # true weight -> live edge count
        self._vcache = {}          # vertex -> tuple of scheme values
        self._live = {} if validate else None
        # instrumentation
        self.updates = 0
        self.last_keys_touched = 0
        self.max_keys_touched = 0
        self.last_fail_count = 0

    # -- update path ---------------------------------------------------

    def _vhash(self, x: int):
        got = self._vcache.get(x)
        if got is None:
            got = self._vcache[x] = tuple(scheme_eval(self.scheme, x))
        return got

    def process_update(self, el: StreamElement) -> None:
        e, op = el
        d = 1 if op == INSERT else -1
        u, v, w = e
        if not isinstance(w, int):
            # a weight is part of the cell key (exact mode) and of the
            # cell sums that must cancel exactly (both modes)
            raise InvalidParameter(
                f"dynamic weights must be integers, got {w!r}: scale real "
                "weights to integers, and set epsilon to round a wide range "
                "into few weight keys"
            )
        if not (0 <= u < v < self.n and w >= 0):
            raise MalformedStream(self.updates, f"bad edge ({u}, {v}, {w})")
        if self._live is not None:
            self._check(u, v, w, d)
        key_w = w
        if self.epsilon is not None:
            # t(1) = 0, so key -1 is free for weight 0
            key_w = round_weight(w, self.epsilon) if w else -1
        self._weight_keys.add(key_w)
        hu = self._vhash(u)
        hv = self._vhash(v)
        d4 = self.scheme.d4
        wb = key_w * d4 * d4
        eid = u * self.n - u * (u + 1) // 2 + (v - u - 1)
        self._add([wb + i * d4 + j for i in hu for j in hv], eid, d, w)
        _bump(self._weight_counts, w, d)
        self.updates += 1
        self.last_keys_touched = len(hu) * len(hv)
        if self.last_keys_touched > self.max_keys_touched:
            self.max_keys_touched = self.last_keys_touched

    def _check(self, u, v, w, d):
        key = (u, v)
        if d > 0:
            if key in self._live:
                raise MalformedStream(self.updates, f"duplicate insert of {key}")
            self._live[key] = w
        else:
            if self._live.get(key) != w:
                raise MalformedStream(self.updates, f"bad delete of {key}")
            del self._live[key]

    # -- query path ----------------------------------------------------

    def query(self):
        sampled = self._sample_edges()
        if self.epsilon is None:
            return max_weight_k_matching(sampled, self.k)
        base = 1.0 + self.epsilon
        rounded = [
            Edge(e.u, e.v, base ** round_weight(e.wt, self.epsilon) if e.wt else 0)
            for e in sampled
        ]
        answer = max_weight_k_matching(rounded, self.k)
        if answer is NO_K_MATCHING:
            return answer
        true = {(e.u, e.v): e.wt for e in sampled}
        return matching_of(
            Edge(e.u, e.v, true[(e.u, e.v)]) for e in answer.edges
        )

    def _sample_edges(self):
        """Query every live sampler once; decoded edges carry true weights."""
        found, self.last_fail_count = self._decode(self._counts)
        weights = {eid: wt for eid, _, wt in found}
        n = self.n
        return [Edge(*edge_at_index(eid, n), wt) for eid, wt in weights.items()]

    # -- bookkeeping ---------------------------------------------------

    @property
    def distinct_live_weights(self) -> int:
        return len(self._weight_counts)

    @property
    def distinct_weight_keys(self) -> int:
        return len(self._weight_keys)

    @property
    def live_sampler_count(self) -> int:
        return len(self._counts)

    def stats(self) -> dict:
        return {
            "updates": self.updates,
            "distinct_live_weights": self.distinct_live_weights,
            "distinct_weight_keys": self.distinct_weight_keys,
            "live_samplers": self.live_sampler_count,
            "cells": len(self.cells),
            "keys_touched_last": self.last_keys_touched,
            "keys_touched_max": self.max_keys_touched,
            "fail_count_last_query": self.last_fail_count,
        }

    def merge_from(self, other: "DynamicMatcher") -> None:
        """Cell-wise combine of a grid built with identical randomness
        over a disjoint stream (sharded ingestion)."""
        if (
            other.scheme != self.scheme
            or other.level_hashes != self.level_hashes
            or other.z != self.z
            or other.epsilon != self.epsilon
        ):
            raise InvalidParameter("grids built with different randomness")
        self._merge_cells(other)
        for w, cnt in other._weight_counts.items():
            _bump(self._weight_counts, w, cnt)
        self._weight_keys |= other._weight_keys
        self.updates += other.updates


def new_dynamic_matcher(n: int, k: int, rng, delta=None, validate=False) -> DynamicMatcher:
    return DynamicMatcher(n, k, rng, delta=delta, validate=validate)


def new_approx_matcher(n: int, k: int, epsilon: float, rng, delta=None) -> DynamicMatcher:
    if epsilon is None:
        raise InvalidParameter("epsilon required for the approximate matcher")
    return DynamicMatcher(n, k, rng, epsilon=epsilon, delta=delta)

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
cell decodes when its level holds a single live index, and the
fingerprint makes a false decode vanishingly unlikely.  Only the cell
of an index's exact level is stored; query time takes suffix sums.

A cell is one int of signed fields, low field first: the count (64
bits), the sum of i (64 + universe.bit_length() bits), the unreduced
fingerprint sum of z^i (125 bits) and the payload sum on top,
unbounded.  Each field holds its sum while the cell has taken fewer
than 2^63 updates, so cells add as ints: deletions are exact inverses,
grids with the same randomness merge cell-wise, and a cell is zero
exactly when all its sums are.

Storage rule.  Each sampler keeps a top cell, the sum of every update
it has taken (its level-0 suffix in every repetition), dropped at zero.
While its updates all carry one index and its count is not zero, that
cell is all it stores: its index sum is exactly count * index, and each
repetition would hold that one cell at the index's level, so decoding
it runs the checks repetition 0 runs, once per distinct top cell a
query meets.  An update with a second index makes the sampler full: the
top cell is spread to its index's levels, and every later update also
reaches the per-repetition cells of its index's levels.  So does an
update that zeroes the count but not the cell (approximation mode: a
delete whose weight differs from its insert's but rounds to the same
key), while the index can still be read.  A full sampler stays full
until its top cell is zero; its cells are then zero too unless its net
multiplicities have a fingerprint sum vanishing at z, the same
<= universe/q event the decoder accepts as a false decode.  The stored
state depends on order (+a, +b, -b leaves a full sampler; +a merged
with +b, -b leaves a one-index one), the decode does not; dense_cells()
is the order-free view, every sampler spread to its levels.

All cells live in one dict keyed by (sampler base, repetition, level),
and all samplers share the level hashes and the fingerprint base z.
Sharing keeps each per-sampler failure bound (a per-cell union bound)
and buys an order of magnitude on updates.  A matcher sampler's base
is weight key * d4^2 + pair, so weights need no registry; L0Sampler is
the grid's single sampler at base 0.  The matcher's payload is the
true weight, so a query solves on true weights in both modes.  In
approximation mode the samples hold, w.h.p., a k-matching that is
optimal on the rounded keys; its true weight is at least OPT/(1+eps),
and the true-weight optimum of the samples weighs at least as much.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .core import (
    DELETE,
    Edge,
    INSERT,
    InvalidParameter,
    MalformedStream,
    Sentinel,
    StreamElement,
    apply_update,
    edge_at_index,
    edge_index,
    halvings,
)
from .hashing import FIELD_PRIME, build_hash_scheme, random_kwise, scheme_eval
from .solver import max_weight_k_matching


def default_delta(k: int) -> float:
    return 1.0 / (20 * k ** 4 * math.log(2 * k))


def round_weight(w, epsilon: float) -> int:
    """The integer t with (1+eps)^(t-1) < w <= (1+eps)^t, exactly.

    t is ceil(x) for x = log(w) / log1p(eps).  The float estimate of x
    is off by at most 2^-50 * (|x| + 1/log1p(eps)): a w that is not a
    float turns into one with a relative error of 2^-53, which moves
    log(w) by 2^-53; the libm log adds up to 2^-52 * |log w|, log1p up
    to 2^-52 of itself, and the division another 2^-53 of |x|.  When x
    lies farther than 2^-40 * (|x| + 1/log1p(eps)) from every integer,
    2^10 times that error, the true x lies strictly between the same
    two integers, so ceil(x) is exact.  Otherwise (w at or next to a
    power of 1+eps, eps so small that the margin passes 1, or x past
    the float range) `_round_exactly` decides it.
    """
    if w <= 0:
        raise InvalidParameter("weight must be positive for rounding")
    if not (0 < epsilon < 1):
        raise InvalidParameter("epsilon must lie in (0, 1)")
    lg = math.log1p(epsilon)
    x = math.log(w) / lg
    if math.isfinite(x):
        t = math.ceil(x)
        margin = 2.0 ** -40 * (abs(x) + 1 / lg)
        if t - x > margin and x - (t - 1) > margin:
            return t
    return _round_exactly(Fraction(w), epsilon)


def _round_exactly(w: Fraction, epsilon: float) -> int:
    """round_weight's t, from log(w) and log(1+eps) in decimal at a
    precision that doubles until the answer is settled.

    At precision P each step below is off by at most 10^(1-P) of its
    result (adding eps to 1: of 1), so x = log(w) / log(1+eps) is off
    by less than err; P starts at 40 plus twice eps's decimal exponent,
    which keeps err small at any eps.  When no integer lies within err
    of x, t = ceil(x).  Else, for the integer n nearest x: if
    w = (1+eps)^n then t = n.  With 1+eps = m / 2^a (m odd) that means
    the reduced w is m^n / 2^(an), or its inverse for n < 0, tested
    without a power larger than w.  If not, the true x is not n, and a
    higher precision tells them apart.  An integer w >= 2 is never
    such a power: (1+eps)^n has an even denominator for n > 0 and is
    at most 1 for n <= 0.
    """
    base = Fraction(epsilon) + 1
    m, a = base.numerator, base.denominator.bit_length() - 1
    eps = Decimal(epsilon)  # exact
    prec = 40 - 2 * eps.adjusted()
    while True:
        with localcontext() as ctx:
            ctx.prec = prec
            lb = (eps + 1).ln()
            lw = (Decimal(w.numerator) / w.denominator).ln()
            x = lw / lb
            err = (abs(x) + (1 + abs(lw) + 2 * abs(x)) / lb).scaleb(2 - prec)
            n = int(x.to_integral_value())
            if abs(x - n) > err:
                return int(x.to_integral_value(ROUND_CEILING))
        num, den = (w.numerator, w.denominator) if n >= 0 else (w.denominator, w.numerator)
        if (den & (den - 1) == 0 and den.bit_length() - 1 == a * abs(n)
                and num == m ** abs(n)):
            return n
        prec *= 2


# the sampler could not decode any live index
FAIL = Sentinel("Fail")


class Sample(NamedTuple):
    index: int
    count: int  # multiplicity of the decoded index


_C0_BITS = 64   # count field width
_C0_MASK = (1 << _C0_BITS) - 1
_FP_BITS = 125  # fingerprint field: under 2^63 terms, each below 2^61


def _bump(counts: dict, key, d) -> None:
    """Add d to counts[key], dropping the key when it reaches zero."""
    c = counts.get(key, 0) + d
    if c:
        counts[key] = c
    else:
        del counts[key]


def _split(x: int, bits: int):
    """The low bits of x read as a signed field, and x above that field."""
    half = 1 << (bits - 1)
    low = ((x + half) & ((half << 1) - 1)) - half
    return low, (x - low) >> bits


class CellGrid:
    """Many l0-samplers over [0, universe) sharing hashes and cells.

    A sampler is named by an integer base.  `tops` maps each sampler to
    its top cell, the sum of every update it has taken; its count is
    the low field.  A one-index sampler stores nothing else: its index
    is its top cell's index sum over its count.  `_full` holds the
    bases that keep per-repetition cells in `cells`.  Only positive
    counts decode: a suffix whose count is zero or negative (a delete
    whose insert has not arrived) is skipped.
    """

    def __init__(self, universe: int, delta: float, rng):
        if universe < 1:
            raise InvalidParameter("universe size must be >= 1")
        if not (0 < delta < 1):
            raise InvalidParameter("delta must lie in (0, 1)")
        self.universe = universe
        self.levels = max(universe - 1, 1).bit_length() + 1
        self.reps = halvings(delta)
        kappa = self.reps + 2
        span = 1 << (self.levels - 1)
        self.level_hashes = [
            random_kwise(kappa, span, rng) for _ in range(self.reps)
        ]
        self.z = rng.randrange(1, FIELD_PRIME)
        self.tops = {}      # base -> top cell, zeros dropped
        self._full = set()  # the bases that keep per-repetition cells
        self.cells = {}     # (full base, rep, exact level) packed -> packed sums
        # a cell key is (base << _shift) | (rep << _lev_bits) | level
        self._lev_bits = (self.levels - 1).bit_length()
        self._shift = self._lev_bits + (self.reps - 1).bit_length()
        # the fingerprint's offset; the index sum fills the bits below it
        self._fp_at = 2 * _C0_BITS + universe.bit_length()

    def _cell(self, index: int, d: int, payload) -> int:
        """The packed sums of d copies of index, each carrying payload."""
        upper = (payload << _FP_BITS) + pow(self.z, index, FIELD_PRIME)
        return d * (1 + (index << _C0_BITS) + (upper << self._fp_at))

    def _levels_of(self, index: int):
        """The (rep, exact level) bits of index's cell in every repetition."""
        top = self.levels - 1
        lev_bits = self._lev_bits
        rls = []
        for rep, g in enumerate(self.level_hashes):
            val = g(index)
            lev = (val & -val).bit_length() - 1 if val else top
            rls.append((rep << lev_bits) | lev)
        return rls

    def _spread(self, cells: dict, base, rls, cell: int) -> None:
        """Add cell to base's cells at the (rep, level) bits rls."""
        kb = base << self._shift
        for rl in rls:
            _bump(cells, kb | rl, cell)

    def _index_of(self, top: int) -> int:
        """The index of a one-index top cell of non-zero count, exactly."""
        c0, rest = _split(top, _C0_BITS)
        return _split(rest, self._fp_at - _C0_BITS)[0] // c0

    def _make_full(self, base, top: int) -> None:
        """Spread a one-index sampler's top cell to its index's levels."""
        self._spread(self.cells, base, self._levels_of(self._index_of(top)), top)
        self._full.add(base)

    def _add(self, bases, index: int, cell: int) -> None:
        """Add cell, whose updates all carry index, to every sampler in
        bases."""
        tops = self.tops
        full = self._full
        rls = None  # index's levels, needed only by a full sampler
        for base in bases:
            top = tops.get(base)
            if top is None:
                tops[base] = cell
                continue
            s = top + cell
            if base not in full:
                if not s:  # the one index cancels
                    del tops[base]
                    continue
                if s & _C0_MASK and self._index_of(top) == index:
                    tops[base] = s
                    continue
                # a second index, or a count of zero that would lose it
                self._make_full(base, top)
            if rls is None:
                rls = self._levels_of(index)
            self._spread(self.cells, base, rls, cell)
            if s:
                tops[base] = s
            else:
                del tops[base]
                full.discard(base)

    def _decode(self):
        """Query every sampler whose count is not zero.  Returns the
        decoded (index, count, payload per copy) triples, one per
        distinct one-index top cell and one per full sampler that
        decodes, and the fail count, one per sampler that fails."""
        q = FIELD_PRIME
        z = self.z
        universe = self.universe
        cget = self.cells.get
        full = self._full
        shift = self._shift
        lev_bits = self._lev_bits
        c0_mask = _C0_MASK
        c0_cap = 1 << (_C0_BITS - 1)
        fp_at = self._fp_at
        c1_mask = (1 << (fp_at - _C0_BITS)) - 1
        fp_half = 1 << (_FP_BITS - 1)
        fp_mask = (1 << _FP_BITS) - 1
        reps = range(self.reps)
        levels = range(self.levels - 1, -1, -1)

        def suffixes(rb):
            s = 0
            for lev in levels:
                c = cget(rb | lev)
                if c is not None:  # no cell: the same suffix as above
                    s += c
                    yield s

        def first_decode(walks):
            """The first suffix that decodes, trying walks in order."""
            for walk in walks:
                for s in walk:
                    # unsigned reads: a decodable suffix has 0 < c0 < 2^63, c1 >= 0
                    c0 = s & c0_mask
                    if not 0 < c0 < c0_cap:
                        continue
                    c1 = (s >> _C0_BITS) & c1_mask
                    if c1 % c0:
                        continue
                    j = c1 // c0
                    if j >= universe:
                        continue
                    # _split inlined: a call per candidate cost 9% of a decode
                    rest = s >> fp_at
                    fp = ((rest + fp_half) & fp_mask) - fp_half
                    if (fp - c0 * pow(z, j, q)) % q == 0:
                        c2 = (rest - fp) >> _FP_BITS
                        if c2 % c0 == 0:
                            return j, c0, c2 // c0
                        break
            return None

        # every repetition of a one-index sampler meets its one top cell
        # at the index's level: count the samplers per top cell, taking
        # the full ones out by base (+a, +b, -b leaves a full sampler
        # whose top equals a one-index one), and decode each cell once
        tops = self.tops
        times = Counter(tops.values())
        got = []  # (decode or None, samplers it stands for)
        for base in full:
            top = tops[base]
            times[top] -= 1
            if top & c0_mask:  # count zero decodes nothing
                kb = base << shift
                got.append((first_decode(suffixes(kb | (rep << lev_bits))
                                         for rep in reps), 1))
        got += [(first_decode(((top,),)), n) for top, n in times.items()
                if n and top & c0_mask]
        return ([g for g, _ in got if g is not None],
                sum(n for g, n in got if g is None))

    def _merge_cells(self, other: "CellGrid") -> None:
        """Add a grid built with the same randomness, sampler by sampler."""
        if (
            other.universe != self.universe
            or other.level_hashes != self.level_hashes
            or other.z != self.z
        ):
            raise InvalidParameter("grids built with different randomness")
        tops = self.tops
        full = self._full
        for base, top in other.tops.items():
            mine = tops.get(base)
            if base in other._full:
                if mine is not None and base not in full:
                    self._make_full(base, mine)
                full.add(base)
                _bump(tops, base, top)
                if base not in tops:
                    full.discard(base)
            elif mine is None:
                tops[base] = top
            elif base not in full and not mine + top:
                del tops[base]
            else:  # a collision
                self._add((base,), self._index_of(top), top)
        for key, c in other.cells.items():
            _bump(self.cells, key, c)

    def dense_cells(self) -> dict:
        """The cells of a grid that gives every sampler per-repetition
        cells: each one-index sampler's top cell at its index's levels,
        plus the stored cells.  Grids that took the same updates, in any
        order and over any sharding, have equal dense cells."""
        dense = dict(self.cells)
        for base, top in self.tops.items():
            if base not in self._full:
                self._spread(dense, base, self._levels_of(self._index_of(top)), top)
        return dense


class L0Sampler(CellGrid):
    """One l0-sampler: the grid's sampler at base 0, payload 0."""

    def update(self, index: int, delta: int) -> None:
        if not (0 <= index < self.universe):
            raise InvalidParameter(f"index {index} outside universe")
        if not isinstance(delta, int) or abs(delta) >= 1 << (_C0_BITS - 1):
            raise InvalidParameter(f"multiplicity {delta!r} must be an int of size < 2^63")
        if delta:
            self._add((0,), index, self._cell(index, delta, 0))

    def query(self):
        """A decoded (index, multiplicity), or FAIL."""
        found, _ = self._decode()
        return Sample(*found[0][:2]) if found else FAIL

    def merge(self, other: "L0Sampler") -> None:
        """Cell-wise addition; both samplers must share hashes and z."""
        self._merge_cells(other)

    def cells_snapshot(self) -> str:
        """Dense cells as sorted decimal integer lines: rep, level, c0,
        c1, fp."""
        rep_of, lev_mask = self._lev_bits, (1 << self._lev_bits) - 1
        lines = []
        for key, cell in sorted(self.dense_cells().items()):
            c0, rest = _split(cell, _C0_BITS)
            c1, rest = _split(rest, self._fp_at - _C0_BITS)
            fp = _split(rest, _FP_BITS)[0] % FIELD_PRIME
            lines.append(f"{key >> rep_of} {key & lev_mask} {c0} {c1} {fp}")
        return "\n".join(lines)


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
        self._live = {} if validate else None
        # instrumentation
        self.updates = 0
        self.last_keys_touched = 0
        self.last_fail_count = 0

    # -- update path ---------------------------------------------------

    def process_update(self, el: StreamElement) -> None:
        e, op = el
        if op not in (INSERT, DELETE):
            raise MalformedStream(self.updates, f"unknown op {op!r}")
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
        if not (isinstance(u, int) and isinstance(v, int) and 0 <= u < v < self.n and w >= 0):
            raise MalformedStream(self.updates, f"bad edge ({u}, {v}, {w})")
        if self._live is not None:
            apply_update(self._live, self.updates, u, v, w, op)
        key_w = w
        if self.epsilon is not None:
            # t(1) = 0, so key -1 is free for weight 0
            key_w = round_weight(w, self.epsilon) if w else -1
        hu = scheme_eval(self.scheme, u)
        hv = scheme_eval(self.scheme, v)
        d4 = self.scheme.d4
        wb = key_w * d4 * d4
        eid = edge_index(u, v, self.n)
        rows = [wb + i * d4 for i in hu]
        self._add([r + j for r in rows for j in hv], eid, self._cell(eid, d, w))
        self.updates += 1
        self.last_keys_touched = len(hu) * len(hv)

    # -- query path ----------------------------------------------------

    def query(self):
        # one edge per decoded index, at the heaviest weight decoded for it
        # (an unvalidated stream may insert a pair twice): order-free
        found, self.last_fail_count = self._decode()
        weights = dict(sorted((eid, wt) for eid, _, wt in found))
        return max_weight_k_matching(
            [Edge(*edge_at_index(eid, self.n), wt) for eid, wt in weights.items()], self.k)

    # -- bookkeeping ---------------------------------------------------

    def _sampler_stats(self):
        """(weight keys, live samplers, negative samplers) from one pass
        over the top cells; key -1 is weight 0, and a negative count
        means the stream deleted an absent edge."""
        live = {base: c for base, top in self.tops.items() if (c := top & _C0_MASK)}
        d4sq = self.scheme.d4 ** 2
        sign = 1 << (_C0_BITS - 1)  # the count field read unsigned
        return len({b // d4sq for b in live}), len(live), sum(c >= sign for c in live.values())

    @property
    def live_sampler_count(self) -> int:
        return self._sampler_stats()[1]

    def stats(self) -> dict:
        keys, live, negative = self._sampler_stats()
        return {
            "updates": self.updates,
            "distinct_weight_keys": keys,
            "live_samplers": live,
            "negative_samplers": negative,
            "cells": len(self.cells),
            "keys_touched_last": self.last_keys_touched,
            "fail_count_last_query": self.last_fail_count,
        }

    def merge_from(self, other: "DynamicMatcher") -> None:
        """Cell-wise combine of a grid built with identical randomness
        over a disjoint stream (sharded ingestion).  A validating grid
        merges only a validating grid whose live edges are not its own."""
        if other.scheme != self.scheme or other.epsilon != self.epsilon:
            raise InvalidParameter("grids built with different randomness")
        live = self._live
        if live is not None and other._live is None:
            raise InvalidParameter("a validating grid merges only validating grids")
        if live is not None and (both := live.keys() & other._live.keys()):
            raise MalformedStream(self.updates, f"duplicate live insert of {min(both)}")
        self._merge_cells(other)
        if live is not None:
            live.update(other._live)
        self.updates += other.updates

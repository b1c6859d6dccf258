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
exactly when all its sums are.  z^i mod p, for the cell an update
builds and for each candidate of a full sampler's walk, comes from a
fixed-base table drawn up with z (Brickell, Gordon, McCurley & Wilson
1992):
z^(d * 16^t) for each digit d = 0..15 and each 4-bit digit position t
of an index, 16 * ceil(bits / 4) ints per grid (bits =
universe.bit_length(), so polylog n), and z^i is the product of one
entry per digit of i, reduced once.  It gives pow(z, i, p) exactly, at
about a fifth of its cost.

Storage rule.  Each sampler keeps a top cell, the sum of every update
it has taken (its level-0 suffix in every repetition), dropped at
zero.  While its updates all carry one index and its count is not
zero, that cell is all it stores: it is count copies of that index's
cell, so each repetition would hold it at the index's level.  One rule
decodes every suffix: it is c0 copies of one index's cell, with c0 its
count in (0, 2^63) and a payload sum that c0 divides.  A one-index top
cell meets the first part by construction, so a query reads each
distinct one once, exactly, as the update path does: every field below
the payload is non-negative, so the index is the index sum // count
and the payload the payload sum // count, with no fingerprint, no
range test and no walk.  A payload sum the count does not divide
(approximation mode: one edge at two weights of one key) fails, and so
does a count that is not positive (a delete whose insert has not
arrived).  A full sampler's walk checks each suffix s against the
rule: j is the index sum over c0, which c0 must divide and which must
be below universe, and s matches when s - _cell(j, c0, 0) is zero
below the payload.  That integer comparison accepts every true decode
and a strict subset of what a fingerprint test mod p accepts.  A match
whose payload sum c0 does not divide ends its repetition.  An update
with a second index makes the sampler full: the top cell is spread to
its index's levels, and every later update also reaches the
per-repetition cells of its index's levels.  So does an update that
zeroes the count but not the cell (approximation mode: a delete whose
weight differs from its insert's but rounds to the same key), while
the index can still be read.  A full sampler stays full until its top
cell is zero; its cells are then zero too unless its net
multiplicities have a fingerprint sum of zero, inside the
<= universe/q event (a polynomial vanishing at z) that bounds a false
decode.  The stored state depends on order (+a, +b, -b leaves a full
sampler; +a merged with +b, -b leaves a one-index one), the decode
does not; dense_cells() is the order-free view, every sampler spread
to its levels.  The grid keeps the count of samplers per one-index top
cell as updates arrive, so a query reads the distinct cells from that
count and walks only the full samplers; a merge leaves the count for
the next query to rebuild in one pass over every top cell.

All cells live in one dict keyed by (sampler base, repetition, level),
and all samplers share the level hashes and the fingerprint base z.
Sharing keeps each per-sampler failure bound (a per-cell union bound)
and buys an order of magnitude on updates.  A matcher sampler's base
is row * d4 + col, with row = weight key * d4 + one of u's d2 hash
values and col one of v's, so weights need no registry; L0Sampler is
the grid's single sampler at base 0, row 0 and col 0.  Top cells are
kept in two levels, row then col, so an update settles its d2 rows, not
its d2^2 samplers, one at a time: a row that holds none of the cols
(absent, or holding other cols) takes all d2 cells in C-level dict
calls, and a row that holds exactly the negated cell at exactly the
cols, none of them full, is dropped whole.  Only the other rows, where
the update meets a sampler that holds another index or other copies,
go base by base.  A merge settles a shard's rows the same way.

The matcher's payload is the true weight, so a query solves on true
weights in both modes; where an unvalidated stream decodes one pair at
two weights, the solver's kernel keeps the heaviest copy.  In
approximation mode the samples hold, w.h.p., a k-matching that is
optimal on the rounded keys; its true weight is at least OPT/(1+eps),
and the true-weight optimum of the samples weighs at least as much.
"""

from __future__ import annotations

import math
from collections import Counter
from decimal import ROUND_CEILING, Decimal, localcontext
from fractions import Fraction
from itertools import chain
from operator import add
from typing import NamedTuple

from .core import (
    DELETE,
    INSERT,
    InvalidParameter,
    MalformedStream,
    Sentinel,
    StreamElement,
    apply_update,
    edge_fault,
    halvings,
    pair_at,
    pair_index,
    require_int,
    require_open_unit,
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
    if not 0 < w < math.inf:
        raise InvalidParameter(f"weight {w!r} must be positive and finite for rounding")
    require_open_unit("epsilon", epsilon)
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

    A sampler is named by an integer base, row * width + col with
    0 <= col < width.  `rows` maps each row to a dict from col to the
    sampler's top cell, the sum of every update it has taken; its count
    is the low field.  Zero top cells and empty rows are dropped.  A
    one-index sampler stores nothing else: its index is its top cell's
    index sum over its count.  `_full` holds the bases that keep
    per-repetition cells in `cells`.  Only positive counts decode: a
    suffix whose count is zero or negative (a delete whose insert has
    not arrived) is skipped.

    An update adds one cell to the samplers at a set of rows crossed
    with a set of distinct cols.  Each row is settled whole, by C-level
    dict calls, in three cases: the row is absent (it is made from the
    cols), holds none of the cols (they are added to it), or holds
    exactly the negated cell at exactly the cols with none of those
    bases full (it is dropped).  Any other row takes the per-base rule
    of `_settle`.  So an update costs O(rows) dict calls while it meets
    no other sampler content, and O(rows * cols) at worst.
    """

    def __init__(self, universe: int, delta: float, rng, width: int = 1):
        require_int("universe", universe, 1)
        require_int("width", width, 1)
        require_open_unit("delta", delta)
        self.universe = universe
        self.levels = max(universe - 1, 1).bit_length() + 1
        self.reps = halvings(delta)
        kappa = self.reps + 2
        span = 1 << (self.levels - 1)
        self.level_hashes = [
            random_kwise(kappa, span, rng) for _ in range(self.reps)
        ]
        self.z = rng.randrange(1, FIELD_PRIME)
        # z^(d * 16^t) mod p at [t][d], for each 4-bit digit t of an index
        self._zrows = rows = []
        zt = self.z
        for _ in range((universe.bit_length() + 3) // 4):
            row = [1]
            for _ in range(15):
                row.append(row[-1] * zt % FIELD_PRIME)
            rows.append(row)
            zt = row[-1] * zt % FIELD_PRIME
        self.width = width
        self.rows = {}      # row -> {col -> top cell}, zeros and empty rows dropped
        self._full = set()  # the bases that keep per-repetition cells
        # one-index top cell -> the samplers holding it; None after a merge
        self._one_tops = {}
        self.last_decodes = 0  # cells and full samplers the last decode read
        self.cells = {}     # (full base, rep, exact level) packed -> packed sums
        # a cell key is (base << _shift) | (rep << _lev_bits) | level
        self._lev_bits = (self.levels - 1).bit_length()
        self._shift = self._lev_bits + (self.reps - 1).bit_length()
        # the fingerprint's offset; the index sum fills the bits below it
        self._fp_at = 2 * _C0_BITS + universe.bit_length()

    def _zpow(self, i: int) -> int:
        """z^i mod p for 0 <= i < universe: one table entry per 4-bit
        digit of i, multiplied and reduced once."""
        acc = 1
        for row in self._zrows:
            acc *= row[i & 15]
            i >>= 4
        return acc % FIELD_PRIME

    def _cell(self, index: int, d: int, payload) -> int:
        """The packed sums of d copies of index, each carrying payload."""
        upper = (payload << _FP_BITS) + self._zpow(index)
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

    def _top(self, base):
        """The top cell of sampler base."""
        r, c = divmod(base, self.width)
        return self.rows[r][c]

    def _add(self, rows, cols, index: int, cell: int) -> None:
        """Add cell, whose updates all carry index, to the sampler of
        every row and col: bases row * width + col, cols distinct."""
        grid = self.rows
        full = self._full
        fresh = dict.fromkeys(cols, cell)
        gone = dict.fromkeys(cols, -cell)  # a row that cell cancels
        made = dropped = 0  # rows settled whole
        rest = []
        for r in rows:
            row = grid.get(r)
            if row is None:
                grid[r] = fresh.copy()
                made += 1
            elif row.keys().isdisjoint(cols):
                row.update(fresh)
                made += 1
            elif row == gone and (not full or full.isdisjoint([r * self.width + c for c in cols])):
                del grid[r]
                dropped += 1
            else:
                rest.append((r, row))
        made *= len(cols)
        dropped *= len(cols)
        if rest:
            m, d = self._settle(rest, cols, index, cell)
            made += m
            dropped += d
            for r, row in rest:
                if not row:
                    del grid[r]
        if (ones := self._one_tops) is not None:
            if made:
                _bump(ones, cell, made)
            if dropped:
                _bump(ones, -cell, -dropped)

    def _settle(self, rows, cols, index: int, cell: int):
        """The per-base rule: add cell, whose updates all carry index, to
        the sampler at each col of each (row, row dict) in rows.  Returns
        the counts of fresh samplers and of one-index samplers that
        cancel; the caller drops emptied rows."""
        full = self._full
        ones = self._one_tops
        rls = None  # index's levels, needed only by a full sampler
        made = dropped = 0
        for r, row in rows:
            rb = r * self.width
            for col in cols:
                top = row.get(col)
                if top is None:
                    row[col] = cell
                    made += 1
                    continue
                base = rb + col
                s = top + cell
                if base not in full:
                    if not s:  # the one index cancels
                        del row[col]
                        dropped += 1
                        continue
                    if s & _C0_MASK and self._index_of(top) == index:
                        row[col] = s
                        if ones is not None:
                            _bump(ones, top, -1)
                            _bump(ones, s, 1)
                        continue
                    # a second index, or a count of zero that would lose it
                    self._make_full(base, top)
                    if ones is not None:
                        _bump(ones, top, -1)
                if rls is None:
                    rls = self._levels_of(index)
                self._spread(self.cells, base, rls, cell)
                if s:
                    row[col] = s
                else:
                    del row[col]
                    full.discard(base)
        return made, dropped

    def _decode(self):
        """Query every sampler whose count is not zero.  Returns the
        decoded (index, count, payload per copy) triples, one per
        distinct one-index top cell and one per full sampler that
        decodes, and the fail count, one per sampler that fails."""
        ones = self._one_tops
        if ones is None:
            # a merge left the count stale: count again in one pass over
            # the rows, taking the full samplers out by base (+a, +b, -b
            # leaves a full sampler whose top equals a one-index one)
            ones = Counter(chain.from_iterable(map(dict.values, self.rows.values())))
            for base in self._full:
                ones[self._top(base)] -= 1
            self._one_tops = ones = {top: n for top, n in ones.items() if n}
        c0_cap = 1 << (_C0_BITS - 1)
        c1_mask = (1 << (self._fp_at - _C0_BITS)) - 1
        pay_at = self._fp_at + _FP_BITS
        found, fails, walks = self._walk()
        # the storage rule: a one-index top cell is c0 copies of one
        # index's cell, so with 0 < c0 < 2^63 no field below the payload
        # is negative and shifts read them exactly
        for top, n in ones.items():
            c0 = top & _C0_MASK
            if 0 < c0 < c0_cap:
                pay = top >> pay_at
                if not pay % c0:
                    found.append((((top >> _C0_BITS) & c1_mask) // c0, c0, pay // c0))
                    continue
            fails += n
        self.last_decodes = walks + len(ones)
        return found, fails

    def _walk(self):
        """Walk every full sampler whose count is not zero.  Returns the
        decoded triples, the fail count and the number of walks."""
        found, walks = [], 0
        for base in self._full:
            if self._top(base) & _C0_MASK:  # count zero decodes nothing
                walks += 1
                if got := self._first_decode(base << self._shift):
                    found.append(got)
        return found, walks - len(found), walks

    def _first_decode(self, kb):
        """The (index, count, payload per copy) of the first suffix of
        sampler kb that is c0 copies of one index's cell, trying
        repetitions in order, or None.  A match whose payload sum c0
        does not divide ends its repetition."""
        c0_cap = 1 << (_C0_BITS - 1)
        c1_mask = (1 << (self._fp_at - _C0_BITS)) - 1
        pay_at = self._fp_at + _FP_BITS
        for rep in range(self.reps):
            rb = kb | (rep << self._lev_bits)
            s = 0
            for lev in range(self.levels - 1, -1, -1):
                c = self.cells.get(rb | lev)
                if c is None:  # no cell: the same suffix as above
                    continue
                s += c
                # unsigned reads: a match has 0 < c0 < 2^63 and c1 >= 0;
                # the cheap checks spare most suffixes a _cell build, and
                # j < universe keeps j inside the power table
                c0 = s & _C0_MASK
                if not 0 < c0 < c0_cap:
                    continue
                j, r = divmod((s >> _C0_BITS) & c1_mask, c0)
                if r or j >= self.universe:
                    continue
                d = s - self._cell(j, c0, 0)
                if d & ((1 << pay_at) - 1):  # a field below the payload differs
                    continue
                pay, r = divmod(d >> pay_at, c0)
                if r:
                    break
                return j, c0, pay
        return None

    def _merge_cells(self, other: "CellGrid") -> None:
        """Add a grid built with the same randomness, sampler by sampler."""
        if (
            not isinstance(other, CellGrid)
            or other.universe != self.universe
            or other.width != self.width
            or other.level_hashes != self.level_hashes
            or other.z != self.z
        ):
            raise InvalidParameter("grids built with different randomness")
        self._one_tops = None  # the next decode counts again
        grid = self.rows
        full = self._full
        w = self.width
        # a row that holds a shard's full sampler takes the per-base rule
        shard_full = {base // w for base in other._full}
        for r, theirs in other.rows.items():
            row = grid.get(r)
            if r not in shard_full:
                if row is None:
                    grid[r] = theirs.copy()
                    continue
                if row.keys().isdisjoint(theirs):
                    row.update(theirs)
                    continue
                if (row.keys() == theirs.keys()
                        and not any(map(add, map(row.__getitem__, theirs), theirs.values()))
                        and (not full or full.isdisjoint([r * w + c for c in row]))):
                    del grid[r]
                    continue
            if row is None:
                row = grid[r] = {}
            rb = r * w
            for col, top in theirs.items():
                base = rb + col
                mine = row.get(col)
                if base in other._full:
                    if mine is not None and base not in full:
                        self._make_full(base, mine)
                    full.add(base)
                    _bump(row, col, top)
                    if col not in row:
                        full.discard(base)
                elif mine is None:
                    row[col] = top
                elif base not in full and not mine + top:
                    del row[col]
                else:  # a collision
                    self._settle(((r, row),), (col,), self._index_of(top), top)
            if not row:
                del grid[r]
        for key, c in other.cells.items():
            _bump(self.cells, key, c)

    def dense_cells(self) -> dict:
        """The cells of a grid that gives every sampler per-repetition
        cells: each one-index sampler's top cell at its index's levels,
        plus the stored cells.  Grids that took the same updates, in any
        order and over any sharding, have equal dense cells."""
        dense = dict(self.cells)
        for r, row in self.rows.items():
            for col, top in row.items():
                base = r * self.width + col
                if base not in self._full:
                    self._spread(dense, base, self._levels_of(self._index_of(top)), top)
        return dense


class L0Sampler(CellGrid):
    """One l0-sampler: the grid's sampler at base 0, payload 0."""

    def update(self, index: int, delta: int) -> None:
        if not (isinstance(index, int) and 0 <= index < self.universe):
            raise InvalidParameter(f"index {index!r} is not an int in [0, {self.universe})")
        if not isinstance(delta, int) or abs(delta) >= 1 << (_C0_BITS - 1):
            raise InvalidParameter(f"multiplicity {delta!r} must be an int of size < 2^63")
        if delta:
            self._add((0,), (0,), index, self._cell(index, delta, 0))

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
        require_int("k", k, 1)
        require_int("n", n, 2 * k)  # room for a k-matching
        if epsilon is not None:
            require_open_unit("epsilon", epsilon)
        self.n = n
        self.k = k
        self.epsilon = epsilon
        # the scheme draws from rng before the grid: seeded answers
        # depend on that order
        self.scheme = build_hash_scheme(n, 2 * k, rng)
        if delta is None:
            delta = default_delta(k)
        super().__init__(n * (n - 1) // 2, delta, rng, self.scheme.d4)
        self._live = {} if validate else None
        # instrumentation
        self.updates = 0
        self.last_keys_touched = self.scheme.d2 ** 2  # hu x hv, every update
        self.last_fail_count = 0

    # -- update path ---------------------------------------------------

    def process_update(self, el: StreamElement) -> None:
        try:
            (u, v, w), op = el
        except (TypeError, ValueError):
            raise MalformedStream(self.updates, f"{el!r} is not ((u, v, wt), op)") from None
        if op not in (INSERT, DELETE):
            raise MalformedStream(self.updates, f"unknown op {op!r}")
        d = 1 if op == INSERT else -1
        if not isinstance(w, int):
            # a weight is part of the cell key (exact mode) and of the
            # cell sums that must cancel exactly (both modes)
            raise InvalidParameter(
                f"dynamic weights must be integers, got {w!r}: scale real "
                "weights to integers, and set epsilon to round a wide range "
                "into few weight keys"
            )
        if (fault := edge_fault(u, v, w, self.n)) is not None:
            raise MalformedStream(self.updates, fault)
        if self._live is not None:
            apply_update(self._live, self.updates, u, v, w, op)
        key_w = w
        if self.epsilon is not None:
            # t(1) = 0, so key -1 is free for weight 0
            key_w = round_weight(w, self.epsilon) if w else -1
        hu = scheme_eval(self.scheme, u)
        hv = scheme_eval(self.scheme, v)
        wb = key_w * self.width
        eid = pair_index(u, v, self.n)  # the edge rule passed above
        self._add([wb + i for i in hu], hv, eid, self._cell(eid, d, w))
        self.updates += 1

    # -- query path ----------------------------------------------------

    def query(self):
        # a decoded id is below the universe, n(n-1)/2: no second check.
        # An unvalidated stream may decode a pair at two weights; the
        # solver's kernel keeps the heaviest copy of each pair
        found, self.last_fail_count = self._decode()
        n = self.n
        return max_weight_k_matching(
            [pair_at(eid, n) + (wt,) for eid, _, wt in found], self.k)

    # -- bookkeeping ---------------------------------------------------

    def _sampler_stats(self):
        """(weight keys, live samplers, negative samplers) from one pass
        over the top cells; key -1 is weight 0, and a negative count
        means the stream deleted an absent edge."""
        keys, live, negative = set(), 0, 0
        sign = 1 << (_C0_BITS - 1)  # the count field read unsigned
        for r, row in self.rows.items():
            counts = [c for top in row.values() if (c := top & _C0_MASK)]
            if counts:
                keys.add(r // self.width)
                live += len(counts)
                negative += sum(c >= sign for c in counts)
        return len(keys), live, negative

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
            "fail_count_last_query": self.last_fail_count,
            "decodes_last_query": self.last_decodes,
        }

    def merge_from(self, other: "DynamicMatcher") -> None:
        """Cell-wise combine of a grid built with identical randomness
        over a disjoint stream (sharded ingestion).  A validating grid
        merges only a validating grid whose live edges are not its own."""
        if (not isinstance(other, DynamicMatcher) or other.scheme != self.scheme
                or other.epsilon != self.epsilon):
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

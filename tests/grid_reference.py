"""The flat grid: a reference machine for the two-level sampler keys.

`CellGrid` stores each sampler's top cell in two levels, `rows[row][col]`
for the base row * width + col, and settles whole rows with C-level
dict calls where it can.  The grid below is the one it replaced: one
flat dict `tops` keyed by base, each update and merge settled base by
base.  Fed the same updates and merges, both must hold the same top
cells, full samplers, cells and kept count, and so decode alike.
"""

from collections import Counter

from streamkmatch import DynamicMatcher, L0Sampler
from streamkmatch.dynamic_matcher import _C0_MASK, _bump


def flat_tops(g) -> dict:
    """A grid's top cells keyed by base, as the flat grid keeps them."""
    if isinstance(g, FlatGrid):
        return dict(g.tops)
    return {r * g.width + c: top for r, row in g.rows.items() for c, top in row.items()}


class FlatGrid:
    """`CellGrid` with its top cells in one dict keyed by base."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.tops = {}  # base -> top cell, zeros dropped

    def _top(self, base):
        return self.tops[base]

    def _add(self, rows, cols, index, cell):
        w = self.width
        bases = [r * w + c for r in rows for c in cols]
        tops = self.tops
        full = self._full
        ones = self._one_tops
        rls = None
        before = len(tops)
        rare = grown = 0
        for base in bases:
            top = tops.get(base)
            if top is None:
                tops[base] = cell
                continue
            s = top + cell
            if base not in full:
                if not s:
                    del tops[base]
                    continue
                if s & _C0_MASK and self._index_of(top) == index:
                    tops[base] = s
                    rare += 1
                    if ones is not None:
                        _bump(ones, top, -1)
                        _bump(ones, s, 1)
                    continue
                self._make_full(base, top)
                if ones is not None:
                    _bump(ones, top, -1)
            rare += 1
            if rls is None:
                rls = self._levels_of(index)
            self._spread(self.cells, base, rls, cell)
            if s:
                tops[base] = s
            else:
                del tops[base]
                full.discard(base)
                grown -= 1
        if ones is not None:
            # every fresh base took cell and every cancelled one held
            # -cell: 2 * fresh = both + net, 2 * cancelled = both - net
            both = len(bases) - rare
            net = len(tops) - before - grown
            if both + net:
                _bump(ones, cell, (both + net) >> 1)
            if both - net:
                _bump(ones, -cell, (net - both) >> 1)

    def _merge_cells(self, other):
        self._one_tops = None
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
                w = self.width
                self._add((base // w,), (base % w,), self._index_of(top), top)
        for key, c in other.cells.items():
            _bump(self.cells, key, c)

    def _decode(self):
        if self._one_tops is None:
            ones = Counter(self.tops.values())
            for base in self._full:
                ones[self.tops[base]] -= 1
            self._one_tops = {top: n for top, n in ones.items() if n}
        return super()._decode()


class FlatMatcher(FlatGrid, DynamicMatcher):
    """The dynamic matcher over the flat grid."""


class FlatL0Sampler(FlatGrid, L0Sampler):
    """One l0-sampler over the flat grid."""

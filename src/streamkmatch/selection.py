"""Deterministic worst-case linear selection, paid for in budget slices.

The reducer needs "keep the t largest" under a hard budget of work per
stream arrival.  The routines here spend that budget in units: one unit
is one element touch (each item once per group-of-five pass, once per
partition pass, once per keep pass).  The budget protocol, which the
reducer follows too:

  * a routine is a generator that yields each charged pass as
    `(n, visit)`: n units, whose work is `visit(pos, end)` over
    consecutive slices of [0, n) (visit None for a pass that only
    touches), and returns its plain result, so routines chain as
    `result = yield from routine(...)`;
  * a `Meter` owns the budget: `step_upto(limit)` pays the current pass
    in slices while the limit lasts, and resumes the routine for the
    next pass only once the current one is paid.  It keeps resuming
    while the next pass is empty, even with nothing left, so a routine
    is `done` in the call that pays its last unit.

Between two charged passes a routine does O(1) uncharged work (sorting
a group of five, the sort of at most ten items that ends a select,
starting a recursion level), so one `step_upto` call that spends u
units does O(u + 1) work.

Items are compared in their natural order and must be pairwise
distinct, which keeps the three-way pivot split trivial.
"""

from __future__ import annotations

from .core import InvalidParameter


class Meter:
    """Runs a routine under the budget protocol.  `done` turns true in
    the step_upto call that pays the routine's last unit, and `result`
    holds what it returned from then on."""

    done = False
    result = None

    def __init__(self, routine):
        self._next = routine.__next__
        self._n = self._pos = 0  # the current pass, paid up to _pos
        self._visit = None

    def step_upto(self, limit: int) -> int:
        """Spend up to limit units; returns units spent (0 once done)."""
        if self.done:
            return 0
        if limit < 0:
            raise InvalidParameter(f"budget {limit} must be >= 0")
        pos, n, visit = self._pos, self._n, self._visit
        left = limit - (n - pos)
        if left < 0:  # the current pass outlasts the limit
            if limit and visit is not None:
                visit(pos, pos + limit)
            self._pos = pos + limit
            return limit
        if visit is not None:
            visit(pos, n)
        fetch = self._next
        while True:
            try:
                n, visit = fetch()
            except StopIteration as stop:
                self.done = True
                self.result = stop.value
                self._next = self._visit = None  # free what they hold
                return limit - left
            if n > left:
                break
            if visit is not None:
                visit(0, n)
            left -= n
        if left and visit is not None:
            visit(0, left)
        self._pos, self._n, self._visit = left, n, visit
        return limit

    def run_to_completion(self):
        while not self.done:
            self.step_upto(1 << 30)
        return self.result


def select_steps(items, rank: int):
    """Median of medians (Blum, Floyd, Pratt, Rivest & Tarjan 1973):
    the item of the given ascending rank (0-based)."""
    while True:
        n = len(items)
        if n <= 10:
            yield n, None
            return sorted(items)[rank]
        medians = []

        def group(pos, end):
            # sort each group of five once its last item is touched
            last = n if end == n else end - end % 5
            for g in range(5 * len(medians), last, 5):
                five = sorted(items[g : g + 5])
                medians.append(five[len(five) // 2])

        yield n, group
        pivot = yield from select_steps(medians, len(medians) // 2)
        lows, highs = [], []

        def split(pos, end):
            chunk = items[pos:end]
            lows.extend([x for x in chunk if x < pivot])
            highs.extend([x for x in chunk if x > pivot])

        yield n, split
        if rank < len(lows):
            items = lows
        elif rank == len(lows):
            return pivot
        else:
            rank -= len(lows) + 1
            items = highs


def top_t_steps(items, t: int):
    """The t largest items, in input order (items itself when it has at
    most t).  Worst-case linear in units."""
    if t <= 0:
        return []
    n = len(items)
    if n <= t:
        yield n, None
        return items
    # threshold = smallest item of the top t block
    threshold = yield from select_steps(items, n - t)
    picked = []

    def keep(pos, end):
        picked.extend([x for x in items[pos:end] if x >= threshold])

    yield n, keep
    return picked

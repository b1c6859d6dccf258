"""Deterministic worst-case linear selection, paid for in budget slices.

The reducer needs "keep the t largest" under a hard budget of work per
stream arrival.  The routines here spend that budget in units: one unit
is one element touch (each item once per group-of-five pass, once per
partition pass, once per keep pass).  The budget protocol, which the
reducer follows too:

  * a routine is called with the units it may spend now;
  * it works through its input in `items[pos:pos + take]` slices with
    plain loops, and yields only when its budget is spent and work
    remains; the driver resumes it with `send(units)`;
  * it returns (result, leftover units), so routines chain as
    `result, budget = yield from routine(..., budget)`.

A pass of n units is charged by one rule: `pay` when the budget covers
all n of them (one slice, no generator), `walk` when it may have to
yield.  Between two charged slices a routine does O(1) uncharged work
(sorting a group of five, the sort of at most ten items that ends a
select, starting a recursion level), so one resumption that is sent u
units does O(u + 1) work.

Items are compared in their natural order and must be pairwise
distinct, which keeps the three-way pivot split trivial.
"""

from __future__ import annotations


def _touch(pos: int, end: int) -> None:
    """A visit whose only work is the touch itself."""


def pay(n: int, budget: int, visit=_touch) -> int:
    """The pass over [0, n) in one slice, for a budget of at least n:
    visit(0, n), and the leftover budget."""
    visit(0, n)
    return budget - n


def walk(n: int, budget: int, visit=_touch):
    """Spend one unit per position in [0, n): call visit(pos, end) on
    consecutive slices, each as long as the budget allows.  Returns the
    leftover budget.  Callers whose budget covers n call `pay` instead
    and skip the generator."""
    pos = 0
    while pos < n:
        if not budget:
            budget = yield
        end = min(n, pos + budget)
        visit(pos, end)
        budget -= end - pos
        pos = end
    return budget


def select_steps(items, rank: int, budget: int):
    """Median of medians (Blum, Floyd, Pratt, Rivest & Tarjan 1973):
    the item of the given ascending rank (0-based), and the leftover
    budget."""
    while True:
        n = len(items)
        if n <= 10:
            budget = pay(n, budget) if n <= budget else (yield from walk(n, budget))
            return sorted(items)[rank], budget
        medians = []

        def group(pos, end):
            # sort each group of five once its last item is touched
            last = n if end == n else end - end % 5
            for g in range(5 * len(medians), last, 5):
                five = sorted(items[g : g + 5])
                medians.append(five[len(five) // 2])

        budget = (pay(n, budget, group) if n <= budget
                  else (yield from walk(n, budget, group)))
        pivot, budget = yield from select_steps(medians, len(medians) // 2, budget)
        lows, highs = [], []

        def split(pos, end):
            chunk = items[pos:end]
            lows.extend([x for x in chunk if x < pivot])
            highs.extend([x for x in chunk if x > pivot])

        budget = (pay(n, budget, split) if n <= budget
                  else (yield from walk(n, budget, split)))
        if rank < len(lows):
            items = lows
        elif rank == len(lows):
            return pivot, budget
        else:
            rank -= len(lows) + 1
            items = highs


def top_t_steps(items, t: int, budget: int):
    """The t largest items, in input order (items itself when it has at
    most t), and the leftover budget.  Worst-case linear in units."""
    if t <= 0:
        return [], budget
    n = len(items)
    if n <= t:
        budget = pay(n, budget) if n <= budget else (yield from walk(n, budget))
        return items, budget
    # threshold = smallest item of the top t block
    threshold, budget = yield from select_steps(items, n - t, budget)
    picked = []

    def keep(pos, end):
        picked.extend([x for x in items[pos:end] if x >= threshold])

    budget = (pay(n, budget, keep) if n <= budget
              else (yield from walk(n, budget, keep)))
    return picked, budget

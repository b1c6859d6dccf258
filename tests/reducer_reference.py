"""Reference machines and definitional oracles for the reducer tests.

The per-element-yield machine below is the reducer as it was first
written: a generator that yields once before each element touch, with
`step_upto(limit)` calling next() up to `limit` times.  The budgeted
machine in streamkmatch.reducer must spend exactly the same units on
every input and every limit, and give the same output.  The matcher
here is the insert-only matcher around that machine, with its stored
edge count recomputed by a full walk on every insert.
"""

import math

from streamkmatch.insert_matcher import step_budget
from streamkmatch.reducer import new_vertex_partition


def _select_steps(items, rank, key, out):
    """Median-of-medians select: leave in out[0] the element of the given
    ascending rank (0-based).  Yields once per element touch."""
    while True:
        if len(items) <= 10:
            for _ in items:
                yield
            items = sorted(items, key=key)
            out[0] = items[rank]
            return
        medians = []
        for g in range(0, len(items), 5):
            group = items[g : g + 5]
            for _ in group:
                yield
            group.sort(key=key)
            medians.append(group[len(group) // 2])
        sub = [None]
        yield from _select_steps(medians, len(medians) // 2, key, sub)
        pivot = key(sub[0])
        lows, highs = [], []
        pivot_item = None
        for x in items:
            yield
            kx = key(x)
            if kx < pivot:
                lows.append(x)
            elif kx > pivot:
                highs.append(x)
            else:
                pivot_item = x
        if rank < len(lows):
            items = lows
        elif rank == len(lows):
            out[0] = pivot_item
            return
        else:
            rank -= len(lows) + 1
            items = highs


def top_t_steps(items, t, key, out):
    """Leave in out[0] the list of the t largest elements by key.
    Yields once per element touch; worst-case linear total."""
    if t <= 0:
        out[0] = []
        return
    if len(items) <= t:
        for _ in items:
            yield
        out[0] = list(items)
        return
    sub = [None]
    yield from _select_steps(items, len(items) - t, key, sub)
    threshold = key(sub[0])
    picked = []
    for x in items:
        yield
        if key(x) >= threshold:
            picked.append(x)
    out[0] = picked


_BETA = lambda e: e.beta  # noqa: E731


class ReferenceReducer:
    """The per-element-yield reduced-subgraph machine."""

    def __init__(self, edges, f, k):
        self.input_edges = list(edges)
        self.f = f
        self.k = k
        self.output = None
        self.steps_total = 0
        self.finished = False
        self._gen = self._run()

    def step_upto(self, limit):
        if self.finished:
            return 0
        executed = 0
        try:
            while executed < limit:
                next(self._gen)
                executed += 1
        except StopIteration:
            self.finished = True
        self.steps_total += executed
        return executed

    def _run(self):
        k = self.k
        f = self.f
        cap_bucket = 2 * k
        cap_global = 4 * k * k
        tagged = []
        for e in self.input_edges:
            yield
            i, j = f(e.u), f(e.v)
            if i != j:
                tagged.append(((i, j) if i < j else (j, i), e))
        best = {}
        for pair, e in tagged:
            yield
            cur = best.get(pair)
            if cur is None or e.beta > cur[1].beta:
                best[pair] = (pair, e)
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
        if len(survivors) <= cap_global:
            for _ in survivors:
                yield
            self.output = survivors
        else:
            out = [None]
            yield from top_t_steps(survivors, cap_global, _BETA, out)
            self.output = out[0]


class ReferenceInsertMatcher:
    """The insert-only matcher around ReferenceReducer: sketches are
    copied into each reducer's input, the stored-edge count is a full
    walk, and `steps` records the units spent on every arrival."""

    def __init__(self, n, k, epsilon, rng):
        self.k = k
        self.hashes = [
            new_vertex_partition(k, rng)
            for _ in range(math.ceil(math.log2(1 / epsilon)))
        ]
        self.segment_size = 4 * k * k
        self.budget = step_budget(k, epsilon)
        self.filling = []
        self.sketches = [[] for _ in self.hashes]
        self.reducers = [None for _ in self.hashes]
        self.arrivals = 0
        self.steps = []
        self.peak_stored_edges = 0

    def stored_edges(self):
        total = len(self.filling)
        for sketch, red in zip(self.sketches, self.reducers):
            total += len(sketch)
            if red is not None:
                total += len(red.input_edges)
        return total

    def process_insert(self, e):
        self.filling.append(e)
        self.arrivals += 1
        remaining = self.budget
        for red in self.reducers:
            if red is None or red.finished:
                continue
            remaining -= red.step_upto(remaining)
            if remaining == 0:
                break
        self.steps.append(self.budget - remaining)
        if self.arrivals % self.segment_size == 0:
            segment = self.filling
            self.filling = []
            for idx, f in enumerate(self.hashes):
                red = self.reducers[idx]
                if red is not None:
                    if not red.finished:
                        raise RuntimeError("reduction missed its segment deadline")
                    self.sketches[idx] = red.output
                self.reducers[idx] = ReferenceReducer(self.sketches[idx] + segment, f, self.k)
        self.peak_stored_edges = max(self.peak_stored_edges, self.stored_edges())


def compact_subgraph(edges, f):
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

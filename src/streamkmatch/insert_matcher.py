"""Insert-only streaming k-matching with constant work per arrival.

The stream is cut into segments of 4k^2 arrivals.  For each of the
ceil(log2(1/eps)) vertex-partition hashes, the matcher keeps a sketch
of at most 4k^2 edges: the reduced subgraph of everything seen up to
the last completed segment.  While a segment fills, the reduction that
folds the previous segment into each sketch runs incrementally, a fixed
budget of micro-steps per arrival, sized so it is always finished by
the next segment boundary.

A query solves once, exactly, over the edges the matcher holds: the
partially filled segment, the segment under reduction and each hash's
carried sketch.  Under each hash, the reduced subgraph of the whole
prefix is a subset of that union, and with probability at least
1 - eps one of them holds an optimal k-matching.  So the answer is
always a real matching of the stream and, with that probability, an
optimal one.  A query changes no state.
"""

from __future__ import annotations

from .core import Edge, MalformedStream, edge_fault, halvings, require_int, require_open_unit
# perfbench/tracing.py patches `reduce` here when it traces a run
from .reducer import C_RED, ReducerState, new_vertex_partition, reduce  # noqa: F401
from .solver import max_weight_k_matching


def step_budget(k: int, epsilon: float) -> int:
    """Per-arrival micro-step budget.  Each of the H = halvings(epsilon)
    reductions in flight spends at most C_RED*(8k^2 + k^2) units and
    must end within one segment of 4k^2 arrivals, so k cancels: 9/4 *
    C_RED*H units an arrival suffice.  The budget, ceil(13*C_RED*H/4) + 1
    for any k, carries 13/4 in place of 9/4 as calibrated slack."""
    return -(-13 * C_RED * halvings(epsilon) // 4) + 1


class InsertMatcher:
    def __init__(self, n: int, k: int, epsilon: float, rng):
        require_int("n", n, 0)
        require_int("k", k, 1)
        require_open_unit("epsilon", epsilon)
        self.n = n
        self.k = k
        self.epsilon = epsilon
        self.hashes = [new_vertex_partition(k, rng) for _ in range(halvings(epsilon))]
        self.segment_size = 4 * k * k
        self.budget = step_budget(k, epsilon)
        self.filling = []
        self.reducers = []
        self.arrivals = 0
        # instrumentation (cheap, always on)
        self.max_steps_per_insert = 0
        self.stored_edges = 0
        self.peak_stored_edges = 0

    @property
    def space_bound(self) -> int:
        """Guaranteed ceiling on stored edges."""
        return len(self.hashes) * 12 * self.k * self.k + 4 * self.k * self.k

    def process_insert(self, e: Edge) -> None:
        u, v, wt = e
        if (fault := edge_fault(u, v, wt, self.n)) is not None:
            raise MalformedStream(self.arrivals, fault)
        self.filling.append(e)
        self.arrivals += 1
        self.stored_edges += 1
        # reductions finish in order, so all are done once the last is
        if self.reducers and not self.reducers[-1].done:
            remaining = self.budget
            for red in self.reducers:
                if red.done:
                    continue
                remaining -= red.step_upto(remaining)
                if remaining == 0:
                    break
            if self.budget - remaining > self.max_steps_per_insert:
                self.max_steps_per_insert = self.budget - remaining
        if self.arrivals % self.segment_size == 0:
            self._rotate()
        if self.stored_edges > self.peak_stored_edges:
            self.peak_stored_edges = self.stored_edges

    def _rotate(self) -> None:
        if not all(red.done for red in self.reducers):
            # the budget is sized to make this unreachable
            raise RuntimeError("reduction missed its segment deadline")
        segment = self.filling
        self.filling = []
        sketches = [red.kept for red in self.reducers] or [()] * len(self.hashes)
        self.reducers = [ReducerState(segment, f, self.k, sketch)
                         for f, sketch in zip(self.hashes, sketches)]
        # stored_edges counts the buffer and, per hash, the sketch and
        # the reducer's input (sketch plus segment), as space_bound does
        self.stored_edges = sum(2 * len(sketch) + len(segment) for sketch in sketches)

    def stats(self) -> dict:
        return {
            "updates": self.arrivals,
            "micro_step_max": self.max_steps_per_insert,
            "micro_step_budget": self.budget,
            "peak_stored_edges": self.peak_stored_edges,
            "space_bound": self.space_bound,
        }

    def boundary_sketches(self) -> list:
        """Finish pending reductions and return, per hash, the reduced
        subgraph of the prefix up to the last segment boundary.  Returns
        None while still inside the first segment."""
        if not self.reducers:
            return None
        return [red.run_to_completion() for red in self.reducers]

    def query(self):
        """The best k-matching of the buffer, the segment under
        reduction and every carried sketch, in one exact solve.  Each
        reducer keeps a subset of its carry plus the segment.  The
        sketches share most of their edges, so the union is a set."""
        held = set(self.filling)
        if self.reducers:  # every reducer reads the one segment
            held.update(self.reducers[0].edges)
        for red in self.reducers:
            held.update(x[4] for x in red.carry)
        return max_weight_k_matching(held, self.k)

"""Insert-only streaming k-matching with constant work per arrival.

The stream is cut into segments of 4k^2 arrivals.  For each of the
ceil(log2(1/eps)) vertex-partition hashes, the matcher keeps a sketch
of at most 4k^2 edges: the reduced subgraph of everything seen up to
the last completed segment.  While a segment fills, the reduction that
folds the previous segment into each sketch runs incrementally, a fixed
budget of micro-steps per arrival, sized so it is always finished by
the next segment boundary.

A query finishes any pending reductions (bounded work), folds in the
partially filled segment, solves each per-hash sketch exactly, and
returns the best answer found.  The answer is always a real matching
of the stream; with probability at least 1 - eps it is optimal.
"""

from __future__ import annotations

import math

from .core import Edge, InvalidParameter, MalformedStream
from .reducer import C_RED, ReducerState, new_vertex_partition, reduce
from .solver import NO_K_MATCHING, max_weight_k_matching

_INF = math.inf


def step_budget(k: int, epsilon: float) -> int:
    """Per-arrival micro-step budget: enough to drain all in-flight
    reductions (each at most C_RED*(8k^2 + k^2) steps) within one
    segment of 4k^2 arrivals, with slack."""
    count = math.ceil(math.log2(1 / epsilon))
    return math.ceil(13 * C_RED * count / 4) + 1


class InsertMatcher:
    def __init__(self, n: int, k: int, epsilon: float, rng):
        if k < 1:
            raise InvalidParameter("k must be >= 1")
        if not (0 < epsilon < 1):
            raise InvalidParameter("epsilon must lie in (0, 1)")
        self.n = n
        self.k = k
        self.epsilon = epsilon
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
        # instrumentation (cheap, always on)
        self.max_steps_per_insert = 0
        self.peak_stored_edges = 0

    @property
    def space_bound(self) -> int:
        """Guaranteed ceiling on stored edges."""
        return len(self.hashes) * 12 * self.k * self.k + 4 * self.k * self.k

    def _stored_edges(self) -> int:
        total = len(self.filling)
        for sketch, red in zip(self.sketches, self.reducers):
            total += len(sketch)
            if red is not None:
                total += len(red.input_edges)
        return total

    def process_insert(self, e: Edge) -> None:
        # the weight test also refuses nan, which compares false
        if not (0 <= e.u < e.v < self.n and 0 <= e.wt < _INF):
            raise MalformedStream(self.arrivals, f"bad edge {e}")
        self.filling.append(e)
        self.arrivals += 1
        remaining = self.budget
        executed = 0
        for red in self.reducers:
            if red is None or red.done:
                continue
            used = red.step_upto(remaining)
            executed += used
            remaining -= used
            if remaining == 0:
                break
        if executed > self.max_steps_per_insert:
            self.max_steps_per_insert = executed
        if self.arrivals % self.segment_size == 0:
            self._rotate()
        stored = self._stored_edges()
        if stored > self.peak_stored_edges:
            self.peak_stored_edges = stored

    def _rotate(self) -> None:
        segment = self.filling
        self.filling = []
        for idx, f in enumerate(self.hashes):
            red = self.reducers[idx]
            if red is not None:
                if not red.done:
                    # the budget is sized to make this unreachable
                    raise RuntimeError("reduction missed its segment deadline")
                self.sketches[idx] = red.output
            self.reducers[idx] = ReducerState(
                self.sketches[idx] + segment, f, self.k, self.budget
            )

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
        if self.reducers[0] is None:
            return None
        return [red.run_to_completion() for red in self.reducers]

    def query(self):
        if self.reducers[0] is None:
            # first segment: the buffer is the whole graph so far
            return max_weight_k_matching(self.filling, self.k)
        best = NO_K_MATCHING
        for f, red in zip(self.hashes, self.reducers):
            latest = red.run_to_completion()
            candidate = reduce(latest + self.filling, f, self.k)
            answer = max_weight_k_matching(candidate, self.k)
            if answer is NO_K_MATCHING:
                continue
            if (
                best is NO_K_MATCHING
                or answer.weight > best.weight
                or (
                    answer.weight == best.weight
                    and answer.beta_profile < best.beta_profile
                )
            ):
                best = answer
        return best


def new_insert_matcher(n: int, k: int, epsilon: float, rng) -> InsertMatcher:
    return InsertMatcher(n, k, epsilon, rng)

"""Insert-only streaming matcher: correctness, work and space budgets."""

import math
import random
from fractions import Fraction

import pytest

from streamkmatch import (
    DynamicMatcher,
    Edge,
    InsertMatcher,
    InvalidParameter,
    MalformedStream,
    NO_K_MATCHING,
    gen_random_stream,
    materialize,
    max_weight_k_matching,
)
from reducer_reference import ReferenceInsertMatcher
from streamkmatch import insert_matcher
from streamkmatch.core import halvings
from streamkmatch.insert_matcher import step_budget
from streamkmatch.reducer import C_RED, ReducerState


class TestParameters:
    def test_budget_frozen_values(self):
        # B = ceil(13 * C_RED * ceil(log2(1/eps)) / 4) + 1
        assert C_RED == 24
        assert step_budget(3, 0.5) == 79
        assert step_budget(3, 0.25) == 157
        assert step_budget(3, 1 / 16) == 313
        # independent of k
        assert step_budget(1, 0.25) == step_budget(4, 0.25)

    def test_hash_count(self):
        m = InsertMatcher(20, 2, 0.25, random.Random(1))
        assert len(m.hashes) == 2
        m = InsertMatcher(20, 2, 1 / 16, random.Random(1))
        assert len(m.hashes) == 4
        assert m.segment_size == 16

    def test_counts_are_exact_for_subnormal_epsilon(self):
        # 1 / 1e-320 overflows a float, so no float log2 can give these
        assert halvings(1e-320) == 1064
        assert halvings(5e-324) == 1074
        assert [halvings(p) for p in (1.0, 0.5, 0.25, 0.2, 1 / 16, 0.01)] == [0, 1, 2, 3, 4, 7]
        assert halvings(math.nextafter(0.25, 0)) == 3
        for p in (0.0, -0.5, 1.5, math.nan, math.inf):
            with pytest.raises(InvalidParameter):
                step_budget(3, p)
        assert step_budget(3, 1e-320) == 13 * C_RED * 1064 // 4 + 1
        m = InsertMatcher(20, 2, 1e-320, random.Random(1))
        assert len(m.hashes) == 1064

    def test_space_bound_formula(self):
        m = InsertMatcher(20, 3, 1 / 16, random.Random(2))
        assert m.space_bound == 4 * 12 * 9 + 4 * 9

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            InsertMatcher(20, 0, 0.25, random.Random(1))
        with pytest.raises(InvalidParameter):
            InsertMatcher(20, 2, 0.0, random.Random(1))
        with pytest.raises(InvalidParameter):
            InsertMatcher(20, 2, 1.0, random.Random(1))


class TestFirstSegment:
    def test_query_inside_first_segment_is_exact(self):
        rng = random.Random(3)
        m = InsertMatcher(20, 2, 0.25, rng)
        edges = [Edge(0, 1, 5), Edge(2, 3, 7), Edge(4, 5, 1)]
        for e in edges:
            m.process_insert(e)
        got = m.query()
        assert got == max_weight_k_matching(edges, 2)

    def test_boundary_sketches_none_before_first_boundary(self):
        m = InsertMatcher(20, 2, 0.25, random.Random(4))
        m.process_insert(Edge(0, 1, 5))
        assert m.boundary_sketches() is None

    def test_no_k_matching_reported(self):
        m = InsertMatcher(20, 3, 0.25, random.Random(5))
        m.process_insert(Edge(0, 1, 5))
        assert m.query() is NO_K_MATCHING


class TestMatcherDoor:
    def test_out_of_range_and_non_canonical_endpoints_rejected(self):
        m = InsertMatcher(10, 1, 0.25, random.Random(6))
        # a float vertex was once hashed and stored
        for u, v in ((3, 12), (3, 10), (5, 3), (4, 4), (-1, 2), (0.5, 1), (0, 1.0), ("0", 1)):
            with pytest.raises(MalformedStream):
                m.process_insert(Edge(u, v, 5))
        assert m.arrivals == 0 and m.query() is NO_K_MATCHING
        m.process_insert(Edge(3, 9, 5))
        assert m.query().edges == (Edge(3, 9, 5),)

    # a str or None weight once raised a bare TypeError
    @pytest.mark.parametrize("wt", [-3, -0.5, math.nan, math.inf, -math.inf, "5", None, 1j])
    def test_bad_weight_rejected(self, wt):
        m = InsertMatcher(10, 1, 0.25, random.Random(6))
        with pytest.raises(MalformedStream):
            m.process_insert(Edge(0, 1, wt))
        assert m.arrivals == 0 and m.query() is NO_K_MATCHING

    def test_zero_and_float_weights_accepted(self):
        m = InsertMatcher(10, 1, 0.25, random.Random(6))
        m.process_insert(Edge(0, 1, 0))
        m.process_insert(Edge(2, 3, 2.5))
        m.process_insert(Edge(4, 5, True))
        m.process_insert(Edge(6, 7, Fraction(3, 2)))
        assert m.arrivals == 4
        assert m.query().edges == (Edge(2, 3, 2.5),)


class TestStats:
    def test_keys_and_values(self):
        m = InsertMatcher(30, 2, 0.25, random.Random(9))
        for el in gen_random_stream(30, 2, 40, seed=4).elements:
            m.process_insert(el.edge)
        assert m.stats() == {
            "updates": 40,
            "micro_step_max": m.max_steps_per_insert,
            "micro_step_budget": m.budget,
            "peak_stored_edges": m.peak_stored_edges,
            "space_bound": m.space_bound,
        }
        assert 0 < m.stats()["micro_step_max"] <= m.budget

    def test_shares_the_updates_key_with_the_dynamic_matcher(self):
        ins = InsertMatcher(10, 1, 0.25, random.Random(1)).stats()
        dyn = DynamicMatcher(10, 1, random.Random(1)).stats()
        assert ins["updates"] == dyn["updates"] == 0


class TestEndToEnd:
    def test_mostly_optimal_on_random_streams(self):
        hits = 0
        trials = 60
        for trial in range(trials):
            seed = 1_000 + trial
            k = trial % 3 + 1
            stream = gen_random_stream(50, k, 250, seed=seed)
            m = InsertMatcher(50, k, 1 / 16, random.Random(seed * 13 + 1))
            for el in stream.elements:
                m.process_insert(el.edge)
            got = m.query()
            truth = max_weight_k_matching(materialize(stream.elements), k)
            # the streamed answer is always a real matching, never heavier
            if got is not NO_K_MATCHING:
                assert truth is not NO_K_MATCHING
                assert got.weight <= truth.weight
            if (got is NO_K_MATCHING) == (truth is NO_K_MATCHING) and (
                got is NO_K_MATCHING or got.weight == truth.weight
            ):
                hits += 1
        assert hits >= 0.85 * trials

    def test_query_is_idempotent_and_resumable(self):
        stream = gen_random_stream(40, 2, 120, seed=77)
        m = InsertMatcher(40, 2, 0.25, random.Random(78))
        mid = len(stream.elements) // 2
        for el in stream.elements[:mid]:
            m.process_insert(el.edge)
        first = m.query()
        assert m.query() == first  # query does not corrupt state
        for el in stream.elements[mid:]:
            m.process_insert(el.edge)
        final = m.query()
        truth = max_weight_k_matching(materialize(stream.elements), 2)
        if final is not NO_K_MATCHING and truth is not NO_K_MATCHING:
            assert final.weight <= truth.weight

    def test_duplicate_inserts_tolerated(self):
        m = InsertMatcher(10, 1, 0.5, random.Random(6))
        for _ in range(40):
            m.process_insert(Edge(0, 1, 5))
            m.process_insert(Edge(2, 3, 9))
        got = m.query()
        assert got.weight == 9


class TestBudgets:
    def test_micro_steps_never_exceed_budget(self):
        for trial in range(10):
            k = trial % 4 + 1
            stream = gen_random_stream(40, k, 300, seed=2_000 + trial)
            m = InsertMatcher(40, k, 0.25, random.Random(trial))
            for el in stream.elements:
                m.process_insert(el.edge)
            assert m.max_steps_per_insert <= m.budget

    def test_space_never_exceeds_bound(self):
        for trial in range(10):
            k = trial % 4 + 1
            eps = (0.5, 0.25, 1 / 16)[trial % 3]
            stream = gen_random_stream(40, k, 300, seed=3_000 + trial)
            m = InsertMatcher(40, k, eps, random.Random(trial))
            for el in stream.elements:
                m.process_insert(el.edge)
                assert m.stored_edges <= m.space_bound
            assert m.peak_stored_edges <= m.space_bound

    def test_missed_deadline_is_an_error(self):
        # the budget is sized so this never happens: starve it to see it
        m = InsertMatcher(20, 1, 0.5, random.Random(1))
        m.budget = 1
        edges = [Edge(i, i + 1, 1) for i in range(2 * m.segment_size)]
        for e in edges[:-1]:
            m.process_insert(e)
        with pytest.raises(RuntimeError, match="missed its segment deadline"):
            m.process_insert(edges[-1])

    def test_budget_independent_of_stream_position(self):
        # the observed per-insert maximum stabilizes at one constant
        maxima = []
        for n in (30, 300):
            rng = random.Random(4_000 + n)
            m = InsertMatcher(n, 2, 1 / 16, random.Random(4_001 + n))
            for _ in range(3_000):
                u = rng.randrange(n)
                v = rng.randrange(n - 1)
                if v >= u:
                    v += 1
                m.process_insert(Edge(min(u, v), max(u, v), rng.randint(1, 50)))
            maxima.append(m.max_steps_per_insert)
        assert len(set(maxima)) == 1
        assert maxima[0] <= step_budget(2, 1 / 16)


class TestBoundarySketches:
    def test_sketch_sizes_capped(self):
        stream = gen_random_stream(40, 2, 200, seed=5_000)
        m = InsertMatcher(40, 2, 0.25, random.Random(5_001))
        for el in stream.elements:
            m.process_insert(el.edge)
        for sketch in m.boundary_sketches():
            assert len(sketch) <= 4 * 4

    def test_sketch_edges_come_from_the_stream(self):
        stream = gen_random_stream(40, 3, 250, seed=6_000)
        seen = set()
        m = InsertMatcher(40, 3, 0.25, random.Random(6_001))
        for el in stream.elements:
            m.process_insert(el.edge)
            seen.add(el.edge)
        for sketch in m.boundary_sketches():
            assert set(sketch) <= seen

    def test_sketch_answers_match_definitional_reduction(self):
        # the reliable boundary guarantee: each sketch yields the same
        # best k-matching as the definitional reduction of the prefix
        from streamkmatch.reducer import reduce

        for trial in range(15):
            k = trial % 3 + 1
            stream = gen_random_stream(30, k, 150, seed=7_000 + trial)
            m = InsertMatcher(30, k, 0.25, random.Random(7_001 + trial))
            prefix = []
            for el in stream.elements:
                m.process_insert(el.edge)
                prefix.append(el.edge)
                if m.arrivals % m.segment_size == 0:
                    for f, sketch in zip(m.hashes, m.boundary_sketches()):
                        want = max_weight_k_matching(reduce(prefix, f, k), k)
                        got = max_weight_k_matching(list(sketch), k)
                        assert (got is NO_K_MATCHING) == (want is NO_K_MATCHING)
                        if got is not NO_K_MATCHING:
                            assert got.weight == want.weight


def _recount(m):
    """Stored edges by a full walk: the buffer and, per hash, the sketch
    and the reducer's input (the sketch plus a segment)."""
    total = len(m.filling)
    for red in m.reducers:
        total += len(red.carry) + len(red.carry) + len(red.edges)
    return total


class TestAgainstReferenceMachine:
    def test_running_total_equals_a_full_recount(self):
        for trial in range(12):
            k = trial % 4 + 1
            eps = (0.5, 0.25, 1 / 16)[trial % 3]
            stream = gen_random_stream(40, k, 400, seed=8_000 + trial)
            m = InsertMatcher(40, k, eps, random.Random(trial))
            ref = ReferenceInsertMatcher(40, k, eps, random.Random(trial))
            for i, el in enumerate(stream.elements):
                m.process_insert(el.edge)
                ref.process_insert(el.edge)
                assert m.stored_edges == _recount(m) == ref.stored_edges()
                if i % 37 == 36:
                    m.query()
                    assert m.stored_edges == _recount(m)
            assert m.peak_stored_edges == ref.peak_stored_edges

    def test_per_arrival_steps_equal_the_reference(self, monkeypatch):
        spent = [0]

        class Counting(ReducerState):
            def step_upto(self, limit):
                used = super().step_upto(limit)
                spent[0] += used
                return used

        monkeypatch.setattr(insert_matcher, "ReducerState", Counting)
        for seed, (n, k, eps) in enumerate([(60, 3, 1 / 16), (300, 2, 0.25)]):
            stream = gen_random_stream(n, k, 1_500, seed=9_000 + seed)
            m = InsertMatcher(n, k, eps, random.Random(seed))
            ref = ReferenceInsertMatcher(n, k, eps, random.Random(seed))
            steps = []
            for el in stream.elements:
                before = spent[0]
                m.process_insert(el.edge)
                ref.process_insert(el.edge)
                steps.append(spent[0] - before)
            assert steps == ref.steps
            assert max(steps) == m.max_steps_per_insert


class TestQueryChangesNoState:
    def test_queried_matcher_steps_like_an_unqueried_twin(self, monkeypatch):
        spent = [0]
        solves = [0]

        class Counting(ReducerState):
            def step_upto(self, limit):
                used = super().step_upto(limit)
                spent[0] += used
                return used

        def counting_solve(edges, k):
            solves[0] += 1
            return max_weight_k_matching(edges, k)

        monkeypatch.setattr(insert_matcher, "ReducerState", Counting)
        monkeypatch.setattr(insert_matcher, "max_weight_k_matching", counting_solve)
        for seed, (n, k, eps) in enumerate([(40, 3, 1 / 16), (30, 2, 0.25), (50, 4, 0.5)]):
            stream = gen_random_stream(n, k, 3 * 4 * k * k + 5, seed=9_100 + seed)
            runs = []
            for queried in (True, False):
                m = InsertMatcher(n, k, eps, random.Random(seed))
                steps = []
                for el in stream.elements:
                    before = spent[0]
                    m.process_insert(el.edge)
                    if queried:
                        solves[0] = 0
                        m.query()
                        assert solves[0] == 1  # one solve, whatever the hashes
                    steps.append(spent[0] - before)
                runs.append((steps, m.max_steps_per_insert, m.boundary_sketches()))
            assert runs[0] == runs[1]

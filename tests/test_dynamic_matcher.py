"""Fully dynamic matcher: exact mode, approximation mode, merging."""

import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from streamkmatch import (
    DELETE,
    INSERT,
    DynamicMatcher,
    Edge,
    InvalidParameter,
    MalformedStream,
    NO_K_MATCHING,
    StreamElement,
    delete,
    gen_random_stream,
    insert,
    materialize,
    matching_of,
    max_weight_k_matching,
    new_approx_matcher,
    new_dynamic_matcher,
    round_weight,
)
from streamkmatch.dynamic_matcher import default_delta


class TestParameters:
    def test_default_delta_frozen(self):
        # 1 / (20 k^4 ln 2k)
        assert math.isclose(default_delta(2), 1 / (320 * math.log(4)))
        assert math.isclose(default_delta(2), 0.0022542, rel_tol=1e-4)
        assert math.isclose(default_delta(1), 1 / (20 * math.log(2)))

    def test_scheme_built_for_doubled_parameter(self):
        m = DynamicMatcher(30, 2, random.Random(1))
        assert m.scheme.k == 4
        assert m.scheme.d2 == 12  # keys touched per update = d2^2 = 144

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameter):
            DynamicMatcher(3, 2, random.Random(1))  # n < 2k
        with pytest.raises(InvalidParameter):
            DynamicMatcher(30, 0, random.Random(1))
        with pytest.raises(InvalidParameter):
            DynamicMatcher(30, 2, random.Random(1), epsilon=1.5)
        with pytest.raises(InvalidParameter):
            DynamicMatcher(30, 2, random.Random(1), delta=0.0)

    def test_many_repetitions_keep_cell_keys_apart(self):
        # k >= 7 at the default delta needs 17+ repetitions; the packed
        # cell key must give every (sampler, repetition) its own cells
        m = DynamicMatcher(10, 1, random.Random(1), delta=1e-6)
        assert m.reps == 20
        m.process_update(insert(0, 1, 5))
        m.process_update(insert(2, 3, 6))
        assert len(m.cells) == len(m._counts) * m.reps
        assert {key >> m._shift for key in m.cells} == set(m._counts)

    def test_factories(self):
        assert new_dynamic_matcher(30, 2, random.Random(1)).epsilon is None
        assert new_approx_matcher(30, 2, 0.25, random.Random(1)).epsilon == 0.25
        with pytest.raises(InvalidParameter):
            new_approx_matcher(30, 2, None, random.Random(1))


class TestRoundWeight:
    def test_boundary_inclusion(self):
        # w = (1+eps)^t exactly maps to t
        assert round_weight(1, 0.5) == 0
        assert round_weight(Fraction(3, 2), 0.5) == 1
        assert round_weight(Fraction(9, 4), 0.5) == 2

    def test_just_above_boundary_rounds_up(self):
        assert round_weight(Fraction(3, 2) + Fraction(1, 10**9), 0.5) == 2

    def test_examples(self):
        assert round_weight(10, 0.25) == math.ceil(math.log(10) / math.log(1.25))
        assert round_weight(100, 0.5) == 12  # 1.5^11 = 86.5..., 1.5^12 = 129.7...

    def test_exact_characterization_randomized(self):
        rng = random.Random(2)
        for _ in range(400):
            eps = rng.choice([0.5, 0.25, 1 / 16, 0.1])
            w = rng.randint(1, 10**6)
            t = round_weight(w, eps)
            base = Fraction(1) + Fraction(eps)
            assert base ** (t - 1) < w <= base ** t

    def test_invalid(self):
        with pytest.raises(InvalidParameter):
            round_weight(0, 0.5)
        with pytest.raises(InvalidParameter):
            round_weight(5, 0.0)


class TestExactMode:
    def test_small_stream_exact(self):
        m = DynamicMatcher(10, 2, random.Random(3))
        m.process_update(insert(0, 1, 5))
        m.process_update(insert(2, 3, 7))
        m.process_update(insert(4, 5, 9))
        m.process_update(delete(4, 5, 9))
        got = m.query()
        assert got is not NO_K_MATCHING
        assert got.weight == 12

    def test_empty_graph(self):
        m = DynamicMatcher(10, 1, random.Random(4))
        assert m.query() is NO_K_MATCHING
        m.process_update(insert(0, 1, 5))
        m.process_update(delete(0, 1, 5))
        assert m.query() is NO_K_MATCHING
        assert not m.cells and not m._counts

    def test_mostly_optimal_on_random_streams(self):
        hits = 0
        trials = 40
        for trial in range(trials):
            seed = 10_000 + trial
            stream = gen_random_stream(
                30, 2, 120, seed=seed, mode="dyn", deletes=40, weight_max=6
            )
            m = DynamicMatcher(30, 2, random.Random(seed * 3 + 1))
            for el in stream.elements:
                m.process_update(el)
            got = m.query()
            truth = max_weight_k_matching(materialize(stream.elements), 2)
            if got is not NO_K_MATCHING:
                # any returned matching consists of live edges
                live = set(materialize(stream.elements))
                assert set(got.edges) <= live
            if (got is NO_K_MATCHING and truth is NO_K_MATCHING) or (
                got is not NO_K_MATCHING
                and truth is not NO_K_MATCHING
                and got.weight == truth.weight
            ):
                hits += 1
        assert hits >= 0.85 * trials

    def test_deletion_is_true_inverse(self):
        # inserting and deleting junk leaves the grid byte-identical
        seed = 99
        a = DynamicMatcher(20, 2, random.Random(seed))
        b = DynamicMatcher(20, 2, random.Random(seed))
        keep = [insert(0, 1, 5), insert(2, 3, 7)]
        for el in keep:
            a.process_update(el)
            b.process_update(el)
        junk = [insert(4, 5, 9), insert(6, 7, 2), insert(8, 9, 11)]
        for el in junk:
            b.process_update(el)
        for el in junk:
            b.process_update(delete(el.edge.u, el.edge.v, el.edge.wt))
        assert a.cells == b.cells
        assert a._counts == b._counts

    def test_instrumentation(self):
        m = DynamicMatcher(30, 2, random.Random(5))
        m.process_update(insert(0, 1, 5))
        assert m.updates == 1
        assert m.last_keys_touched == m.scheme.d2 ** 2
        assert m.max_keys_touched == m.scheme.d2 ** 2
        stats = m.stats()
        assert stats["updates"] == 1
        assert stats["distinct_live_weights"] == 1
        m.process_update(delete(0, 1, 5))
        assert m.distinct_live_weights == 0


class TestValidation:
    def test_validate_mode_catches_stream_violations(self):
        m = DynamicMatcher(10, 1, random.Random(6), validate=True)
        m.process_update(insert(0, 1, 5))
        with pytest.raises(MalformedStream):
            m.process_update(insert(0, 1, 5))
        with pytest.raises(MalformedStream):
            m.process_update(delete(0, 1, 6))
        m.process_update(delete(0, 1, 5))

    def test_unvalidated_mode_is_linear_not_checking(self):
        m = DynamicMatcher(10, 1, random.Random(7))
        m.process_update(delete(0, 1, 5))  # accepted: counts go negative
        m.process_update(insert(0, 1, 5))  # cancels out
        assert not m.cells and not m._counts


class TestMatcherDoor:
    def test_out_of_range_endpoint_rejected(self):
        # edge ids would alias: (3, 12) under n=10 numbers as (4, 7)
        m = DynamicMatcher(10, 1, random.Random(6))
        with pytest.raises(MalformedStream):
            m.process_update(insert(3, 12, 5))
        assert not m.cells and m.query() is NO_K_MATCHING

    def test_non_canonical_endpoints_rejected(self):
        m = DynamicMatcher(10, 1, random.Random(6))
        for u, v in ((5, 3), (4, 4), (-1, 2)):
            for op in (INSERT, DELETE):
                with pytest.raises(MalformedStream):
                    m.process_update(StreamElement(Edge(u, v, 1), op))
        assert not m.cells and m.updates == 0

    def test_negative_weight_rejected_without_validate(self):
        m = DynamicMatcher(10, 1, random.Random(6))
        for op in (INSERT, DELETE):
            with pytest.raises(MalformedStream):
                m.process_update(StreamElement(Edge(0, 1, -4), op))
        assert not m.cells and m.updates == 0

    def test_non_integer_weight_rejected(self):
        # a non-integer weight never decoded (the cell's weight sum must
        # divide by its count), so it was a silent NoKMatching
        for eps in (None, 0.25):
            m = DynamicMatcher(10, 1, random.Random(6), epsilon=eps)
            for w in (0.1, 2.5, 3.0, Fraction(7, 2)):
                with pytest.raises(InvalidParameter, match="epsilon"):
                    m.process_update(insert(0, 1, w))
            assert not m.cells and m.updates == 0

    def test_many_transient_weights_leave_no_alias(self):
        # thousands of distinct exact weights, none of them live
        m = DynamicMatcher(10, 1, random.Random(6))
        for w in range(1, 4097):
            m.process_update(insert(0, 1, w))
            m.process_update(delete(0, 1, w))
        assert not m.cells and not m._counts
        m.process_update(insert(0, 1, 5000))
        m.process_update(insert(2, 3, 5000))
        assert m.query().edges == (Edge(0, 1, 5000),)
        m.process_update(delete(0, 1, 5000))
        assert m.query().edges == (Edge(2, 3, 5000),)

    def test_state_does_not_grow_with_edges_churned(self):
        # bytes held by the package after inserting and deleting every
        # edge of n=64 once, against churning none; both first touch
        # every vertex so the O(n) vertex cache is the same
        def held(churn):
            tracemalloc.start()
            m = DynamicMatcher(64, 1, random.Random(1))
            for v in range(0, 64, 2):
                m.process_update(insert(v, v + 1, 1))
                m.process_update(delete(v, v + 1, 1))
            for u, v in churn:
                m.process_update(insert(u, v, 1))
                m.process_update(delete(u, v, 1))
            gc.collect()
            snap = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.Filter(True, "*streamkmatch*")]
            )
            tracemalloc.stop()
            assert not m.cells
            return sum(stat.size for stat in snap.statistics("filename"))

        every_edge = [(u, v) for u in range(64) for v in range(u + 1, 64)]
        assert held(every_edge) - held([]) < 8 * 1024


class TestApproximation:
    def test_zero_weight(self):
        # round_weight(0) has no t; weight 0 gets a key of its own
        m = DynamicMatcher(10, 2, random.Random(8), epsilon=0.25)
        m.process_update(insert(0, 1, 0))
        m.process_update(insert(2, 3, 5))
        answer = m.query()
        assert answer.edges == (Edge(0, 1, 0), Edge(2, 3, 5))
        assert answer.weight == 5
        m.process_update(delete(0, 1, 0))
        assert m.query() is NO_K_MATCHING

    def test_reports_true_weights(self):
        m = DynamicMatcher(10, 1, random.Random(8), epsilon=0.25)
        m.process_update(insert(0, 1, 7))
        got = m.query()
        assert got is not NO_K_MATCHING
        assert got.edges[0].wt == 7  # not the rounded representative

    def test_within_factor_on_random_streams(self):
        eps = 0.25
        hits = 0
        trials = 40
        for trial in range(trials):
            seed = 20_000 + trial
            stream = gen_random_stream(
                24, 2, 80, seed=seed, mode="dyn", deletes=20,
                weight_min=1, weight_max=5_000,
            )
            m = DynamicMatcher(24, 2, random.Random(seed * 5 + 2), epsilon=eps)
            for el in stream.elements:
                m.process_update(el)
            got = m.query()
            truth = max_weight_k_matching(materialize(stream.elements), 2)
            if truth is NO_K_MATCHING:
                hits += got is NO_K_MATCHING
            elif got is not NO_K_MATCHING and got.weight >= (1 - eps) * truth.weight:
                hits += 1
        assert hits >= 0.85 * trials

    def test_weight_keys_compress(self):
        # thousands of distinct weights collapse into few rounded keys
        m = DynamicMatcher(200, 2, random.Random(9), epsilon=0.25)
        rng = random.Random(10)
        for i in range(150):
            u = rng.randrange(200)
            v = rng.randrange(199)
            if v >= u:
                v += 1
            m.process_update(insert(min(u, v), max(u, v), rng.randint(1, 10_000)))
        assert m.distinct_weight_keys <= 43  # log_{1.25}(10^4) + 1


class TestMerge:
    def _shard_pair(self, seed):
        whole = DynamicMatcher(20, 2, random.Random(seed))
        left = DynamicMatcher(20, 2, random.Random(seed))
        right = DynamicMatcher(20, 2, random.Random(seed))
        return whole, left, right

    def test_sharded_equals_sequential(self):
        stream = gen_random_stream(20, 2, 60, seed=30_000, mode="dyn", deletes=20)
        whole, left, right = self._shard_pair(31_000)
        half = len(stream.elements) // 2
        for el in stream.elements:
            whole.process_update(el)
        for el in stream.elements[:half]:
            left.process_update(el)
        for el in stream.elements[half:]:
            right.process_update(el)  # deletes may precede their inserts
        left.merge_from(right)
        # cell keys carry the weight itself, so the merged grid equals
        # the sequential one key for key
        assert left.cells == whole.cells
        assert left._counts == whole._counts
        a, b = left.query(), whole.query()
        if a is NO_K_MATCHING or b is NO_K_MATCHING:
            assert a is b
        else:
            assert a == b

    def test_merge_rejects_mismatched_randomness(self):
        a = DynamicMatcher(20, 2, random.Random(1))
        b = DynamicMatcher(20, 2, random.Random(2))
        with pytest.raises(InvalidParameter):
            a.merge_from(b)

    def test_merge_rejects_mismatched_epsilon(self):
        a = DynamicMatcher(20, 2, random.Random(3))
        b = DynamicMatcher(20, 2, random.Random(3), epsilon=0.25)
        with pytest.raises(InvalidParameter):
            a.merge_from(b)


class TestMatchingOfRoundTrip:
    def test_query_result_is_valid_matching(self):
        stream = gen_random_stream(26, 3, 100, seed=40_000, mode="dyn", deletes=30)
        m = DynamicMatcher(26, 3, random.Random(40_001))
        for el in stream.elements:
            m.process_update(el)
        got = m.query()
        if got is not NO_K_MATCHING:
            matching_of(got.edges)  # raises if endpoints overlap
            assert len(got.edges) == 3

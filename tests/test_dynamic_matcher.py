"""Fully dynamic matcher: exact mode, approximation mode, merging."""

import functools
import gc
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from grid_reference import flat_tops
from streamkmatch import (
    DELETE,
    INSERT,
    DynamicMatcher,
    Edge,
    InvalidParameter,
    KWiseHash,
    L0Sampler,
    MalformedStream,
    NO_K_MATCHING,
    StreamElement,
    delete,
    edge_index,
    gen_random_stream,
    insert,
    materialize,
    matching_of,
    max_weight_k_matching,
    round_weight,
)
from streamkmatch import dynamic_matcher
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
        # a float n once raised an AttributeError, a float k was accepted
        for n, k in ((10.5, 1), (10, 1.5)):
            with pytest.raises(InvalidParameter):
                DynamicMatcher(n, k, random.Random(1))
        # a string epsilon or delta once raised a bare TypeError
        for kwargs in ({"epsilon": "0.1"}, {"delta": "0.1"}):
            with pytest.raises(InvalidParameter):
                DynamicMatcher(10, 1, random.Random(1), **kwargs)

    def test_many_repetitions_keep_cell_keys_apart(self):
        # k >= 7 at the default delta needs 17+ repetitions; the packed
        # cell key must give every (sampler, repetition) its own cells
        m = DynamicMatcher(10, 1, random.Random(1), delta=1e-6)
        assert m.reps == 20
        # vertices 1 and 5 share a hash value, so both edges reach the
        # same samplers and those store per-repetition cells
        m.process_update(insert(0, 1, 5))
        m.process_update(insert(0, 5, 5))
        full = m._full
        assert len(full) == m.scheme.d2
        assert {key >> m._shift for key in m.cells} == full
        rep_mask = (1 << (m._shift - m._lev_bits)) - 1
        for base in full:
            reps = {(key >> m._lev_bits) & rep_mask
                    for key in m.cells if key >> m._shift == base}
            assert reps == set(range(m.reps))
        assert len(m.query().edges) == 1


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
        # once a ValueError and an OverflowError from the exact path
        for w in (math.nan, math.inf):
            with pytest.raises(InvalidParameter):
                round_weight(w, 0.5)


@functools.lru_cache(maxsize=None)
def _power(epsilon, t):
    return (Fraction(1) + Fraction(epsilon)) ** t


def _walk_round(w, epsilon):
    """The reference rounding: start at the float estimate and step t
    with exact Fraction powers until (1+eps)^(t-1) < w <= (1+eps)^t.
    Powers are cached across calls."""
    t = math.ceil(math.log(w) / math.log1p(epsilon))
    fw = Fraction(w)
    while _power(epsilon, t) < fw:
        t += 1
    while _power(epsilon, t - 1) >= fw:
        t -= 1
    return t


ROUNDING_EPSILONS = (0.5, 0.25, 0.1, 1 / 16, 0.01)


class TestRoundWeightMatchesExactWalk:
    @pytest.mark.parametrize("eps", ROUNDING_EPSILONS)
    def test_every_small_integer(self, eps):
        for w in range(1, 20_001):
            assert round_weight(w, eps) == _walk_round(w, eps), w

    @pytest.mark.parametrize("eps", ROUNDING_EPSILONS)
    def test_at_and_next_to_powers(self, eps):
        nudge = Fraction(1, 10**9)
        for t in range(-20, 61):
            p = _power(eps, t)
            for w in (p - nudge, p, p + nudge):
                assert round_weight(w, eps) == _walk_round(w, eps), (t, w)
            assert round_weight(p, eps) == t

    @pytest.mark.parametrize("eps", ROUNDING_EPSILONS)
    def test_large_integers(self, eps):
        for big in (1 << 70, 10**30):
            for w in (big - 1, big, big + 1):
                assert round_weight(w, eps) == _walk_round(w, eps), w


# ceil(log 2 / log1p(eps)) for the float eps = 1e-300 and 1e-310, from
# an independent 700-digit evaluation; each lies 0.44 and 0.29 from an
# integer, so the digits are settled
T_2_AT_1E_300 = int(
    "693147180559945292047593268490479584524100728728797249515804906770"
    "980986621632539100980455589468041783428303189808984667847770767963"
    "184630020765281332948363661542276462743729083387613420844781087087"
    "317214613579686059755603085173046288246180227706032541082128011138"
    "979048061570166123419176812459193079"
)
T_2_AT_1E_310 = int(
    "693147180559947427028482679137520735209177179657338957820795435782"
    "528041200969487299582317589897425038896776821613230431899815825775"
    "884974626911352309229381266738904465645263701953349205732751711980"
    "912060478394897170669211066056016240831377703604982969107935933571"
    "5685094192369628401169534420423406307767913493"
)


class TestRoundWeightSmallEpsilon:
    """Where the float estimate is undecided at every weight (eps below
    about 1e-9) or next to a power of 1+eps, or infinite (a subnormal
    eps), t is settled in decimal."""

    @pytest.mark.parametrize("w, eps, t", [
        (22, 1e-6, 3_091_044),
        (5, 1e-9, 1_609_437_914),
        (9_582, 1e-4, 91_681),
        (2, 1e-300, T_2_AT_1E_300),
        (2, 1e-310, T_2_AT_1E_310),
        (1, 1e-9, 0),
        (1, 5e-324, 0),
        # 1.5^5 off by 1 part in 10^80: within the first precision's
        # error of the power, so the decimal walk doubles its precision
        (Fraction(3, 2) ** 5 * (1 + Fraction(1, 10**80)), 0.5, 6),
        (Fraction(3, 2) ** 5 * (1 - Fraction(1, 10**80)), 0.5, 5),
    ])
    def test_exact_t(self, w, eps, t):
        assert round_weight(w, eps) == t

    def test_at_and_next_to_a_power_of_a_tiny_base(self):
        eps = 2.0 ** -40
        for t in (-3, 1, 3):
            p = _power(eps, t)
            assert round_weight(p, eps) == t
            assert round_weight(p + Fraction(1, 10**40), eps) == t + 1
            assert round_weight(p - Fraction(1, 10**40), eps) == t

    def test_run_dyn_at_a_subnormal_epsilon(self, tmp_path, capsys):
        from streamkmatch.cli import main

        path = tmp_path / "s.txt"
        path.write_text("3 1 dyn\n+ 0 1 2\n")
        assert main(["run-dyn", str(path), "--epsilon", "1e-310"]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == ["0 1 2", "weight 2"]


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
        assert not m.cells and not flat_tops(m)

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
        assert a.dense_cells() == b.dense_cells()
        assert flat_tops(a) == flat_tops(b)

    def test_instrumentation(self):
        m = DynamicMatcher(30, 2, random.Random(5))
        assert m.last_keys_touched == m.scheme.d2 ** 2
        m.process_update(insert(0, 1, 5))
        assert m.updates == 1
        assert m.last_keys_touched == m.scheme.d2 ** 2
        assert m.stats()["updates"] == 1


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
        assert not m.cells and not flat_tops(m)


class TestMatcherDoor:
    def test_out_of_range_endpoint_rejected(self):
        # edge ids would alias: (3, 12) under n=10 numbers as (4, 7)
        m = DynamicMatcher(10, 1, random.Random(6))
        with pytest.raises(MalformedStream):
            m.process_update(insert(3, 12, 5))
        assert not m.cells and m.query() is NO_K_MATCHING

    def test_non_canonical_endpoints_rejected(self):
        m = DynamicMatcher(10, 1, random.Random(6))
        # a float vertex once reached edge_index and raised a bare TypeError
        for u, v in ((5, 3), (4, 4), (-1, 2), (0.5, 1), (0, 1.0), ("0", 1)):
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

    @pytest.mark.parametrize("validate", [False, True])
    def test_unknown_op_rejected(self, validate):
        # neither a silent delete nor, when validating, a "bad delete"
        m = DynamicMatcher(10, 1, random.Random(6), validate=validate)
        m.process_update(insert(0, 1, 5))
        with pytest.raises(MalformedStream, match="unknown op 'bogus'"):
            m.process_update(StreamElement(Edge(0, 1, 5), "bogus"))
        assert m.updates == 1
        assert m.stats()["negative_samplers"] == 0
        assert m.query().edges == (Edge(0, 1, 5),)

    def test_non_integer_weight_rejected(self):
        # a non-integer weight never decoded (the cell's weight sum must
        # divide by its count), so it was a silent NoKMatching
        for eps in (None, 0.25):
            m = DynamicMatcher(10, 1, random.Random(6), epsilon=eps)
            for w in (0.1, 2.5, 3.0, Fraction(7, 2)):
                with pytest.raises(InvalidParameter, match="epsilon"):
                    m.process_update(insert(0, 1, w))
            assert not m.cells and m.updates == 0

    # a wrongly shaped element once ended in a bare ValueError or TypeError
    @pytest.mark.parametrize("el", [
        StreamElement((0, 1), INSERT), None, StreamElement((0, 1, 2, 3), INSERT),
        (Edge(0, 1, 5), INSERT, 1), (0, 1, 5), 5,
    ], ids=repr)
    def test_malformed_element_rejected(self, el):
        m = DynamicMatcher(10, 1, random.Random(6))
        m.process_update(insert(0, 1, 5))
        tops, cells = flat_tops(m), dict(m.cells)
        with pytest.raises(MalformedStream) as err:
            m.process_update(el)
        assert err.value.index == 1
        assert m.updates == 1 and flat_tops(m) == tops and m.cells == cells
        assert m.query().edges == (Edge(0, 1, 5),)

    def test_many_transient_weights_leave_no_alias(self):
        # thousands of distinct exact weights, none of them live
        m = DynamicMatcher(10, 1, random.Random(6))
        for w in range(1, 4097):
            m.process_update(insert(0, 1, w))
            m.process_update(delete(0, 1, w))
        assert not m.cells and not flat_tops(m)
        assert m.stats()["distinct_weight_keys"] == 0  # keys follow the live set
        m.process_update(insert(0, 1, 5000))
        m.process_update(insert(2, 3, 5000))
        assert m.stats()["distinct_weight_keys"] == 1
        assert m.query().edges == (Edge(0, 1, 5000),)
        m.process_update(delete(0, 1, 5000))
        assert m.query().edges == (Edge(2, 3, 5000),)

    def test_state_does_not_grow_with_edges_churned(self):
        # bytes held by the package after inserting and deleting every
        # edge of n=64 once, against churning none; both first touch
        # every vertex, so only the churn differs
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

    def test_bytes_per_live_edge(self):
        # a one-index sampler holds its top cell and nothing else
        pairs = random.Random(52).sample(
            [(u, v) for u in range(200) for v in range(u + 1, 200)], 300
        )
        tracemalloc.start()
        m = DynamicMatcher(200, 2, random.Random(51))
        for w, (u, v) in enumerate(pairs):
            m.process_update(insert(u, v, w % 4))
        gc.collect()
        snap = tracemalloc.take_snapshot().filter_traces(
            [tracemalloc.Filter(True, "*streamkmatch*")]
        )
        tracemalloc.stop()
        held = sum(stat.size for stat in snap.statistics("filename"))
        assert held / len(pairs) < 11_500


class TestCellFormat:
    def test_weights_above_2_to_70(self):
        # exact mode keeps each weight whole in its cells' payload sums
        w1, w2, w3 = (1 << 70) + 3, (1 << 72) + 5, (1 << 71) + 1
        stream = [
            insert(0, 1, w1), insert(2, 3, w2), insert(4, 5, w3), insert(1, 6, w1)
        ]
        whole, left, right = (
            DynamicMatcher(12, 2, random.Random(50)) for _ in range(3)
        )
        for el in stream:
            whole.process_update(el)
        for el in stream[:2]:
            left.process_update(el)
        for el in stream[2:]:
            right.process_update(el)
        assert whole.query().weight == w2 + w3
        left.merge_from(right)
        assert left.dense_cells() == whole.dense_cells()
        assert flat_tops(left) == flat_tops(whole)
        for el in stream:
            e = el.edge
            whole.process_update(delete(e.u, e.v, e.wt))
        assert not whole.cells and not flat_tops(whole)

    def test_cells_are_not_gc_tracked(self):
        # 20 live edges at k=2 hold about 26 000 cells; as containers the
        # cyclic collector tracks, they made full collections dominate
        m = DynamicMatcher(200, 2, random.Random(51))
        pairs = random.Random(52).sample(
            [(u, v) for u in range(200) for v in range(u + 1, 200)], 20
        )
        gc.collect()
        before = len(gc.get_objects())
        for w, (u, v) in enumerate(pairs):
            m.process_update(insert(u, v, w % 4))
        gc.collect()
        grown = len(gc.get_objects()) - before
        assert grown < 1000


class TestSparseSamplers:
    def test_one_live_edge_per_sampler_stores_no_cells(self):
        m = DynamicMatcher(200, 2, random.Random(51))
        pairs = random.Random(52).sample(
            [(u, v) for u in range(200) for v in range(u + 1, 200)], 20
        )
        for w, (u, v) in enumerate(pairs):
            m.process_update(insert(u, v, w % 4))
        assert not m._full
        assert len(flat_tops(m)) == 20 * m.scheme.d2 ** 2
        assert len(m.cells) == 0
        assert len(m.dense_cells()) == len(flat_tops(m)) * m.reps


class TestDecodeFailures:
    # a fail counts once per sampler, also when samplers share a top cell

    def test_every_sampler_of_a_doubled_edge_fails(self):
        # 4 and 5 share weight key 4 at eps = 0.5: each of the edge's 144
        # samplers holds c0 = 2 and payload sum 9, which does not divide
        m = DynamicMatcher(30, 2, random.Random(5), epsilon=0.5)
        m.process_update(insert(0, 1, 5))
        m.process_update(insert(0, 1, 4))
        assert len(set(flat_tops(m).values())) == 1
        assert m.query() is NO_K_MATCHING
        assert m.last_fail_count == 144
        assert m.stats()["fail_count_last_query"] == 144

    def test_full_and_one_index_samplers_in_one_query(self):
        # 1 and 5 share a hash value, so six samplers hold two edges;
        # the 36 samplers of the doubled edge (2, 3) fail
        m = DynamicMatcher(10, 1, random.Random(1), epsilon=0.5)
        for el in (insert(0, 1, 5), insert(0, 5, 5), insert(2, 3, 5),
                   insert(2, 3, 4), insert(6, 7, 3)):
            m.process_update(el)
        assert len(m._full) == 6
        assert len(set(flat_tops(m)) - m._full) == 132
        assert m.query().edges == (Edge(0, 1, 5),)
        assert m.last_fail_count == 36

    def test_full_sampler_sharing_a_one_index_top(self):
        # +a, +b, -b: the six samplers where (0, 5) met (0, 1) stay full,
        # with the same top cell as the 30 one-index samplers of (0, 1)
        m = DynamicMatcher(10, 1, random.Random(1), epsilon=0.5)
        for el in (insert(0, 1, 5), insert(0, 5, 5), delete(0, 5, 5)):
            m.process_update(el)
        assert len(m._full) == 6 and len(flat_tops(m)) == 36
        assert len(set(flat_tops(m).values())) == 1
        assert m.query().edges == (Edge(0, 1, 5),)
        assert m.last_fail_count == 0
        assert len(m._full) == 6

    def test_failing_top_shared_by_full_samplers_counts_per_sampler(self):
        # as above on the doubled edge (0, 1): the shared top fails in the
        # 30 one-index samplers and in each of the six full ones
        m = DynamicMatcher(10, 1, random.Random(1), epsilon=0.5)
        for el in (insert(0, 1, 5), insert(0, 1, 4), insert(0, 5, 5),
                   delete(0, 5, 5)):
            m.process_update(el)
        assert len(m._full) == 6 and len(set(flat_tops(m).values())) == 1
        assert m.query() is NO_K_MATCHING
        assert m.last_fail_count == 36
        assert len(m._full) == 6


    # k = 1: each edge reaches d2^2 = 36 samplers, all one-index, that
    # share one top cell; a fail counts once per sampler, a read once per
    # distinct top cell
    @pytest.mark.parametrize("updates", [
        # at eps = 0.9 the weights 2 and 3 share a key: payload 5, count 2
        (insert(0, 1, 2), insert(0, 1, 3)),
        (delete(0, 1, 2),),  # a phantom delete: the count is negative
    ], ids=["payload-does-not-divide", "phantom-delete"])
    def test_failing_one_index_top_is_pinned(self, updates):
        m = DynamicMatcher(10, 1, random.Random(1), epsilon=0.9)
        for el in updates:
            m.process_update(el)
        assert m.scheme.d2 ** 2 == len(flat_tops(m)) == 36 and not m._full
        assert len(set(flat_tops(m).values())) == 1
        assert m.query() is NO_K_MATCHING
        assert m.last_fail_count == 36
        assert m.stats()["decodes_last_query"] == 1

    def test_only_a_walk_reads_a_fingerprint_power(self):
        # a one-index top cell is read exactly, with no power of z; the
        # walk of a full sampler checks the fingerprint
        m = DynamicMatcher(10, 1, random.Random(1), epsilon=0.5)
        for el in (insert(0, 1, 5), insert(2, 3, 5), insert(6, 7, 3)):
            m.process_update(el)
        calls = []
        zpow = m._zpow
        m._zpow = lambda i: calls.append(i) or zpow(i)
        assert m.query().edges == (Edge(0, 1, 5),)
        assert not m._full and calls == []
        m.process_update(insert(0, 5, 5))  # 1 and 5 share a hash value
        calls.clear()
        m.query()
        assert len(m._full) == 6 and calls


class TestDecodeContract:
    def test_one_triple_per_distinct_top_cell(self):
        # a sliding window of 32 live edges: 4 608 samplers, all one-index,
        # hold 32 distinct top cells, and each decodes once
        m = DynamicMatcher(200, 2, random.Random(1))
        r = random.Random(2)
        live = []
        for _ in range(96):
            u, v = sorted(r.sample(range(200), 2))
            while any(e[:2] == (u, v) for e in live):
                u, v = sorted(r.sample(range(200), 2))
            live.append(Edge(u, v, r.randint(1, 8)))
            m.process_update(insert(*live[-1]))
            if len(live) > 32:
                m.process_update(delete(*live.pop(0)))
        assert m.live_sampler_count == 4608 and not m._full
        found, fails = m._decode()
        assert fails == 0 and len(found) == 32
        assert {eid for eid, _, _ in found} == {
            edge_index(e.u, e.v, 200) for e in live
        }
        assert m.query().weight == max_weight_k_matching(live, 2).weight


class TestSamplerStats:
    def test_stats_equal_the_properties_after_a_phantom_delete(self):
        m = DynamicMatcher(20, 2, random.Random(9))
        m.process_update(insert(0, 1, 5))
        m.process_update(delete(2, 3, 7))  # never inserted
        m.process_update(insert(4, 5, 6))
        stats = m.stats()
        assert stats["distinct_weight_keys"] == 3
        assert stats["live_samplers"] == m.live_sampler_count == 432
        assert stats["negative_samplers"] == 144
        # a query decodes each distinct one-index top cell once: the two
        # inserted edges and the phantom's negative count, with no full
        # sampler at this n
        assert stats["decodes_last_query"] == 0
        m.query()
        assert not m._full and m.last_fail_count == 144
        assert m.stats()["decodes_last_query"] == 3


class TestRoundWeightFastPath:
    def test_tiny_epsilon_stays_on_the_float_path(self, monkeypatch):
        # at eps = 1e-9 the float estimate settles all but a few weights
        eps = 1e-9
        exact = dynamic_matcher._round_exactly
        calls = [0]

        def counting(w, epsilon):
            calls[0] += 1
            return exact(w, epsilon)

        monkeypatch.setattr(dynamic_matcher, "_round_exactly", counting)
        for w in range(1, 2_001):
            assert round_weight(w, eps) == exact(Fraction(w), eps), w
        assert calls[0] <= 60  # 3% of the calls


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

    def test_weight_past_the_float_range(self):
        # (1.5)^t of a 400-digit weight overflows a float; the solve
        # takes the true weights, exact ints
        m = DynamicMatcher(10, 2, random.Random(8), epsilon=0.5)
        for e in (Edge(0, 1, 10**400), Edge(2, 3, 10**398), Edge(4, 5, 10**399),
                  Edge(0, 2, 10**401)):
            m.process_update(insert(*e))
        assert m.query().edges == (Edge(4, 5, 10**399), Edge(0, 2, 10**401))

    @pytest.mark.parametrize("eps", [1e-20, 1e-310])
    def test_weights_count_where_one_plus_epsilon_rounds_to_one(self, eps):
        # 1.0 + eps rounds to 1, yet the solve tells the weights apart
        m = DynamicMatcher(10, 1, random.Random(8), epsilon=eps)
        m.process_update(insert(0, 1, 2))
        m.process_update(insert(2, 3, 100))
        assert m.query().edges == (Edge(2, 3, 100),)

    def test_query_rounds_no_weight(self, monkeypatch):
        real = dynamic_matcher.round_weight
        calls = [0]

        def counting(w, epsilon):
            calls[0] += 1
            return real(w, epsilon)

        monkeypatch.setattr(dynamic_matcher, "round_weight", counting)
        m = DynamicMatcher(16, 2, random.Random(8), epsilon=0.25)
        stream = gen_random_stream(16, 2, 30, seed=21, mode="dyn", deletes=8,
                                   weight_min=1, weight_max=1_000)
        for el in stream.elements:
            m.process_update(el)
        assert calls[0] == len(stream.elements)  # every update rounds
        calls[0] = 0
        assert m.query() is not NO_K_MATCHING
        assert calls[0] == 0

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
        assert m.stats()["distinct_weight_keys"] <= 43  # log_{1.25}(10^4) + 1


class TestMerge:
    @pytest.mark.parametrize("epsilon, shards", [(None, 2), (0.25, 3)])
    def test_sharded_equals_sequential(self, epsilon, shards):
        stream = gen_random_stream(20, 2, 60, seed=30_000, mode="dyn", deletes=20)
        whole, left, *rest = (
            DynamicMatcher(20, 2, random.Random(31_000), epsilon=epsilon)
            for _ in range(shards + 1)
        )
        for el in stream.elements:
            whole.process_update(el)
        for i, el in enumerate(stream.elements):
            # later shards take later elements: deletes may precede their inserts
            [left, *rest][i * shards // len(stream.elements)].process_update(el)
        for right in rest:
            left.merge_from(right)
        # cell keys carry the weight key, so the merged grid equals the
        # sequential one key for key once one-index samplers are spread
        # to their levels
        assert left.dense_cells() == whole.dense_cells()
        assert flat_tops(left) == flat_tops(whole)
        a, b = left.query(), whole.query()
        if a is NO_K_MATCHING or b is NO_K_MATCHING:
            assert a is b
        else:
            assert a == b

    def test_second_index_then_delete_matches_merged(self):
        # +a, +b, -b in one grid leaves the shared samplers full; +a
        # merged with a shard that took +b, -b leaves them one-index
        a, b = insert(0, 1, 5), insert(0, 5, 5)  # 1 and 5 share a hash value
        whole, left, right = (DynamicMatcher(10, 1, random.Random(1)) for _ in range(3))
        for el in (a, b, delete(0, 5, 5)):
            whole.process_update(el)
        left.process_update(a)
        right.process_update(b)
        right.process_update(delete(0, 5, 5))
        left.merge_from(right)
        assert whole.cells and not left.cells
        assert left.dense_cells() == whole.dense_cells()
        assert flat_tops(left) == flat_tops(whole)
        assert left.query() == whole.query()
        assert left.last_fail_count == whole.last_fail_count
        assert left.live_sampler_count == whole.live_sampler_count

    def test_zero_count_with_a_payload_matches_merged(self):
        # 5 and 4 share weight key 4 at eps = 0.5, so the delete leaves
        # each of the edge's samplers a count of 0 and a payload sum of
        # 1; a second edge then reaches the samplers 1 and 5 share
        a, b = insert(0, 1, 5), insert(0, 5, 5)
        whole, left, right = (
            DynamicMatcher(10, 1, random.Random(1), epsilon=0.5) for _ in range(3)
        )
        for el in (a, delete(0, 1, 4), b):
            whole.process_update(el)
        left.process_update(a)
        left.process_update(delete(0, 1, 4))
        right.process_update(b)
        left.merge_from(right)
        assert left.dense_cells() == whole.dense_cells()
        assert flat_tops(left) == flat_tops(whole)
        assert left.query() == whole.query() == matching_of([Edge(0, 5, 5)])

    def test_answer_does_not_depend_on_merge_order(self):
        # an unvalidated stream inserts (0, 1) twice with different
        # weights; every grid reports the heaviest weight decoded for it
        whole, a1, b1, a2, b2 = (DynamicMatcher(8, 1, random.Random(3)) for _ in range(5))
        for grid, w in ((whole, 5), (whole, 9), (a1, 5), (b1, 9), (a2, 5), (b2, 9)):
            grid.process_update(insert(0, 1, w))
        a1.merge_from(b1)
        b2.merge_from(a2)
        assert whole.query() == a1.query() == b2.query() == matching_of([Edge(0, 1, 9)])

    def test_validating_merge_keeps_the_live_map(self):
        left, right = (DynamicMatcher(10, 1, random.Random(1), validate=True)
                       for _ in range(2))
        right.process_update(insert(0, 1, 5))
        left.merge_from(right)
        left.process_update(delete(0, 1, 5))  # the merged edge is live
        assert left.query() is NO_K_MATCHING

    def test_validating_merge_rejects_a_shared_live_edge(self):
        left, right = (DynamicMatcher(10, 1, random.Random(1), validate=True)
                       for _ in range(2))
        left.process_update(insert(0, 1, 5))
        right.process_update(insert(0, 1, 5))
        with pytest.raises(MalformedStream):
            left.merge_from(right)
        assert len(flat_tops(left)) == left.scheme.d2 ** 2  # nothing merged

    def test_validating_merge_rejects_an_unvalidated_grid(self):
        left = DynamicMatcher(10, 1, random.Random(1), validate=True)
        right = DynamicMatcher(10, 1, random.Random(1))
        right.process_update(insert(0, 1, 5))
        with pytest.raises(InvalidParameter):
            left.merge_from(right)
        assert not flat_tops(left)

    def test_merge_rejects_mismatched_randomness(self):
        a = DynamicMatcher(20, 2, random.Random(1))
        b = DynamicMatcher(20, 2, random.Random(2))
        with pytest.raises(InvalidParameter):
            a.merge_from(b)
        with pytest.raises(InvalidParameter):  # once an AttributeError
            a.merge_from(L0Sampler(190, 0.1, random.Random(1)))

    def test_merge_rejects_mismatched_epsilon(self):
        a = DynamicMatcher(20, 2, random.Random(3))
        b = DynamicMatcher(20, 2, random.Random(3), epsilon=0.25)
        with pytest.raises(InvalidParameter):
            a.merge_from(b)


class TestHashCallCounts:
    # perfbench's tracer reads hash.vertex_evals through the module name
    # dynamic_matcher.scheme_eval and hash.level_evals through KWiseHash
    # subclass level hashes; these pin the calls each one sees

    def test_two_scheme_evals_per_update(self, monkeypatch):
        calls = []
        real = dynamic_matcher.scheme_eval

        def counting(s, x):
            calls.append(x)
            return real(s, x)

        monkeypatch.setattr(dynamic_matcher, "scheme_eval", counting)
        m = DynamicMatcher(30, 2, random.Random(5))
        for el in (insert(0, 1, 5), insert(2, 3, 7), delete(0, 1, 5)):
            m.process_update(el)
        assert calls == [0, 1, 2, 3, 0, 1]

    def test_each_level_hash_called_once_per_index_spread(self):
        calls = []

        class Counting(KWiseHash):
            __slots__ = ()

            def __call__(self, x):
                calls.append(x)
                return KWiseHash.__call__(self, x)

        s = L0Sampler(1000, 0.01, random.Random(3))
        s.level_hashes = [Counting(*g) for g in s.level_hashes]
        s.update(5, 1)
        assert calls == []  # a one-index sampler stores its top cell only
        s.update(9, 1)  # goes full: the held index and the new one spread
        assert calls == [5] * s.reps + [9] * s.reps
        calls.clear()
        s.update(12, 1)
        assert calls == [12] * s.reps
        assert s.query() in {(5, 1), (9, 1), (12, 1)}


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

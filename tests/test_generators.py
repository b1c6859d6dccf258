"""Stream generators and the independent bipartite-matching oracle."""

import hashlib
import math
import random

import pytest

from streamkmatch import (
    Edge,
    InvalidParameter,
    MODE_DYNAMIC,
    MODE_INSERT_ONLY,
    NO_K_MATCHING,
    bipartite_matching_size,
    gen_index_hard,
    gen_partial_max_hard,
    gen_random_stream,
    materialize,
    max_weight_k_matching,
    stream_to_text,
)
from streamkmatch.acceptance import _log_uniform_dynamic_stream


class TestRandomStream:
    def test_deterministic_per_seed(self):
        a = gen_random_stream(20, 2, 50, seed=7)
        b = gen_random_stream(20, 2, 50, seed=7)
        c = gen_random_stream(20, 2, 50, seed=8)
        assert a == b and a != c

    def test_insert_only_shape(self):
        s = gen_random_stream(20, 2, 50, seed=1)
        assert s.mode == MODE_INSERT_ONLY and s.n == 20 and s.k == 2
        assert len(s.elements) == 50
        assert len(materialize(s.elements, 20)) == 50  # all edges distinct

    def test_dynamic_interleaves_valid_deletes(self):
        s = gen_random_stream(20, 2, 50, seed=2, mode="dyn", deletes=20)
        assert s.mode == MODE_DYNAMIC
        assert len(s.elements) == 70
        assert len(materialize(s.elements, 20)) == 30

    def test_weight_range_respected(self):
        s = gen_random_stream(15, 1, 40, seed=3, weight_min=5, weight_max=6)
        assert all(5 <= el.edge.wt <= 6 for el in s.elements)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            gen_random_stream(5, 1, 11, seed=1)  # over the universe size
        with pytest.raises(InvalidParameter):
            gen_random_stream(5, 1, 4, seed=1, deletes=1)  # ins mode
        with pytest.raises(InvalidParameter):
            gen_random_stream(5, 1, 4, seed=1, mode="dyn", deletes=5)
        with pytest.raises(InvalidParameter):
            gen_random_stream(5, 1, 4, seed=1, mode="nope")
        with pytest.raises(InvalidParameter):
            gen_random_stream(5, 1, 4, seed=1, weight_min=9, weight_max=1)


def _digest(stream):
    return hashlib.sha256(stream_to_text(stream).encode()).hexdigest()


class TestInterleavedDeletes:
    """Both dynamic families draw their deletes through one loop; these
    digests pin the exact streams it emits for fixed seeds."""

    @pytest.mark.parametrize("n, k, edges, seed, deletes, digest", [
        (20, 2, 60, 1, 20, "e40f8ca562c92d1fcfa29dd66fc216487266a0c58742bd9fdd8f967e409cbc5c"),
        (40, 3, 150, 7, 50, "623012f2a995d4119bb0368d5f311d0748fe441b030bf3ab5f8bcab7138b1c1c"),
        (12, 2, 30, 99, 30, "f94a0b12e3bc5f01a6e191ad59262436cfa1aa1ff73176834c1c9be72e16bd74"),
    ])
    def test_random_dynamic_streams_pinned(self, n, k, edges, seed, deletes, digest):
        s = gen_random_stream(n, k, edges, seed=seed, mode="dyn", deletes=deletes)
        assert _digest(s) == digest

    @pytest.mark.parametrize("seed, digest", [
        (81_000, "a765b636106ee6337050939e7a1b64bbcb45122331f1f07e1262db6ebb770f3b"),
        (81_099, "f62d1a796ae0280de8f00b75eecfde586f637fc14cd023f997195d9fce7999cd"),
        (81_199, "ab640a2db4ebe1723d51fa95a8846a617a55f89f689ffab837f249faa12075fa"),
    ])
    def test_criterion_8_streams_pinned(self, seed, digest):
        assert _digest(_log_uniform_dynamic_stream(40, 150, 50, seed)) == digest


class TestIndexHard:
    def test_membership_iff_matching_small_exhaustive(self):
        for m in (1, 2, 3, 4, 5, 9):
            k1 = math.ceil(math.sqrt(m))
            need = 2 * k1
            for xval in range(1 << m):
                bits = [(xval >> i) & 1 for i in range(m)]
                for z in range(1, m + 1):
                    s = gen_index_hard(m, bits, z)
                    assert s.k == need
                    edges = materialize(s.elements)
                    has = bipartite_matching_size(edges, need=need) >= need
                    assert has == (bits[z - 1] == 1), (m, xval, z)

    def test_accepts_bit_string(self):
        a = gen_index_hard(4, "1010", 2)
        b = gen_index_hard(4, [1, 0, 1, 0], 2)
        assert a == b

    def test_phase_order(self):
        # cross edges for set bits come first, then the star, then rails
        m = 4
        s = gen_index_hard(m, "1111", 1)
        k1 = 2
        cross = s.elements[:m]
        for el in cross:
            assert k1 <= el.edge.u < 2 * k1 and 2 * k1 <= el.edge.v < 3 * k1
        star = [el for el in s.elements[m:] if el.edge.u == 4 * k1]
        assert len(star) == s.n - 4 * k1 - 1

    def test_probed_row_and_column_rails_omitted(self):
        s = gen_index_hard(4, "0000", 1)  # chi(1) = (1, 1)
        k1 = 2
        rails = [el.edge for el in s.elements if el.edge.u != 4 * k1]
        # k1-1 left rails and k1-1 right rails remain (no cross edges)
        assert len(rails) == 2 * (k1 - 1)

    def test_custom_n_and_validation(self):
        s = gen_index_hard(4, "1010", 1, n=12)
        assert s.n == 12 and materialize(s.elements, 12)
        with pytest.raises(InvalidParameter):
            gen_index_hard(4, "1010", 1, n=9)  # below 4*k1 + 2
        with pytest.raises(InvalidParameter):
            gen_index_hard(4, "101", 1)  # wrong length
        with pytest.raises(InvalidParameter):
            gen_index_hard(4, "1010", 5)  # z out of range
        with pytest.raises(InvalidParameter):
            gen_index_hard(0, "", 1)


class TestPartialMaxHard:
    def test_survivor_maximum(self):
        s = gen_partial_max_hard([3, 9, 7], [2])
        assert s.mode == MODE_DYNAMIC and s.k == 1
        live = materialize(s.elements)
        got = max_weight_k_matching(live, 1)
        assert got.weight == 7  # 9 was deleted

    def test_no_deletions(self):
        s = gen_partial_max_hard([3, 9, 7], [])
        assert max_weight_k_matching(materialize(s.elements), 1).weight == 9

    def test_randomized_against_plain_max(self):
        rng = random.Random(4)
        for _ in range(200):
            m = rng.randint(1, 30)
            values = rng.sample(range(m * m + 1), m)
            removed = rng.sample(range(1, m + 1), rng.randint(0, m - 1))
            s = gen_partial_max_hard(values, removed)
            got = max_weight_k_matching(materialize(s.elements), 1)
            expect = max(
                values[i - 1] for i in range(1, m + 1) if i not in set(removed)
            )
            assert got is not NO_K_MATCHING and got.weight == expect

    def test_validation(self):
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([], [])
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 1], [])  # duplicates
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 2], [1, 2])  # nothing survives
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 99], [])  # 99 > m*m
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 2], [3])  # index out of range
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 2], [], n=2)  # path needs m+1 vertices


class TestBipartiteMatchingOracle:
    def test_known_sizes(self):
        path = [Edge(0, 1, 1), Edge(1, 2, 1), Edge(2, 3, 1)]
        assert bipartite_matching_size(path) == 2
        star = [Edge(0, i, 1) for i in range(1, 5)]
        assert bipartite_matching_size(star) == 1
        assert bipartite_matching_size([]) == 0

    def test_early_stop(self):
        perfect = [Edge(i, 10 + i, 1) for i in range(10)]
        assert bipartite_matching_size(perfect, need=3) == 3
        assert bipartite_matching_size(perfect) == 10

    def test_rejects_odd_cycle(self):
        with pytest.raises(InvalidParameter):
            bipartite_matching_size(
                [Edge(0, 1, 1), Edge(1, 2, 1), Edge(0, 2, 1)]
            )

    def test_against_unweighted_exact_solver(self):
        rng = random.Random(5)
        for _ in range(200):
            left = rng.randint(1, 5)
            right = rng.randint(1, 5)
            edges = []
            for u in range(left):
                for v in range(right):
                    if rng.random() < 0.4:
                        edges.append(Edge(u, 10 + v, 1))
            if len(edges) > 20:
                continue
            size = bipartite_matching_size(edges)
            # largest k for which a k-matching exists
            best = 0
            for k in range(1, min(left, right) + 1):
                if max_weight_k_matching(edges, k) is not NO_K_MATCHING:
                    best = k
            assert size == best

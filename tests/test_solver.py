"""Exact k-matching solver vs the exhaustive oracle."""

import random
from itertools import combinations

import pytest

from streamkmatch import (
    BRUTE_FORCE_EDGE_LIMIT,
    Edge,
    InfeasibleSize,
    InvalidParameter,
    Matching,
    NO_K_MATCHING,
    brute_force_oracle,
    edge_at_index,
    max_weight_k_matching,
)


def _random_instance(rng, weight=lambda rng: rng.randint(1, 9)):
    n = rng.randint(4, 14)
    universe = n * (n - 1) // 2
    m = rng.randint(0, min(20, universe))
    eids = rng.sample(range(universe), m)
    return [Edge(*edge_at_index(eid, n), weight(rng)) for eid in eids]


class TestSentinel:
    def test_falsy_singleton(self):
        assert not NO_K_MATCHING
        assert repr(NO_K_MATCHING) == "NoKMatching"
        assert max_weight_k_matching([], 1) is NO_K_MATCHING

    def test_k_zero_is_empty_matching(self):
        assert max_weight_k_matching([], 0) == Matching(())
        assert brute_force_oracle([Edge(0, 1, 5)], 0) == Matching(())

    def test_negative_k_rejected(self):
        # InvalidParameter, so the CLI reports exit 2, not a traceback
        with pytest.raises(InvalidParameter):
            max_weight_k_matching([], -1)
        with pytest.raises(InvalidParameter):
            brute_force_oracle([], -1)


class TestKnownAnswers:
    def test_single_edge(self):
        got = max_weight_k_matching([Edge(0, 1, 7)], 1)
        assert got.edges == (Edge(0, 1, 7),) and got.weight == 7

    def test_triangle_has_no_2_matching(self):
        tri = [Edge(0, 1, 5), Edge(1, 2, 5), Edge(0, 2, 5)]
        assert max_weight_k_matching(tri, 2) is NO_K_MATCHING

    def test_exactly_k_not_at_most_k(self):
        # a heavy 1-matching must not be returned when k=2 is feasible
        # only through lighter edges
        edges = [Edge(0, 1, 100), Edge(2, 3, 1), Edge(4, 5, 1)]
        got = max_weight_k_matching(edges, 2)
        assert got.weight == 101 and len(got.edges) == 2

    def test_path_alternation(self):
        # path weights force skipping the middle edge
        path = [Edge(0, 1, 4), Edge(1, 2, 9), Edge(2, 3, 4)]
        got = max_weight_k_matching(path, 2)
        assert got.weight == 8

    def test_parallel_edges(self):
        # copies of one pair must not fill a vertex's quota in the
        # solver's kernel and crowd out the edges the optimum needs
        edges = [Edge(0, 1, 10), Edge(0, 1, 9), Edge(0, 1, 8), Edge(1, 2, 7),
                 Edge(0, 3, 5)]
        got = max_weight_k_matching(edges, 2)
        assert got.edges == (Edge(0, 3, 5), Edge(1, 2, 7))
        assert got == brute_force_oracle(edges, 2)
        # a copy given as (v, u) is the same pair
        edges = [Edge(0, 1, 10), Edge(1, 0, 9), Edge(0, 2, 8), Edge(1, 2, 7),
                 Edge(0, 3, 5)]
        assert max_weight_k_matching(edges, 2) == brute_force_oracle(edges, 2)

    def test_tie_break_is_lexicographic_profile(self):
        # two disjoint 1-matchings of equal weight: the smaller sorted
        # (wt, u, v) profile wins, deterministically
        a, b = Edge(0, 1, 5), Edge(2, 3, 5)
        got = max_weight_k_matching([b, a], 1)
        assert got.edges == (a,)
        assert brute_force_oracle([b, a], 1).edges == (a,)


class TestAgainstOracle:
    def test_random_instances(self):
        rng = random.Random(100)
        for _ in range(1500):
            edges = _random_instance(rng)
            k = rng.randint(1, 4)
            assert max_weight_k_matching(edges, k) == brute_force_oracle(edges, k)

    def test_small_census(self):
        # all subsets of the 10 possible edges on 5 vertices, k <= 2
        universe = [Edge(*edge_at_index(eid, 5), 1 + (eid * 3) % 4) for eid in range(10)]
        for size in range(0, 7):
            for combo in combinations(universe, size):
                for k in (1, 2):
                    assert max_weight_k_matching(combo, k) == brute_force_oracle(
                        combo, k
                    )

    def test_equal_weights_everywhere(self):
        # maximal tie-breaking stress: every edge weighs the same
        rng = random.Random(101)
        for _ in range(300):
            edges = [e._replace(wt=5) for e in _random_instance(rng)]
            k = rng.randint(1, 3)
            assert max_weight_k_matching(edges, k) == brute_force_oracle(edges, k)


class TestBruteForceCap:
    def test_rejects_oversized_input(self):
        edges = [Edge(0, i, 1) for i in range(1, BRUTE_FORCE_EDGE_LIMIT + 2)]
        with pytest.raises(InfeasibleSize):
            brute_force_oracle(edges, 1)

    def test_accepts_input_at_cap(self):
        edges = [
            Edge(2 * i, 2 * i + 1, 1) for i in range(BRUTE_FORCE_EDGE_LIMIT)
        ]
        assert brute_force_oracle(edges, 1).weight == 1


class TestFloatWeights:
    # sampled edges of dynamic golden case approx-13 as (u, v, t), at
    # rounded weight 1.25^t: nine tie at 1.25^31, where float prefix
    # sums over the list can fall an ulp short of the tied weight
    APPROX_13 = [
        (3, 17, 23), (3, 9, 23), (5, 8, 24), (7, 9, 25), (6, 16, 25),
        (5, 16, 26), (0, 2, 26), (7, 8, 28), (4, 12, 29), (0, 9, 29),
        (10, 14, 29), (0, 14, 30), (1, 12, 30), (7, 11, 30), (7, 15, 30),
        (4, 10, 30), (6, 13, 31), (8, 10, 31), (1, 6, 31), (3, 7, 31),
        (8, 11, 31), (1, 4, 31), (3, 10, 31), (0, 11, 31), (13, 14, 31),
    ]

    def test_rounded_tie_takes_smallest_profile(self):
        edges = [Edge(u, v, 1.25 ** t) for u, v, t in self.APPROX_13]
        tied = [e for e in edges if e.wt == 1.25 ** 31]
        assert len(tied) == 9
        want = brute_force_oracle(tied, 1)
        assert want.edges == (Edge(0, 11, 1.25 ** 31),)
        assert max_weight_k_matching(edges, 1) == want

    @pytest.mark.parametrize("weight", [
        lambda rng: rng.randint(0, 12) / 4,
        lambda rng: rng.choice((0.1, 0.2, 0.3)),
        lambda rng: 1.25 ** rng.randint(20, 24),
    ], ids=["quarters", "tenths", "powers"])
    def test_random_instances(self, weight):
        # float addition rounds, so float sums can tie where the exact
        # sums differ and differ where they tie; the oracle sums exactly
        rng = random.Random(102)
        for _ in range(400):
            edges = _random_instance(rng, weight)
            k = rng.randint(1, 4)
            assert max_weight_k_matching(edges, k) == brute_force_oracle(edges, k)


class TestAgainstNetworkx:
    def test_dense_ties_at_larger_m(self):
        # a k-matching exists iff the graph plus n - 2k dummies, each
        # joined to every vertex at weight M, has a perfect matching;
        # adding M to every edge keeps the reduction's weights positive,
        # and that matching's weight is (n - k) M + the best k-matching's
        nx = pytest.importorskip("networkx")
        rng = random.Random(103)
        big = 1000
        for _ in range(60):
            k = rng.randint(1, 6)
            n = rng.randint(2 * k, 20)
            universe = n * (n - 1) // 2
            eids = rng.sample(range(universe), rng.randint(0, min(80, universe)))
            edges = [Edge(*edge_at_index(eid, n), rng.randint(0, 3)) for eid in eids]
            g = nx.Graph()
            g.add_nodes_from(range(2 * n - 2 * k))
            g.add_weighted_edges_from((e.u, e.v, e.wt + big) for e in edges)
            g.add_weighted_edges_from(
                (d, v, big) for d in range(n, 2 * n - 2 * k) for v in range(n)
            )
            mate = nx.max_weight_matching(g, maxcardinality=True)
            got = max_weight_k_matching(edges, k)
            if len(mate) < n - k:
                assert got is NO_K_MATCHING
            else:
                total = sum(g[u][v]["weight"] for u, v in mate)
                assert got.weight == total - (n - k) * big

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
from streamkmatch.generators import interleave_deletes


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
        with pytest.raises(InvalidParameter, match="k=-3"):
            gen_random_stream(5, -3, 2, seed=1)  # its header would be refused
        # non-int sizes once raised a bare TypeError, ValueError or IndexError
        for name, value, mode in (("edges", 2.5, "ins"), ("weight_min", 1.5, "ins"),
                                  ("weight_max", 3.5, "ins"), ("deletes", 1.5, "dyn")):
            with pytest.raises(InvalidParameter, match=name):
                gen_random_stream(**{"n": 6, "k": 1, "edges": 4, "seed": 1, "mode": mode,
                                     name: value})
        # each size names itself and its least value (weight_max: weight_min = 1)
        for name, least in (("edges", 0), ("deletes", 0), ("weight_min", 0), ("weight_max", 1)):
            for value in (2.5, 2.0, "3", None, least - 1):
                with pytest.raises(InvalidParameter, match=f"^{name}=.* >= {least}$"):
                    gen_random_stream(**{"n": 6, "k": 1, "edges": 4, "seed": 1, "mode": "dyn",
                                         name: value})


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

    def test_refuses_more_deletes_than_inserts(self):
        # a negative count or more deletes than inserts once ran off the
        # end of pending with a bare IndexError
        pending = [Edge(0, 1, 1), Edge(1, 2, 1)]
        for deletes in (-1, 3):
            with pytest.raises(InvalidParameter, match="deletes="):
                interleave_deletes(5, 1, pending, deletes, random.Random(1))

    @pytest.mark.parametrize("n, pending, match", [
        (5, [Edge(0, 9, 1)], "n=5"),
        (5, [Edge(0, 1, 1), Edge(1, 0, 2)], "repeats a vertex pair"),
        (5.0, [Edge(0, 1, 1)], "n=5.0"),
    ], ids=["out-of-range", "repeated-pair", "float-n"])
    def test_refuses_edges_the_header_cannot_hold(self, n, pending, match):
        # each once built a stream whose header n or live set it broke
        with pytest.raises(InvalidParameter, match=match):
            interleave_deletes(n, 1, pending, 1, random.Random(1))


class TestCanonicalStreamsPinned:
    """The generators build their elements without the edge rule; these
    digests pin the exact streams, vertex numbering and order included."""

    @pytest.mark.parametrize("m, x, z, n, digest", [
        (1, "1", 1, None, "d88f3f894e66176a42f6ce6aa32b249314c3f9d94f1eb4f821a231b06164499c"),
        (1, "0", 1, None, "7464b1aec3d5d89c459bd2c2ce924cb9275f60b666853fce1b0590e24f140b2c"),
        (2, "10", 2, None, "23d9f834da731879c82532198787b20173bca5bd4b6efea68df65e270505e260"),
        (2, "11", 1, 12, "159092c725d6721b459b7381c71bf6d0938d58333053e9f507379b3efc093c42"),
        (9, "101100111", 5, None,
         "fd7ca4d6178de95144256c265e8e52a28d496462fbf88368ca676d5b0e6a0e4f"),
        (9, "010011101", 9, 20,
         "2c60cafbb57ff7a251a7e47b32e937ed497dc2eb86a435d9462f65a56d395905"),
        (16, "1011001110001011", 7, None,
         "419076ab87154efba30df0fb645a775b0e85e5a93b7598a323f4a2edb5a9d61e"),
        (16, "0110100111010010", 16, 25,
         "6b202a351575899f25bc7259103fd6b9f01b1dfb3c12f43146ddd4e2dea71d4c"),
    ])
    def test_index_hard_pinned(self, m, x, z, n, digest):
        assert _digest(gen_index_hard(m, x, z, n=n)) == digest

    @pytest.mark.parametrize("values, deleted, n, digest", [
        ([3, 9, 7, 0, 16, 5], [2, 5], None,
         "7556d546dee6ae045efa52472edaf374977c2c92300e48227b28ca514d3bef19"),
        ([3, 9, 7, 0, 16, 5], [], None,
         "cdf0d7892a258af9fabaa31977b7598bf3c5c05f3bc58bd24ca9c0d55446836e"),
        ([4, 1, 8], [3, 1], 7, "9de809c1e56a6bd16f5b331b3ea71442903b92b7b6186656acb52936ac84e799"),
    ])
    def test_partial_max_hard_pinned(self, values, deleted, n, digest):
        assert _digest(gen_partial_max_hard(values, deleted, n=n)) == digest

    @pytest.mark.parametrize("n, k, edges, seed, digest", [
        (20, 2, 60, 1, "acf4adc11008923b5b9130149bb579f52858204264abc6096d53a849cbdad7be"),
        (40, 3, 150, 7, "44fd6209858553ba84777f50867f0124359ed9afddae8b46ce5853223871a342"),
    ])
    def test_random_insert_only_pinned(self, n, k, edges, seed, digest):
        assert _digest(gen_random_stream(n, k, edges, seed=seed)) == digest


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
        # a float probe once gave an instance with no cross edge, a float
        # n or m a bare TypeError
        for m, x, z, n in ((4, "0000", 1.5, None), (4, "1010", 1, 12.0), (4.0, "1010", 1, None)):
            with pytest.raises(InvalidParameter):
                gen_index_hard(m, x, z, n=n)


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
        # a float index or n once raised a bare TypeError
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 2, 3], [2.0])
        with pytest.raises(InvalidParameter):
            gen_partial_max_hard([1, 2, 3], [2], n=4.0)


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

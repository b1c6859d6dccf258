"""Compact/reduced subgraph construction, definitional and budgeted."""

import random

import pytest

from reducer_reference import ReferenceReducer, compact_subgraph
from streamkmatch import (
    C_RED,
    FIELD_PRIME,
    Edge,
    InvalidParameter,
    ReducerState,
    UniversalHash,
    new_vertex_partition,
    reduce,
)


def _random_edges(rng, n, m):
    m = min(m, n * (n - 1) // 2)
    seen = set()
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if (u, v) in seen:
            continue
        seen.add((u, v))
        edges.append(Edge(u, v, rng.randint(1, 100)))
    return edges


def _oracle_reduced(edges, f, k):
    """Straight-line recompute: bucket-pair maxima, per-bucket top-2k
    survival (both endpoints), global top-4k^2."""
    best = {}
    for e in edges:
        i, j = f(e.u), f(e.v)
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        if pair not in best or e.beta > best[pair].beta:
            best[pair] = e
    incident = {}
    for e in best.values():
        incident.setdefault(f(e.u), []).append(e)
        incident.setdefault(f(e.v), []).append(e)
    top = {}
    for b, lst in incident.items():
        lst.sort(key=lambda e: e.beta, reverse=True)
        top[b] = set(lst[: 2 * k])
    survivors = [
        e for e in best.values() if e in top[f(e.u)] and e in top[f(e.v)]
    ]
    survivors.sort(key=lambda e: e.beta, reverse=True)
    return set(survivors[: 4 * k * k])


class TestVertexPartition:
    def test_range(self):
        rng = random.Random(1)
        f = new_vertex_partition(3, rng)
        assert f.r == 36
        assert all(0 <= f(x) < 36 for x in range(500))

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameter):
            new_vertex_partition(0, random.Random(1))
        # a float k once built a hash with a float range, and a k below 1
        # ended a reduction in a bare IndexError
        f = new_vertex_partition(2, random.Random(1))
        edges = [Edge(0, 1, 5), Edge(2, 3, 4)]
        for k in (0, -1, 1.5, 2.0, "3", None):
            with pytest.raises(InvalidParameter, match="k="):
                new_vertex_partition(k, random.Random(1))
            with pytest.raises(InvalidParameter, match="k="):
                ReducerState(edges, f, k)
            with pytest.raises(InvalidParameter, match="k="):
                reduce(edges, f, k)


class TestCompactSubgraph:
    def test_keeps_heaviest_per_bucket_pair(self):
        rng = random.Random(2)
        for _ in range(100):
            k = rng.randint(1, 4)
            f = new_vertex_partition(k, rng)
            edges = _random_edges(rng, rng.randint(5, 40), rng.randint(1, 150))
            got = compact_subgraph(edges, f)
            best = {}
            for e in edges:
                i, j = f(e.u), f(e.v)
                if i == j:
                    continue
                pair = (min(i, j), max(i, j))
                if pair not in best or e.beta > best[pair].beta:
                    best[pair] = e
            assert sorted(got) == sorted(best.values())

    def test_drops_intra_bucket_edges(self):
        f = UniversalHash(0, 0, 4)  # every vertex to bucket 0
        assert compact_subgraph([Edge(0, 1, 5)], f) == []

    def test_at_most_one_per_pair(self):
        rng = random.Random(3)
        f = new_vertex_partition(2, rng)
        edges = _random_edges(rng, 30, 200)
        got = compact_subgraph(edges, f)
        pairs = {tuple(sorted((f(e.u), f(e.v)))) for e in got}
        assert len(pairs) == len(got)


class TestReduce:
    def test_matches_oracle(self):
        rng = random.Random(4)
        for _ in range(150):
            k = rng.randint(1, 4)
            f = new_vertex_partition(k, rng)
            edges = _random_edges(rng, rng.randint(5, 60), rng.randint(0, 300))
            assert set(reduce(edges, f, k)) == _oracle_reduced(edges, f, k)

    def test_size_cap(self):
        rng = random.Random(5)
        for k in (1, 2, 3):
            f = new_vertex_partition(k, rng)
            edges = _random_edges(rng, 50, 400)
            assert len(reduce(edges, f, k)) <= 4 * k * k

    def test_idempotent(self):
        rng = random.Random(6)
        for _ in range(60):
            k = rng.randint(1, 4)
            f = new_vertex_partition(k, rng)
            edges = _random_edges(rng, rng.randint(5, 50), rng.randint(0, 250))
            once = reduce(edges, f, k)
            assert set(reduce(once, f, k)) == set(once)

    def test_star_keeps_2k_heaviest(self):
        # one bucket joined to 2k+1 distinct other buckets: the 2k
        # heaviest spokes survive the per-bucket trim
        k = 2
        f = UniversalHash(1, 0, 4 * k * k)  # identity partition: vertex i -> bucket i
        hub = 0
        spokes = [Edge(hub, i, 10 + i) for i in range(1, 2 * k + 2)]
        got = set(reduce(spokes, f, k))
        expect = set(sorted(spokes, key=lambda e: e.beta)[-2 * k:])
        assert got == expect

    def test_empty_input(self):
        f = new_vertex_partition(2, random.Random(7))
        assert reduce([], f, 2) == []


class TestReducerState:
    def test_infinite_budget_single_call(self):
        rng = random.Random(8)
        k = 3
        f = new_vertex_partition(k, rng)
        edges = _random_edges(rng, 40, 200)
        state = ReducerState(edges, f, k)
        state.step_upto(1 << 30)
        assert state.done
        assert set(state.output) == set(reduce(edges, f, k))

    def test_stepwise_equals_definitional(self):
        rng = random.Random(9)
        for _ in range(40):
            k = rng.randint(1, 4)
            f = new_vertex_partition(k, rng)
            edges = _random_edges(rng, rng.randint(5, 50), rng.randint(0, 200))
            budget = rng.randint(1, 9)
            state = ReducerState(edges, f, k)
            while not state.done:
                state.step_upto(budget)
            assert set(state.output) == set(reduce(edges, f, k))

    def test_step_is_noop_after_done(self):
        f = new_vertex_partition(1, random.Random(10))
        state = ReducerState([Edge(0, 1, 5)], f, 1)
        state.run_to_completion()
        assert state.step_upto(100) == 0

    def test_negative_budget_rejected(self):
        # a negative limit once came back as units spent, and the walk
        # then bucketed some edges twice
        rng = random.Random(11)
        f = new_vertex_partition(2, rng)
        edges = _random_edges(rng, 12, 15)
        state = ReducerState(edges, f, 2)
        with pytest.raises(InvalidParameter):
            state.step_upto(-3)
        for bad in (1.5, 2.0, "3", None):  # once a bare TypeError
            with pytest.raises(InvalidParameter, match="limit="):
                state.step_upto(bad)
        assert not state.done
        assert set(state.run_to_completion()) == set(reduce(edges, f, 2))
        assert state.step_upto(-3) == 0  # a finished reducer spends nothing

    def test_done_in_the_call_that_pays_the_last_unit(self):
        # sent exactly its total units in one call, a machine is done
        # after that call, though the limit is spent when its last
        # unit is paid; the insert matcher's segment deadline relies
        # on it
        rng = random.Random(21)
        for trial in range(300):
            k = trial % 4 + 1
            f = new_vertex_partition(k, rng)
            m = 0 if trial % 25 == 0 else rng.randint(0, 12 * k * k)
            edges = _random_multigraph(rng, rng.randint(2, 60), m, [1, 2, rng.randint(1, 99)])
            total = 0
            probe = ReducerState(edges, f, k)
            while not probe.done:
                total += probe.step_upto(rng.randint(1, 50))
            state = ReducerState(edges, f, k)
            assert state.step_upto(total) == total
            assert state.done
            assert state.output == probe.output

    def test_total_steps_within_calibrated_constant(self):
        # the per-arrival budget relies on: total micro-steps for m edges
        # is at most C_RED * (m + k^2)
        rng = random.Random(12)
        for _ in range(120):
            k = rng.randint(1, 4)
            f = new_vertex_partition(k, rng)
            n = rng.randint(5, 60)
            m = rng.randint(0, min(12 * k * k, n * (n - 1) // 2))
            edges = _random_edges(rng, n, m)
            state = ReducerState(edges, f, k)
            total = 0
            while not state.done:
                total += state.step_upto(1 << 30)
            assert total <= C_RED * (m + k * k)

    def test_interleaved_stepping_fits_one_segment(self):
        # one step_upto call per arrival, budget sized as the insert matcher
        # sizes it: the reduction of a (sketch + segment)-sized input must
        # finish within 4k^2 arrivals
        from streamkmatch.insert_matcher import step_budget

        rng = random.Random(13)
        for k in (1, 2, 3, 4):
            budget = step_budget(k, 0.25)  # two in-flight reducers share it
            per_reducer = budget // 2
            f = new_vertex_partition(k, rng)
            edges = _random_edges(rng, 8 * k + 8, min(12 * k * k, 120))
            state = ReducerState(edges, f, k)
            arrivals = 0
            while not state.done:
                state.step_upto(per_reducer)
                arrivals += 1
                assert arrivals <= 4 * k * k
            assert set(state.output) == set(reduce(edges, f, k))


def _identity(r):
    """Vertex i < r goes to bucket i."""
    return UniversalHash(1, 0, r)


def _random_multigraph(rng, n, m, weights):
    """Edges that may repeat a pair, with weights drawn from `weights`."""
    edges = []
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.append(Edge(min(u, v), max(u, v), rng.choice(weights)))
    return edges


class TestSameAccounting:
    """The budgeted machine against the per-element-yield machine: equal
    units from every step_upto call, the same total at `done`, and the
    same output, list order included."""

    def _assert_same(self, rng, edges, f, k, carry=None):
        if carry is None:
            ours = ReducerState(edges, f, k)
            ref = ReferenceReducer(edges, f, k)
        else:
            ours = ReducerState(edges, f, k, carry.kept)
            ref = ReferenceReducer(carry.output + edges, f, k)
        total = 0
        while not (ours.done and ref.finished):
            limit = rng.randint(1, 40)
            spent = ours.step_upto(limit)
            assert spent == ref.step_upto(limit)
            total += spent
        assert total == ref.steps_total
        assert ours.output == ref.output
        return ours, total

    def test_random_inputs_every_k_and_tie_level(self):
        rng = random.Random(15)
        for trial in range(240):
            k = trial % 4 + 1
            weights = ([1], [1, 2, 3], list(range(1, 10**6)))[trial % 3]
            f = new_vertex_partition(k, rng)
            n = rng.randint(2, 80)
            edges = _random_multigraph(rng, n, rng.randint(0, 12 * k * k), weights)
            self._assert_same(rng, edges, f, k)

    def test_intra_bucket_edges(self):
        rng = random.Random(16)
        one_bucket = UniversalHash(0, 0, 4)  # every vertex to bucket 0
        edges = _random_multigraph(rng, 20, 50, [1, 2])
        ours, _ = self._assert_same(rng, edges, one_bucket, 1)
        assert ours.output == []
        two_buckets = UniversalHash(8, 0, 16)  # x -> 8 * (x mod 2)
        for k in (1, 2, 3, 4):
            self._assert_same(rng, _random_multigraph(rng, 30, 80, [1, 2, 3]), two_buckets, k)

    def test_buckets_over_2k_take_the_select_path(self):
        rng = random.Random(17)
        for k in (1, 2, 3, 4):
            f = _identity(4 * k * k)
            # two hubs, each joined to every other bucket: far more than
            # 2k incident pairs per hub bucket
            edges = [Edge(min(h, b), max(h, b), rng.choice([1, 2, rng.randint(1, 99)]))
                     for h in (0, 1) for b in range(f.r) if b != h]
            rng.shuffle(edges)
            self._assert_same(rng, edges, f, k)

    def test_vertex_ids_at_the_field_edge(self):
        # the machine evaluates f inline and the reference calls f(u),
        # so ids at and past the prime pin the inline formula to
        # UniversalHash.__call__
        ids = [0, 1, FIELD_PRIME - 1, FIELD_PRIME, FIELD_PRIME + 1, 2 * FIELD_PRIME + 5,
               1 << 64, (1 << 64) + 1, (1 << 100) + 3]
        pairs = [(u, v) for u in ids for v in ids if u < v]
        rng = random.Random(20)
        for trial in range(60):
            k = trial % 4 + 1
            f = new_vertex_partition(k, rng)
            edges = [Edge(u, v, rng.randint(1, 9)) for u, v in pairs]
            rng.shuffle(edges)
            self._assert_same(rng, edges, f, k)

    def test_empty_input(self):
        rng = random.Random(18)
        f = new_vertex_partition(2, rng)
        _, total = self._assert_same(rng, [], f, 2)
        assert total == 0

    def test_carried_sketch_matches_a_copied_input(self):
        # a reduction that takes the last one's kept entries, without
        # hashing them again, spends and returns what the machine given
        # the copied sketch plus the segment does
        rng = random.Random(19)
        for trial in range(80):
            k = trial % 4 + 1
            f = new_vertex_partition(k, rng)
            n = rng.randint(4, 60)
            weights = ([1, 2], list(range(1, 1000)))[trial % 2]
            red = ReducerState(_random_multigraph(rng, n, 4 * k * k, weights), f, k)
            red.run_to_completion()
            for _ in range(3):
                segment = _random_multigraph(rng, n, 4 * k * k, weights)
                red, _ = self._assert_same(rng, segment, f, k, carry=red)

"""Tests of the benchmark's answer checker and input streams.

    python3 -m pytest perfbench/test_checker.py -q
    python3 perfbench/test_checker.py

The checker is compared with full enumeration of k-subsets on small
random graphs, including graphs whose weights all tie and graphs with
no k-matching.
"""

from __future__ import annotations

import os
import random
import sys
from itertools import combinations

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checker import FAIL, MISS, OK, InsertOnlyOptimum, judge, kernel, optimum  # noqa: E402
from streams import InsertStream, InsertedPrefix, pair_at, pair_number, window_stream  # noqa: E402


def enumerate_optimum(edges, k):
    best = None
    for combo in combinations(edges, k):
        ends = [x for _, u, v in combo for x in (u, v)]
        if len(set(ends)) == 2 * k:
            w = sum(e[0] for e in combo)
            best = w if best is None else max(best, w)
    return best


def random_graph(rng, n, m, weight_max):
    pairs = rng.sample([(u, v) for v in range(n) for u in range(v)], m)
    return [(rng.randint(1, weight_max), u, v) for u, v in pairs]


def graphs(trials=400):
    rng = random.Random(7)
    for trial in range(trials):
        n = rng.randint(2, 9)
        m = rng.randint(0, min(14, n * (n - 1) // 2))
        weight_max = (1, 3, 1000)[trial % 3]  # all ties, many ties, distinct
        yield rng.randint(1, 4), random_graph(rng, n, m, weight_max)


def test_optimum_matches_enumeration():
    seen_none = seen_ties = 0
    for k, edges in graphs():
        want = enumerate_optimum(edges, k)
        assert optimum(edges, k) == want, (k, edges)
        seen_none += want is None
        seen_ties += bool(edges) and len({e[0] for e in edges}) == 1
    assert seen_none > 20 and seen_ties > 20


def test_kernel_size():
    for k, edges in graphs():
        assert len(kernel(edges, k)) <= (2 * k - 2) * (2 * k - 1) + 1


def test_star_and_clique_keep_an_optimum():
    # every heavy edge shares vertex 0; the optimum must reach past them
    star = [(100 + v, 0, v) for v in range(1, 12)]
    light = [(1, 2 * i + 1, 2 * i + 2) for i in range(5)]
    for k in (1, 2, 3):
        assert optimum(star + light, k) == enumerate_optimum(star + light, k)
    clique = [(1, u, v) for v in range(7) for u in range(v)]
    assert optimum(clique, 3) == 3
    assert optimum(clique, 4) is None


def test_insert_only_prefixes_match_enumeration():
    rng = random.Random(11)
    for trial in range(150):
        n = rng.randint(2, 9)
        edges = random_graph(rng, n, rng.randint(0, min(14, n * (n - 1) // 2)),
                             (1, 4, 1000)[trial % 3])
        k = rng.randint(1, 3)
        best = InsertOnlyOptimum(k)
        for i, e in enumerate(edges):
            best.add(e)
            assert best.optimum() == enumerate_optimum(edges[: i + 1], k), (k, edges, i)


def test_judge():
    live = {(0, 1): 5, (2, 3): 4, (1, 2): 9}
    assert judge([(0, 1, 5), (2, 3, 4)], live, 2, 9) == OK
    assert judge([(0, 1, 5), (2, 3, 4)], live, 2, 10) == MISS
    assert judge([(0, 1, 5), (2, 3, 4)], live, 2, 10, ratio=0.9) == OK
    assert judge(None, live, 2, 9) == MISS
    assert judge(None, live, 3, None) == OK
    assert judge([(0, 1, 5), (2, 3, 4)], live, 2, 8) == FAIL       # above optimum
    assert judge([(0, 1, 6), (2, 3, 4)], live, 2, 10) == FAIL      # wrong weight
    assert judge([(0, 1, 5), (1, 2, 9)], live, 2, 14) == FAIL      # shares vertex 1
    assert judge([(0, 1, 5), (4, 5, 4)], live, 2, 9) == FAIL       # not live
    assert judge([(0, 1, 5)], live, 2, 9) == FAIL                  # too few edges
    assert judge([(1, 0, 5), (3, 2, 4)], live, 2, 9) == OK         # either orientation


def test_pair_numbering_round_trips():
    for p in range(5000):
        u, v = pair_at(p)
        assert 0 <= u < v and pair_number(u, v) == p


def test_insert_stream_is_a_seeded_bijection():
    n = 60
    a = InsertStream(n, 3, 10 ** 6)
    b = InsertStream(n, 3, 10 ** 6)
    size = n * (n - 1) // 2
    edges = [a.edge(i) for i in range(size)]
    assert edges == [b.edge(i) for i in range(size)]
    assert len({(u, v) for u, v, _ in edges}) == size
    assert all(0 <= u < v < n and 1 <= w <= 10 ** 6 for u, v, w in edges)
    assert edges != [InsertStream(n, 4, 10 ** 6).edge(i) for i in range(size)]
    prefix = InsertedPrefix(a, 100)
    for i, (u, v, w) in enumerate(edges):
        assert prefix.get((u, v)) == (w if i < 100 else None)
    assert {InsertStream(n, 3, 1).edge(i)[2] for i in range(50)} == {1}


def test_window_stream():
    n, window, updates = 12, 5, 400
    live_copy = {}
    order = []
    stream = list(window_stream(n, window, updates, 9, 8))
    assert len(stream) == updates
    for sign, u, v, w, live in window_stream(n, window, updates, 9, 8):
        if sign > 0:
            assert (u, v) not in live_copy and 1 <= w <= 8
            live_copy[(u, v)] = w
            order.append((u, v))
        else:
            assert order.pop(0) == (u, v) and live_copy.pop((u, v)) == w
        assert live == live_copy and len(live) <= window + 1
    assert [s[:4] for s in stream] == [s[:4] for s in window_stream(n, window, updates, 9, 8)]


if __name__ == "__main__":
    for name, fn in sorted(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")

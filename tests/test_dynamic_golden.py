"""Seeded dynamic answers pinned against a recorded table.

Each case feeds one seeded stream to DynamicMatcher (exact mode,
approximation mode, or two shard grids folded together with
merge_from) and records repr(query()), last_fail_count,
live_sampler_count and len(dense_cells()).  Under fixed seeds a refactor of the
sketch must leave every one of them unchanged, so this file checks in
seconds what the dynamic acceptance criteria check in minutes.

The table in dynamic_golden.json was written by

    PYTHONPATH=src python tests/test_dynamic_golden.py --record

and is only rewritten when an answer is meant to change.
"""

import json
import os
import random
import sys

import pytest

from streamkmatch import DynamicMatcher, gen_random_stream

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dynamic_golden.json")


def _cases():
    """(name, n, k, epsilon, delta, stream seed, inserts, deletes,
    weight range, shards).  A large delta (one repetition) makes
    samplers fail; deleting every insert leaves no k-matching."""
    cases = []
    for i in range(40):
        n, k = ((12, 1), (16, 1), (20, 2), (14, 2))[i % 4]
        if i % 10 == 9:
            n, k = 12, 3
        delta = 0.7 if i % 5 == 2 else None
        wmin, wmax = ((0, 3), (1, 8), (1, 1000))[i % 3]
        inserts = 24 + i % 17
        deletes = inserts if i % 8 == 7 else 8 + i % 9
        cases.append((f"exact-{i}", n, k, None, delta, 50_000 + i, inserts, deletes,
                      wmin, wmax, False))
    for i in range(40):
        n, k = ((12, 1), (18, 1), (16, 2), (20, 2))[i % 4]
        if i % 10 == 9:
            n, k = 12, 3
        delta = 0.7 if i % 5 == 2 else None
        eps = (0.1, 0.25, 0.5)[i % 3]
        cases.append((f"approx-{i}", n, k, eps, delta, 60_000 + i, 24 + i % 17,
                      8 + i % 9, 1, 10 ** (2 + i % 4), False))
    for i in range(20):
        n, k = ((12, 1), (16, 2))[i % 2]
        eps = None if i % 4 < 2 else 0.25
        delta = 0.7 if i % 5 == 2 else None
        cases.append((f"shards-{i}", n, k, eps, delta, 70_000 + i, 24 + i % 13,
                      10 + i % 7, 1, 50, True))
    return cases


def _run(case):
    name, n, k, eps, delta, seed, inserts, deletes, wmin, wmax, shards = case
    stream = gen_random_stream(n, k, inserts, seed=seed, mode="dyn", deletes=deletes,
                               weight_min=wmin, weight_max=wmax)
    grids = [DynamicMatcher(n, k, random.Random(seed * 7 + 3), epsilon=eps,
                             delta=delta)
             for _ in range(3 if shards else 1)]
    for pos, el in enumerate(stream.elements):
        # shard by edge, so a delete can reach a shard before its insert
        # reaches the other; or everything into the one grid
        g = grids[1 + (el.edge.u * 31 + el.edge.v + pos % 2) % 2] if shards else grids[0]
        g.process_update(el)
    m = grids[0]
    if shards:
        m.merge_from(grids[1])
        m.merge_from(grids[2])
    answer = m.query()
    return [repr(answer), m.last_fail_count, m.live_sampler_count, len(m.dense_cells())]


def _record():
    table = {case[0]: _run(case) for case in _cases()}
    with open(GOLDEN, "w") as out:
        json.dump(table, out, indent=1, sort_keys=True)
        out.write("\n")


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_table_covers_every_case(golden):
    assert sorted(golden) == sorted(case[0] for case in _cases())


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_seeded_answers_unchanged(case, golden):
    assert _run(case) == golden[case[0]]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_dynamic_golden.py --record")
    _record()

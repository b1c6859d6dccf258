"""Seeded insert-only answers pinned against a recorded table.

Each case feeds one seeded stream to InsertMatcher and records
repr(query()) after a third, two thirds and all of the stream,
max_steps_per_insert, peak_stored_edges, and a SHA-256 of each sorted
boundary_sketches() entry (None inside the first segment).  Some
streams give every edge the same weight, so the lexicographic
beta-profile tie-break decides the answer; some end mid-segment, so the
final query folds in a partial buffer.  Under fixed seeds a rewrite of
the solver or the reducer must leave every entry unchanged.

The table in insert_golden.json was written by

    PYTHONPATH=src python tests/test_insert_golden.py --record

and is only rewritten when an answer is meant to change.
"""

import hashlib
import json
import os
import random
import sys

import pytest

from streamkmatch import InsertMatcher, gen_random_stream

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "insert_golden.json")


def _cases():
    """(name, n, k, epsilon, stream seed, edges, weight range)."""
    cases = []
    for i in range(60):
        k = 1 + i % 4
        eps = (1 / 2, 1 / 4, 1 / 16)[(i // 4) % 3]
        seg = 4 * k * k
        n = 8 * k + 6 + i % 7
        # k = 1 segments are short, so give it more of them
        edges = seg * (1 + i % 5) * (3 if k == 1 else 1)
        if i % 3 == 1:
            edges += seg // 3 + 1  # end mid-segment
        if i % 11 == 0:
            edges = seg - 1  # never leave the first segment
        wmin, wmax = ((1, 100), (0, 3), (1, 10 ** 6))[i % 3]
        if k == 4 and wmax == 3:
            wmax = 50  # dense ties at k = 4 cost the solver seconds
        if i % 5 == 3 and k <= 3:
            wmin = wmax = 7  # all weights tie
        cases.append((f"ins-{i}", n, k, eps, 80_000 + i, edges, wmin, wmax))
    return cases


def _digest(sketch):
    return hashlib.sha256(repr(sorted(sketch)).encode()).hexdigest()


def _run(case):
    name, n, k, eps, seed, edges, wmin, wmax = case
    stream = gen_random_stream(n, k, edges, seed=seed, weight_min=wmin,
                               weight_max=wmax)
    m = InsertMatcher(n, k, eps, random.Random(seed * 5 + 1))
    total = len(stream.elements)
    marks = {total // 3, 2 * total // 3}
    answers = []
    for pos, el in enumerate(stream.elements):
        if pos in marks:
            answers.append(repr(m.query()))
        m.process_insert(el.edge)
    answers.append(repr(m.query()))
    sketches = m.boundary_sketches()
    digests = None if sketches is None else [_digest(s) for s in sketches]
    return [answers, m.max_steps_per_insert, m.peak_stored_edges, digests]


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
        sys.exit("usage: test_insert_golden.py --record")
    _record()

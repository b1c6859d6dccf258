"""Deterministic linear-time selection under the budget protocol."""

import random

from reducer_reference import _select_steps as reference_select
from reducer_reference import top_t_steps as reference_top_t
from streamkmatch.selection import Meter, select_steps, top_t_steps


def _drain(routine, *args, limit=1 << 30):
    """Run a routine to its end through a Meter, `limit` units per
    step_upto call; returns (result, units spent in total)."""
    meter = Meter(routine(*args))
    units = 0
    while not meter.done:
        units += meter.step_upto(limit)
    return meter.result, units


def _yields(gen):
    steps = 0
    for _ in gen:
        steps += 1
    return steps


def select_rank(items, rank, key):
    """The item of the given ascending key rank, by the budgeted select
    (keys must be distinct)."""
    got, _ = _drain(select_steps, [(key(x), x) for x in items], rank)
    return got[1]


def top_t(items, t, key):
    """The t items of largest key, by the budgeted top-t."""
    got, _ = _drain(top_t_steps, [(key(x), x) for x in items], t)
    return [x for _, x in got]


class TestSelectRank:
    def test_matches_sorting_exhaustively_small(self):
        rng = random.Random(1)
        for _ in range(300):
            n = rng.randint(1, 30)
            items = rng.sample(range(1000), n)
            rank = rng.randrange(n)
            assert select_rank(items, rank, key=lambda x: x) == sorted(items)[rank]

    def test_matches_sorting_large(self):
        rng = random.Random(2)
        for _ in range(30):
            n = rng.randint(100, 800)
            items = rng.sample(range(10**6), n)
            rank = rng.randrange(n)
            assert select_rank(items, rank, key=lambda x: x) == sorted(items)[rank]

    def test_custom_key(self):
        items = [(i, -i) for i in range(50)]
        got = select_rank(items, 3, key=lambda p: p[1])
        assert got == (46, -46)

    def test_step_count_is_linear(self):
        # worst-case linear selection: units bounded by c*n with a
        # modest constant, at every size tried
        rng = random.Random(3)
        for n in (10, 50, 200, 1000, 5000):
            items = rng.sample(range(10**7), n)
            got, steps = _drain(select_steps, list(items), n // 2)
            assert got == sorted(items)[n // 2]
            assert steps <= 24 * n

    def test_adversarial_orders(self):
        for n in (11, 64, 257):
            for items in (list(range(n)), list(range(n, 0, -1))):
                for rank in (0, n // 2, n - 1):
                    assert select_rank(items, rank, key=lambda x: x) == sorted(items)[rank]

    def test_units_match_the_per_element_machine(self):
        # one unit per element touch, exactly as many as the machine
        # that yields before every touch, whatever the slice size
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 300)
            items = rng.sample(range(10**6), n)
            rank = rng.randrange(n)
            out = [None]
            want = _yields(reference_select(list(items), rank, lambda x: x, out))
            got, steps = _drain(select_steps, list(items), rank, limit=rng.randint(1, 40))
            assert (got, steps) == (out[0], want)


class TestTopT:
    def test_matches_sorted_suffix(self):
        rng = random.Random(4)
        for _ in range(300):
            n = rng.randint(1, 200)
            t = rng.randint(0, n + 3)
            items = rng.sample(range(10**6), n)
            got = top_t(items, t, key=lambda x: x)
            assert sorted(got) == sorted(items)[max(0, n - t):]

    def test_t_zero_and_oversized(self):
        assert top_t([5, 1], 0, key=lambda x: x) == []
        assert sorted(top_t([5, 1], 9, key=lambda x: x)) == [1, 5]

    def test_step_count_is_linear(self):
        rng = random.Random(5)
        for n in (20, 500, 3000):
            items = rng.sample(range(10**7), n)
            got, steps = _drain(top_t_steps, list(items), n // 3)
            assert sorted(got) == sorted(items)[n - n // 3:]
            assert steps <= 25 * n

    def test_resumable_one_step_at_a_time(self):
        # one unit per resumption gives the same answer as running flat
        items = random.Random(6).sample(range(10**5), 137)
        got, steps = _drain(top_t_steps, list(items), 29, limit=1)
        assert sorted(got) == sorted(items)[137 - 29:]
        assert (got, steps) == _drain(top_t_steps, list(items), 29)

    def test_units_match_the_per_element_machine(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(0, 300)
            t = rng.randint(0, n + 3)
            items = rng.sample(range(10**6), n)
            out = [None]
            want = _yields(reference_top_t(list(items), t, lambda x: x, out))
            got, steps = _drain(top_t_steps, list(items), t, limit=rng.randint(1, 40))
            assert (list(got), steps) == (out[0], want)

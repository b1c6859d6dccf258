"""Uniform live-index sampling from a dynamic vector."""

import math
import random

import pytest

from streamkmatch import (
    FAIL,
    InvalidParameter,
    L0Sampler,
    Sample,
)


class TestConstruction:
    def test_shape_formulas(self):
        s = L0Sampler(1024, 0.01, random.Random(1))
        assert s.levels == 11  # ceil(log2 1024) + 1
        assert s.reps == 7     # ceil(log2 100)
        assert len(s.level_hashes) == 7
        assert all(len(h.coeffs) == s.reps + 2 for h in s.level_hashes)

    def test_levels_are_exact_above_float_precision(self):
        # float(2^60 + 1) rounds to 2^60, so a float log2 loses a level
        for universe, levels in ((2, 2), (3, 3), (4, 3), (5, 4), (2 ** 60, 61), (2 ** 60 + 1, 62)):
            assert L0Sampler(universe, 0.5, random.Random(1)).levels == levels

    def test_tiny_universe(self):
        s = L0Sampler(1, 0.5, random.Random(2))
        assert s.levels == 2 and s.reps == 1

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            L0Sampler(0, 0.1, random.Random(1))
        with pytest.raises(InvalidParameter):
            L0Sampler(10, 0.0, random.Random(1))
        with pytest.raises(InvalidParameter):
            L0Sampler(10, 1.0, random.Random(1))

    def test_update_range_check(self):
        s = L0Sampler(8, 0.1, random.Random(3))
        with pytest.raises(InvalidParameter):
            s.update(8, 1)
        with pytest.raises(InvalidParameter):
            s.update(-1, 1)
        # a cell's count field holds an int below 2^63 in magnitude
        for d in (1 << 63, -(1 << 63), 2.5):
            with pytest.raises(InvalidParameter):
                s.update(3, d)


class TestDecoding:
    def test_empty_vector_fails(self):
        s = L0Sampler(64, 0.1, random.Random(4))
        assert s.query() is FAIL
        assert not FAIL

    def test_singleton_always_decodes(self):
        for trial in range(200):
            s = L0Sampler(256, 0.1, random.Random(5000 + trial))
            idx = trial % 256
            s.update(idx, 1)
            assert s.query() == Sample(idx, 1)

    def test_multiplicity_reported(self):
        s = L0Sampler(64, 0.1, random.Random(5))
        s.update(9, 3)
        assert s.query() == Sample(9, 3)

    def test_cancellation_returns_to_empty(self):
        s = L0Sampler(64, 0.1, random.Random(6))
        for i in (3, 17, 40):
            s.update(i, 2)
        for i in (3, 17, 40):
            s.update(i, -2)
        assert not s.cells and not s.tops
        assert s.query() is FAIL

    def test_decodes_live_index_only(self):
        rng = random.Random(7)
        for trial in range(300):
            s = L0Sampler(512, 0.05, random.Random(8000 + trial))
            live = set(rng.sample(range(512), 12))
            dead = set(rng.sample(sorted(set(range(512)) - live), 12))
            for i in live | dead:
                s.update(i, 1)
            for i in dead:
                s.update(i, -1)
            got = s.query()
            if got is not FAIL:
                assert got.index in live and got.count == 1


class TestStatistics:
    def test_fail_rate_within_delta_margin(self):
        delta = 0.05
        trials = 2000
        fails = 0
        for trial in range(trials):
            s = L0Sampler(256, delta, random.Random(10_000 + trial))
            for i in range(0, 256, 16):
                s.update(i, 1)
            if s.query() is FAIL:
                fails += 1
        # one-sided slack above the nominal rate
        limit = math.ceil(trials * delta + 3 * math.sqrt(trials * delta))
        assert fails <= limit

    def test_roughly_uniform_over_support(self):
        support = [7, 70, 140, 210]
        tally = dict.fromkeys(support, 0)
        succ = 0
        for trial in range(3000):
            s = L0Sampler(256, 0.05, random.Random(20_000 + trial))
            for i in support:
                s.update(i, 1)
            got = s.query()
            if got is not FAIL:
                tally[got.index] += 1
                succ += 1
        tv = 0.5 * sum(abs(c / succ - 0.25) for c in tally.values())
        assert tv <= 0.08


class TestMergeAndSnapshot:
    def test_merge_equals_sequential(self):
        base_rng = random.Random(9)
        seeds = base_rng.randrange(1 << 30)
        a = L0Sampler(128, 0.1, random.Random(seeds))
        b = L0Sampler(128, 0.1, random.Random(seeds))
        whole = L0Sampler(128, 0.1, random.Random(seeds))
        ups_a = [(i, 1) for i in range(0, 60, 3)]
        ups_b = [(i, 1) for i in range(60, 120, 3)] + [(0, -1)]
        for i, d in ups_a:
            a.update(i, d)
            whole.update(i, d)
        for i, d in ups_b:
            b.update(i, d)
            whole.update(i, d)
        a.merge(b)
        assert a.cells_snapshot() == whole.cells_snapshot()
        assert a.query() == whole.query()

    def test_phantom_delete_expands_on_merge(self):
        # a one-index sampler with a negative count meets a second index
        for first, second in ((0, 1), (1, 0)):
            whole = L0Sampler(128, 0.1, random.Random(14))
            shards = [L0Sampler(128, 0.1, random.Random(14)) for _ in range(2)]
            whole.update(9, -1)
            whole.update(40, 1)
            shards[0].update(9, -1)
            shards[1].update(40, 1)
            merged = shards[first]
            merged.merge(shards[second])
            assert merged.cells == whole.cells == whole.dense_cells()
            assert merged.query() is whole.query() is FAIL  # net count 0
            merged.update(100, 1)
            whole.update(100, 1)
            assert merged.cells_snapshot() == whole.cells_snapshot()
            assert merged.query() == whole.query()

    def test_one_index_sampler_meets_a_full_one(self):
        a = L0Sampler(1000, 0.01, random.Random(3))
        b = L0Sampler(1000, 0.01, random.Random(3))
        whole = L0Sampler(1000, 0.01, random.Random(3))
        a.update(5, 1)
        b.update(7, 1)
        b.update(9, 1)
        for i in (5, 7, 9):
            whole.update(i, 1)
        a.merge(b)
        assert a.tops == whole.tops and a._full == whole._full == {0}
        assert a.cells == whole.cells
        assert a.dense_cells() == whole.dense_cells()
        assert a.query() == whole.query()

    def test_full_sampler_cancels_to_nothing(self):
        a = L0Sampler(1000, 0.01, random.Random(3))
        b = L0Sampler(1000, 0.01, random.Random(3))
        for i in (5, 7):
            a.update(i, 1)
            b.update(i, -1)
        a.merge(b)
        assert a.tops == {} and a._full == set() and a.cells == {}
        assert a.query() is FAIL

    def test_merge_rejects_mismatched_randomness(self):
        a = L0Sampler(128, 0.1, random.Random(10))
        b = L0Sampler(128, 0.1, random.Random(11))
        with pytest.raises(InvalidParameter):
            a.merge(b)
        c = L0Sampler(64, 0.1, random.Random(10))
        with pytest.raises(InvalidParameter):
            a.merge(c)

    def test_snapshot_is_deterministic_text(self):
        s = L0Sampler(32, 0.2, random.Random(12))
        s.update(3, 1)
        s.update(21, 2)
        snap = s.cells_snapshot()
        assert snap == s.cells_snapshot()
        for line in snap.splitlines():
            parts = line.split()
            assert len(parts) == 5
            [int(p) for p in parts]  # all decimal integers

    def test_snapshot_pinned(self):
        # mixed-sign updates, a net-negative index, index universe - 1 and
        # a universe above 2^32: the text must not depend on how a cell
        # stores its sums
        cases = [
            (1000, 0.25, 41,
             [(5, 3), (999, -2), (17, 1), (5, -1), (400, -1), (400, 1), (0, 1)],
             FAIL,
             "0 0 -1 -1998 532432743880873879\n"
             "0 1 3 27 1974309007262640561\n"
             "1 0 2 -1971 200898741929820489"),
            (2**33 + 7, 0.25, 42,
             [(2**33 + 6, 1), (3, -4), (2**32 + 1, 2), (3, 1), (2**33 + 6, 1),
              (7, 1), (5_000_000_000, -1), (123_456_789, 1), (8_000_000_000, 2)],
             Sample(7, 1),
             "0 0 3 41769803781 1206155788213748139\n"
             "0 1 2 123456796 435152283391204636\n"
             "0 2 -1 -5000000000 1883882901009277021\n"
             "1 0 1 25769803781 558583254101962532\n"
             "1 1 2 11123456789 1649773011946786004\n"
             "1 2 1 7 1316834706565481260"),
            (64, 0.1, 43, [(63, -1), (1, 5), (2, -3), (2, 3)],
             Sample(1, 5),
             "0 0 4 -58 548702900962770638\n"
             "1 0 -1 -63 2025180292734592560\n"
             "1 1 5 5 829365617441872029\n"
             "2 1 4 -58 548702900962770638\n"
             "3 0 -1 -63 2025180292734592560\n"
             "3 4 5 5 829365617441872029"),
        ]
        for universe, delta, seed, updates, sample, snapshot in cases:
            s = L0Sampler(universe, delta, random.Random(seed))
            for i, d in updates:
                s.update(i, d)
            assert s.cells_snapshot() == snapshot
            assert s.query() == sample

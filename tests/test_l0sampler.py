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
        assert not s.cells
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

"""Hash families and the two-level bucket scheme."""

import math
import random

import pytest

from streamkmatch import (
    FIELD_PRIME,
    InvalidParameter,
    KWiseHash,
    UniversalHash,
    build_hash_scheme,
    distinguishes,
    random_kwise,
    random_universal,
    scheme_dimensions,
    scheme_eval,
)


class TestFieldPrime:
    def test_value_and_primality(self):
        assert FIELD_PRIME == 2**61 - 1
        # Miller-Rabin with deterministic witnesses for < 3.3e24
        n = FIELD_PRIME
        d, s = n - 1, 0
        while d % 2 == 0:
            d //= 2
            s += 1
        for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                pytest.fail(f"witness {a} says composite")


class TestUniversalHash:
    def test_hand_computed_values(self):
        h = UniversalHash(3, 5, 4)
        # a*x+b stays far below the field prime, so only the mod-r matters
        assert h(7) == (3 * 7 + 5) % 4 == 2
        assert h(0) == 5 % 4 == 1
        assert h(100) == 305 % 4

    def test_wraps_at_field_prime(self):
        h = UniversalHash(FIELD_PRIME - 1, 0, 10)
        # (p-1)*2 mod p = p-2
        assert h(2) == (FIELD_PRIME - 2) % 10

    def test_random_universal_range(self):
        rng = random.Random(1)
        h = random_universal(7, rng)
        assert 1 <= h.a < FIELD_PRIME and 0 <= h.b < FIELD_PRIME
        assert all(0 <= h(x) < 7 for x in range(200))

    def test_bad_range(self):
        with pytest.raises(InvalidParameter):
            random_universal(0, random.Random(1))

    def test_collision_frequency(self):
        # universal family: Pr[h(x)=h(y)] <= 1/r for fixed x != y
        rng = random.Random(2)
        r = 16
        x, y = 123456, 654321
        hits = sum(
            random_universal(r, rng)(x) == random_universal(r, rng)(y)
            for _ in range(4000)
        )
        assert hits / 4000 <= 1.6 / r


class TestKWiseHash:
    def test_polynomial_evaluation(self):
        h = KWiseHash((2, 3, 5), 100)  # 2 + 3x + 5x^2
        assert h(0) == 2
        assert h(2) == (2 + 6 + 20) % 100
        assert h(3) == (2 + 9 + 45) % 100

    def test_random_kwise_shape(self):
        rng = random.Random(3)
        h = random_kwise(5, 9, rng)
        assert len(h.coeffs) == 5
        assert all(0 <= h(x) < 9 for x in range(100))

    def test_bad_parameters(self):
        with pytest.raises(InvalidParameter):
            random_kwise(0, 4, random.Random(1))
        with pytest.raises(InvalidParameter):
            random_kwise(3, 0, random.Random(1))

    def test_matches_per_step_reduced_horner(self):
        # one reduction at the end gives the same value as reducing mod p
        # after every Horner step, also for x at and beyond the prime
        rng = random.Random(11)
        xs = (0, 1, 199, 2**40, FIELD_PRIME - 1, FIELD_PRIME, 2**64 + 3)
        for kappa in range(1, 21):
            coeffs = tuple(rng.randrange(0, FIELD_PRIME) for _ in range(kappa))
            r = rng.randrange(1, 1 << 20)
            for x in xs:
                acc = 0
                for c in reversed(coeffs):
                    acc = (acc * x + c) % FIELD_PRIME
                assert KWiseHash(coeffs, r)(x) == acc % r

    def test_pairwise_uniformity_smoke(self):
        # a 4-wise polynomial should spread a fixed pair near-uniformly
        rng = random.Random(4)
        r = 8
        counts = [0] * r
        for _ in range(4000):
            counts[random_kwise(4, r, rng)(42)] += 1
        assert max(counts) < 2 * 4000 / r


class TestSchemeDimensions:
    def test_frozen_values(self):
        # d1 = least power of two >= k/ln k; d2 = ceil(8 ln k);
        # d3 = ceil(13 ln k)^2; d4 = d1*d2*d3
        assert scheme_dimensions(2) == (4, 6, 100, 2400)
        assert scheme_dimensions(4) == (4, 12, 361, 17328)
        assert scheme_dimensions(8) == (4, 17, 784, 53312)

    def test_d1_power_of_two_at_least_ratio(self):
        for k in range(2, 40):
            d1, d2, d3, d4 = scheme_dimensions(k)
            assert d1 & (d1 - 1) == 0
            assert d1 >= k / math.log(k) > d1 / 2
            assert d2 == math.ceil(8 * math.log(k))
            assert d3 == math.ceil(13 * math.log(k)) ** 2
            assert d4 == d1 * d2 * d3

    def test_rejects_small_k(self):
        with pytest.raises(InvalidParameter):
            scheme_dimensions(1)


class TestHashScheme:
    def test_build_validates(self):
        with pytest.raises(InvalidParameter):
            build_hash_scheme(100, 1, random.Random(1))
        with pytest.raises(InvalidParameter):
            build_hash_scheme(3, 4, random.Random(1))

    def test_structure(self):
        rng = random.Random(5)
        s = build_hash_scheme(1000, 4, rng)
        assert (s.d1, s.d2, s.d3, s.d4) == (4, 12, 361, 17328)
        assert len(s.level2) == s.d2
        assert len(s.f.coeffs) == math.ceil(12 * math.log(4))

    def test_eval_block_layout(self):
        # entry i must land in block [f(x)*d2*d3 + i*d3, ... + d3); the
        # k=4 scheme has the dynamic benchmark's dimensions (d2=12, d3=361)
        rng = random.Random(6)
        for s in (build_hash_scheme(500, 3, rng), build_hash_scheme(200, 4, rng)):
            for x in range(0, s.universe_size, 17):
                vals = scheme_eval(s, x)
                assert len(vals) == s.d2
                base = s.f(x) * s.d2 * s.d3
                for i, val in enumerate(vals):
                    lo = base + i * s.d3
                    assert lo <= val < lo + s.d3
                    assert val == lo + s.level2[i](x)
                assert all(0 <= val < s.d4 for val in vals)

    def test_distinguishes_matches_brute_force(self):
        rng = random.Random(7)
        for trial in range(200):
            s = build_hash_scheme(300, 2, rng)
            subset = rng.sample(range(300), rng.randint(1, 6))
            buckets = {}
            for x in subset:
                buckets.setdefault(s.f(x), []).append(x)
            expect = all(
                any(
                    len({h(x) for x in members}) == len(members)
                    for h in s.level2
                )
                for members in buckets.values()
                if len(members) > 1
            )
            assert distinguishes(s, subset) == expect

    def test_distinguishes_trivial_cases(self):
        s = build_hash_scheme(100, 2, random.Random(8))
        assert distinguishes(s, [])
        assert distinguishes(s, [42])

    def test_distinguishing_frequency(self):
        # with k=8 the failure probability is ~ 4/(k^3 ln k); a modest
        # sample should succeed nearly always
        rng = random.Random(11)
        hits = 0
        for _ in range(150):
            s = build_hash_scheme(10_000, 8, rng)
            if distinguishes(s, rng.sample(range(10_000), 8)):
                hits += 1
        assert hits >= 145

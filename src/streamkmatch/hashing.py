"""Hash families and the two-level bucket scheme.

Three layers live here:

  * UniversalHash, the classic ((a*x + b) mod p) mod r family.
  * KWiseHash, a random polynomial of degree kappa-1 over a prime
    field, giving kappa-wise independence.
  * HashScheme, a two-level structure that maps a universe into
    [d4] so that the d2 images of any element land in disjoint
    blocks determined by a coarse level-1 bucket.  For a random
    scheme and any fixed k-subset, with high probability every
    occupied level-1 bucket has some level-2 function injective on
    the bucket's members; `distinguishes` checks exactly that event.

All arithmetic is over a single fixed Mersenne prime large enough
for every universe this package supports.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .core import require_int

# 2^61 - 1, prime; exceeds any universe size we accept and keeps all
# intermediates comfortably inside native big-int fast paths.
FIELD_PRIME = (1 << 61) - 1


class UniversalHash(NamedTuple):
    a: int
    b: int
    r: int

    def __call__(self, x: int) -> int:
        return ((self.a * x + self.b) % FIELD_PRIME) % self.r


def _below(draw, bounds) -> list:
    """A value in [0, bound) for each bound in bounds, each in
    (2^60, 2^61]: a 61-bit draw, redrawn while it is at least bound.

    These are the calls randrange makes for a range of that width when
    it draws through getrandbits, as random.Random and its subclasses
    do unless one overrides random() and not getrandbits.  On those
    rngs the values, and the rng's state after, equal randrange's.  The
    direct loop skips randrange's argument handling, most of a draw's
    cost; a dynamic grid makes hundreds of draws.
    """
    out = []
    for bound in bounds:
        x = draw(61)
        while x >= bound:
            x = draw(61)
        out.append(x)
    return out


def random_universal(r: int, rng) -> UniversalHash:
    """Draw one function u.a.r. from the universal family with range r:
    a and b are the randrange(1, p) and randrange(0, p) values."""
    require_int("r", r, 1)
    a, b = _below(rng.getrandbits, (FIELD_PRIME - 1, FIELD_PRIME))
    return UniversalHash(a + 1, b, r)


class KWiseHash(NamedTuple):
    coeffs: tuple  # polynomial coefficients, constant term first
    r: int

    def __call__(self, x: int) -> int:
        # Horner over plain ints, reduced once: the same value, kappa fewer mods
        x %= FIELD_PRIME
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc % FIELD_PRIME % self.r


def random_kwise(kappa: int, r: int, rng) -> KWiseHash:
    """A random degree-(kappa-1) polynomial over the field, range r:
    each coefficient is a randrange(0, p) value."""
    require_int("kappa", kappa, 1)
    require_int("r", r, 1)
    return KWiseHash(tuple(_below(rng.getrandbits, (FIELD_PRIME,) * kappa)), r)


class HashScheme(NamedTuple):
    k: int
    universe_size: int
    d1: int
    d2: int
    d3: int
    d4: int
    f: KWiseHash          # level-1 bucketer, range d1
    level2: tuple         # d2 UniversalHash functions, each range d3


def scheme_dimensions(k: int) -> tuple:
    """(d1, d2, d3, d4) for parameter k; d1 is the smallest power of two
    at least k/ln k."""
    require_int("k", k, 2)
    lnk = math.log(k)
    ratio = k / lnk
    d1 = 1
    while d1 < ratio:
        d1 *= 2
    d2 = math.ceil(8 * lnk)
    d3 = math.ceil(13 * lnk) ** 2
    return d1, d2, d3, d1 * d2 * d3


def build_hash_scheme(universe_size: int, k: int, rng) -> HashScheme:
    """Sample a fresh scheme: f from the ceil(12 ln k)-wise family with
    range d1, and d2 independent universal functions with range d3."""
    d1, d2, d3, d4 = scheme_dimensions(k)
    require_int("universe_size", universe_size, k)
    kappa = math.ceil(12 * math.log(k))
    f = random_kwise(kappa, d1, rng)
    level2 = tuple(random_universal(d3, rng) for _ in range(d2))
    return HashScheme(k, universe_size, d1, d2, d3, d4, f, level2)


def scheme_eval(s: HashScheme, x: int) -> list:
    """The d2 values of x: entry i (1-based) is f(x)*d2*d3 + (i-1)*d3 + h_i(x)."""
    d3 = s.d3
    base = s.f(x) * s.d2 * d3
    # h_i inlined: d2 NamedTuple calls cost more than their arithmetic
    return [lo + (a * x + b) % FIELD_PRIME % d3
            for lo, (a, b, _) in zip(range(base, base + s.d2 * d3, d3), s.level2)]


def distinguishes(s: HashScheme, subset: Sequence[int]) -> bool:
    """True iff for every occupied level-1 bucket, some level-2 function
    is injective on the subset's members of that bucket."""
    buckets = {}
    for x in subset:
        buckets.setdefault(s.f(x), []).append(x)
    for members in buckets.values():
        if len(members) == 1:
            continue
        want = len(members)
        if not any(len({h(x) for x in members}) == want for h in s.level2):
            return False
    return True


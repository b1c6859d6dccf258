"""Seeded, lazily generated input streams.

Both generators hold O(1) or O(window) state, so the benchmark's peak
RSS is the program's footprint rather than the stream's.
"""

from __future__ import annotations

import random
from collections import deque
from math import isqrt

_M64 = (1 << 64) - 1


def mix64(x: int) -> int:
    """splitmix64 finaliser: a fixed, well-mixed map of 64-bit ints."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def pair_at(p: int) -> tuple:
    """Pair number p = v(v-1)/2 + u, u < v, back to (u, v)."""
    v = (1 + isqrt(1 + 8 * p)) // 2
    if v * (v - 1) // 2 > p:
        v -= 1
    return p - v * (v - 1) // 2, v


def pair_number(u: int, v: int) -> int:
    return v * (v - 1) // 2 + u


class InsertStream:
    """Edge i of an insert-only stream over n vertices, for any i.

    Pairs come from a seeded bijection of the n(n-1)/2 vertex pairs (a
    four-round Feistel network with cycle walking), so no pair repeats
    and the stream can be inverted: `weight_of(u, v, count)` answers
    whether (u, v) is among the first `count` edges, without storing
    them.  Weights are uniform in [1, weight_max].
    """

    def __init__(self, n: int, seed: int, weight_max: int):
        self.size = n * (n - 1) // 2
        bits = max(2, (self.size - 1).bit_length())
        bits += bits & 1
        self.half = bits // 2
        self.mask = (1 << self.half) - 1
        rng = random.Random(f"insert-stream/{seed}")
        self.keys = [rng.getrandbits(64) for _ in range(4)]
        self.wkey = rng.getrandbits(64)
        self.weight_max = weight_max

    def _round(self, x: int, key: int) -> int:
        return mix64(x ^ key) & self.mask

    def _permute(self, x: int) -> int:
        h, mask = self.half, self.mask
        while True:
            left, right = x >> h, x & mask
            for key in self.keys:
                left, right = right, left ^ self._round(right, key)
            x = (left << h) | right
            if x < self.size:
                return x

    def _unpermute(self, x: int) -> int:
        h, mask = self.half, self.mask
        while True:
            left, right = x >> h, x & mask
            for key in reversed(self.keys):
                left, right = right ^ self._round(left, key), left
            x = (left << h) | right
            if x < self.size:
                return x

    def weight(self, i: int) -> int:
        if self.weight_max == 1:
            return 1
        return mix64(i ^ self.wkey) % self.weight_max + 1

    def edge(self, i: int) -> tuple:
        u, v = pair_at(self._permute(i))
        return u, v, self.weight(i)

    def weight_of(self, u: int, v: int, count: int):
        """Weight of (u, v) if it is among edges 0..count-1, else None."""
        i = self._unpermute(pair_number(u, v))
        return self.weight(i) if i < count else None


class InsertedPrefix:
    """The live-edge lookup judge() needs, for an insert-only prefix."""

    def __init__(self, stream: InsertStream, count: int):
        self.stream = stream
        self.count = count

    def get(self, pair):
        return self.stream.weight_of(pair[0], pair[1], self.count)


def window_stream(n: int, window: int, updates: int, seed: int, weight_max: int):
    """Sliding-window dynamic stream: yields (sign, u, v, wt, live).

    Every insert adds a pair that is not live; once `window` edges are
    live, each insert is followed by the delete of the oldest live
    edge.  `live` is the generator's {(u, v): wt} after the update; it
    is the same object throughout, so callers must not keep it.
    """
    rng = random.Random(f"window-stream/{seed}")
    order = deque()
    live = {}
    done = 0
    while done < updates:
        while True:
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            if u > v:
                u, v = v, u
            if (u, v) not in live:
                break
        wt = rng.randint(1, weight_max)
        live[(u, v)] = wt
        order.append((u, v, wt))
        done += 1
        yield 1, u, v, wt, live
        if len(order) > window and done < updates:
            u, v, wt = order.popleft()
            del live[(u, v)]
            done += 1
            yield -1, u, v, wt, live

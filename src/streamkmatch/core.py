"""Domain types for weighted graph streams.

Vertices are integers in [0, n).  An edge is stored canonically with
u < v, and every edge owns a "beta" key (wt, u, v) whose lexicographic
order is the total "heaviness" order used everywhere else in the
package: distinct canonical edges always have distinct beta keys, even
when weights collide.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Number = Union[int, float]

INSERT = "+"
DELETE = "-"

MODE_INSERT_ONLY = "ins"
MODE_DYNAMIC = "dyn"


class InvalidParameter(ValueError):
    """An argument is outside the range an operation supports."""


class MalformedStream(ValueError):
    """A stream violates the well-formedness rules; carries the index of
    the first offending element."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"stream element {index}: {reason}")
        self.index = index
        self.reason = reason


class InfeasibleSize(ValueError):
    """Input too large for an exhaustive-enumeration routine."""


class Sentinel:
    """A falsy named answer, compared by identity (`is`)."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def __repr__(self):
        return self.name

    def __bool__(self):
        return False


class Edge(NamedTuple):
    u: int
    v: int
    wt: Number

    @property
    def beta(self):
        """Heaviness key: weight first, endpoints break ties."""
        return (self.wt, self.u, self.v)


def edge(u: int, v: int, wt: Number) -> Edge:
    """Build a canonical edge (u < v); rejects self-loops and weights
    outside [0, inf)."""
    if u == v:
        raise InvalidParameter(f"self-loop at vertex {u}")
    if not 0 <= wt < math.inf:
        raise InvalidParameter(f"bad weight {wt}")
    if u > v:
        u, v = v, u
    if u < 0:
        raise InvalidParameter(f"negative vertex id {u}")
    return Edge(u, v, wt)


def edge_index(u: int, v: int, n: int) -> int:
    """Number a canonical edge into [0, n(n-1)/2)."""
    if not (0 <= u < v < n):
        raise InvalidParameter(f"({u}, {v}) is not a canonical pair under n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_at_index(eid: int, n: int) -> tuple:
    """Inverse of edge_index, in exact integers.

    Counted back from the last id, r = N - 1 - eid for N = n(n-1)/2,
    the j-th row from the end (row u = n - 2 - j) holds ids with
    j(j+1)/2 <= r < (j+1)(j+2)/2, so j = (isqrt(8r + 1) - 1) // 2.
    """
    last = n * (n - 1) // 2 - 1
    if not (n > 1 and 0 <= eid <= last):
        raise InvalidParameter(f"edge id {eid} out of range for n={n}")
    r = last - eid
    j = (math.isqrt(8 * r + 1) - 1) // 2
    return (n - 2 - j, n - 1 - r + j * (j + 1) // 2)


def halvings(p) -> int:
    """The smallest t >= 0 with 2^-t <= p, for p in (0, 1], exactly:
    ceil(log2(1/p)) without a float logarithm."""
    if not 0 < p <= 1:
        raise InvalidParameter(f"{p!r} is not a probability in (0, 1]")
    num, den = p.as_integer_ratio()
    return (-(-den // num) - 1).bit_length()


class StreamElement(NamedTuple):
    edge: Edge
    op: str  # INSERT or DELETE


def insert(u: int, v: int, wt: Number) -> StreamElement:
    return StreamElement(edge(u, v, wt), INSERT)


def delete(u: int, v: int, wt: Number) -> StreamElement:
    return StreamElement(edge(u, v, wt), DELETE)


class Matching(NamedTuple):
    edges: tuple

    @property
    def weight(self) -> Number:
        """The sum of the weights; exact (a Fraction) where a float sum
        would overflow (an int weight past the float range next to a
        float one)."""
        try:
            return sum(e.wt for e in self.edges)
        except OverflowError:
            return sum(Fraction(e.wt) for e in self.edges)

    @property
    def beta_profile(self) -> tuple:
        """Sorted beta keys; the deterministic tie-break fingerprint."""
        return tuple(sorted(e.beta for e in self.edges))


def matching_of(edges: Iterable[Edge]) -> Matching:
    edges = tuple(sorted(edges, key=lambda e: e.beta))
    seen = set()
    for e in edges:
        if e.u in seen or e.v in seen:
            raise InvalidParameter(f"edges share endpoint in {e}")
        seen.add(e.u)
        seen.add(e.v)
    return Matching(edges)


def apply_update(live: dict, pos: int, u: int, v: int, wt: Number, op: str) -> None:
    """Apply an insert or delete of the canonical pair (u, v) to live, a
    map from pair to weight, or raise MalformedStream at position pos on
    a duplicate live insert, a delete of an absent or differently
    weighted edge, or an unknown op."""
    key = (u, v)
    if op == INSERT:
        if key in live:
            raise MalformedStream(pos, f"duplicate live insert of {key}")
        live[key] = wt
    elif op == DELETE:
        w = live.get(key)
        if w is None:
            raise MalformedStream(pos, f"delete of absent edge {key}")
        if w != wt:
            raise MalformedStream(pos, f"delete weight {wt} != live weight {w} on {key}")
        del live[key]
    else:
        raise MalformedStream(pos, f"unknown op {op!r}")


def materialize(elements: Sequence[StreamElement], n=None) -> list:
    """Replay a stream and return the live edge set.

    Raises MalformedStream (with the position of the first violation) on
    self-loops, vertices outside [0, n), weights outside [0, inf), and
    every violation apply_update rejects.
    """
    live = {}
    for pos, (e, op) in enumerate(elements):
        if e.u == e.v:
            raise MalformedStream(pos, f"self-loop at vertex {e.u}")
        u, v = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        if u < 0 or (n is not None and v >= n):
            raise MalformedStream(pos, f"vertex out of range in ({e.u}, {e.v})")
        if not 0 <= e.wt < math.inf:
            raise MalformedStream(pos, f"bad weight {e.wt}")
        apply_update(live, pos, u, v, e.wt, op)
    return [Edge(u, v, w) for (u, v), w in sorted(live.items())]


class Stream(NamedTuple):
    n: int
    k: int
    mode: str  # MODE_INSERT_ONLY or MODE_DYNAMIC
    elements: tuple


def stream_to_text(stream: Stream) -> str:
    """Serialize in the line format: header 'n k mode', then '+/- u v w'."""
    lines = [f"{stream.n} {stream.k} {stream.mode}\n"]
    for e, op in stream.elements:
        lines.append(f"{op} {e.u} {e.v} {e.wt!r}\n")
    return "".join(lines)


def _parse_weight(token: str, mode: str) -> Number:
    if mode == MODE_DYNAMIC:
        return int(token)
    try:
        return int(token)
    except ValueError:
        return float(token)


def read_stream(source) -> Stream:
    """Parse the stream text format; inverse of stream_to_text."""
    close = False
    if isinstance(source, (str, bytes)):
        source = open(source)
        close = True
    try:
        header = source.readline().split()
        if len(header) != 3:
            raise MalformedStream(-1, "header must be 'n k mode'")
        try:
            n, k, mode = int(header[0]), int(header[1]), header[2]
        except ValueError:
            raise MalformedStream(-1, f"bad header {header!r}") from None
        if n < 0:
            raise MalformedStream(-1, f"vertex count n={n} must be >= 0")
        if mode not in (MODE_INSERT_ONLY, MODE_DYNAMIC):
            raise MalformedStream(-1, f"unknown mode {mode!r}")
        elements = []
        for line in source:
            parts = line.split()
            if not parts:
                continue
            pos = len(elements)
            if len(parts) != 4 or parts[0] not in (INSERT, DELETE):
                raise MalformedStream(pos, f"bad element line {line!r}")
            try:
                op, u, v = parts[0], int(parts[1]), int(parts[2])
                wt = _parse_weight(parts[3], mode)
            except ValueError:
                raise MalformedStream(pos, f"bad number in {line!r}") from None
            if mode == MODE_INSERT_ONLY and op == DELETE:
                raise MalformedStream(pos, "delete in insert-only stream")
            if u > v:
                u, v = v, u
            elements.append(StreamElement(Edge(u, v, wt), op))
        return Stream(n, k, mode, tuple(elements))
    finally:
        if close:
            source.close()

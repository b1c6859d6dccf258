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


def require_int(name: str, value, least: int) -> None:
    """Raise InvalidParameter unless value is an int >= least."""
    if not (isinstance(value, int) and value >= least):
        raise InvalidParameter(f"{name}={value!r} must be an int >= {least}")


def require_open_unit(name: str, value) -> None:
    """Raise InvalidParameter unless value is a number in (0, 1)."""
    try:
        if 0 < value < 1:  # false for nan
            return
    except TypeError:  # a string or another value that does not compare
        pass
    raise InvalidParameter(f"{name} must lie in (0, 1), got {value!r}")


def edge_fault(u, v, wt=0, n=math.inf):
    """The edge rule: None if u, v are ints with 0 <= u < v < n and wt is
    a number in [0, inf), else the reason.  The default weight passes,
    so edge_fault(u, v, n=n) checks the endpoints alone."""
    if not (isinstance(u, int) and isinstance(v, int)):
        return f"vertex ids ({u!r}, {v!r}) are not ints"
    if not 0 <= u < v < n:
        return (f"self-loop at vertex {u}" if u == v
                else f"vertex pair ({u}, {v}) is not 0 <= u < v < n for n={n}")
    try:
        if 0 <= wt < math.inf:  # false for nan
            return None
    except TypeError:
        pass
    return f"weight {wt!r} is not a number in [0, inf)"


def edge(u: int, v: int, wt: Number, n=math.inf) -> Edge:
    """A canonical edge, a reversed pair swapped, or InvalidParameter."""
    try:
        if u > v:
            u, v = v, u
    except TypeError:  # ids that do not compare, which the rule names
        pass
    if (fault := edge_fault(u, v, wt, n)) is not None:
        raise InvalidParameter(fault)
    return Edge(u, v, wt)


def edge_index(u: int, v: int, n: int) -> int:
    """Number a canonical edge into [0, n(n-1)/2)."""
    require_int("n", n, 0)
    if (fault := edge_fault(u, v, n=n)) is not None:
        raise InvalidParameter(fault)
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_at_index(eid: int, n: int) -> tuple:
    """Inverse of edge_index, in exact integers.

    Counted back from the last id, r = N - 1 - eid for N = n(n-1)/2,
    the j-th row from the end (row u = n - 2 - j) holds ids with
    j(j+1)/2 <= r < (j+1)(j+2)/2, so j = (isqrt(8r + 1) - 1) // 2.
    """
    if not (isinstance(n, int) and n > 1 and isinstance(eid, int)
            and 0 <= eid <= (last := n * (n - 1) // 2 - 1)):
        raise InvalidParameter(f"edge id {eid!r} out of range for n={n!r}")
    r = last - eid
    j = (math.isqrt(8 * r + 1) - 1) // 2
    return (n - 2 - j, n - 1 - r + j * (j + 1) // 2)


def halvings(p) -> int:
    """The smallest t >= 0 with 2^-t <= p, for p in (0, 1], exactly:
    ceil(log2(1/p)) without a float logarithm."""
    try:
        if 0 < p <= 1:  # false for nan
            num, den = p.as_integer_ratio()
            return (-(-den // num) - 1).bit_length()
    except TypeError:  # a string or another value that does not compare
        pass
    raise InvalidParameter(f"{p!r} is not a probability in (0, 1]")


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


def materialize(elements: Sequence[StreamElement], n=math.inf) -> list:
    """Replay a stream and return the live edge set; MalformedStream at
    the first element the edge rule (under n) or apply_update refuses."""
    live = {}
    for pos, (e, op) in enumerate(elements):
        try:
            u, v, wt = edge(*e, n)
        except InvalidParameter as exc:
            raise MalformedStream(pos, str(exc)) from None
        apply_update(live, pos, u, v, wt, op)
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
        source = open(source, errors="surrogateescape")  # a bad byte is a bad token
        close = True
    try:
        header = source.readline().split()
        if len(header) != 3:
            raise MalformedStream(-1, "header must be 'n k mode'")
        try:
            n, k, mode = int(header[0]), int(header[1]), header[2]
        except ValueError:
            raise MalformedStream(-1, f"bad header {header!r}") from None
        if n < 0 or k < 0:
            raise MalformedStream(-1, f"header sizes n={n}, k={k} must be >= 0")
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

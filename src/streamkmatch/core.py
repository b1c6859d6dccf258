"""Domain types for weighted graph streams.

Vertices are integers in [0, n).  An edge is stored canonically with
u < v, and every edge owns a "beta" key (wt, u, v) whose lexicographic
order is the total "heaviness" order used everywhere else in the
package: distinct canonical edges always have distinct beta keys, even
when weights collide.
"""

from __future__ import annotations

import io
import math
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


def beta_compare(e1: Edge, e2: Edge) -> int:
    """-1, 0 or +1 as e1 is lighter than, equal to, or heavier than e2."""
    b1, b2 = e1.beta, e2.beta
    if b1 < b2:
        return -1
    if b1 > b2:
        return 1
    return 0


def edge_universe_size(n: int) -> int:
    return n * (n - 1) // 2


def edge_index(u: int, v: int, n: int) -> int:
    """Number a canonical edge into [0, n(n-1)/2)."""
    if not (0 <= u < v < n):
        raise InvalidParameter(f"({u}, {v}) is not a canonical pair under n={n}")
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def edge_at_index(eid: int, n: int) -> tuple:
    """Inverse of edge_index."""
    if not (0 <= eid < edge_universe_size(n)):
        raise InvalidParameter(f"edge id {eid} out of range for n={n}")
    # closed form start, then local adjust to dodge float rounding;
    # row u covers indices [offset, offset + n - 1 - u)
    u = int(n - 0.5 - math.sqrt((n - 0.5) ** 2 - 2 * eid))
    u = max(0, min(u, n - 2))
    while True:
        offset = u * n - u * (u + 1) // 2
        if eid < offset:
            u -= 1
        elif eid >= offset + (n - 1 - u):
            u += 1
        else:
            break
    v = eid - offset + u + 1
    return (u, v)


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
        return sum(e.wt for e in self.edges)

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


class StreamReport(NamedTuple):
    ok: bool
    index: int  # -1 when ok
    reason: str


def _replay(elements: Sequence[StreamElement], n=None):
    live = {}
    for pos, (e, op) in enumerate(elements):
        if e.u == e.v:
            raise MalformedStream(pos, f"self-loop at vertex {e.u}")
        u, v = (e.u, e.v) if e.u < e.v else (e.v, e.u)
        if u < 0 or (n is not None and v >= n):
            raise MalformedStream(pos, f"vertex out of range in ({e.u}, {e.v})")
        if not 0 <= e.wt < math.inf:
            raise MalformedStream(pos, f"bad weight {e.wt}")
        if op == INSERT:
            if (u, v) in live:
                raise MalformedStream(pos, f"duplicate live insert of ({u}, {v})")
            live[(u, v)] = e.wt
        elif op == DELETE:
            w = live.get((u, v))
            if w is None:
                raise MalformedStream(pos, f"delete of absent edge ({u}, {v})")
            if w != e.wt:
                raise MalformedStream(
                    pos, f"delete weight {e.wt} != live weight {w} on ({u}, {v})"
                )
            del live[(u, v)]
        else:
            raise MalformedStream(pos, f"unknown op {op!r}")
    return live


def materialize(elements: Sequence[StreamElement], n=None) -> list:
    """Replay a stream and return the live edge set.

    Raises MalformedStream (with the position of the first violation) on
    phantom deletes, duplicate live inserts, weight-mismatched deletes,
    self-loops, vertices outside [0, n), or weights outside [0, inf).
    """
    live = _replay(elements, n)
    return [Edge(u, v, w) for (u, v), w in sorted(live.items())]


def validate_stream(elements: Sequence[StreamElement], n=None) -> StreamReport:
    """Non-raising twin of materialize: reports the first violation."""
    try:
        _replay(elements, n)
    except MalformedStream as exc:
        return StreamReport(False, exc.index, exc.reason)
    return StreamReport(True, -1, "")


class Stream(NamedTuple):
    n: int
    k: int
    mode: str  # MODE_INSERT_ONLY or MODE_DYNAMIC
    elements: tuple


def _format_weight(w: Number) -> str:
    if isinstance(w, int):
        return str(w)
    return repr(w)


def write_stream(target, stream: Stream) -> None:
    """Serialize in the line format: header 'n k mode', then '+/- u v w'."""
    close = False
    if isinstance(target, (str, bytes)):
        target = open(target, "w")
        close = True
    try:
        target.write(f"{stream.n} {stream.k} {stream.mode}\n")
        for e, op in stream.elements:
            target.write(f"{op} {e.u} {e.v} {_format_weight(e.wt)}\n")
    finally:
        if close:
            target.close()


def stream_to_text(stream: Stream) -> str:
    buf = io.StringIO()
    write_stream(buf, stream)
    return buf.getvalue()


def _parse_weight(token: str, mode: str) -> Number:
    if mode == MODE_DYNAMIC:
        return int(token)
    try:
        return int(token)
    except ValueError:
        return float(token)


def read_stream(source) -> Stream:
    """Parse the stream text format; inverse of write_stream."""
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
        if mode not in (MODE_INSERT_ONLY, MODE_DYNAMIC):
            raise MalformedStream(-1, f"unknown mode {mode!r}")
        elements = []
        for pos, line in enumerate(source):
            parts = line.split()
            if not parts:
                continue
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

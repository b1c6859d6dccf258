"""Seeded stream generators: random graphs and two adversarial families.

index_hard encodes a bit-vector membership question into a matching
question: the graph it emits has a 2*k1-matching (k1 = ceil(sqrt(m)))
exactly when the probed bit z is set.  partial_max_hard encodes "max of
the surviving values" into a max-weight 1-matching over a path whose
edges are inserted and then selectively deleted.

All generators are deterministic functions of their seed/arguments and
emit well-formed streams in the package's text format.
"""

from __future__ import annotations

import math
import random

from .core import (
    DELETE,
    INSERT,
    Edge,
    InvalidParameter,
    MODE_DYNAMIC,
    MODE_INSERT_ONLY,
    Stream,
    StreamElement,
    edge,
    edge_at_index,
    require_int,
)


def gen_random_stream(
    n: int,
    k: int,
    edges: int,
    seed: int,
    mode: str = MODE_INSERT_ONLY,
    deletes: int = 0,
    weight_min: int = 1,
    weight_max: int = 100,
) -> Stream:
    """A seeded random stream: distinct random edges with uniform integer
    weights; in dynamic mode, deletions of live edges are interleaved."""
    require_int("n", n, 0)  # n * (n - 1) // 2 would admit edges for n < 0
    require_int("k", k, 0)
    require_int("edges", edges, 0)
    require_int("deletes", deletes, 0)
    require_int("weight_min", weight_min, 0)
    require_int("weight_max", weight_max, weight_min)
    universe = n * (n - 1) // 2
    if edges > universe:
        raise InvalidParameter(f"edge count {edges} not in [0, {universe}]")
    if mode not in (MODE_INSERT_ONLY, MODE_DYNAMIC):
        raise InvalidParameter(f"unknown mode {mode!r}")
    if mode == MODE_INSERT_ONLY and deletes:
        raise InvalidParameter("insert-only streams cannot delete")
    if deletes > edges:
        raise InvalidParameter("deletes must lie in [0, edges]")
    rng = random.Random(seed)
    eids = rng.sample(range(universe), edges)
    pending = [
        Edge(*edge_at_index(eid, n), rng.randint(weight_min, weight_max))
        for eid in eids
    ]
    if mode == MODE_INSERT_ONLY:
        return Stream(n, k, mode, tuple(StreamElement(e, INSERT) for e in pending))
    return interleave_deletes(n, k, pending, deletes, rng)


def interleave_deletes(n: int, k: int, pending, deletes: int, rng) -> Stream:
    """A dynamic stream that inserts the edges of `pending` in order
    and interleaves `deletes` deletions of live edges, drawn from rng.
    Each edge is checked once, against n; a vertex pair may occur once."""
    require_int("n", n, 0)
    require_int("k", k, 0)
    require_int("deletes", deletes, 0)
    if deletes > len(pending):
        raise InvalidParameter(f"deletes={deletes} > {len(pending)} inserts")
    pending = [edge(*e, n) for e in pending]
    if len({(e.u, e.v) for e in pending}) < len(pending):
        raise InvalidParameter("pending repeats a vertex pair")
    elements = []
    live = []
    i_rem, d_rem = len(pending), deletes
    pos = 0
    while i_rem or d_rem:
        do_delete = (
            d_rem > 0
            and live
            and (i_rem == 0 or rng.random() < d_rem / (i_rem + d_rem))
        )
        if do_delete:
            at = rng.randrange(len(live))
            live[at], live[-1] = live[-1], live[at]
            e = live.pop()
            elements.append(StreamElement(e, DELETE))
            d_rem -= 1
        else:
            e = pending[pos]
            pos += 1
            live.append(e)
            elements.append(StreamElement(e, INSERT))
            i_rem -= 1
    return Stream(n, k, MODE_DYNAMIC, tuple(elements))


def gen_index_hard(m: int, x, z: int, n=None) -> Stream:
    """Membership-probe instance.  x is the bit-vector (string or
    sequence of 0/1, 1-indexed positions 1..m); z the probed position.

    Layout with k1 = ceil(sqrt(m)), vertices and bits counted from 0:
    blocks l, l*, r*, r of k1 vertices each, then a star on the
    remaining n - 4*k1 vertices.  A set bit y is the cross edge
    l*_s--r*_t for (s, t) = divmod(y, k1); the rails l_s--l*_s and
    r*_t--r_t are there for every s except bit z-1's row and every t
    except its column.  The graph has a 2*k1-matching iff bit z is
    set."""
    require_int("m", m, 1)
    if len(x) != m or any(b not in (0, 1, "0", "1") for b in x):
        raise InvalidParameter(f"x must be {m} bits, each 0 or 1")
    bits = [int(b) for b in x]
    require_int("z", z, 1)
    if z > m:
        raise InvalidParameter(f"z={z} outside [1, {m}]")
    k1 = math.ceil(math.sqrt(m))
    if n is None:
        n = 4 * k1 + 2
    require_int("n", n, 4 * k1 + 2)
    # every pair below is u < v < n by construction: no edge rule needed
    center = 4 * k1
    row, col = divmod(z - 1, k1)
    pairs = [(k1 + y // k1, 2 * k1 + y % k1) for y in range(m) if bits[y]]
    pairs += [(center, leaf) for leaf in range(center + 1, n)]
    pairs += [(s, k1 + s) for s in range(k1) if s != row]
    pairs += [(2 * k1 + t, 3 * k1 + t) for t in range(k1) if t != col]
    elements = tuple(StreamElement(Edge(u, v, 1), INSERT) for u, v in pairs)
    return Stream(n, 2 * k1, MODE_INSERT_ONLY, elements)


def gen_partial_max_hard(values, deleted, n=None) -> Stream:
    """Surviving-maximum instance: path edge i (1-indexed) carries
    weight values[i-1]; the edges indexed by `deleted` are then removed.
    The max-weight 1-matching of the result is max over survivors."""
    m = len(values)
    if m < 1:
        raise InvalidParameter("need at least one value")
    if len(set(values)) != m:
        raise InvalidParameter("values must be distinct")
    if any(not (0 <= a <= m * m) or a != int(a) for a in values):
        raise InvalidParameter(f"values must be integers in [0, {m * m}]")
    for i in deleted:
        require_int("deleted index", i, 1)
    deleted = sorted(set(deleted))
    if deleted and deleted[-1] > m:
        raise InvalidParameter("deleted indices must lie in [1, m]")
    if len(deleted) >= m:
        raise InvalidParameter("at least one value must survive")
    if n is None:
        n = m + 1
    require_int("n", n, m + 1)
    path = [Edge(i - 1, i, int(values[i - 1])) for i in range(1, m + 1)]
    elements = [StreamElement(e, INSERT) for e in path]
    elements += [StreamElement(path[i - 1], DELETE) for i in deleted]
    return Stream(n, 1, MODE_DYNAMIC, tuple(elements))


def bipartite_matching_size(edges, need=None) -> int:
    """Maximum matching size of a bipartite graph via augmenting paths.
    Raises InvalidParameter if the graph is not 2-colorable.  Stops
    early once `need` augmenting paths have been found."""
    adj = {}
    for e in edges:
        adj.setdefault(e.u, []).append(e.v)
        adj.setdefault(e.v, []).append(e.u)
    color = {}
    for start in adj:
        if start in color:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            a = queue.pop()
            for b in adj[a]:
                if b not in color:
                    color[b] = color[a] ^ 1
                    queue.append(b)
                elif color[b] == color[a]:
                    raise InvalidParameter("graph is not bipartite")
    left = [v for v in adj if color[v] == 0]
    match = {}
    size = 0
    for a in left:
        # depth-first search for an augmenting path from a, one frame per
        # left vertex on the path: (vertex, its untried neighbours)
        seen = set()
        frames = [(a, iter(adj[a]))]
        taken = []  # the right vertex each frame but the top one went through
        while frames:
            for b in frames[-1][1]:
                if b not in seen:
                    break
            else:
                frames.pop()
                if taken:
                    taken.pop()
                continue
            seen.add(b)
            taken.append(b)
            if b in match:
                frames.append((match[b], iter(adj[match[b]])))
                continue
            for (x, _), y in zip(frames, taken):
                match[y] = x
            size += 1
            if need is not None and size >= need:
                return size
            break
    return size

"""Independent answer checker for maximum-weight k-matching.

Nothing here imports the package under test.  Edges are plain tuples
(wt, u, v) with u < v; that tuple order is the total heaviness order,
so distinct pairs always compare strictly.

Kernel.  Keep the edges that are among the 2k-1 heaviest at both of
their endpoints, then the T = (2k-2)(2k-1)+1 heaviest of those.  Some
maximum-weight k-matching survives: take, among the maximum-weight
k-matchings, one whose edges are heaviest in the tuple order.  If one
of its edges e = (u, v) is not among the 2k-1 heaviest at u, those
heavier edges reach 2k-1 distinct vertices and at most 2k-2 of them
are covered by the other k-1 edges, so e can be swapped for a heavier
edge -- a contradiction.  In the kept graph every degree is at most
2k-1, so the other k-1 edges touch at most (2k-2)(2k-1) kept edges and
one of the T heaviest avoids them all; the same swap applies.  The
kernel (7 edges at k=2, 21 at k=3) is then searched exhaustively.

Insert-only prefix.  InsertOnlyOptimum keeps only edges that may still
belong to such an optimum: an edge lighter than every edge of some
(2k-1)-edge matching can always be swapped for one of that matching's
edges (the other k-1 optimum edges block at most 2k-2 of them), and
inserts never undo that.  The greedy matching over the kept edges,
heaviest first, finds the cut.
"""

from __future__ import annotations

import heapq
from itertools import combinations


def kernel(edges, k: int) -> list:
    """Edges (wt, u, v) that contain a maximum-weight k-matching."""
    per_vertex = 2 * k - 1
    incident = {}
    for e in edges:
        incident.setdefault(e[1], []).append(e)
        incident.setdefault(e[2], []).append(e)
    marks = {}
    for lst in incident.values():
        top = lst if len(lst) <= per_vertex else heapq.nlargest(per_vertex, lst)
        for e in top:
            marks[e] = marks.get(e, 0) + 1
    kept = [e for e, c in marks.items() if c == 2]
    return heapq.nlargest((2 * k - 2) * (2 * k - 1) + 1, kept)


def exhaustive_optimum(edges, k: int):
    """Largest total weight of k pairwise disjoint edges, or None."""
    best = None
    for combo in combinations(edges, k):
        seen = set()
        for _, u, v in combo:
            if u in seen or v in seen:
                break
            seen.add(u)
            seen.add(v)
        else:
            w = sum(e[0] for e in combo)
            if best is None or w > best:
                best = w
    return best


def optimum(edges, k: int):
    """Maximum weight of a k-matching of `edges`, or None if none exists."""
    return exhaustive_optimum(kernel(edges, k), k)


class InsertOnlyOptimum:
    """Optimum of a growing edge set in memory independent of its size
    on random graphs (the kept set is a few times 2k-1 edges)."""

    def __init__(self, k: int):
        self.k = k
        self.kept = []  # heaviest first
        self.cut = None  # lightest edge of the greedy (2k-1)-matching

    def add(self, e) -> None:
        if self.cut is not None and e < self.cut:
            return
        kept = self.kept
        lo, hi = 0, len(kept)
        while lo < hi:
            mid = (lo + hi) // 2
            if kept[mid] > e:
                lo = mid + 1
            else:
                hi = mid
        kept.insert(lo, e)
        used = set()
        size = 0
        for pos, (_, u, v) in enumerate(kept):
            if u not in used and v not in used:
                used.add(u)
                used.add(v)
                size += 1
                if size == 2 * self.k - 1:
                    self.cut = kept[pos]
                    del kept[pos + 1:]
                    return

    def optimum(self):
        return optimum(self.kept, self.k)


OK, MISS, FAIL = "ok", "miss", "fail"


def judge(answer, live: dict, k: int, opt, ratio: float = 1.0) -> str:
    """Grade one query answer.

    answer: None for "no k-matching", else a sequence of (u, v, wt).
    live: {(u, v): wt} of the live edges at query time.
    FAIL if the answer is not k disjoint live edges at their true
    weights or weighs more than opt; MISS if it weighs less than
    ratio * opt or reports no k-matching when one exists; else OK.
    """
    if answer is None:
        return OK if opt is None else MISS
    if len(answer) != k:
        return FAIL
    seen = set()
    total = 0
    for u, v, wt in answer:
        if u > v:
            u, v = v, u
        if u in seen or v in seen or live.get((u, v)) != wt:
            return FAIL
        seen.add(u)
        seen.add(v)
        total += wt
    if opt is None or total > opt:
        return FAIL
    return MISS if total < ratio * opt else OK

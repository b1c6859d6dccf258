"""Exact maximum-weight k-matching on small graphs.

Two engines with identical, fully deterministic answers:

  * max_weight_k_matching: branch and bound over edges in descending
    heaviness order, pruning with an admissible bound (current weight
    plus the k-depth heaviest remaining edge weights);
  * brute_force_oracle: exhaustive enumeration of k-subsets, capped at
    24 edges, used as the independent cross-check.

Ties between equal-weight answers are broken toward the
lexicographically smallest sorted tuple of (wt, u, v) edge keys, so
results are byte-stable across runs and implementations.
"""

from __future__ import annotations

from itertools import combinations

from .core import InfeasibleSize, InvalidParameter, Matching

BRUTE_FORCE_EDGE_LIMIT = 24


class _NoKMatching:
    """Sentinel answer: the graph has no matching of exactly k edges."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoKMatching"

    def __bool__(self):
        return False


NO_K_MATCHING = _NoKMatching()


def _profile(edges) -> tuple:
    return tuple(sorted(e.beta for e in edges))


def _better(weight, profile, best_weight, best_profile) -> bool:
    if best_weight is None:
        return True
    if weight != best_weight:
        return weight > best_weight
    return profile < best_profile


def max_weight_k_matching(edges, k: int):
    """Best matching of exactly k edges, or NO_K_MATCHING."""
    if k < 0:
        raise InvalidParameter("k must be >= 0")
    if k == 0:
        return Matching(())
    order = sorted(edges, key=lambda e: e.beta, reverse=True)
    m = len(order)
    if m < k:
        return NO_K_MATCHING
    # csum[i] = total weight of the i heaviest edges
    csum = [0] * (m + 1)
    for i, e in enumerate(order):
        csum[i + 1] = csum[i] + e.wt

    best = [None, None, None]  # weight, profile, edge tuple
    used = set()
    chosen = []

    def dfs(i, cur):
        need = k - len(chosen)
        if need == 0:
            prof = _profile(chosen)
            if _better(cur, prof, best[0], best[1]):
                best[0], best[1], best[2] = cur, prof, tuple(chosen)
            return
        while i <= m - need:
            if best[0] is not None and cur + csum[i + need] - csum[i] < best[0]:
                return
            e = order[i]
            if e.u not in used and e.v not in used:
                used.add(e.u)
                used.add(e.v)
                chosen.append(e)
                dfs(i + 1, cur + e.wt)
                chosen.pop()
                used.discard(e.u)
                used.discard(e.v)
            i += 1

    dfs(0, 0)
    if best[0] is None:
        return NO_K_MATCHING
    return Matching(tuple(sorted(best[2], key=lambda e: e.beta)))


def brute_force_oracle(edges, k: int):
    """Exhaustive reference answer; refuses graphs beyond the edge cap."""
    edges = list(edges)
    if len(edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise InfeasibleSize(
            f"{len(edges)} edges exceeds the enumeration cap {BRUTE_FORCE_EDGE_LIMIT}"
        )
    if k < 0:
        raise InvalidParameter("k must be >= 0")
    if k == 0:
        return Matching(())
    best_weight = None
    best_profile = None
    best_edges = None
    for combo in combinations(edges, k):
        seen = set()
        ok = True
        for e in combo:
            if e.u in seen or e.v in seen:
                ok = False
                break
            seen.add(e.u)
            seen.add(e.v)
        if not ok:
            continue
        weight = sum(e.wt for e in combo)
        profile = _profile(combo)
        if _better(weight, profile, best_weight, best_profile):
            best_weight, best_profile, best_edges = weight, profile, combo
    if best_edges is None:
        return NO_K_MATCHING
    return Matching(tuple(sorted(best_edges, key=lambda e: e.beta)))

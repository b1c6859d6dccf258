"""Exact maximum-weight k-matching on small graphs.

Answers are ranked by one rule, `preference`: the heaviest exact
weight wins, and among equal weights the lexicographically smallest
sorted tuple of (wt, u, v) beta keys.  Two engines give the same,
fully deterministic answer:

  * max_weight_k_matching: branch and bound on folded integer weights
    over an exact kernel;
  * brute_force_oracle: exhaustive enumeration of k-subsets, capped at
    24 edges, ranked by `preference` itself as the independent
    cross-check.

The kernel.  Walk the edges best first (heaviest, then smallest beta)
and keep an edge if it is the first of its vertex pair and both its
ends have fewer than 2k - 1 kept edges.  The optimum survives: a later
copy of a kept pair is worse than the kept one, and were an optimum
edge e dropped at a full end x, one of the 2k - 1 better kept edges at
x would miss the 2k - 2 vertices of the rest of the optimum, so
swapping it in for e would beat the optimum.  With degrees capped at
2k - 1, every kept edge ahead of an optimum edge touches one of those
2k - 2 vertices, so the walk stops after (2k - 1)(2k - 2) + 1 kept
edges, whatever the input size.

The fold.  Rank the m kernel edges by ascending beta key, make the
weights integers W over the lcm of their denominators
(`as_integer_ratio` is exact on int, float and Fraction), and give the
edge of rank r the weight W * 2^(m+1) + 2^(m-1-r).  The bonus bits of
a k-subset sum to less than 2^m, so they never outweigh one unit of W,
and they spell out its ranks in binary: between two k-subsets of equal
W the larger sum holds the smallest rank of their symmetric
difference.  Beta keys are distinct, so that subset also has the
smaller sorted beta profile.  The folded sums are therefore distinct
and ordered exactly as `preference` orders the answers, the optimum is
unique, and the search may prune every branch whose bound merely ties
the best so far.  The walk order above is the descending folded order,
which the search follows as one loop over a stack of chosen positions:
no recursion, so no depth limit in k.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, combinations
from operator import itemgetter

from .core import InfeasibleSize, InvalidParameter, Matching, Sentinel

BRUTE_FORCE_EDGE_LIMIT = 24

# the answer when the graph has no matching of exactly k edges
NO_K_MATCHING = Sentinel("NoKMatching")


def preference(answer: Matching) -> tuple:
    """Sort key, best answer first: heaviest exact weight, then the
    smallest beta profile.  Ints sum exactly as they are."""
    weight = sum(w if isinstance(w, int) else Fraction(w) for _, _, w in answer.edges)
    return (-weight, answer.beta_profile)


def max_weight_k_matching(edges, k: int):
    """Best matching of exactly k edges, or NO_K_MATCHING."""
    if k < 0:
        raise InvalidParameter("k must be >= 0")
    if k == 0:
        return Matching(())
    # best first: heaviest, then smallest (u, v), as reverse=True keeps
    # the (u, v) order of equal weights
    order = sorted(edges)
    order.sort(key=itemgetter(2), reverse=True)
    cap = 2 * k - 1
    kernel = []
    pairs = set()
    degree = {}
    for e in order:
        u, v, _ = e
        pair = (u, v) if u < v else (v, u)
        du, dv = degree.get(u, 0), degree.get(v, 0)
        if du < cap and dv < cap and pair not in pairs:
            kernel.append(e)
            pairs.add(pair)
            degree[u], degree[v] = du + 1, dv + 1
            if len(kernel) > cap * (cap - 1):
                break
    m = len(kernel)
    if m < k:
        return NO_K_MATCHING
    # a stable sort by weight keeps (u, v) ascending: beta order
    by_beta = sorted(kernel, key=itemgetter(2))
    bonus = {e: 1 << (m - 1 - r) for r, e in enumerate(by_beta)}
    ratios = [e.wt.as_integer_ratio() for e in kernel]
    den = math.lcm(*[d for _, d in ratios])
    folded = [
        (num * (den // d) << (m + 1)) + bonus[e]
        for (num, d), e in zip(ratios, kernel)
    ]
    csum = list(accumulate(folded, initial=0))
    # every k-subset weighs at least the k lightest
    best, found = csum[m] - csum[m - k] - 1, None
    used = set()
    stack = []  # kernel positions of the chosen edges
    i = cur = 0
    while True:
        need = k - len(stack)
        if need and i <= m - need and cur + csum[i + need] - csum[i] > best:
            e = kernel[i]
            if e.u not in used and e.v not in used:
                used.add(e.u)
                used.add(e.v)
                stack.append(i)
                cur += folded[i]
            i += 1
            continue
        if not need:
            best, found = cur, [kernel[j] for j in stack]
        if not stack:
            break
        # back up one level and resume after the popped edge
        i = stack.pop()
        e = kernel[i]
        used.discard(e.u)
        used.discard(e.v)
        cur -= folded[i]
        i += 1
    if found is None:
        return NO_K_MATCHING
    return Matching(tuple(sorted(found, key=lambda e: e.beta)))


def brute_force_oracle(edges, k: int):
    """Exhaustive reference answer; refuses graphs beyond the edge cap."""
    edges = list(edges)
    if len(edges) > BRUTE_FORCE_EDGE_LIMIT:
        raise InfeasibleSize(
            f"{len(edges)} edges exceeds the enumeration cap {BRUTE_FORCE_EDGE_LIMIT}"
        )
    if k < 0:
        raise InvalidParameter("k must be >= 0")
    matchings = (
        Matching(tuple(sorted(combo, key=lambda e: e.beta)))
        for combo in combinations(edges, k)
        if len({x for e in combo for x in (e.u, e.v)}) == 2 * k
    )
    return min(matchings, key=preference, default=NO_K_MATCHING)

"""Approximation mode: rounding weights to tame a huge weight range.

Dynamic-matcher space scales with the number of distinct live weights.
With weights spread log-uniformly over [1, 10^4], rounding each weight
up to the next power of (1 + eps) collapses thousands of values into a
few dozen grid keys while keeping the answer within (1 - eps) of
optimal.  Reported weights stay exact: rounding is internal.
"""

import math
import random

from streamkmatch import (
    DynamicMatcher,
    NO_K_MATCHING,
    insert,
    materialize,
    max_weight_k_matching,
    round_weight,
)

N, K, EDGES, EPS, SEED = 80, 2, 300, 0.25, 11

print("weight rounding: t such that (1+eps)^(t-1) < w <= (1+eps)^t")
for w in (1, 2, 10, 9999):
    print(f"  w={w:5d}  ->  key t={round_weight(w, EPS)}")

rng = random.Random(SEED)
elements = []
used = set()
while len(elements) < EDGES:
    u, v = rng.randrange(N), rng.randrange(N)
    if u == v or (min(u, v), max(u, v)) in used:
        continue
    used.add((min(u, v), max(u, v)))
    w = max(1, min(10_000, int(round(math.exp(rng.uniform(0, math.log(10_000)))))))
    elements.append(insert(u, v, w))

exact = DynamicMatcher(N, K, random.Random(SEED + 1))
approx = DynamicMatcher(N, K, random.Random(SEED + 2), epsilon=EPS)
for el in elements:
    exact.process_update(el)
    approx.process_update(el)

truth = max_weight_k_matching(materialize(elements), K)
got = approx.query()

print()
print(f"{EDGES} edges, {len({el.edge.wt for el in elements})} distinct live weights")
print(f"exact grid keys:  {exact.stats()['distinct_weight_keys']}")
print(f"approx grid keys: {approx.stats()['distinct_weight_keys']}  (eps={EPS})")
if got is not NO_K_MATCHING:
    print(f"approx answer {got.weight} vs optimal {truth.weight} "
          f"(ratio {got.weight / truth.weight:.3f}, guarantee >= {1 - EPS})")

"""Adversarial stream families, and one seeded streaming run.

Two constructions that make streaming matching provably hard:

  * index-hard encodes "is bit z of x set?" into "does the graph have a
    2*k1-matching?", which is why insert-only algorithms need the space
    they use;
  * partial-max encodes "maximum of the surviving values" into a
    max-weight 1-matching over a path with deletions, which is why
    dynamic algorithms pay a log factor in weights.

The last section streams a random graph through InsertMatcher and prints
its stats() beside the exact answer.  Latency and throughput are measured
by perfbench/run.py.
"""

import math
import random

from streamkmatch import (
    InsertMatcher,
    bipartite_matching_size,
    gen_index_hard,
    gen_partial_max_hard,
    gen_random_stream,
    materialize,
    max_weight_k_matching,
    stream_to_text,
)

# --- index-hard --------------------------------------------------------
m, x, z = 4, "1010", 3
k1 = math.ceil(math.sqrt(m))
stream = gen_index_hard(m, x, z)
edges = materialize(stream.elements)
size = bipartite_matching_size(edges)
print(f"index-hard: x={x}, probing bit z={z} (set={x[z-1] == '1'})")
print(f"  graph has {len(edges)} edges, max matching {size}, "
      f"threshold {2 * k1}")
print(f"  => bit {z} is {'SET' if size >= 2 * k1 else 'UNSET'}")

# --- partial-max -------------------------------------------------------
values, removed = [3, 9, 7], [2]
stream = gen_partial_max_hard(values, removed)
print()
print(f"partial-max: values {values}, deleting index {removed}")
print(stream_to_text(stream), end="")
best = max_weight_k_matching(materialize(stream.elements), 1)
print(f"  max-weight 1-matching = {best.weight} "
      f"(the largest surviving value)")

# --- one seeded insert-only run ----------------------------------------
print()
stream = gen_random_stream(60, 2, 200, seed=1)
matcher = InsertMatcher(60, 2, 0.25, random.Random(1))
for el in stream.elements:
    matcher.process_insert(el.edge)
answer = matcher.query()
truth = max_weight_k_matching(materialize(stream.elements), 2)
print("insert-only run (200 inserts, k=2, eps=0.25):")
print(f"  streamed weight {answer.weight}, oracle weight {truth.weight}")
for key, value in matcher.stats().items():
    print(f"  {key} = {value}")

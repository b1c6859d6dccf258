"""Fully dynamic streaming: insertions, deletions, and sharded merging.

The dynamic matcher is a grid of linear edge samplers, so deletions are
true inverses of insertions, and two grids built with identical
randomness over different parts of a stream can be merged cell-wise
into the grid of the whole stream.  A sampler that holds one edge
stores one top cell; only samplers that have taken two distinct edges
store per-repetition cells.
"""

import random

from streamkmatch import (
    DynamicMatcher,
    NO_K_MATCHING,
    gen_random_stream,
    materialize,
    max_weight_k_matching,
)

N, K, INSERTS, DELETES, SEED = 60, 2, 400, 150, 7

stream = gen_random_stream(
    N, K, INSERTS, seed=SEED, mode="dyn", deletes=DELETES, weight_max=50
)
print(f"stream: n={N}, k={K}, {INSERTS} inserts interleaved with {DELETES} deletes")

matcher = DynamicMatcher(N, K, random.Random(SEED + 1))
for el in stream.elements:
    matcher.process_update(el)

answer = matcher.query()
truth = max_weight_k_matching(materialize(stream.elements), K)
stats = matcher.stats()

print(f"grid: {stats['live_samplers']} live samplers "
      f"({stats['negative_samplers']} with a negative count), "
      f"{matcher.scheme.d2 ** 2} keys touched per update")
print(f"  {stats['cells']} per-repetition cells, stored by samplers that took "
      f"two distinct edges")
if answer is NO_K_MATCHING:
    print("dynamic answer: no k-matching")
else:
    print(f"dynamic answer: weight {answer.weight}  |  oracle: {truth.weight}")

# --- sharded ingestion -------------------------------------------------
print()
print("sharded ingestion: two grids with shared randomness, merged")
half = len(stream.elements) // 2
a = DynamicMatcher(N, K, random.Random(SEED + 1))
b = DynamicMatcher(N, K, random.Random(SEED + 1))
for el in stream.elements[:half]:
    a.process_update(el)
for el in stream.elements[half:]:
    b.process_update(el)          # may delete edges the other shard inserted
a.merge_from(b)
merged = a.query()
same = (
    merged is answer
    if NO_K_MATCHING in (merged, answer)
    else merged.weight == answer.weight
)
print(f"merged answer: weight "
      f"{'-' if merged is NO_K_MATCHING else merged.weight} "
      f"({'matches' if same else 'differs from'} the sequential grid)")

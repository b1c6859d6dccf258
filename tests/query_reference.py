"""The two matchers' earlier queries, kept as references.

Each matcher now answers a query with one exact solve over the edges it
holds, at their true weights.  Before that:

  * the insert-only query finished every pending reduction, reduced the
    buffer again into each hash's sketch, solved once per hash and kept
    the best answer under `preference`;
  * the dynamic query solved approximation mode on the float keys
    (1+eps)^t of the rounded weights, scaled down when the top key
    would pass the float range, and mapped the answer back to the true
    weights.

Both are rebuilt here from the matcher's state without changing it: the
insert-only reference reduces a fresh copy of each pending reduction,
which gives the same sketch as finishing it.  The current queries must
never rank below them.

The grid's decode keeps a count of the samplers per one-index top cell
as updates arrive.  Before that, it counted them in one pass over every
sampler's top cell at each query; `recounting_decode` is that decode,
and the kept count must give the same triples and fail count.  It also
keeps the earlier walk as the reference for the current one: each
suffix read by count range, index range, the fingerprint mod p by
`pow` and the payload, where the grid now compares the suffix with the
candidate's cell exactly.
"""

import math
from collections import Counter

from grid_reference import flat_tops
from streamkmatch import NO_K_MATCHING, Edge, matching_of, max_weight_k_matching
from streamkmatch.core import edge_at_index, edge_index
from streamkmatch.dynamic_matcher import _C0_BITS, _FP_BITS, round_weight
from streamkmatch.hashing import FIELD_PRIME
from streamkmatch.reducer import ReducerState, reduce
from streamkmatch.solver import preference


def per_hash_insert_query(m):
    """The best of one solve per hash over that hash's reduced sketch
    with the buffer folded in; the buffer alone in the first segment."""
    if not m.reducers:
        return max_weight_k_matching(m.filling, m.k)
    answers = []
    for red in m.reducers:
        sketch = ReducerState(red.edges, red.f, red.k, red.carry)
        sketch.run_to_completion()
        answer = max_weight_k_matching(reduce(m.filling, red.f, m.k, sketch.kept), m.k)
        if answer is not NO_K_MATCHING:
            answers.append(answer)
    return min(answers, key=preference, default=NO_K_MATCHING)


def float_key_dynamic_query(m):
    """The optimum of the sample on float keys, reported at true weights."""
    found, _ = m._decode()
    weights = dict(sorted((eid, wt) for eid, _, wt in found))
    keys = weights
    if (eps := m.epsilon) is not None and 1.0 + eps > 1:
        ts = {eid: round_weight(wt, eps) for eid, wt in weights.items() if wt}
        top = max(ts.values(), default=0)
        shift = top if top * math.log1p(eps) > 700 else 0
        keys = {eid: (1.0 + eps) ** (ts[eid] - shift) if wt else 0
                for eid, wt in weights.items()}
    answer = max_weight_k_matching(
        [Edge(*edge_at_index(eid, m.n), key) for eid, key in keys.items()], m.k)
    if answer is NO_K_MATCHING:
        return answer
    return matching_of(Edge(e.u, e.v, weights[edge_index(e.u, e.v, m.n)])
                       for e in answer.edges)


def recounting_decode(g):
    """CellGrid._decode with the samplers per top cell counted afresh."""
    q = FIELD_PRIME
    c0_mask = (1 << _C0_BITS) - 1
    c0_cap = 1 << (_C0_BITS - 1)
    c1_mask = (1 << (g._fp_at - _C0_BITS)) - 1
    fp_half = 1 << (_FP_BITS - 1)
    fp_mask = (1 << _FP_BITS) - 1

    def suffixes(rb):
        s = 0
        for lev in range(g.levels - 1, -1, -1):
            c = g.cells.get(rb | lev)
            if c is not None:
                s += c
                yield s

    def first_decode(walks):
        for walk in walks:
            for s in walk:
                c0 = s & c0_mask
                if not 0 < c0 < c0_cap:
                    continue
                c1 = (s >> _C0_BITS) & c1_mask
                if c1 % c0:
                    continue
                j = c1 // c0
                if j >= g.universe:
                    continue
                rest = s >> g._fp_at
                fp = ((rest + fp_half) & fp_mask) - fp_half
                if (fp - c0 * pow(g.z, j, q)) % q == 0:
                    c2 = (rest - fp) >> _FP_BITS
                    if c2 % c0 == 0:
                        return j, c0, c2 // c0
                    break
        return None

    tops = flat_tops(g)
    times = Counter(tops.values())
    got = []
    for base in g._full:
        top = tops[base]
        times[top] -= 1
        if top & c0_mask:
            kb = base << g._shift
            got.append((first_decode(suffixes(kb | (rep << g._lev_bits))
                                     for rep in range(g.reps)), 1))
    got += [(first_decode(((top,),)), n) for top, n in times.items()
            if n and top & c0_mask]
    return ([x for x, _ in got if x is not None],
            sum(n for x, n in got if x is None))

"""Each query's answer never ranks below the earlier query's, under
`preference`, on seeded streams.

The insert-only query solves once over the buffer, the segment under
reduction and every carried sketch; each per-hash candidate of the
earlier query is a subset of that union.  The dynamic query solves on
the sample's true weights, which the float-key solve only approximated,
so in exact mode the two agree.

The decode reads a count of the samplers per one-index top cell kept
as updates arrive; after every update it must decode exactly what a
fresh count over every sampler decodes.
"""

import random

import pytest

from query_reference import float_key_dynamic_query, per_hash_insert_query, recounting_decode
from streamkmatch import (
    NO_K_MATCHING,
    DynamicMatcher,
    InsertMatcher,
    L0Sampler,
    delete,
    gen_random_stream,
    insert,
    round_weight,
)
from streamkmatch.solver import preference


def _ranks_at_or_above(new, old):
    if old is NO_K_MATCHING:
        return True
    return new is not NO_K_MATCHING and preference(new) <= preference(old)


def _insert_cases():
    """(n, k, epsilon, stream seed, edges, weight range).  Weights 0..3
    at k = 4 tie densely; a length past a segment boundary ends the
    stream mid-segment."""
    cases = []
    for i in range(16):
        k = 1 + i % 4
        seg = 4 * k * k
        eps = (1 / 2, 1 / 4, 1 / 16)[i % 3]
        wmin, wmax = ((1, 100), (0, 3), (7, 7), (1, 10 ** 6))[i // 4]
        edges = seg * (2 + i % 3) + (seg // 3 + 1 if i % 2 else 0)
        cases.append((8 * k + 6 + i % 5, k, eps, 30_000 + i, edges, wmin, wmax))
    return cases


@pytest.mark.parametrize("case", _insert_cases(), ids=repr)
def test_insert_query_never_ranks_below_the_per_hash_query(case):
    n, k, eps, seed, edges, wmin, wmax = case
    stream = gen_random_stream(n, k, edges, seed=seed, weight_min=wmin, weight_max=wmax)
    m = InsertMatcher(n, k, eps, random.Random(seed))
    seen = set()
    for pos, el in enumerate(stream.elements):
        m.process_insert(el.edge)
        seen.add(el.edge)
        if pos % 5 == 4 or pos == len(stream.elements) - 1:
            got = m.query()
            assert _ranks_at_or_above(got, per_hash_insert_query(m)), pos
            assert got is NO_K_MATCHING or set(got.edges) <= seen


def test_insert_query_ranks_above_the_per_hash_query_on_ties():
    # dense ties at k = 4 (the insert golden case ins-19-ties): from
    # the fourth segment on, the one solve finds better beta profiles
    stream = gen_random_stream(43, 4, 342, seed=80_019, weight_min=0, weight_max=3)
    m = InsertMatcher(43, 4, 1 / 4, random.Random(80_019 * 5 + 1))
    better = 0
    for el in stream.elements:
        m.process_insert(el.edge)
        old = per_hash_insert_query(m)
        better += old is not NO_K_MATCHING and preference(m.query()) < preference(old)
    assert better > 0


def _dynamic_run(n, k, eps, seed, shards):
    stream = gen_random_stream(n, k, 30, seed=seed, mode="dyn", deletes=10,
                               weight_min=1, weight_max=10 ** 4)
    grids = [DynamicMatcher(n, k, random.Random(seed), epsilon=eps)
             for _ in range(2 if shards else 1)]
    for pos, el in enumerate(stream.elements):
        grids[pos % len(grids)].process_update(el)
    for g in grids[1:]:
        grids[0].merge_from(g)
    return grids[0]


@pytest.mark.parametrize("eps", [0.1, 0.25, 0.5, 1e-12])
@pytest.mark.parametrize("shards", [False, True])
def test_dynamic_query_never_ranks_below_the_float_key_query(eps, shards):
    better = 0
    for trial in range(6):
        n, k = ((12, 1), (16, 2), (14, 3))[trial % 3]
        m = _dynamic_run(n, k, eps, 60_000 + trial, shards)
        got, old = m.query(), float_key_dynamic_query(m)
        assert _ranks_at_or_above(got, old), trial
        better += old is not NO_K_MATCHING and preference(got) < preference(old)
    if eps >= 0.25:
        assert better > 0  # coarse keys tie weights the true solve tells apart


@pytest.mark.parametrize("shards", [False, True])
def test_exact_mode_agrees_with_the_float_key_query(shards):
    for trial in range(6):
        n, k = ((12, 1), (16, 2), (14, 3))[trial % 3]
        m = _dynamic_run(n, k, None, 61_000 + trial, shards)
        assert m.query() == float_key_dynamic_query(m)


def _decodes_as_the_recount(g):
    found, fails = g._decode()
    want_found, want_fails = recounting_decode(g)
    assert sorted(found) == sorted(want_found)
    assert fails == want_fails
    assert 0 not in g._one_tops.values()


def _unvalidated_update(r, g, live, eps):
    """One update of a small-n stream that reaches every branch of the
    grid's update: fresh and cancelled samplers, an edge inserted
    twice, a second edge making a sampler full and later a full sampler
    at zero, a phantom delete (a negative count), and in approximation
    mode a delete whose weight rounds to its insert's key."""
    x = r.random()
    if x < 0.3 or not live:
        u, v = sorted(r.sample(range(g.n), 2))
        live.append((u, v, r.randint(1, 3)))
        g.process_update(insert(*live[-1]))
    elif x < 0.4:
        live.append(r.choice(live))
        g.process_update(insert(*live[-1]))
    elif x < 0.95:
        u, v, w = live.pop(r.randrange(len(live)))
        if (eps is not None and r.random() < 0.25
                and round_weight(w + 1, eps) == round_weight(w, eps)):
            w += 1
        g.process_update(delete(u, v, w))
    else:
        u, v = sorted(r.sample(range(g.n), 2))
        g.process_update(delete(u, v, r.randint(1, 3)))


# matcher seeds whose scheme gives two of five vertices a shared hash
# value, so that distinct edges share samplers; at eps = 0.9 the
# weights 2 and 3 round to one key
@pytest.mark.parametrize("eps", [None, 0.9])
@pytest.mark.parametrize("seed", [0, 6, 30, 39])
def test_kept_count_decodes_as_the_recount(seed, eps):
    r = random.Random(70_000 + seed)
    g, shard = (DynamicMatcher(5, 1, random.Random(seed), epsilon=eps) for _ in range(2))
    live, shard_live, zeroed = [], [], set()
    for _ in range(60):
        _unvalidated_update(r, shard, shard_live, eps)
    for step in range(240):
        full = set(g._full)
        _unvalidated_update(r, g, live, eps)
        zeroed |= full - g.tops.keys()
        if step == 120:
            g.merge_from(shard)  # the count is rebuilt at the next decode
            live += shard_live
        elif not 120 < step < 124:  # updates to a grid whose count is stale
            _decodes_as_the_recount(g)
            g.query()
            assert g.last_fail_count == recounting_decode(g)[1]
    assert zeroed  # samplers were made full, and some returned to zero


def test_kept_count_of_an_l0_sampler_decodes_as_the_recount():
    # rounds of one or two indices, each undone, so the sampler keeps
    # returning to zero; a merged shard's index is undone halfway
    r = random.Random(71_000)
    a, shard = (L0Sampler(6, 0.1, random.Random(5)) for _ in range(2))
    shard.update(4, 1)
    for rnd in range(60):
        if rnd == 20:
            a.merge(shard)
            _decodes_as_the_recount(a)
        if rnd == 40:
            a.update(4, -1)
            _decodes_as_the_recount(a)
        ups = [(r.randrange(6), r.choice((1, -1, 2))) for _ in range(1 + (r.random() < 0.4))]
        for i, d in ups + [(i, -d) for i, d in reversed(ups)]:
            a.update(i, d)
            _decodes_as_the_recount(a)

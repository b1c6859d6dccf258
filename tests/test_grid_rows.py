"""The two-level sampler keys against the flat grid they replaced.

`CellGrid` keeps each top cell at `rows[row][col]` and settles a whole
row with C-level dict calls when the row is absent, shares no col with
the update, or holds exactly the cell's negation at exactly its cols;
every other row takes the per-base rule.  On collision-heavy streams,
sharded and merged, it must hold what the flat grid of
`grid_reference` holds after every update and merge, and answer alike.
"""

import random

import pytest

from grid_reference import FlatL0Sampler, FlatMatcher, flat_tops
from streamkmatch import DynamicMatcher, L0Sampler, delete, insert


def _same_state(g, ref):
    assert flat_tops(g) == flat_tops(ref)
    assert g._full == ref._full
    assert g.cells == ref.cells
    assert g._one_tops == ref._one_tops
    assert all(g.rows.values())  # no empty row is kept


def _same_answer(g, ref):
    assert g.query() == ref.query()
    assert g.last_fail_count == ref.last_fail_count
    assert g._one_tops == ref._one_tops


@pytest.mark.parametrize("eps", [None, 0.9])
def test_rows_hold_what_the_flat_grid_holds(eps):
    # n = 60 at k = 1: 6 hash values per endpoint over 400 slots, so
    # rows and bases collide often.  Exact mode takes weight-1 edges; at
    # eps = 0.9 the weights 2 and 3 round to one key, so a sampler can
    # hold two weights.  Each update goes to the coordinator or one of
    # two shards, which take deletes of edges they never held; every 64
    # updates both shards merge into the coordinator and fresh ones
    # start.  The live set grows to over 500 edges, then drains
    n, k, seed = 60, 1, 11

    def pair():
        return [DynamicMatcher(n, k, random.Random(seed), epsilon=eps),
                FlatMatcher(n, k, random.Random(seed), epsilon=eps)]

    r = random.Random(12)
    grids = [pair() for _ in range(3)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    live, peak_live, peak_full, peak_cells, settled = {}, 0, 0, 0, 0
    for step in range(1, 1_601):
        if not live or r.random() < (0.9 if step <= 800 else 0.1):
            e = r.choice(pairs)
            live[e] = 1 if eps is None else r.choice((2, 3))
            el = insert(*e, live[e])  # a repeat insert is a collision too
        else:
            e = r.choice(sorted(live))
            el = delete(*e, live.pop(e))
        g, ref = r.choice(grids)
        g.process_update(el)
        ref.process_update(el)
        _same_state(g, ref)
        if step % 64 == 0:
            (g, ref), shards = grids[0], grids[1:]
            for shard, shard_ref in shards:
                g.merge_from(shard)
                ref.merge_from(shard_ref)
                _same_state(g, ref)
            grids[1:] = [pair(), pair()]
            settled += 1
        if step % 16 == 0:
            _same_answer(*grids[0])
            _same_state(*grids[0])
        coord = grids[0][0]
        peak_live = max(peak_live, len(live))
        peak_full = max(peak_full, len(coord._full))
        peak_cells = max(peak_cells, len(coord.cells))
    # at the peak: 529 and 506 live edges, 495 and 423 full samplers,
    # 3 328 and 2 608 cells
    assert settled == 25 and peak_live >= 500
    assert peak_full >= 400 and peak_cells >= 2_500


def test_one_l0_sampler_holds_what_the_flat_one_holds():
    # base 0 is row 0, col 0: the one row is made, grown and cancelled
    s, ref = L0Sampler(40, 0.1, random.Random(3)), FlatL0Sampler(40, 0.1, random.Random(3))
    r = random.Random(4)
    # a full sampler returns to one index, then its row cancels
    ups = [(5, 1), (7, 1), (7, -1), (5, -1)]
    for i, d in ups + [(r.randrange(40), r.choice((1, -1, 2))) for _ in range(300)]:
        s.update(i, d)
        ref.update(i, d)
        _same_state(s, ref)
        assert s.query() == ref.query()


class TestMechanism:
    """At n = 200, k = 2 with 32 live edges, the shape of the
    `dyn-churn` workload, an update settles whole rows."""

    def _grid(self):
        m = DynamicMatcher(200, 2, random.Random(1))
        r = random.Random(2)
        pairs = r.sample([(u, v) for u in range(200) for v in range(u + 1, 200)], 33)
        edges = [(u, v, r.randint(1, 8)) for u, v in pairs]
        calls = []
        m._add = lambda rows, cols, *rest, add=m._add: (
            calls.append((len(rows), len(cols))), add(rows, cols, *rest))
        settle = m._settle
        m._settle = lambda *a: (calls.append("settle"), settle(*a))[1]
        return m, edges, calls

    def test_an_update_settles_its_d2_rows_with_no_per_base_call(self):
        m, edges, calls = self._grid()
        d2 = m.scheme.d2
        for el in [insert(*e) for e in edges] + [delete(*edges[0])]:
            before = {r: dict(row) for r, row in m.rows.items()}
            m.process_update(el)
            changed = {r for r in before.keys() | m.rows.keys() if before.get(r) != m.rows.get(r)}
            assert len(changed) == d2
        assert calls == [(d2, d2)] * 34  # no per-base call
        assert m.live_sampler_count == 32 * d2 ** 2

    def test_an_insert_that_shares_a_base_takes_the_per_base_rule(self):
        m, edges, calls = self._grid()
        for e in edges:
            m.process_update(insert(*e))
        assert "settle" not in calls
        m.process_update(insert(*edges[5]))  # the same edge again: every base shared
        assert calls[-1] == "settle"

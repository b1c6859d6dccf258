"""Domain types: edges, the heaviness order, edge numbering, streams."""

import io
import math
import random
from fractions import Fraction

import pytest

from streamkmatch import (
    DELETE,
    Edge,
    INSERT,
    InvalidParameter,
    MalformedStream,
    Matching,
    MODE_DYNAMIC,
    MODE_INSERT_ONLY,
    Stream,
    StreamElement,
    delete,
    edge,
    edge_at_index,
    edge_index,
    insert,
    materialize,
    matching_of,
    max_weight_k_matching,
    read_stream,
    stream_to_text,
)


class TestEdge:
    def test_canonicalizes_endpoints(self):
        assert edge(5, 2, 7) == Edge(2, 5, 7)
        assert edge(2, 5, 7) == Edge(2, 5, 7)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParameter):
            edge(3, 3, 1)

    def test_rejects_negative_weight(self):
        with pytest.raises(InvalidParameter):
            edge(0, 1, -1)

    def test_rejects_nan_and_inf_weight(self):
        for wt in (math.nan, math.inf):
            with pytest.raises(InvalidParameter):
                edge(0, 1, wt)

    def test_rejects_negative_vertex(self):
        with pytest.raises(InvalidParameter):
            edge(-1, 2, 1)

    def test_beta_is_weight_then_endpoints(self):
        assert Edge(1, 2, 5).beta == (5, 1, 2)
        assert Edge(0, 1, 5).beta > Edge(0, 1, 4).beta
        # equal weights: endpoints break the tie, so the order is total
        assert Edge(0, 9, 4).beta < Edge(1, 2, 4).beta

    def test_distinct_edges_have_distinct_beta(self):
        rng = random.Random(7)
        edges = set()
        while len(edges) < 300:
            u, v = rng.randrange(20), rng.randrange(20)
            if u != v:
                edges.add(edge(u, v, rng.randint(1, 3)))
        betas = {e.beta for e in edges}
        assert len(betas) == len(edges)


class TestEdgeNumbering:
    def test_known_values(self):
        # row 0 of n=5: (0,1)..(0,4) are ids 0..3, then (1,2) is 4
        assert edge_index(0, 1, 5) == 0
        assert edge_index(0, 4, 5) == 3
        assert edge_index(1, 2, 5) == 4
        assert edge_index(3, 4, 5) == 9
        assert edge_at_index(9, 5) == (3, 4)

    def test_bijection_exhaustive(self):
        for n in (2, 3, 5, 17, 40):
            seen = set()
            for u in range(n):
                for v in range(u + 1, n):
                    eid = edge_index(u, v, n)
                    assert 0 <= eid < n * (n - 1) // 2
                    assert edge_at_index(eid, n) == (u, v)
                    seen.add(eid)
            assert len(seen) == n * (n - 1) // 2

    def test_bijection_large_spot_checks(self):
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(2, 5000)
            eid = rng.randrange(n * (n - 1) // 2)
            u, v = edge_at_index(eid, n)
            assert edge_index(u, v, n) == eid

    @pytest.mark.parametrize("n", [2 ** 53 + 5, 10 ** 18])
    def test_round_trip_on_the_last_rows_of_a_huge_n(self, n):
        # beyond 2^53 a float square root cannot place these ids: it goes
        # negative (math domain error) or starts at the last row, from
        # which a correction loop would walk ~sqrt(2 * 10^20) rows
        last = n * (n - 1) // 2 - 1
        deep = [last - 10 ** p for p in (6, 12, 20)]
        for eid in [*range(last - 20, last + 1), *deep, 0, 1, n - 2, n - 1]:
            u, v = edge_at_index(eid, n)
            assert 0 <= u < v < n and edge_index(u, v, n) == eid
        assert edge_at_index(last, n) == (n - 2, n - 1)
        assert edge_at_index(last - 2, n) == (n - 3, n - 2)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            edge_index(1, 1, 5)
        with pytest.raises(InvalidParameter):
            edge_index(0, 5, 5)
        with pytest.raises(InvalidParameter):
            edge_at_index(10, 5)
        with pytest.raises(InvalidParameter):
            edge_at_index(-1, 5)
        with pytest.raises(InvalidParameter):
            edge_at_index(0, -1)  # n(n-1)/2 = 1, but no pair lies under n = -1
        # non-int sizes and ids once gave a float id or a bare TypeError
        for bad in (10.5, 10.0, "10", None):
            with pytest.raises(InvalidParameter, match="n="):
                edge_index(1, 2, bad)
        for eid, n in ((1.5, 10), (2.0, 10), ("1", 10), (None, 10),
                       (0, 2.5), (0, 10.0), (0, "10"), (0, None)):
            with pytest.raises(InvalidParameter, match="n="):
                edge_at_index(eid, n)


class TestMatching:
    def test_weight_and_profile(self):
        m = matching_of([Edge(2, 3, 4), Edge(0, 1, 5)])
        assert m.weight == 9
        assert m.beta_profile == ((4, 2, 3), (5, 0, 1))
        assert m.edges == (Edge(2, 3, 4), Edge(0, 1, 5))  # beta-sorted

    def test_rejects_shared_endpoint(self):
        with pytest.raises(InvalidParameter):
            matching_of([Edge(0, 1, 1), Edge(1, 2, 1)])

    def test_empty(self):
        assert matching_of([]).weight == 0

    def test_weight_past_the_float_range_is_exact(self):
        # an int weight too large for a float next to a float weight:
        # the float sum overflows, so the sum is taken in Fractions
        edges = (Edge(0, 1, 10**400), Edge(2, 3, 0.5))
        exact = Fraction(2 * 10**400 + 1, 2)
        assert Matching(edges).weight == exact
        assert max_weight_k_matching(list(edges), 2).weight == exact


class TestReplay:
    def test_materialize_tracks_live_set(self):
        els = [insert(0, 1, 5), insert(2, 3, 4), delete(0, 1, 5)]
        assert materialize(els) == [Edge(2, 3, 4)]

    def test_duplicate_live_insert(self):
        els = [insert(0, 1, 5), insert(1, 0, 5)]
        with pytest.raises(MalformedStream) as exc:
            materialize(els)
        assert exc.value.index == 1

    def test_reinsert_after_delete_is_fine(self):
        els = [insert(0, 1, 5), delete(0, 1, 5), insert(0, 1, 7)]
        assert materialize(els) == [Edge(0, 1, 7)]

    def test_phantom_delete(self):
        with pytest.raises(MalformedStream) as exc:
            materialize([delete(0, 1, 5)])
        assert exc.value.index == 0

    def test_weight_mismatched_delete(self):
        with pytest.raises(MalformedStream) as exc:
            materialize([insert(0, 1, 5), delete(0, 1, 6)])
        assert exc.value.index == 1

    def test_vertex_range_enforced_when_n_given(self):
        with pytest.raises(MalformedStream) as exc:
            materialize([insert(0, 9, 1)], n=5)
        assert exc.value.index == 0
        assert materialize([insert(0, 4, 1)], n=5) == [Edge(0, 4, 1)]

    def test_ok_report(self):
        assert materialize([insert(0, 1, 2)]) == [Edge(0, 1, 2)]

    def test_self_loop(self):
        # edge() refuses a self-loop, so build the element by hand
        els = [insert(0, 1, 2), StreamElement(Edge(3, 3, 1), INSERT)]
        with pytest.raises(MalformedStream, match="self-loop at vertex 3") as exc:
            materialize(els)
        assert exc.value.index == 1

    def test_unknown_op(self):
        els = [insert(0, 1, 2), StreamElement(Edge(2, 3, 1), "*")]
        with pytest.raises(MalformedStream, match="unknown op '\\*'") as exc:
            materialize(els)
        assert exc.value.index == 1


class TestStreamFormat:
    def test_round_trip(self):
        stream = Stream(
            6,
            2,
            MODE_DYNAMIC,
            (insert(0, 1, 5), insert(2, 3, 9), delete(0, 1, 5)),
        )
        text = stream_to_text(stream)
        lines = text.splitlines()
        assert lines[0] == "6 2 dyn"
        assert lines[1] == "+ 0 1 5"
        assert lines[3] == "- 0 1 5"
        again = read_stream(io.StringIO(text))
        assert again == stream

    def test_file_round_trip(self, tmp_path):
        stream = Stream(4, 1, MODE_INSERT_ONLY, (insert(0, 2, 3),))
        path = str(tmp_path / "s.txt")
        with open(path, "w") as fh:
            fh.write(stream_to_text(stream))
        assert read_stream(path) == stream

    def test_float_weights_only_in_insert_mode(self):
        ins = read_stream(io.StringIO("4 1 ins\n+ 0 1 2.5\n"))
        assert ins.elements[0].edge.wt == 2.5
        with pytest.raises(MalformedStream):
            read_stream(io.StringIO("4 1 dyn\n+ 0 1 2.5\n"))

    def test_bad_header(self):
        with pytest.raises(MalformedStream):
            read_stream(io.StringIO("4 1\n"))
        with pytest.raises(MalformedStream):
            read_stream(io.StringIO("4 1 nope\n+ 0 1 2\n"))
        with pytest.raises(MalformedStream):
            read_stream(io.StringIO("4 x ins\n+ 0 1 2\n"))
        with pytest.raises(MalformedStream, match="k=-3"):
            read_stream(io.StringIO("5 -3 ins\n+ 0 1 2\n"))

    def test_delete_rejected_in_insert_mode(self):
        with pytest.raises(MalformedStream):
            read_stream(io.StringIO("4 1 ins\n- 0 1 2\n"))

    def test_bad_element_line(self):
        # errors are numbered by element, as the matchers number them,
        # so blank lines do not count
        for text in ("* 0 1 2", "+ 0 1 x", "+ 0 a 2", "\n\n+ 0 1 x"):
            with pytest.raises(MalformedStream) as err:
                read_stream(io.StringIO(f"6 1 ins\n{text}\n"))
            assert err.value.index == 0

    def test_blank_lines_skipped(self):
        stream = read_stream(io.StringIO("4 1 ins\n\n+ 0 1 2\n\n"))
        assert len(stream.elements) == 1

    def test_endpoints_canonicalized_on_read(self):
        stream = read_stream(io.StringIO("4 1 ins\n+ 3 1 2\n"))
        assert stream.elements[0].edge == Edge(1, 3, 2)

    def test_ops_are_plus_minus(self):
        assert INSERT == "+" and DELETE == "-"

"""Domain types: edges, the heaviness order, edge numbering, streams."""

import io
import math
import random

import pytest

from streamkmatch import (
    DELETE,
    Edge,
    INSERT,
    InvalidParameter,
    MalformedStream,
    MODE_DYNAMIC,
    MODE_INSERT_ONLY,
    Stream,
    beta_compare,
    delete,
    edge,
    edge_at_index,
    edge_index,
    insert,
    materialize,
    matching_of,
    read_stream,
    stream_to_text,
    validate_stream,
    write_stream,
)
from streamkmatch.core import edge_universe_size


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
        assert beta_compare(Edge(0, 1, 5), Edge(0, 1, 4)) == 1
        assert beta_compare(Edge(0, 1, 4), Edge(0, 1, 5)) == -1
        assert beta_compare(Edge(0, 1, 4), Edge(0, 1, 4)) == 0
        # equal weights: endpoints break the tie, so the order is total
        assert beta_compare(Edge(0, 9, 4), Edge(1, 2, 4)) == -1

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
                    assert 0 <= eid < edge_universe_size(n)
                    assert edge_at_index(eid, n) == (u, v)
                    seen.add(eid)
            assert len(seen) == edge_universe_size(n)

    def test_bijection_large_spot_checks(self):
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randint(2, 5000)
            eid = rng.randrange(edge_universe_size(n))
            u, v = edge_at_index(eid, n)
            assert edge_index(u, v, n) == eid

    def test_out_of_range(self):
        with pytest.raises(InvalidParameter):
            edge_index(1, 1, 5)
        with pytest.raises(InvalidParameter):
            edge_index(0, 5, 5)
        with pytest.raises(InvalidParameter):
            edge_at_index(10, 5)
        with pytest.raises(InvalidParameter):
            edge_at_index(-1, 5)


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
        report = validate_stream([delete(0, 1, 5)])
        assert not report.ok and report.index == 0

    def test_weight_mismatched_delete(self):
        report = validate_stream([insert(0, 1, 5), delete(0, 1, 6)])
        assert not report.ok and report.index == 1

    def test_vertex_range_enforced_when_n_given(self):
        report = validate_stream([insert(0, 9, 1)], n=5)
        assert not report.ok and report.index == 0
        assert validate_stream([insert(0, 4, 1)], n=5).ok

    def test_ok_report(self):
        report = validate_stream([insert(0, 1, 2)])
        assert report.ok and report.index == -1


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
        write_stream(path, stream)
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

    def test_delete_rejected_in_insert_mode(self):
        with pytest.raises(MalformedStream):
            read_stream(io.StringIO("4 1 ins\n- 0 1 2\n"))

    def test_bad_element_line(self):
        for line in ("* 0 1 2", "+ 0 1 x", "+ 0 a 2"):
            with pytest.raises(MalformedStream):
                read_stream(io.StringIO(f"4 1 ins\n{line}\n"))

    def test_blank_lines_skipped(self):
        stream = read_stream(io.StringIO("4 1 ins\n\n+ 0 1 2\n\n"))
        assert len(stream.elements) == 1

    def test_endpoints_canonicalized_on_read(self):
        stream = read_stream(io.StringIO("4 1 ins\n+ 3 1 2\n"))
        assert stream.elements[0].edge == Edge(1, 3, 2)

    def test_ops_are_plus_minus(self):
        assert INSERT == "+" and DELETE == "-"

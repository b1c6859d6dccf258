"""The edge rule, asked by every door that takes an edge.

Every door refuses the same bad edges with its own typed error and the
rule's reason, a refused edge leaves a matcher as it was, and a good
edge passes every door.
"""

import math
import random

import pytest

from streamkmatch import (
    DynamicMatcher,
    Edge,
    INSERT,
    InsertMatcher,
    InvalidParameter,
    MalformedStream,
    StreamElement,
    edge,
    edge_fault,
    edge_index,
    insert,
    materialize,
)

N = 10
GOOD = (2, 5, 7)

# (id, what the case breaks, u, v, wt): "pair" and "bound" break the
# endpoints, the second only under a vertex count; "weight" breaks the
# weight of a good pair
BAD = [
    ("float-vertex", "pair", 0.5, 1, 5),
    ("integral-float-vertex", "pair", 0, 1.0, 5),
    ("str-vertex", "pair", "0", 1, 5),
    ("str-weight", "weight", 0, 1, "5"),
    ("none-weight", "weight", 0, 1, None),
    ("nan-weight", "weight", 0, 1, math.nan),
    ("inf-weight", "weight", 0, 1, math.inf),
    ("negative-weight", "weight", 0, 1, -3),
    ("self-loop", "pair", 3, 3, 5),
    ("negative-vertex", "pair", -1, 2, 5),
    ("vertex-past-n", "bound", 3, N, 5),
]


def door_edge(u, v, wt):
    return edge(u, v, wt, N)


def door_insert(u, v, wt):
    return insert(u, v, wt)


def door_materialize(u, v, wt):
    return materialize([insert(8, 9, 1), StreamElement(Edge(u, v, wt), INSERT)], N)


def door_edge_index(u, v, wt):
    return edge_index(u, v, N)


def door_insert_matcher(u, v, wt):
    m = InsertMatcher(N, 1, 0.25, random.Random(6))
    try:
        m.process_insert(Edge(u, v, wt))
    except (InvalidParameter, MalformedStream):
        assert m.arrivals == 0 and m.stored_edges == 0 and not m.filling
        raise
    return m.query()


def door_dynamic_matcher(u, v, wt):
    m = DynamicMatcher(N, 1, random.Random(6))
    try:
        m.process_update(StreamElement(Edge(u, v, wt), INSERT))
    except (InvalidParameter, MalformedStream):
        assert m.updates == 0 and not m.tops and not m.cells
        raise
    return m.query()


DOORS = [door_edge, door_insert, door_materialize, door_edge_index,
         door_insert_matcher, door_dynamic_matcher]


def applies(door, breaks):
    """insert takes no vertex count; edge_index takes no weight."""
    return not (door is door_insert and breaks == "bound"
                or door is door_edge_index and breaks == "weight")


def door_error(door, wt):
    if door in (door_edge, door_insert, door_edge_index):
        return InvalidParameter
    if door is door_dynamic_matcher and not isinstance(wt, int):
        return InvalidParameter  # the dynamic mode's own rule, asked first
    return MalformedStream


@pytest.mark.parametrize("door, u, v, wt", [
    pytest.param(door, u, v, wt, id=f"{door.__name__[5:]}-{name}")
    for door in DOORS for name, breaks, u, v, wt in BAD if applies(door, breaks)
])
def test_every_door_refuses_a_bad_edge(door, u, v, wt):
    error = door_error(door, wt)
    with pytest.raises(error) as exc:
        door(u, v, wt)
    assert type(exc.value) is error
    if error is MalformedStream:
        assert exc.value.index == (1 if door is door_materialize else 0)
    if door is door_dynamic_matcher and error is InvalidParameter:
        assert "must be integers" in str(exc.value)
    else:
        # the door's reason is the rule's, under the door's vertex count
        n = math.inf if door is door_insert else N
        assert str(exc.value).endswith(edge_fault(u, v, wt, n))


@pytest.mark.parametrize("door", DOORS, ids=lambda d: d.__name__[5:])
def test_every_door_accepts_a_good_edge(door):
    assert edge_fault(*GOOD, N) is None
    got = door(*GOOD)
    expected = {
        door_edge: Edge(*GOOD),
        door_insert: StreamElement(Edge(*GOOD), INSERT),
        door_materialize: [Edge(*GOOD), Edge(8, 9, 1)],
        door_edge_index: 19,  # after 9 ids in row 0 and 8 in row 1
    }
    if door in expected:
        assert got == expected[door]
    else:
        assert got.edges == (Edge(*GOOD),)


def test_builders_swap_a_reversed_pair_and_matcher_doors_refuse_it():
    assert edge(5, 2, 7, N) == insert(5, 2, 7).edge == Edge(*GOOD)
    assert materialize([StreamElement(Edge(5, 2, 7), INSERT)], N) == [Edge(*GOOD)]
    assert edge_fault(5, 2, 7, N) is not None
    for door in (door_edge_index, door_insert_matcher, door_dynamic_matcher):
        with pytest.raises((InvalidParameter, MalformedStream)):
            door(5, 2, 7)


def test_the_default_weight_checks_endpoints_alone():
    assert edge_fault(0, 1) is None and edge_fault(0, 1, n=2) is None
    assert edge_fault(0, 2, n=2) is not None
    assert edge_fault(0, 2) is None  # no vertex count, no upper bound

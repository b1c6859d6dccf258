"""The benchmark's tracer patches package names; each must still exist.

perfbench/tracing.py wraps layers at the names where the calling
modules look them up.  A package change that drops one of those names
makes every traced benchmark run fail, so this test installs and
uninstalls the tracer and checks that each patched attribute is back.
"""

import importlib.util
import os
import random

import pytest

from streamkmatch import (
    DynamicMatcher,
    Edge,
    InsertMatcher,
    ReducerState,
    delete,
    dynamic_matcher,
    hashing,
    insert,
    insert_matcher,
    reducer,
)

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")
MODULES = (dynamic_matcher, hashing, insert_matcher, reducer)


@pytest.fixture
def tracing():
    if not os.path.exists(TRACING):
        pytest.skip("perfbench/tracing.py is absent")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_then_uninstall_restores_every_patched_name(tracing):
    before = [dict(vars(m)) for m in MODULES]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [(m.__name__, name) for m, names in zip(MODULES, before)
                   for name, value in names.items() if vars(m)[name] is not value]
        assert patched  # the tracer took hold somewhere
        m = InsertMatcher(10, 1, 0.5, random.Random(1))
        for u in range(0, 8, 2):
            m.process_insert(Edge(u, u + 1, u))
        m.query()
        assert tracer.counted(None, "solve.calls") == 1
    finally:
        tracer.uninstall()
    for m, names in zip(MODULES, before):
        assert {n: v for n, v in vars(m).items() if n in names} == names, m.__name__


def test_traced_dynamic_update_counts_level_hashes(tracing):
    # the tracer rebuilds each level hash from hashing.random_kwise's
    # fields, so the traced grid must draw the same hashes and z as the
    # plain one, and its level-hash calls must be counted.  At eps = 1/2,
    # weights 4 and 5 share key 4: the delete leaves count 0 with a
    # non-zero cell, which makes every touched sampler full and so
    # evaluates the level hashes.
    def run():
        m = DynamicMatcher(8, 1, random.Random(5), epsilon=0.5)
        m.process_update(insert(0, 1, 4))
        m.process_update(delete(0, 1, 5))
        return m

    plain = run()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run()
        assert type(traced.level_hashes[0]).__name__ == "CountingKWiseHash"
    finally:
        tracer.uninstall()
    assert traced.level_hashes == plain.level_hashes and traced.z == plain.z
    assert traced._full and traced.tops == plain.tops and traced.cells == plain.cells
    assert tracer.counted(None, "hash.level") > 0


def test_traced_reducer_steps_equal_the_untraced_units(tracing):
    # k = 1, eps = 1/2: one hash, segments of 4 arrivals, 79 units per
    # arrival; three arrivals after the last boundary finish its reduction
    edges = [Edge(i, i + 1 + i % 3, i % 7) for i in range(23)]
    plain = InsertMatcher(30, 1, 0.5, random.Random(2))
    generations = []
    for e in edges:
        plain.process_insert(e)
        if plain.reducers and not (generations and plain.reducers is generations[-1]):
            generations.append(plain.reducers)
    assert len(generations) == 5 and all(red.done for red in plain.reducers)
    units = sum(ReducerState(red.edges, red.f, red.k, red.carry).step_upto(1 << 30)
                for reducers in generations for red in reducers)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m = InsertMatcher(30, 1, 0.5, random.Random(2))
        for e in edges:
            m.process_insert(e)
        assert type(m.reducers[0]).__name__ == "TracedReducerState"
    finally:
        tracer.uninstall()
    assert units > 0
    assert tracer.counted(None, "reducer.steps") == units

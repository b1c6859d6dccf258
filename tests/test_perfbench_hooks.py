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

from streamkmatch import Edge, InsertMatcher, dynamic_matcher, hashing, insert_matcher, reducer

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

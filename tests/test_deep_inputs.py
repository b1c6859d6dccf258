"""Inputs deep enough to reach Python's recursion limit, had any door
recursed once per chosen edge or augmenting step."""

import io
from contextlib import redirect_stdout

import pytest

from streamkmatch import (
    Edge,
    Stream,
    bipartite_matching_size,
    insert,
    max_weight_k_matching,
    stream_to_text,
)
from streamkmatch.cli import main

K = 1200  # past the default recursion limit of 1 000


def _disjoint(k):
    return [Edge(2 * i, 2 * i + 1, 1 + i % 3) for i in range(k)]


def test_solver_takes_every_one_of_k_disjoint_edges():
    answer = max_weight_k_matching(_disjoint(K), K)
    assert answer.edges == tuple(sorted(_disjoint(K), key=lambda e: e.beta))


@pytest.mark.parametrize("command", ["oracle", "run-ins"])
def test_cli_solves_k_disjoint_edges(tmp_path, command):
    stream = Stream(2 * K, K, "ins", tuple(insert(*e) for e in _disjoint(K)))
    path = tmp_path / "deep.txt"
    path.write_text(stream_to_text(stream))
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main([command, str(path)])
    assert code == 0
    lines = buf.getvalue().splitlines()
    assert len([ln for ln in lines if not ln.startswith(("#", "weight"))]) == K
    assert f"weight {sum(e.wt for e in _disjoint(K))}" in lines


def test_bipartite_matching_on_a_long_path():
    path = [Edge(i, i + 1, 1) for i in range(1999)]  # 2 000 vertices
    assert bipartite_matching_size(path) == 1000
    assert bipartite_matching_size(path, need=700) == 700

"""Seeded fuzz: every door gives an answer or a typed error.

Streams and parameters are drawn across the range the library admits:
tiny epsilon and delta, huge n, k up to and past n/2, weight 0, float
and huge weights, duplicate inserts and phantom deletes.  Some streams
are then mutated into malformed text.  Each goes through the matchers,
the oracle and `cli.main`; each must answer, or raise InvalidParameter
or MalformedStream (exit 2 at the CLI).  Where an invariant is exact it
is checked:

  * an answer to a valid stream is k disjoint live edges, at their live
    weights, ranked no better than the oracle's answer by `preference`;
  * a grid sharded in two and merged has the sequential grid's
    dense_cells();
  * validate mode stops with materialize's message.

The batch runs in a child process under a timeout, because a signal
cannot interrupt one long big-int pow in the process that runs it.
Run a batch by hand with `python tests/test_fuzz.py SEED CASES`.
"""

from __future__ import annotations

import io
import os
import random
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from streamkmatch import (
    DELETE,
    INSERT,
    NO_K_MATCHING,
    DynamicMatcher,
    Edge,
    InsertMatcher,
    InvalidParameter,
    MalformedStream,
    Stream,
    StreamElement,
    materialize,
    max_weight_k_matching,
    read_stream,
    stream_to_text,
)
from streamkmatch.cli import main as cli_main
from streamkmatch.solver import preference

SEED = 16
CASES = 160
TIMEOUT_S = 120

SRC = Path(__file__).resolve().parents[1] / "src"


def test_fuzz_batch():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, __file__, str(SEED), str(CASES)],
        capture_output=True, text=True, timeout=TIMEOUT_S, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert f"{CASES} cases" in proc.stdout


# -- the batch, run in the child process --------------------------------


def _draw_weight(rng, mode):
    w = rng.choice([0, 1, 2, rng.randint(0, 9), rng.randint(0, 10**6), 2**64 + 1, 10**400])
    if mode == "ins" and rng.random() < 0.4:
        w = rng.choice([0.0, 5e-324, rng.random() * 10, 1e300, float(w) if w < 10**300 else 0.5])
    return w


def _draw_case(rng):
    """(stream, matcher parameters) drawn across the admitted range."""
    mode = rng.choice(["ins", "dyn"])
    if rng.random() < 0.15:
        n = rng.choice([2**40, 2**64 + 13, 10**30])  # edges stay on low ids
        k = rng.randint(1, 3)
    else:
        n = rng.randint(2, 14)
        k = rng.choice([1, 2, n // 2, n // 2, n // 2 + 1, rng.randint(1, max(1, n // 2))])
    if rng.random() < 0.05:
        k = rng.choice([0, -1])
    span = min(n, 14)
    live = {}
    elements = []
    for _ in range(rng.randint(0, 24)):
        op = INSERT
        if mode == "dyn" and rng.random() < 0.35:
            op = DELETE
        if op == DELETE and live and rng.random() < 0.8:
            (u, v), w = rng.choice(sorted(live.items(), key=lambda p: p[0]))
        elif op == INSERT and live and rng.random() < 0.1:  # a duplicate insert
            (u, v), w = rng.choice(sorted(live.items(), key=lambda p: p[0]))
        else:  # a fresh edge, or a phantom delete
            u, v = sorted(rng.sample(range(span), 2))
            w = _draw_weight(rng, mode)
        if op == INSERT:
            live[(u, v)] = w
        else:
            live.pop((u, v), None)
        elements.append(StreamElement(Edge(u, v, w), op))
    if mode == "ins":
        params = {"epsilon": rng.choice([0.5, 0.25, 1 / 16, 1e-3, 1e-12, 1e-300])}
    else:
        params = {
            "epsilon": rng.choice([None, None, 0.5, 0.1, 1e-6, 1e-9, 1e-20, 1e-310]),
            "delta": rng.choice([None, None, 0.5, 0.01, 1e-9]),
        }
    return Stream(n, k, mode, tuple(elements)), params


_GARBAGE = ["x", "-1", "nan", "inf", "-inf", "1e400", "2.5", "+", "-", "*",
            "9" * 5000, "0", "3 3"]


def _mutate(text, rng):
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.randrange(5)
        if kind == 0:
            tokens = lines[i].split() or [""]
            tokens[rng.randrange(len(tokens))] = rng.choice(_GARBAGE)
            lines[i] = " ".join(tokens)
        elif kind == 1:
            del lines[i]
            if not lines:
                lines = [""]
        elif kind == 2:
            lines.insert(i, lines[i])
        elif kind == 3:
            lines[i] = lines[i][: rng.randrange(len(lines[i]) + 1)]
        else:
            lines.insert(i + 1, rng.choice(["+ 1 1 1", "- 0 1 5", "+ 0 99999 1", "+ -3 2 1"]))
    return "\n".join(lines) + "\n"


def _check_answer(ans, live, oracle, k):
    if ans is NO_K_MATCHING:
        return
    assert oracle is not NO_K_MATCHING, f"answered {ans} where the oracle has none"
    assert len(ans.edges) == k, ans
    ends = [x for e in ans.edges for x in (e.u, e.v)]
    assert len(set(ends)) == len(ends), f"{ans} shares an endpoint"
    live_set = set(live)
    assert all(e in live_set for e in ans.edges), f"{ans} is not made of live edges"
    assert preference(oracle) <= preference(ans), f"{ans} beats the oracle's {oracle}"


def _cli(argv, json_out=False):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv + ["--format", "json"] if json_out else argv)
    assert code in (0, 2), (argv, code, err.getvalue())
    return code


def _run_case(stream, params, text, seed, tmp):
    """Run one case through every door; raise AssertionError or an
    untyped exception on a fault."""
    typed = (InvalidParameter, MalformedStream)
    try:
        live = materialize(stream.elements, stream.n)
    except MalformedStream as exc:
        live, bad = None, str(exc)
    oracle = None
    if live is not None:
        try:
            oracle = max_weight_k_matching(live, stream.k)
        except InvalidParameter:
            pass
    path = os.path.join(tmp, "s.txt")
    with open(path, "w") as fh:
        fh.write(text)
    code = _cli(["oracle", path], seed % 2)
    assert code == (0 if oracle is not None else 2), ("oracle", code)

    k = stream.k
    if stream.mode == "ins":
        eps = params["epsilon"]
        try:
            m = InsertMatcher(stream.n, k, eps, random.Random(seed))
            for el in stream.elements:
                m.process_insert(el.edge)
            ans, failed = m.query(), False
        except typed:
            ans, failed = None, True
        if live is not None and not failed:
            _check_answer(ans, live, oracle, k)
        code = _cli(["run-ins", path, "--epsilon", repr(eps), "--seed", str(seed)], seed % 2)
        assert code == (2 if failed else 0), ("run-ins", code, failed)
        return

    eps, delta = params["epsilon"], params["delta"]

    def grid(validate=False):
        return DynamicMatcher(stream.n, k, random.Random(seed), epsilon=eps,
                              delta=delta, validate=validate)

    try:
        seq = grid()
        for el in stream.elements:
            seq.process_update(el)
        ans, failed = seq.query(), False
    except typed:
        failed = True
    if not failed:
        if live is not None:
            _check_answer(ans, live, oracle, k)
        # two shards merged equal the sequential grid
        part = random.Random(seed + 1)
        shards = [grid(), grid()]
        for el in stream.elements:
            shards[part.randrange(2)].process_update(el)
        shards[0].merge_from(shards[1])
        assert shards[0].dense_cells() == seq.dense_cells(), "sharded cells differ"
        # validate mode stops with materialize's message
        checked = grid(validate=True)
        try:
            for el in stream.elements:
                checked.process_update(el)
            stopped = None
        except MalformedStream as exc:
            stopped = str(exc)
        expected = None if live is not None else bad
        assert stopped == expected, (stopped, expected)
    argv = ["run-dyn", path, "--seed", str(seed)]
    if eps is not None:
        argv += ["--epsilon", repr(eps)]
    if delta is not None:
        argv += ["--delta-override", repr(delta)]
    code = _cli(argv, seed % 2)
    assert code == (2 if failed else 0), ("run-dyn", code, failed)


def _run_mutant(text, params, seed, tmp):
    """Malformed text: each door answers or gives a typed error."""
    path = os.path.join(tmp, "m.txt")
    with open(path, "w") as fh:
        fh.write(text)
    eps = params["epsilon"]
    _cli(["oracle", path])
    _cli(["run-ins", path, "--epsilon", repr(eps or 0.5)])
    _cli(["run-dyn", path] + (["--epsilon", repr(eps)] if eps else []))
    try:
        stream = read_stream(io.StringIO(text))
    except MalformedStream:
        return
    _run_case(stream, params, text, seed, tmp)


def main(seed: int, cases: int) -> int:
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for case in range(cases):
            stream, params = _draw_case(rng)
            text = stream_to_text(stream)
            mutant = _mutate(text, rng) if rng.random() < 0.3 else None
            try:
                _run_case(stream, params, text, case, tmp)
                if mutant is not None:
                    _run_mutant(mutant, params, case, tmp)
            except Exception:
                print(f"case {case} (seed {seed}) failed; params {params}")
                print(text if mutant is None else text + "-- mutated to --\n" + mutant)
                traceback.print_exc(file=sys.stdout)
                return 1
    print(f"{cases} cases passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))

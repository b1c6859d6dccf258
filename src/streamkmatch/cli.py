"""Command-line front end.

Subcommands:
  gen      write a stream file (random / index-hard / partial-max families)
  run-ins  feed an insert-only stream to the streaming matcher
  run-dyn  feed a dynamic stream to the sampler-grid matcher
  oracle   materialize a stream and solve exactly (the reference answer)
  accept   run the acceptance suite, one pass/fail line per criterion

"No k-matching" is a reported answer, not an error.  Exit status 2 means
a usage error or a malformed stream; 1 means a failed acceptance
criterion.  Latency and throughput are measured by perfbench/run.py.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import acceptance
from .core import (
    MODE_DYNAMIC,
    MODE_INSERT_ONLY,
    InvalidParameter,
    MalformedStream,
    materialize,
    read_stream,
    stream_to_text,
)
from .dynamic_matcher import DynamicMatcher
from .generators import gen_index_hard, gen_partial_max_hard, gen_random_stream
from .insert_matcher import InsertMatcher
from .solver import NO_K_MATCHING, max_weight_k_matching


def _emit_matching(answer, stats, fmt, out):
    if fmt == "json":
        payload = {
            "found": answer is not NO_K_MATCHING,
            "matching": []
            if answer is NO_K_MATCHING
            else [[e.u, e.v, e.wt] for e in answer.edges],
            "weight": None if answer is NO_K_MATCHING else answer.weight,
            "stats": stats,
        }
        # default=str writes an exact Fraction weight as "p/q"
        out.write(json.dumps(payload, indent=2, default=str) + "\n")
        return
    if answer is NO_K_MATCHING:
        out.write("no k-matching\n")
    else:
        for e in answer.edges:
            out.write(f"{e.u} {e.v} {e.wt}\n")
        out.write(f"weight {answer.weight}\n")
    for key in sorted(stats):
        out.write(f"# {key} {stats[key]}\n")


def _ints(text, option):
    """A comma-separated integer list; an empty option gives []."""
    try:
        return [int(t) for t in text.split(",")] if text else []
    except ValueError:
        raise InvalidParameter(f"{option} takes integers, not {text!r}") from None


def _load(path):
    if path == "-":
        return read_stream(sys.stdin)
    return read_stream(path)


def _cmd_gen(args, out):
    if args.family == "random":
        if args.n is None:
            raise InvalidParameter("gen --family random needs --n")
        stream = gen_random_stream(
            args.n,
            args.k,
            args.edges,
            seed=args.seed,
            mode=args.mode,
            deletes=args.deletes,
            weight_min=args.weight_min,
            weight_max=args.weight_max,
        )
    elif args.family == "index-hard":
        stream = gen_index_hard(args.m, args.x, args.z, n=args.n)
    else:
        values = _ints(args.values, "--values")
        stream = gen_partial_max_hard(values, _ints(args.deleted, "--deleted"), n=args.n)
    text = stream_to_text(stream)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return 0


def _cmd_run_ins(args, out):
    stream = _load(args.stream)
    if stream.mode != MODE_INSERT_ONLY:
        raise InvalidParameter("run-ins expects an insert-only stream")
    k = stream.k if args.k is None else args.k
    matcher = InsertMatcher(stream.n, k, args.epsilon, random.Random(args.seed))
    for el in stream.elements:
        matcher.process_insert(el.edge)
    _emit_matching(matcher.query(), matcher.stats(), args.format, out)
    return 0


def _cmd_run_dyn(args, out):
    stream = _load(args.stream)
    if stream.mode != MODE_DYNAMIC:
        raise InvalidParameter("run-dyn expects a dynamic stream")
    k = stream.k if args.k is None else args.k
    matcher = DynamicMatcher(
        stream.n,
        k,
        random.Random(args.seed),
        epsilon=args.epsilon,
        delta=args.delta_override,
    )
    for el in stream.elements:
        matcher.process_update(el)
    answer = matcher.query()
    _emit_matching(answer, matcher.stats(), args.format, out)
    return 0


def _cmd_oracle(args, out):
    stream = _load(args.stream)
    live = materialize(stream.elements, stream.n)
    k = stream.k if args.k is None else args.k
    _emit_matching(max_weight_k_matching(live, k), {"edges_live": len(live)},
                   args.format, out)
    return 0


def _cmd_accept(args, out):
    numbers = set(_ints(args.only, "--only"))
    results = acceptance.run_all(numbers, report=lambda line: out.write(line + "\n"))
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamkmatch",
        description="Streaming maximum-weight k-matching toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a stream file")
    p.add_argument("--family", choices=("random", "index-hard", "partial-max"),
                   default="random")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--edges", type=int, default=100)
    p.add_argument("--deletes", type=int, default=0)
    p.add_argument("--mode", choices=(MODE_INSERT_ONLY, MODE_DYNAMIC),
                   default=MODE_INSERT_ONLY)
    p.add_argument("--weight-min", type=int, default=1)
    p.add_argument("--weight-max", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=4, help="index-hard: bit count")
    p.add_argument("--x", default="1010", help="index-hard: bit string")
    p.add_argument("--z", type=int, default=1, help="index-hard: probed bit")
    p.add_argument("--values", default="3,9,7", help="partial-max: values")
    p.add_argument("--deleted", default="", help="partial-max: deleted indices")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("run-ins", help="stream an insert-only file")
    p.add_argument("stream")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=1 / 16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_run_ins)

    p = sub.add_parser("run-dyn", help="stream a dynamic file")
    p.add_argument("stream")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--epsilon", type=float, default=None,
                   help="enable weight-rounding approximation")
    p.add_argument("--delta-override", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_run_dyn)

    p = sub.add_parser("oracle", help="materialize and solve exactly")
    p.add_argument("stream")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_oracle)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", default=None, help="comma-separated criteria")
    p.set_defaults(fn=_cmd_accept)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args, sys.stdout)
    except (InvalidParameter, MalformedStream, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

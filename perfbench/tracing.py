"""Per-layer tracing from outside the package.

Span times are thread CPU time, like every timing of the benchmark.
A Tracer wraps the layers' public functions and classes at the names
where the calling module looks them up (install()/uninstall()), and the
benchmark's own calls into the matchers (top()).  Each wrapped call is
a span.  Spans keep parent links; a span's self time is its duration
minus its children's.  Durations are aggregated as the run goes, per
span name and the top-level call ("update", "query", "merge") they
happened in; the first `keep` span records are held in memory and
written out when the run ends.  Counts that are too fine-grained to
time (hash evaluations) are counted, not timed, and attributed to the
top-level span they happened in ("update" or "query").
"""

from __future__ import annotations

import json
import time

from streamkmatch import dynamic_matcher, hashing, insert_matcher, reducer


class Tracer:
    def __init__(self, keep: int = 50_000):
        self.keep = keep
        self.spans = []    # (id, parent id, name, start s, end s)
        self.stack = []    # open spans: [id, child seconds]
        self.agg = {}      # (top-level name, name) -> [calls, total s, self s]
        self.counts = {}   # (top-level span name, counter) -> total
        self.top_name = None
        self.step_sum = 0  # reducer steps inside the current update
        self.steps_max = 0
        self._next = 1
        self._saved = []

    # -- spans -------------------------------------------------------

    def span(self, name, fn):
        """fn wrapped so that each call is a span called `name`."""
        stack, agg, spans, pc = self.stack, self.agg, self.spans, time.thread_time

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][1] += dt
                key = (self.top_name, name)
                rec = agg.get(key)
                if rec is None:
                    rec = agg[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if len(spans) < self.keep:
                    spans.append((sid, parent, name, t0, t1))

        return traced

    def top(self, name, fn, after=None):
        """A benchmark-level call (update or query): a root span that
        also scopes the counters."""
        inner = self.span(name, fn)

        def traced(*args):
            self.top_name = name
            self.step_sum = 0
            try:
                return inner(*args)
            finally:
                if name == "update" and self.step_sum > self.steps_max:
                    self.steps_max = self.step_sum
                if after is not None:
                    after()
                self.top_name = None

        return traced

    def count(self, counter, amount=1):
        key = (self.top_name, counter)
        self.counts[key] = self.counts.get(key, 0) + amount

    def total(self, scope, name) -> float:
        return self.agg.get((scope, name), (0, 0.0, 0.0))[1]

    def self_time(self, scope, name) -> float:
        return self.agg.get((scope, name), (0, 0.0, 0.0))[2]

    def counted(self, scope, counter) -> int:
        return self.counts.get((scope, counter), 0)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for sid, parent, name, t0, t1 in self.spans:
                out.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                      "start_s": t0, "end_s": t1}) + "\n")

    # -- wrapping the layers -------------------------------------------

    def _patch(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> None:
        """Wrap the layers where their callers look them up."""
        tracer = self

        class CountingUniversalHash(hashing.UniversalHash):
            __slots__ = ()

            def __call__(self, x):
                tracer.count("hash.bucket")
                return hashing.UniversalHash.__call__(self, x)

        class CountingKWiseHash(hashing.KWiseHash):
            __slots__ = ()

            def __call__(self, x):
                tracer.count("hash.level")
                return hashing.KWiseHash.__call__(self, x)

        def counting_universal(r, rng):
            return CountingUniversalHash(*hashing.random_universal(r, rng))

        def counting_kwise(kappa, r, rng):
            return CountingKWiseHash(*hashing.random_kwise(kappa, r, rng))

        step_upto = self.span("reducer.step_upto", reducer.ReducerState.step_upto)
        drain = self.span("query.drain", reducer.ReducerState.run_to_completion)

        class TracedReducerState(reducer.ReducerState):
            def step_upto(self, limit):
                steps = step_upto(self, limit)
                tracer.count("reducer.steps", steps)
                tracer.step_sum += steps
                return steps

            def run_to_completion(self):
                return drain(self)

        solve = self.span("solve", insert_matcher.max_weight_k_matching)

        def traced_solve(edges, k):
            tracer.count("solve.calls")
            tracer.count("solve.edges_in", len(edges))
            return solve(edges, k)

        scheme_eval = self.span("hash.scheme_eval", dynamic_matcher.scheme_eval)

        def counted_scheme_eval(s, x):
            tracer.count("hash.vertex")
            return scheme_eval(s, x)

        self._patch(reducer, "random_universal", counting_universal)
        self._patch(insert_matcher, "ReducerState", TracedReducerState)
        self._patch(insert_matcher, "reduce", self.span("query.reduce", insert_matcher.reduce))
        self._patch(insert_matcher, "max_weight_k_matching", traced_solve)
        self._patch(dynamic_matcher, "max_weight_k_matching", traced_solve)
        self._patch(dynamic_matcher, "scheme_eval", counted_scheme_eval)
        self._patch(dynamic_matcher, "random_kwise", counting_kwise)
        self._patch(dynamic_matcher, "round_weight",
                    self.span("round_weight", dynamic_matcher.round_weight))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

"""Desk-scale acceptance suite: ten pass/fail checks.

Each criterion exercises one headline guarantee of the toolkit
(sketch equivalence, success probabilities, work and space budgets,
sampler contracts, solver agreement, adversarial generators) at fixed
seeds and sizes, against independent recomputation wherever possible.
Run them all via run_all() or the `accept` CLI subcommand.
"""

from __future__ import annotations

import math
import random
import time
from typing import NamedTuple

from .core import Edge, InvalidParameter, edge, edge_at_index, materialize
from .dynamic_matcher import FAIL, DynamicMatcher, L0Sampler
from .generators import (
    bipartite_matching_size,
    gen_index_hard,
    gen_partial_max_hard,
    gen_random_stream,
    interleave_deletes,
)
from .hashing import build_hash_scheme, distinguishes
from .insert_matcher import InsertMatcher
from .solver import NO_K_MATCHING, brute_force_oracle, max_weight_k_matching


class CriterionResult(NamedTuple):
    number: int
    name: str
    ok: bool
    detail: str
    seconds: float


def _answers_match(a, b) -> bool:
    if a is NO_K_MATCHING or b is NO_K_MATCHING:
        return a is b
    return a.weight == b.weight


def _definitional_reduced(edges, f, k):
    """Independent straight-line recompute of the reduced subgraph."""
    best = {}
    for e in edges:
        i, j = f(e.u), f(e.v)
        if i == j:
            continue
        pair = (i, j) if i < j else (j, i)
        cur = best.get(pair)
        if cur is None or e.beta > cur[1].beta:
            best[pair] = (pair, e)
    incident = {}
    for pair, e in best.values():
        incident.setdefault(pair[0], []).append(e)
        incident.setdefault(pair[1], []).append(e)
    marks = {}
    for bucket in incident.values():
        bucket.sort(key=lambda e: e.beta, reverse=True)
        for e in bucket[: 2 * k]:
            marks[e] = marks.get(e, 0) + 1
    survivors = [e for _, e in best.values() if marks.get(e, 0) == 2]
    survivors.sort(key=lambda e: e.beta, reverse=True)
    return set(survivors[: 4 * k * k])


def criterion_1():
    """Incremental sketches equal their definitional recompute at every
    segment boundary.

    This check is expected to fail, and the failure is structural, not a
    bug in the incremental path.  Two different prefixes can reduce to
    the *same* bounded sketch yet have *different* definitional
    reductions after the same next segment (an 8-edge witness exists at
    k=1: dropping one already-trimmed edge from the prefix leaves the
    sketch unchanged but changes the reduction of the extended prefix).
    Hence no recurrence whose only carried state is the reduced sketch
    can reproduce the definitional reduction set-exactly at every
    boundary.  The discrepancy only ever concerns edges outside every
    maximum-weight k-matching of the sketch, so the answer-level
    guarantees (criteria 2-4) are unaffected; the detail string reports
    how often mismatched sketches still agreed on the answer.
    """
    bad = 0
    checked = 0
    answer_disagreements = 0
    for trial in range(100):
        rng = random.Random(11_000 + trial)
        k = trial % 4 + 1
        n = rng.randint(10, 60)
        universe = n * (n - 1) // 2
        count = min(rng.randint(50, 600), universe)
        stream = gen_random_stream(n, k, count, seed=rng.randrange(1 << 30))
        matcher = InsertMatcher(n, k, 0.25, random.Random(rng.randrange(1 << 30)))
        prefix = []
        seg = matcher.segment_size
        for el in stream.elements:
            matcher.process_insert(el.edge)
            prefix.append(el.edge)
            if matcher.arrivals % seg == 0:
                sketches = matcher.boundary_sketches()
                for f, sketch in zip(matcher.hashes, sketches):
                    checked += 1
                    definitional = _definitional_reduced(prefix, f, k)
                    if set(sketch) != definitional:
                        bad += 1
                        got = max_weight_k_matching(list(sketch), k)
                        want = max_weight_k_matching(list(definitional), k)
                        if not _answers_match(got, want):
                            answer_disagreements += 1
    ok = bad == 0
    detail = f"{checked} boundary sketches checked, {bad} mismatches"
    if bad:
        detail += (
            f" ({answer_disagreements} affected the sketch answer);"
            " set-exact boundary equality is unattainable for any"
            " sketch-state recurrence (two prefixes with identical"
            " sketches can reduce differently after the same segment)"
        )
    return ok, detail


def criterion_2():
    """Insert-only answers are optimal in at least 90% of seeded trials,
    and never miss a no-k-matching verdict."""
    hits = 0
    trials = 200
    for trial in range(trials):
        seed = 21_000 + trial
        stream = gen_random_stream(100, 3, 500, seed=seed)
        matcher = InsertMatcher(100, 3, 1 / 16, random.Random(seed * 7 + 1))
        for el in stream.elements:
            matcher.process_insert(el.edge)
        answer = matcher.query()
        truth = max_weight_k_matching(materialize(stream.elements), 3)
        if truth is NO_K_MATCHING and answer is not NO_K_MATCHING:
            return False, f"trial {trial}: matched a graph with no 3-matching"
        if _answers_match(answer, truth):
            hits += 1
    ok = hits >= 0.90 * trials
    return ok, f"optimal in {hits}/{trials} trials (need >= 180)"


def criterion_3():
    """Per-insert work is capped by the same constant budget regardless
    of stream position and vertex count."""
    k, eps = 3, 1 / 16
    maxima = []
    budget = None
    for n in (100, 1_000, 10_000):
        rng = random.Random(31_000 + n)
        matcher = InsertMatcher(n, k, eps, random.Random(31_001 + n))
        budget = matcher.budget
        for _ in range(100_000):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            matcher.process_insert(edge(u, v, rng.randint(1, 10_000)))
        maxima.append(matcher.max_steps_per_insert)
    ok = len(set(maxima)) == 1 and maxima[0] <= budget
    return ok, f"per-insert micro-step maxima {maxima}, budget {budget}"


def criterion_4():
    """Peak stored edges stay under the guaranteed space ceiling."""
    violations = 0
    runs = 0
    for trial in range(30):
        rng = random.Random(41_000 + trial)
        k = trial % 4 + 1
        eps = (0.5, 0.25, 1 / 16)[trial % 3]
        n = 60
        count = min(rng.randint(100, 600), n * (n - 1) // 2)
        stream = gen_random_stream(n, k, count, seed=rng.randrange(1 << 30))
        matcher = InsertMatcher(n, k, eps, random.Random(rng.randrange(1 << 30)))
        for el in stream.elements:
            matcher.process_insert(el.edge)
        runs += 1
        if matcher.peak_stored_edges > matcher.space_bound:
            violations += 1
    ok = violations == 0
    return ok, f"{runs} runs, {violations} space-bound violations"


def criterion_5():
    """A random scheme distinguishes a random 8-subset of a 1e5 universe
    in at least 99% of trials."""
    hits = 0
    trials = 1_000
    universe = 100_000
    for trial in range(trials):
        rng = random.Random(51_000 + trial)
        scheme = build_hash_scheme(universe, 8, rng)
        subset = rng.sample(range(universe), 8)
        if distinguishes(scheme, subset):
            hits += 1
    ok = hits >= 990
    return ok, f"distinguished {hits}/{trials} subsets (need >= 990)"


def criterion_6():
    """Sampler failure rate within the one-sided binomial bound at
    delta = 0.01, and conditional sampling close to uniform."""
    delta = 0.01
    universe = 1_024
    trials = 20_000
    setup = random.Random(61_000)
    chosen = setup.sample(range(universe), 32)
    support = sorted(chosen[:16])
    extras = chosen[16:]
    updates = [(i, 1) for i in chosen] + [(i, -1) for i in extras]
    setup.shuffle(updates)
    fails = 0
    tally = dict.fromkeys(support, 0)
    for trial in range(trials):
        sampler = L0Sampler(universe, delta, random.Random(61_001 + trial))
        for index, d in updates:
            sampler.update(index, d)
        got = sampler.query()
        if got is FAIL:
            fails += 1
        else:
            if got.index not in tally or got.count != 1:
                return False, f"trial {trial}: decoded dead index {got}"
            tally[got.index] += 1
    mean = trials * delta
    limit = math.ceil(mean + 2.326 * math.sqrt(trials * delta * (1 - delta)))
    succ = trials - fails
    tv = 0.5 * sum(abs(c / succ - 1 / 16) for c in tally.values())
    ok = fails <= limit and tv <= 0.05
    return ok, f"fails {fails} (limit {limit}), TV distance {tv:.4f} (limit 0.05)"


def criterion_7():
    """Dynamic answers are optimal in at least 95% of seeded trials."""
    hits = 0
    trials = 200
    for trial in range(trials):
        seed = 71_000 + trial
        stream = gen_random_stream(
            60, 2, 400, seed=seed, mode="dyn", deletes=150, weight_min=1, weight_max=5
        )
        matcher = DynamicMatcher(60, 2, random.Random(seed * 3 + 1))
        for el in stream.elements:
            matcher.process_update(el)
        answer = matcher.query()
        truth = max_weight_k_matching(materialize(stream.elements), 2)
        if truth is NO_K_MATCHING and answer is not NO_K_MATCHING:
            return False, f"trial {trial}: matched a graph with no 2-matching"
        if _answers_match(answer, truth):
            hits += 1
    ok = hits >= 0.95 * trials
    return ok, f"optimal in {hits}/{trials} trials (need >= 190)"


def _log_uniform_dynamic_stream(n, inserts, deletes, seed):
    rng = random.Random(seed)
    universe = n * (n - 1) // 2
    eids = rng.sample(range(universe), inserts)
    top = math.log(10_000)
    pending = []
    for eid in eids:
        w = min(10_000, max(1, int(round(math.exp(rng.uniform(0.0, top))))))
        pending.append(Edge(*edge_at_index(eid, n), w))
    return interleave_deletes(n, 2, pending, deletes, rng)


def criterion_8():
    """Approximation mode reaches (1 - eps) of optimal in at least 95%
    of trials while using at most 43 rounded weight keys."""
    eps = 0.25
    hits = 0
    trials = 200
    max_keys = 0
    for trial in range(trials):
        seed = 81_000 + trial
        stream = _log_uniform_dynamic_stream(40, 150, 50, seed)
        matcher = DynamicMatcher(40, 2, random.Random(seed * 5 + 2), epsilon=eps)
        for el in stream.elements:
            matcher.process_update(el)
        max_keys = max(max_keys, matcher.stats()["distinct_weight_keys"])
        answer = matcher.query()
        truth = max_weight_k_matching(materialize(stream.elements), 2)
        if truth is NO_K_MATCHING:
            if answer is NO_K_MATCHING:
                hits += 1
            continue
        if answer is not NO_K_MATCHING and answer.weight >= (1 - eps) * truth.weight:
            hits += 1
    ok = hits >= 0.95 * trials and max_keys <= 43
    return ok, f"within (1-eps) in {hits}/{trials} trials, max weight keys {max_keys}"


def criterion_9():
    """Branch-and-bound agrees with brute force, exhaustively on small
    graphs and on random instances."""
    universe5 = [edge_at_index(eid, 5) for eid in range(10)]
    from itertools import combinations

    checked = 0
    for size in range(0, 9):
        for combo in combinations(range(10), size):
            edges = [
                Edge(*universe5[eid], 1 + (eid * 7) % 5) for eid in combo
            ]
            for k in (1, 2, 3):
                checked += 1
                if max_weight_k_matching(edges, k) != brute_force_oracle(edges, k):
                    return False, f"census mismatch on edges {combo}, k={k}"
    rng = random.Random(91_000)
    for trial in range(10_000):
        n = rng.randint(4, 12)
        universe = n * (n - 1) // 2
        m = rng.randint(1, min(20, universe))
        eids = rng.sample(range(universe), m)
        edges = [Edge(*edge_at_index(eid, n), rng.randint(1, 8)) for eid in eids]
        k = rng.randint(1, 3)
        checked += 1
        if max_weight_k_matching(edges, k) != brute_force_oracle(edges, k):
            return False, f"random mismatch at trial {trial}"
    return True, f"{checked} solver/oracle comparisons, all equal"


def criterion_10():
    """The adversarial generators encode their source problems exactly."""
    cases = 0
    for m in range(1, 17):
        k1 = math.ceil(math.sqrt(m))
        need = 2 * k1
        for xval in range(1 << m):
            bits = [(xval >> (y - 1)) & 1 for y in range(1, m + 1)]
            for z in range(1, m + 1):
                cases += 1
                stream = gen_index_hard(m, bits, z)
                edges = materialize(stream.elements)
                has = bipartite_matching_size(edges, need=need) >= need
                if has != (bits[z - 1] == 1):
                    return False, f"membership mismatch at m={m}, x={xval}, z={z}"
    rng = random.Random(101_000)
    for trial in range(1_000):
        m = rng.randint(1, 64)
        values = rng.sample(range(m * m + 1), m)
        removed = rng.sample(range(1, m + 1), rng.randint(0, m - 1))
        stream = gen_partial_max_hard(values, removed)
        cases += 1
        live = materialize(stream.elements)
        got = max_weight_k_matching(live, 1)
        expect = max(values[i - 1] for i in range(1, m + 1) if i not in set(removed))
        if got is NO_K_MATCHING or got.weight != expect:
            return False, f"survivor-max mismatch at trial {trial}"
    return True, f"{cases} generator instances verified"


CRITERIA = (
    (1, "sketch-equivalence", criterion_1),
    (2, "insert-only-end-to-end", criterion_2),
    (3, "constant-update-work", criterion_3),
    (4, "insert-only-space", criterion_4),
    (5, "scheme-distinguishing", criterion_5),
    (6, "sampler-contract", criterion_6),
    (7, "dynamic-end-to-end", criterion_7),
    (8, "approximation", criterion_8),
    (9, "solver-self-consistency", criterion_9),
    (10, "adversarial-generators", criterion_10),
)


def run_all(numbers=None, report=None):
    """Run the criteria whose numbers are given (all when none are)."""
    unknown = set(numbers or ()) - {num for num, _, _ in CRITERIA}
    if unknown:
        raise InvalidParameter(f"no criterion {', '.join(map(str, sorted(unknown)))}")
    results = []
    for num, name, fn in CRITERIA:
        if numbers and num not in numbers:
            continue
        start = time.perf_counter()
        ok, detail = fn()
        res = CriterionResult(num, name, ok, detail, time.perf_counter() - start)
        results.append(res)
        if report:
            status = "PASS" if ok else "FAIL"
            report(f"{status} {num:2d} {name}: {detail} [{res.seconds:.1f}s]")
    return results

"""Acceptance criteria for the whole package, one test per criterion.

Each test prints a one-line verdict so a verbose run reads as a
checklist.  The heavy corpora are built once per session and shared.
"""

import itertools
import math
import random
import statistics
import time

import pytest

from boundprop import (
    ActiveSet,
    StopCriterion,
    answer_query,
    enumerate_marginal,
    polytree_exact,
    propagate,
)
from boundprop.intervals import Interval, IntervalVector, normalize_scaled, simplex_dot, vacuous
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence

from conftest import build_net, midpoints

STRATEGIES = ("bfs", "no-loops", "delayed")


def _polytree_corpus():
    nets = []
    for seed in range(200):
        n = random.Random(seed).randint(4, 12)
        net = gen_polytree(GenSpec(node_count=n, seed=seed))
        rng = random.Random(10_000 + seed)
        ev = sample_evidence(net, rng)
        queries = rng.sample(net.node_ids(), 2)
        nets.append((net, ev, queries))
    return nets


def _loopy_corpus():
    nets = []
    for seed in range(100):
        rng = random.Random(20_000 + seed)
        n = rng.randint(5, 10)
        ratio = rng.choice([1.1, 1.2, 1.3])
        net = gen_loopy(GenSpec(node_count=n, topology="loopy", arc_ratio=ratio, seed=seed))
        ev = sample_evidence(net, rng)
        queries = rng.sample(net.node_ids(), 2)
        nets.append((net, ev, queries))
    return nets


@pytest.fixture(scope="session")
def soundness_runs():
    """Every (network, query, strategy) anytime run plus its oracle value."""
    t0 = time.perf_counter()
    runs = []
    for kind, corpus in (("polytree", _polytree_corpus()), ("loopy", _loopy_corpus())):
        for net, ev, queries in corpus:
            for q in queries:
                exact = enumerate_marginal(net, ev, q)
                for strat in STRATEGIES:
                    res = answer_query(net, q, ev, strategy=strat, stop=StopCriterion.width(0.0))
                    runs.append((kind, net, ev, q, strat, exact, res))
    return runs, time.perf_counter() - t0


def test_acceptance_1_soundness(soundness_runs):
    runs, elapsed = soundness_runs
    checked = 0
    for kind, net, ev, q, strat, exact, res in runs:
        for bel in res.bels:
            assert bel.contains_point(exact, 1e-9), (net.name, ev, q, strat)
            checked += 1
    assert elapsed < 300.0, f"soundness corpus took {elapsed:.0f}s"
    print(
        f"\nACCEPTANCE 1 soundness: PASS "
        f"({checked} iteration intervals over {len(runs)} runs, {elapsed:.1f}s)"
    )


def test_acceptance_2_convergence(soundness_runs):
    runs, _ = soundness_runs
    checked = 0
    for kind, net, ev, q, strat, exact, res in runs:
        if kind == "loopy" and strat == "no-loops":
            continue  # never brings the loops in, so no exactness claim
        # a width-zero stop can trigger early only when already exact
        assert res.status in ("saturated", "satisfied")
        assert res.bel.max_width <= 1e-6, (net.name, ev, q, strat, res.bel)
        for mid, want in zip(midpoints(res.bel), exact):
            assert abs(mid - want) <= 1e-6, (net.name, ev, q, strat)
        checked += 1
    print(f"\nACCEPTANCE 2 convergence at saturation: PASS ({checked} runs)")


def test_acceptance_3_constrained_dot_exactness():
    rng = random.Random(404)

    def brute(a, b):
        n = len(a)
        lo_best, hi_best = math.inf, -math.inf
        for free in range(n):
            bounds = [(b[i].lo, b[i].hi) for i in range(n) if i != free]
            for corners in itertools.product(*bounds):
                rest = 1.0 - sum(corners)
                if rest < b[free].lo - 1e-12 or rest > b[free].hi + 1e-12:
                    continue
                w = list(corners[:free]) + [rest] + list(corners[free:])
                lo_best = min(lo_best, sum(x.lo * v for x, v in zip(a, w)))
                hi_best = max(hi_best, sum(x.hi * v for x, v in zip(a, w)))
        return lo_best, hi_best

    worst = 0.0
    for _ in range(10_000):
        n = rng.randint(1, 4)
        a = []
        for _ in range(n):
            lo = rng.random()
            a.append(Interval(lo, lo + rng.random() * (1 - lo)))
        p = [rng.random() + 1e-9 for _ in range(n)]
        s = sum(p)
        b = []
        for x in (v / s for v in p):
            b.append(
                Interval(max(0.0, x - rng.random() * x), min(1.0, x + rng.random() * (1 - x)))
            )
        a, b = IntervalVector(a), IntervalVector(b)
        got = simplex_dot(a, b)
        lo, hi = brute(a, b)
        worst = max(worst, abs(got.lo - lo), abs(got.hi - hi))
        assert abs(got.lo - lo) <= 1e-9 and abs(got.hi - hi) <= 1e-9
    # exact min-max against a fully vacuous weight vector
    for _ in range(2_000):
        n = rng.randint(1, 5)
        entries = []
        for _ in range(n):
            lo = rng.random()
            entries.append(Interval(lo, lo + rng.random() * (1 - lo)))
        a = IntervalVector(entries)
        got = simplex_dot(a, vacuous(n))
        assert got.lo == min(e.lo for e in a)
        assert got.hi == max(e.hi for e in a)
    print(f"\nACCEPTANCE 3 constrained dot product: PASS (worst deviation {worst:.2e})")


def test_acceptance_4_normalization_containment():
    rng = random.Random(505)
    violations = 0
    for _ in range(1_000):
        n = rng.randint(2, 5)
        entries = []
        for _ in range(n):
            lo = rng.random() * 0.9
            entries.append(Interval(lo, lo + rng.random() * (1 - lo)))
        v = IntervalVector(entries)
        out, _ = normalize_scaled(v)
        for _ in range(1_000):
            p = [e.lo + rng.random() * e.width for e in v]
            s = sum(p)
            if s <= 0.0:
                continue
            if not out.contains_point([x / s for x in p], 0.0):
                violations += 1
    assert violations == 0
    print("\nACCEPTANCE 4 normalization containment: PASS (0 violations in 10^6 draws)")


def test_acceptance_5_oracle_agreement(soundness_runs):
    runs, _ = soundness_runs
    cases = 0
    for kind, net, ev, q, strat, exact, res in runs:
        if kind != "polytree" or strat != "bfs":
            continue
        pt = polytree_exact(net, ev, q)
        assert pt == pytest.approx(exact, abs=1e-9)
        full = ActiveSet(frozenset(net.node_ids()), frozenset(net.arcs))
        bel = propagate(net, full, ev, q)
        assert bel.max_width <= 1e-9
        for mid, want in zip(midpoints(bel), exact):
            assert abs(mid - want) <= 1e-9
        cases += 1
    print(f"\nACCEPTANCE 5 oracle agreement: PASS ({cases} polytree cases)")


def test_acceptance_6_missing_arc_replica():
    spec = {"Y": [], "A": ["Y"], "B": ["A"], "C": ["A"], "D": ["B", "C"], "X": ["D"]}
    hits = 0
    for seed in range(50):
        rng = random.Random(seed)
        counts = {v: rng.randint(2, 3) for v in spec}
        net = build_net("replica", spec, seed=seed, state_counts=counts)
        ev = {"X": rng.randrange(counts["X"])}
        if rng.random() < 0.5:
            ev["Y"] = rng.randrange(counts["Y"])
        active = ActiveSet(
            frozenset(net.node_ids()),
            frozenset(a for a in net.arcs if a != ("B", "D")),
        )
        want = enumerate_marginal(net, ev, "C")
        bel = propagate(net, active, ev, "C")
        assert bel.contains_point(want, 1e-9), (seed, bel, want)
        hits += 1
    assert hits == 50
    print("\nACCEPTANCE 6 severed-arc replica: PASS (50/50 parameterizations contained)")


def test_acceptance_7_loop_free_strategy_yield():
    results = {}
    for ratio, floor in ((1.1, 0.60), (1.3, 0.25)):
        hits = total = 0
        for seed in range(20):
            rng = random.Random(5_000 + seed)
            n = rng.randint(30, 50)
            net = gen_loopy(GenSpec(node_count=n, topology="loopy", arc_ratio=ratio, seed=seed))
            ev = sample_evidence(net, rng)
            free = [v for v in net.node_ids() if v not in ev]
            for q in rng.sample(free, 10):
                res = answer_query(net, q, ev, strategy="no-loops", stop=StopCriterion.width(0.0))
                total += 1
                if res.achieved_width < 0.5:
                    hits += 1
        results[ratio] = hits / total
        assert hits / total >= floor, f"ratio {ratio}: {hits}/{total}"
    print(
        "\nACCEPTANCE 7 loop-free yield: PASS "
        f"(ratio 1.1: {results[1.1]:.0%} >= 60%, ratio 1.3: {results[1.3]:.0%} >= 25%)"
    )


def test_acceptance_8_scaling():
    med_active = {}
    below = total = 0
    for n in (50, 100, 150, 200, 250):
        sizes = []
        for seed in (0, 1):
            net = gen_polytree(GenSpec(node_count=n, seed=7_000 + n + seed))
            rng = random.Random(100 + n + seed)
            ev = sample_evidence(net, rng)
            free = [v for v in net.node_ids() if v not in ev]
            for q in rng.sample(free, 10):
                res = answer_query(net, q, ev, strategy="bfs", stop=StopCriterion.width(0.5))
                assert res.status == "satisfied"
                sizes.append(res.active_nodes[-1])
                total += 1
                if res.node_visits < n:
                    below += 1
        med_active[n] = statistics.median(sizes)
    assert med_active[250] < 2 * med_active[50], med_active
    assert below / total >= 0.90, (below, total)
    print(
        "\nACCEPTANCE 8 scaling: PASS "
        f"(median active set {med_active[50]} @50 vs {med_active[250]} @250 nodes; "
        f"{below}/{total} queries visited fewer nodes than the network holds)"
    )

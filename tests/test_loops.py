import itertools
import random

import pytest

from boundprop import (
    ActiveSet,
    CoherenceError,
    ConflictingEvidenceError,
    CutsetOverflowError,
    Interval,
    IntervalVector,
    answer_query,
    enumerate_marginal,
    find_loop_clusters,
    iv_mul,
    lambda_msg,
    normalize,
    parse_network,
    pi_hat,
    propagate,
    select_loop_cutset,
    simplex_dot,
    vacuous,
)
from boundprop import loops
from boundprop.engine import _joint_weights, _Run
from boundprop.netgen import GenSpec, gen_loopy, sample_evidence
from boundprop.oracle import clamped_state_range

from conftest import build_net


def full_active(net):
    return ActiveSet(frozenset(net.node_ids()), frozenset(net.arcs))


def test_select_cutset_diamond(diamond):
    (cluster,) = find_loop_clusters(diamond)
    assert select_loop_cutset(diamond, cluster) == ("A",)


def test_select_cutset_fused_diamonds():
    fused = build_net(
        "f",
        {
            "A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"],
            "E": ["D"], "F": ["D"], "G": ["E", "F"],
        },
        seed=2,
    )
    (cluster,) = find_loop_clusters(fused)
    cutset = select_loop_cutset(fused, cluster)
    assert len(cutset) <= 2


def test_select_cutset_single_cycle():
    # one undirected cycle of length k: a0 -> a1 -> ... -> a(k-1) plus a0 -> a(k-1)
    for k in (3, 4, 6, 8):
        ring = {"a0": []}
        for i in range(1, k - 1):
            ring[f"a{i}"] = [f"a{i-1}"]
        ring[f"a{k-1}"] = [f"a{k-2}", "a0"]
        net = build_net("ring", ring, seed=k)
        (cluster,) = find_loop_clusters(net)
        assert len(cluster.nodes) == k
        cutset = select_loop_cutset(net, cluster)
        assert len(cutset) == 1


def test_cutset_renders_skeleton_acyclic():
    for seed in range(10):
        net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=seed))
        for cluster in find_loop_clusters(net):
            cutset = select_loop_cutset(net, cluster)
            removed = set()
            for c in cutset:
                for w in net.children(c):
                    removed.add((c, w))
            parent = {v: v for v in cluster.nodes}

            def find(v):
                while parent[v] != v:
                    parent[v] = parent[parent[v]]
                    v = parent[v]
                return v

            for p, c in cluster.arcs:
                if (p, c) in removed:
                    continue
                rp, rc = find(p), find(c)
                assert rp != rc
                parent[rp] = rc


def test_condition_cluster_exact_on_diamond(diamond):
    (cluster,) = find_loop_clusters(diamond)
    for ev in ({}, {"D": 1}, {"B": 0}):
        for q in "ABCD":
            if q in ev:
                continue
            want = enumerate_marginal(diamond, ev, q)
            bel = propagate(diamond, full_active(diamond), ev, q)
            assert bel.contains_point(want, 1e-9)
            assert bel.max_width <= 1e-6
            cutset = select_loop_cutset(
                diamond, cluster, exclude=frozenset({q}), presplit=frozenset(ev)
            )
            if "B" in ev:
                # the observed node already cuts the loop for free
                assert cutset == ()
            elif q != "A":
                # greedy picks the fork; the query itself is never clamped
                assert cutset == ("A",)
            else:
                assert len(cutset) == 1


def test_condition_cluster_vacuous_boundary_contains(figure_net):
    # cluster lacks its stems: Y and X stay outside the active set
    (cluster,) = find_loop_clusters(figure_net)
    active = ActiveSet(frozenset("ABCD"), frozenset(cluster.arcs))
    ev = {"X": 0, "Y": 1}
    for q in "ABCD":
        want = enumerate_marginal(figure_net, ev, q)
        bel = propagate(figure_net, active, ev, q)
        assert bel.contains_point(want, 1e-9)
        assert bel.max_width > 0.0  # unseen evidence keeps it honest


def test_condition_cluster_observed_inside(figure_net):
    (cluster,) = find_loop_clusters(figure_net)
    ev = {"B": 1}
    for q in "YACDX":
        want = enumerate_marginal(figure_net, ev, q)
        bel = propagate(figure_net, full_active(figure_net), ev, q)
        assert bel.contains_point(want, 1e-9)


def test_evidence_is_checked_at_every_entry_point(diamond):
    net = build_net("abc", {"A": [], "B": ["A"], "C": ["B"]}, seed=5)
    active = ActiveSet(frozenset({"A", "B"}), frozenset({("A", "B")}))
    for ev in ({"C": 7}, {"B": 5}, {"A": -1}):
        with pytest.raises(ValueError, match="out of range"):
            propagate(net, active, ev, "A")
    with pytest.raises(KeyError):
        propagate(net, active, {"Z": 0}, "A")
    with pytest.raises(ValueError, match="out of range"):
        propagate(diamond, full_active(diamond), {"B": 2}, "D")
    with pytest.raises(KeyError):
        propagate(diamond, full_active(diamond), {"Z": 0}, "D")


def test_incoherent_mixing_weights_raise(diamond, monkeypatch):
    # Joint normalization makes the instance weights coherent; the check
    # that stands behind it is the one simplex_dot makes, in every mode.
    def incoherent(v):
        return IntervalVector([Interval(0.0, 0.1 / len(v))] * len(v))

    monkeypatch.setattr(loops, "normalize", incoherent)
    with pytest.raises(CoherenceError):
        propagate(diamond, full_active(diamond), {}, "D")


def test_incoherent_messages_raise_through_the_table_kernels(diamond):
    # The kernels check each weight vector once per call, before dotting
    # the node's stored columns or rows against it.
    short = IntervalVector([Interval(0.0, 0.3), Interval(0.0, 0.4)])
    with pytest.raises(CoherenceError):
        pi_hat(diamond, "D", {"B": short, "C": short})
    with pytest.raises(CoherenceError):
        lambda_msg(diamond, "D", "B", short, {})
    with pytest.raises(CoherenceError):
        lambda_msg(diamond, "D", "B", vacuous(2), {"C": short})


def _unchecked(lo, hi):
    # A vector that skipped from_bounds, as a corrupted message would.
    vec = object.__new__(IntervalVector)
    object.__setattr__(vec, "lo", tuple(lo))
    object.__setattr__(vec, "hi", tuple(hi))
    return vec


def test_nan_messages_raise_value_error(diamond):
    nan = float("nan")
    with pytest.raises(ValueError):
        IntervalVector.from_bounds([nan, 0.5], [nan, 0.5])
    bad = _unchecked([nan, 0.5], [nan, 0.5])
    with pytest.raises(ValueError):
        pi_hat(diamond, "D", {"B": bad})
    with pytest.raises(ValueError):
        lambda_msg(diamond, "D", "B", bad, {})
    with pytest.raises(ValueError):
        lambda_msg(diamond, "D", "B", vacuous(2), {"C": bad})


def test_instance_cap_enforced():
    net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=3))
    q = net.node_ids()[0]
    with pytest.raises(CutsetOverflowError):
        propagate(net, full_active(net), {}, q, instance_cap=1)


def test_missing_arc_propagation_contains_truth(figure_net):
    active = ActiveSet(
        frozenset(figure_net.node_ids()),
        frozenset(a for a in figure_net.arcs if a != ("B", "D")),
    )
    for ev in ({}, {"X": 0}, {"X": 1, "Y": 0}):
        for q in "YABCDX":
            if q in ev:
                continue
            want = enumerate_marginal(figure_net, ev, q)
            bel = propagate(figure_net, active, ev, q)
            assert bel.contains_point(want, 1e-9)


def test_missing_arc_contains_clamped_envelope(figure_net):
    # severing B -> D must leave room for every value B could force
    active = ActiveSet(
        frozenset(figure_net.node_ids()),
        frozenset(a for a in figure_net.arcs if a != ("B", "D")),
    )
    ev = {"X": 0}
    bel = propagate(figure_net, active, ev, "C")
    envelope = clamped_state_range(figure_net, ev, "C", "B")
    for entry, (lo, hi) in zip(bel, envelope):
        assert entry.lo - 1e-9 <= lo
        assert hi <= entry.hi + 1e-9


def test_conflicting_evidence_propagates():
    # two deterministic children observed to disagree about their parent
    text = (
        "network d\nnode X states t f\nnode D states t f\nnode E states t f\n"
        "parents X\nparents D X\nparents E X\n"
        "cpt X\n0.5 0.5\ncpt D\n1 0\n0 1\ncpt E\n0 1\n1 0\n"
    )
    net = parse_network(text)
    with pytest.raises(ConflictingEvidenceError):
        propagate(net, full_active(net), {"D": 0, "E": 0}, "X")


def test_hidden_coupling_between_cutset_and_detached_evidence():
    # H ties the loop's natural cutset node c to far-away evidence o, and
    # the observed node m detaches u's piece mid-growth.  The instance
    # weights must stay honest about the coupling until H and o join.
    spec = {
        "H": [], "c": ["H"], "a": ["c"], "b": ["c"], "d": ["a", "b"],
        "m": ["a"], "u": ["H", "m"], "o": ["u"],
    }
    for seed in range(10):
        net = build_net("coupling", spec, seed=seed)
        for ev in ({"m": 0, "o": 1}, {"o": 0}, {"m": 1, "o": 0, "b": 1}):
            want = enumerate_marginal(net, ev, "d")
            for strat in ("bfs", "no-loops", "delayed"):
                res = answer_query(net, "d", ev, strategy=strat)
                for bel in res.bels:
                    assert bel.contains_point(want, 1e-9), (seed, ev, strat)
                if strat != "no-loops":
                    assert res.bel.max_width <= 1e-6
                    for mid, e in zip(res.bel.midpoints(), want):
                        assert abs(mid - e) <= 1e-6


def test_anytime_on_loopy_networks_sound_everywhere():
    for seed in range(12):
        net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.3, seed=200 + seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        qs = [v for v in net.node_ids() if v not in ev][:2]
        for q in qs:
            want = enumerate_marginal(net, ev, q)
            for strat in ("bfs", "no-loops", "delayed"):
                res = answer_query(net, q, ev, strategy=strat)
                for bel in res.bels:
                    assert bel.contains_point(want, 1e-9)


# -- conditioned evaluation against per-instance Interval masses -------------
#
# The reference weighs each cutset instance as conditioning did before
# its masses were float pairs: every factor an ``Interval``, multiplied
# with ``iv_mul``, and a pinned-only node's column dotted with the public
# ``simplex_dot`` as a fresh point vector, which sorts it again.  The
# weights and the mixed bounds must be the same floats.


def _ref_piece_mass(run, x):
    lam, ls = run.value(("lam_val", x))
    pvec, ps = run.value(("pi_val", x))
    return iv_mul(Interval(ls[0] * ps[0], ls[1] * ps[1]), simplex_dot(lam, pvec))


def _ref_column_mass(net, active, node, pinned):
    msgs = [
        IntervalVector.indicator(net.state_count(p), pinned[p])
        if (p, node) in active.arcs and p in pinned
        else vacuous(net.state_count(p))
        for p in net.parents(node)
    ]
    column = IntervalVector.point(row[pinned[node]] for row in net.node(node).cpt)
    return simplex_dot(column, _joint_weights(msgs))


def _ref_conditioned(ctx, active, cut, seen):
    """The instance weights and the mixed bounds, as the references compute them."""
    net, query = ctx.net, ctx.query
    representatives, direct_factors = loops._mass_plan(ctx, active, cut)
    observed = {v: s for v, s in ctx.evidence.items() if v in active.nodes}
    boundary_unknown = any(
        (c, w) not in active.arcs and w in ctx for c in cut for w in net.children(c)
    )
    seen.update(
        representatives=bool(representatives),
        pinned_only=bool(direct_factors),
        observed_query=query in ctx.evidence,
        boundary_unknown=boundary_unknown,
    )
    bels, masses = [], []
    for inst in itertools.product(*[range(net.state_count(c)) for c in cut]):
        clamps = dict(zip(cut, inst))
        pinned = {**observed, **clamps}
        run = _Run(ctx, active, clamps)
        try:
            vec = run.belief(query)
            if query in ctx.evidence:
                pvec, ps = run.value(("pi_val", query))
                mass = iv_mul(Interval(*ps), pvec[ctx.evidence[query]])
            else:
                mass = _ref_piece_mass(run, query)
            for r in representatives:
                mass = iv_mul(mass, _ref_piece_mass(run, r))
            for c in direct_factors:
                mass = iv_mul(mass, _ref_column_mass(net, active, c, pinned))
            if boundary_unknown:
                mass = Interval(0.0, mass.hi)
        except ConflictingEvidenceError:
            vec, mass = vacuous(net.state_count(query)), Interval(0.0, 0.0)
        bels.append(vec)
        masses.append(mass)
    weights = IntervalVector(masses)
    try:
        mix = normalize(weights)
    except ConflictingEvidenceError:
        return weights, "conflict"
    columns = zip(zip(*[b.lo for b in bels]), zip(*[b.hi for b in bels]))
    out = [simplex_dot(IntervalVector.from_bounds(lo, hi), mix) for lo, hi in columns]
    return weights, normalize(IntervalVector(out))


def test_conditioned_masses_bit_identical_to_interval_masses(monkeypatch):
    calls = []
    inner = loops._conditioned_bel

    def spy(ctx, active, cut, instance_cap, cache):
        calls.append((ctx, active, cut))
        return inner(ctx, active, cut, instance_cap, cache)

    monkeypatch.setattr(loops, "_conditioned_bel", spy)
    for seed in range(40):
        net = gen_loopy(GenSpec(node_count=10, topology="loopy", arc_ratio=1.3, seed=300 + seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        start = len(calls)
        try:
            for strategy in ("bfs", "delayed"):
                answer_query(net, q, ev, strategy=strategy)
            # Growth stops at an observed query, so ask the observed nodes
            # over the sets grown for q, where their pi values are boxes.
            for _, active, _ in calls[start:]:
                for v in sorted(ev.keys() & active.nodes):
                    propagate(net, active, ev, v)
        except ConflictingEvidenceError:
            pass
    monkeypatch.undo()

    cases = dict.fromkeys(("representatives", "pinned_only", "observed_query", "boundary_unknown"), 0)
    for ctx, active, cut in calls:
        seen = {}
        want_weights, want = _ref_conditioned(ctx, active, cut, seen)
        weights = []

        def recorded(v):
            weights.append(v)
            return normalize(v)

        monkeypatch.setattr(loops, "normalize", recorded)
        try:
            got, _ = loops._conditioned_bel(ctx, active, cut, loops.DEFAULT_INSTANCE_CAP, None)
        except ConflictingEvidenceError:
            got = "conflict"
        monkeypatch.undo()
        # The first vector conditioning normalizes is its instance weights.
        assert (weights[0].lo, weights[0].hi) == (want_weights.lo, want_weights.hi)
        if want == "conflict":
            assert got == "conflict"
        else:
            assert (got.lo, got.hi) == (want.lo, want.hi)
        for case, hit in seen.items():
            cases[case] += hit
    assert len(calls) > 80
    assert all(cases.values()), cases

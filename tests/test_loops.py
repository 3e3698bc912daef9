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
    parse_network,
    propagate,
    select_loop_cutset,
)
from boundprop import loops
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

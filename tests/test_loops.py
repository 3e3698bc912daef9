import itertools
import math
import random

import pytest

from boundprop import (
    ActiveSet,
    CoherenceError,
    ConflictingEvidenceError,
    CutsetOverflowError,
    Interval,
    IntervalVector,
    StopCriterion,
    answer_query,
    enumerate_marginal,
    find_loop_clusters,
    iv_mul,
    lambda_msg,
    parse_network,
    pi_hat,
    propagate,
    relevant_set,
    select_loop_cutset,
    simplex_dot,
    vacuous,
)
from boundprop import loops
from boundprop.engine import LOOP_DELAYS, _joint_weights, _Run
from boundprop.intervals import _normalized, normalize_scaled
from boundprop.network import _Context, skeleton_acyclic
from boundprop.netgen import GenSpec, gen_loopy, sample_evidence

from conftest import NoCache, build_net, clamped_state_range, midpoints


def full_active(net):
    return ActiveSet(frozenset(net.node_ids()), frozenset(net.arcs))


def test_select_cutset_diamond(diamond):
    (cluster,) = find_loop_clusters(diamond.arcs)
    assert select_loop_cutset(diamond, cluster) == ("A",)


def fused_diamonds():
    # Two diamonds A-B-D-C and D-E-G-F joined at D.
    return build_net(
        "f",
        {
            "A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"],
            "E": ["D"], "F": ["D"], "G": ["E", "F"],
        },
        seed=2,
    )


def test_select_cutset_fused_diamonds():
    fused = fused_diamonds()
    (cluster,) = find_loop_clusters(fused.arcs)
    cutset = select_loop_cutset(fused, cluster)
    assert len(cutset) == 2


def test_select_cutset_single_cycle():
    # one undirected cycle of length k: a0 -> a1 -> ... -> a(k-1) plus a0 -> a(k-1)
    for k in (3, 4, 6, 8):
        ring = {"a0": []}
        for i in range(1, k - 1):
            ring[f"a{i}"] = [f"a{i-1}"]
        ring[f"a{k-1}"] = [f"a{k-2}", "a0"]
        net = build_net("ring", ring, seed=k)
        (cluster,) = find_loop_clusters(net.arcs)
        assert len(cluster.nodes) == k
        cutset = select_loop_cutset(net, cluster)
        assert len(cutset) == 1


def test_select_cutset_cuts_a_cycle_at_its_fewest_states():
    # A cycle with a 4-state fork A and a 2-state pass-through tail B:
    # each cuts two core arcs, and clamping B runs 2 instances, not 4.
    net = build_net("cycle", {"A": [], "B": ["A"], "C": ["B", "A"]}, seed=1, state_counts={"A": 4})
    (cluster,) = find_loop_clusters(net.arcs)
    assert select_loop_cutset(net, cluster) == ("B",)


def test_select_cutset_drops_a_pick_that_later_picks_made_redundant():
    # C (2 states over two core arcs) is picked before A (3 states over
    # three), but then A must be picked as well, and A alone cuts every
    # cycle: 3 instances in place of 6.
    spec = {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C", "A"]}
    net = build_net("redundant", spec, seed=3, state_counts={"A": 3, "B": 3})
    (cluster,) = find_loop_clusters(net.arcs)
    assert select_loop_cutset(net, cluster) == ("A",)


def test_select_cutset_leaves_what_evidence_already_cut():
    fused = fused_diamonds()
    (cluster,) = find_loop_clusters(fused.arcs)
    assert select_loop_cutset(fused, cluster, presplit=frozenset({"A", "D"})) == ()
    assert select_loop_cutset(fused, cluster, presplit=frozenset({"A"})) == ("D",)


def test_select_cutset_never_picks_the_excluded_node():
    fused = fused_diamonds()
    (cluster,) = find_loop_clusters(fused.arcs)
    for q in fused.node_ids():
        cutset = select_loop_cutset(fused, cluster, exclude=frozenset({q}))
        assert q not in cutset
        assert len(cutset) == 2 and skeleton_acyclic(cluster.arcs, cutset)


def test_cutset_cuts_every_cluster_and_no_pick_is_redundant():
    rng = random.Random(23)
    checked = 0
    for seed in range(30):
        spec = GenSpec(node_count=12 + seed % 9, topology="loopy", arc_ratio=1.3, seed=seed)
        net = gen_loopy(spec)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        for cluster in find_loop_clusters(net.arcs):
            cutset = select_loop_cutset(net, cluster, frozenset({q}), frozenset(ev))
            split = set(cutset) | set(ev)
            assert q not in cutset and not set(cutset) & set(ev)
            assert skeleton_acyclic(cluster.arcs, split)
            for v in cutset:
                assert not skeleton_acyclic(cluster.arcs, split - {v})
            checked += len(cutset)
    assert checked > 30


def test_the_cut_of_a_loopy_query_stays_within_a_thousand_instances(monkeypatch):
    # A 50-node loopy network whose query once asked for 143,327,232
    # instances and raised CutsetOverflowError.
    instances = []

    def spy(ctx, active, cut, observed, cache):
        instances.append(math.prod(net.state_count(c) for c in cut))
        return conditioned(ctx, active, cut, observed, cache)

    conditioned = loops._conditioned_bel
    monkeypatch.setattr(loops, "_conditioned_bel", spy)
    net = gen_loopy(GenSpec(node_count=50, topology="loopy", arc_ratio=1.3, seed=202))
    ev = sample_evidence(net, random.Random(7))
    q = next(v for v in net.node_ids() if v not in ev)
    answer_query(net, q, ev, strategy="bfs", stop=StopCriterion.width(0.0), budget_ms=200)
    assert instances and max(instances) <= 1024


def test_cutset_renders_skeleton_acyclic():
    for seed in range(10):
        net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=seed))
        for cluster in find_loop_clusters(net.arcs):
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
    (cluster,) = find_loop_clusters(diamond.arcs)
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
                # every tail cuts two core arcs at two states, so network
                # order picks the fork; the query itself is never clamped
                assert cutset == ("A",)
            else:
                assert len(cutset) == 1


def test_condition_two_loops_joined_by_a_path_exact(double_diamond):
    # One cluster holds both diamonds and the arc D -> E between them, so
    # one joint cut conditions them together.
    (cluster,) = find_loop_clusters(double_diamond.arcs)
    assert ("D", "E") in cluster.arcs
    active = full_active(double_diamond)
    for ev in ({}, {"H": 1}, {"A": 0, "H": 1}, {"E": 0}, {"B": 1, "G": 0}):
        for q in "ABCDEFGH":
            if q in ev:
                continue
            want = enumerate_marginal(double_diamond, ev, q)
            bel = propagate(double_diamond, active, ev, q)
            assert bel.contains_point(want, 1e-9)
            assert bel.max_width <= 1e-6
            cutset = select_loop_cutset(double_diamond, cluster, frozenset({q}), frozenset(ev))
            assert skeleton_acyclic(cluster.arcs, set(cutset) | set(ev))


def test_condition_cluster_vacuous_boundary_contains(figure_net):
    # cluster lacks its stems: Y and X stay outside the active set
    (cluster,) = find_loop_clusters(figure_net.arcs)
    active = ActiveSet(frozenset("ABCD"), frozenset(cluster.arcs))
    ev = {"X": 0, "Y": 1}
    for q in "ABCD":
        want = enumerate_marginal(figure_net, ev, q)
        bel = propagate(figure_net, active, ev, q)
        assert bel.contains_point(want, 1e-9)
        assert bel.max_width > 0.0  # unseen evidence keeps it honest


def test_condition_cluster_observed_inside(figure_net):
    (cluster,) = find_loop_clusters(figure_net.arcs)
    ev = {"B": 1}
    for q in "YACDX":
        want = enumerate_marginal(figure_net, ev, q)
        bel = propagate(figure_net, full_active(figure_net), ev, q)
        assert bel.contains_point(want, 1e-9)


def test_evidence_that_cuts_the_only_loop_needs_no_conditioning(diamond, monkeypatch):
    # B observed splits A-B-D-C: the cut is empty and one plain run answers.
    def conditioned(*args):
        raise AssertionError("conditioned on an empty cut")

    monkeypatch.setattr(loops, "_conditioned_bel", conditioned)
    active = full_active(diamond)
    for state in (0, 1):
        ev = {"B": state}
        for q in "ACD":
            bel = propagate(diamond, active, ev, q)
            ctx = _Context(diamond, ev, q)
            plain = _Run(ctx, active, ctx.evidence, {}).belief(q)
            assert (bel.lo, bel.hi) == (plain.lo, plain.hi)
            assert bel.contains_point(enumerate_marginal(diamond, ev, q), 1e-9)


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
    with pytest.raises(ValueError, match="out of range"):
        relevant_set(net, "A", {"C": 7})
    with pytest.raises(KeyError):
        relevant_set(net, "A", {"Z": 0})


def test_incoherent_mixing_weights_raise(diamond, monkeypatch):
    # Joint normalization makes the instance weights coherent; the check
    # that stands behind it is the one simplex_dot makes, in every mode.
    def incoherent(los, his):
        n = len(los)
        return IntervalVector([Interval(0.0, 0.1 / n)] * n), (0.0, 1.0)

    monkeypatch.setattr(loops, "_normalized", incoherent)
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


def test_instance_cap_enforced(monkeypatch):
    net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=3))
    q = net.node_ids()[0]
    monkeypatch.setattr(loops, "INSTANCE_CAP", 1)
    with pytest.raises(CutsetOverflowError):
        propagate(net, full_active(net), {}, q)


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


def test_a_cutset_instance_that_contradicts_the_evidence_weighs_nothing(monkeypatch):
    # A diamond whose D is never s0 once B = s1.  Observing D = s0 makes
    # the instance B = s1 impossible: its run raises, and the mixture
    # takes it as a vacuous belief of zero mass.
    net = parse_network(
        "network d\nnode A states s0 s1\nnode B states s0 s1\nnode C states s0 s1\n"
        "node D states s0 s1\nparents A\nparents B A\nparents C A\nparents D B C\n"
        "cpt A\n0.3 0.7\ncpt B\n0.6 0.4\n0.2 0.8\ncpt C\n0.5 0.5\n0.9 0.1\n"
        "cpt D\n0.7 0.3\n0.4 0.6\n0 1\n0 1\n"
    )
    conflicts = []

    class Spy(loops._Run):
        def belief(self, x):
            try:
                return super().belief(x)
            except ConflictingEvidenceError:
                conflicts.append(dict(self.pinned))
                raise

    monkeypatch.setattr(loops, "_Run", Spy)
    want = enumerate_marginal(net, {"D": 0}, "A")
    res = answer_query(net, "A", {"D": 0}, strategy="bfs", stop=StopCriterion.width(0.0))
    assert {"B": 1, "D": 0} in conflicts
    for bel in res.bels:
        assert bel.contains_point(want, 1e-9)
    assert res.bel.max_width <= 1e-9


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
                    for mid, e in zip(midpoints(res.bel), want):
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
# mixture is clamped into [0, 1] and not normalized again.  The weights
# and the mixed bounds must be the same floats.


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
    observed = {v: s for v, s in ctx.evidence.items() if v in active.nodes}
    representatives, direct_factors = loops._mass_plan(ctx, active, cut, observed)
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
        pinned = {**observed, **dict(zip(cut, inst))}
        run = _Run(ctx, active, pinned, NoCache())
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
        mix, _ = normalize_scaled(weights)
    except ConflictingEvidenceError:
        return weights, "conflict"
    columns = zip(zip(*[b.lo for b in bels]), zip(*[b.hi for b in bels]))
    out = [simplex_dot(IntervalVector.from_bounds(lo, hi), mix) for lo, hi in columns]
    unit = [Interval(min(max(e.lo, 0.0), 1.0), min(max(e.hi, 0.0), 1.0)) for e in out]
    return weights, IntervalVector(unit)


def test_conditioned_masses_bit_identical_to_interval_masses(monkeypatch):
    calls = []
    inner = loops._conditioned_bel

    def spy(ctx, active, cut, observed, cache):
        calls.append((ctx, active, cut, observed))
        return inner(ctx, active, cut, observed, cache)

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
            for _, active, _, _ in calls[start:]:
                for v in sorted(ev.keys() & active.nodes):
                    propagate(net, active, ev, v)
        except ConflictingEvidenceError:
            pass
    monkeypatch.undo()

    cases = dict.fromkeys(("representatives", "pinned_only", "observed_query", "boundary_unknown"), 0)
    for ctx, active, cut, observed in calls:
        seen = {}
        want_weights, want = _ref_conditioned(ctx, active, cut, seen)
        weights = []

        def recorded(los, his):
            weights.append((tuple(los), tuple(his)))
            return _normalized(los, his)

        monkeypatch.setattr(loops, "_normalized", recorded)
        try:
            got, _ = loops._conditioned_bel(ctx, active, cut, observed, NoCache())
        except ConflictingEvidenceError:
            got = "conflict"
        monkeypatch.undo()
        # The one vector conditioning normalizes is its instance weights.
        assert weights == [(want_weights.lo, want_weights.hi)]
        if want == "conflict":
            assert got == "conflict"
        else:
            assert (got.lo, got.hi) == (want.lo, want.hi)
        for case, hit in seen.items():
            cases[case] += hit
    assert len(calls) > 80
    assert all(cases.values()), cases


def test_conditioned_mixtures_are_sound_and_inside_their_normalization(monkeypatch):
    # The mixture is not normalized again.  Normalizing it would keep the
    # truth inside; the mixture must keep it too, and be no wider than that
    # normalization beyond rounding.
    mixtures = []
    inner = loops._conditioned_bel

    def spy(ctx, active, cut, observed, cache):
        bel, visits = inner(ctx, active, cut, observed, cache)
        mixtures.append((len(cut), bel))
        return bel, visits

    monkeypatch.setattr(loops, "_conditioned_bel", spy)
    for seed in range(60):
        ratio = 1.2 + 0.1 * (seed % 3)
        net = gen_loopy(GenSpec(node_count=9 + seed % 3, topology="loopy", arc_ratio=ratio, seed=700 + seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        try:
            want = enumerate_marginal(net, ev, q)
        except ConflictingEvidenceError:
            continue
        start = len(mixtures)
        for strategy in LOOP_DELAYS:
            answer_query(net, q, ev, strategy=strategy)
        for _, bel in mixtures[start:]:
            assert bel.contains_point(want, 1e-9), (seed, q, ev)
            renormalized, _ = normalize_scaled(bel)
            for lo, hi, r_lo, r_hi in zip(bel.lo, bel.hi, renormalized.lo, renormalized.hi):
                assert r_lo - 1e-12 <= lo and hi <= r_hi + 1e-12, (seed, q, ev)
    assert len(mixtures) > 60
    assert sum(size >= 2 for size, _ in mixtures) > 20

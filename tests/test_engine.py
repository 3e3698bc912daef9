import random

import pytest

from boundprop import (
    ActiveSet,
    Message,
    MessageCache,
    StopCriterion,
    answer_query,
    bel_hat,
    cache_update,
    enumerate_marginal,
    expand,
    is_polytree,
    lambda_hat,
    lambda_msg,
    pi_hat,
    pi_msg,
    polytree_exact,
    propagate,
    relevant_set,
)
from boundprop.engine import (
    BUDGET,
    SATISFIED,
    SATURATED,
    BreadthFirst,
    DelayedLoops,
    NoLoops,
    make_strategy,
)
from boundprop.intervals import Interval, IntervalVector, normalize, vacuous
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence

from conftest import build_net


def full_active(net):
    return ActiveSet(frozenset(net.node_ids()), frozenset(net.arcs))


# -- kernels ------------------------------------------------------------------


def test_pi_hat_root_is_prior(chain_ab):
    got = pi_hat(chain_ab, "A", {})
    assert got.contains_point((0.3, 0.7), 1e-12)
    assert got.max_width <= 1e-12


def test_pi_hat_vacuous_parent_spans_columns(chain_ab):
    got = pi_hat(chain_ab, "B", {"A": vacuous(2)})
    # columns span [0.2, 0.9] and [0.1, 0.8] before normalization
    want = normalize(IntervalVector([Interval(0.2, 0.9), Interval(0.1, 0.8)]))
    assert got == want


def test_pi_hat_point_messages_match_point_solver(chain_ab):
    got = pi_hat(chain_ab, "B", {"A": IntervalVector.point([0.3, 0.7])})
    assert got.contains_point((0.41, 0.59), 1e-12)
    assert got.max_width <= 1e-12


def test_lambda_hat_no_children_is_uniform():
    net = build_net("u", {"A": [], "B": ["A"]}, seed=2)
    got = lambda_hat(net, "B", {})
    assert got == IntervalVector.point([0.5, 0.5])


def test_lambda_hat_evidence_is_indicator():
    net = build_net("u", {"A": [], "B": ["A"]}, seed=2)
    assert lambda_hat(net, "B", {}, observed_state=1) == IntervalVector.indicator(2, 1)


def test_lambda_hat_point_product():
    net = build_net("u", {"A": [], "B": ["A"], "C": ["A"]}, seed=2)
    got = lambda_hat(
        net,
        "A",
        {
            "B": IntervalVector.point([0.5, 0.25]),
            "C": IntervalVector.point([0.4, 0.6]),
        },
    )
    raw = [0.5 * 0.4, 0.25 * 0.6]
    total = sum(raw)
    assert got.contains_point([x / total for x in raw], 1e-12)
    assert got.max_width <= 1e-12


def test_bel_hat_normalized_product():
    pi = IntervalVector.point([0.41, 0.59])
    lam = IntervalVector.point([0.5, 0.5])
    got = bel_hat(pi, lam)
    assert got.contains_point((0.41, 0.59), 1e-12)


def test_pi_msg_single_child_is_pi(chain_ab):
    pi = IntervalVector.point([0.3, 0.7])
    msg = pi_msg(chain_ab, "A", "B", pi, {})
    assert msg.kind == "pi" and msg.arc == ("A", "B")
    assert msg.value == normalize(pi)


def test_pi_msg_vacuous_siblings_widen():
    net = build_net("u", {"A": [], "B": ["A"], "C": ["A"]}, seed=2)
    pi = IntervalVector.point([0.3, 0.7])
    msg = pi_msg(net, "A", "B", pi, {"C": vacuous(2)})
    assert msg.value.contains_point((0.3, 0.7), 1e-12)
    assert msg.value.max_width > 0.2


def test_pi_msg_observed_is_indicator(chain_ab):
    msg = pi_msg(chain_ab, "A", "B", vacuous(2), {}, observed_state=0)
    assert msg.value == IntervalVector.indicator(2, 0)


def test_lambda_msg_vacuous_child_spans_rows(chain_ab):
    # message B sends to A when nothing is known below B
    got = lambda_msg(chain_ab, "B", "A", vacuous(2), {})
    want = normalize(IntervalVector([Interval(0.1, 0.9), Interval(0.2, 0.8)]))
    assert got.kind == "lambda" and got.arc == ("A", "B")
    assert got.value == want


def test_lambda_msg_point_inputs_match_point_solver(chain_ab):
    # with B observed first state: message to A is P(b0 | a), normalized
    got = lambda_msg(chain_ab, "B", "A", IntervalVector.indicator(2, 0), {})
    raw = [0.9, 0.2]
    total = sum(raw)
    assert got.value.contains_point([x / total for x in raw], 1e-12)
    assert got.value.max_width <= 1e-12


# -- propagate ----------------------------------------------------------------


def test_propagate_chain_exact(chain_ab):
    bel = propagate(chain_ab, full_active(chain_ab), {}, "B")
    assert bel.contains_point((0.41, 0.59), 1e-12)
    assert bel.max_width <= 1e-9


def test_propagate_query_only_contains_truth(chain_ab):
    bel = propagate(chain_ab, ActiveSet.initial("B"), {}, "B")
    assert bel.contains_point((0.41, 0.59), 1e-9)


def test_propagate_full_matches_point_solver():
    for seed in range(15):
        net = gen_polytree(GenSpec(node_count=9, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        want = polytree_exact(net, ev, q)
        bel = propagate(net, full_active(net), ev, q)
        assert bel.contains_point(want, 1e-9)
        assert bel.max_width <= 1e-9


def test_propagate_random_active_sets_contain_truth():
    rng = random.Random(31)
    for seed in range(25):
        net = gen_polytree(GenSpec(node_count=10, seed=40 + seed))
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        want = enumerate_marginal(net, ev, q)
        nodes = {q}
        frontier = [q]
        while frontier and rng.random() < 0.8:
            v = frontier.pop(rng.randrange(len(frontier)))
            for w in net.skeleton_neighbors(v):
                if w not in nodes and rng.random() < 0.6:
                    nodes.add(w)
                    frontier.append(w)
        arcs = {(p, c) for (p, c) in net.arcs if p in nodes and c in nodes}
        # keep only the piece connected to the query
        adj = {v: set() for v in nodes}
        for p, c in arcs:
            adj[p].add(c)
            adj[c].add(p)
        keep = {q}
        stack = [q]
        while stack:
            for w in adj[stack.pop()]:
                if w not in keep:
                    keep.add(w)
                    stack.append(w)
        active = ActiveSet(
            frozenset(keep), frozenset((p, c) for (p, c) in arcs if p in keep and c in keep)
        )
        bel = propagate(net, active, ev, q)
        assert bel.contains_point(want, 1e-9)


def test_propagate_rejects_loopy_active_set(diamond):
    with pytest.raises(ValueError, match="propagate_mixed"):
        propagate(diamond, full_active(diamond), {}, "D")


def test_root_query_alone_gives_prior():
    net = build_net("r", {"A": [], "B": ["A"], "C": ["B"]}, seed=6)
    bel = propagate(net, ActiveSet.initial("A"), {}, "A")
    want = enumerate_marginal(net, {}, "A")
    assert bel.contains_point(want, 1e-12)
    assert bel.max_width <= 1e-12


def test_active_set_validation(chain_ab):
    with pytest.raises(ValueError):
        ActiveSet(frozenset({"A"}), frozenset()).validate(chain_ab, "B")
    with pytest.raises(ValueError):
        ActiveSet(frozenset({"A", "B"}), frozenset()).validate(chain_ab, "B")
    ActiveSet(frozenset({"A", "B"}), frozenset({("A", "B")})).validate(chain_ab, "B")


# -- cache --------------------------------------------------------------------


def test_cache_update_semantics():
    cache = MessageCache()
    msg = Message("pi", ("A", "B"), IntervalVector([Interval(0.2, 0.6), Interval(0.4, 0.8)]))
    assert cache_update(cache, msg) is True
    assert cache_update(cache, msg) is False
    narrowed = Message("pi", ("A", "B"), IntervalVector([Interval(0.3, 0.6), Interval(0.4, 0.7)]))
    assert cache_update(cache, narrowed) is True


def test_cached_and_uncached_runs_identical():
    for seed in range(10):
        net = gen_polytree(GenSpec(node_count=10, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice(net.node_ids())
        with_cache = answer_query(net, q, ev, strategy="bfs", use_cache=True)
        without = answer_query(net, q, ev, strategy="bfs", use_cache=False)
        assert with_cache.bels == without.bels
    for seed in range(5):
        net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.25, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice(net.node_ids())
        a = answer_query(net, q, ev, strategy="delayed", use_cache=True)
        b = answer_query(net, q, ev, strategy="delayed", use_cache=False)
        assert a.bels == b.bels


def test_cache_saves_visits():
    net = gen_polytree(GenSpec(node_count=40, seed=3))
    q = net.node_ids()[5]
    cached = answer_query(net, q, {}, use_cache=True)
    uncached = answer_query(net, q, {}, use_cache=False)
    assert cached.bels == uncached.bels
    assert cached.node_visits < uncached.node_visits


# -- expansion ----------------------------------------------------------------


def test_expand_chain_one_step():
    net = build_net("c", {"A": [], "B": ["A"], "C": ["B"]}, seed=1)
    grown = expand(ActiveSet.initial("C"), "bfs", net, "C", {"A": 0})
    assert grown.nodes == frozenset({"B", "C"})
    assert grown.arcs == frozenset({("B", "C")})


def test_expand_no_loops_excludes_closing_arc(figure_net):
    strat = NoLoops()
    rel = relevant_set(figure_net, "C", {"X": 0})
    active = ActiveSet.initial("C")
    while True:
        nxt = strat.step(figure_net, active, "C", {"X": 0}, rel)
        if nxt is None or nxt == active:
            break
        active = nxt
    assert is_polytree_subgraph(active)
    assert active.nodes == frozenset("YABCDX")
    assert ("B", "D") not in active.arcs
    assert ("A", "B") in active.arcs


def is_polytree_subgraph(active):
    parent = {v: v for v in active.nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for p, c in active.arcs:
        rp, rc = find(p), find(c)
        if rp == rc:
            return False
        parent[rp] = rc
    return True


def test_expand_fixed_point_returns_none():
    net = build_net("c", {"A": [], "B": ["A"]}, seed=1)
    active = ActiveSet(frozenset({"A", "B"}), frozenset({("A", "B")}))
    assert expand(active, BreadthFirst(), net, "B", {}) is None


def test_no_loops_stays_polytree_on_random_networks():
    for seed in range(10):
        net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice(net.node_ids())
        rel = relevant_set(net, q, ev)
        strat = NoLoops()
        active = ActiveSet.initial(q)
        while True:
            assert is_polytree_subgraph(active)
            nxt = strat.step(net, active, q, ev, rel)
            if nxt is None or nxt == active:
                break
            active = nxt


def test_strategy_names_are_one_growth_rule_by_loop_delay():
    assert make_strategy("bfs").delay == 0
    assert make_strategy("no-loops").delay is None
    assert make_strategy("delayed", 3).delay == 3
    assert BreadthFirst().delay == 0 and NoLoops().delay is None
    with pytest.raises(ValueError, match="unknown strategy"):
        make_strategy("depth-first")


def test_reused_strategy_object_gives_identical_queries():
    # Waiting rounds must not carry over from one query into the next.
    for seed in range(6):
        net = gen_loopy(GenSpec(node_count=14, topology="loopy", arc_ratio=1.2, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        strat = DelayedLoops(2)
        first = answer_query(net, q, ev, strategy=strat)
        second = answer_query(net, q, ev, strategy=strat)
        assert first.bels == second.bels
        assert first.bels == answer_query(net, q, ev, strategy=DelayedLoops(2)).bels


def test_expansion_saturates_at_relevant_set():
    for seed in range(10):
        net = gen_polytree(GenSpec(node_count=12, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        res = answer_query(net, q, ev, stop=StopCriterion.width(0.0))
        if res.status == SATISFIED:
            # a float-exact point answer can stop the loop early
            assert res.bel.max_width == 0.0
        else:
            assert res.status == SATURATED
            assert res.active_nodes[-1] == len(relevant_set(net, q, ev))


# -- the anytime loop ----------------------------------------------------------


def test_width_one_satisfied_immediately(diamond):
    res = answer_query(diamond, "D", {}, stop=StopCriterion.width(1.0))
    assert res.status == SATISFIED
    assert res.iterations == 1


def test_zero_width_on_polytree_reaches_point(chain_ab):
    res = answer_query(chain_ab, "B", {}, stop=StopCriterion.width(0.0))
    assert res.status in (SATURATED, SATISFIED)
    assert res.active_nodes[-1] == 2
    assert res.bel.max_width <= 1e-9
    assert res.bel.contains_point((0.41, 0.59), 1e-9)


def test_threshold_stops_when_resolved(chain_ab):
    stop = StopCriterion.prob_threshold(0, ">", 0.3)
    res = answer_query(chain_ab, "B", {}, stop=stop)
    assert res.status == SATISFIED
    assert res.threshold_answer is True
    stop = StopCriterion.prob_threshold(0, ">", 0.9)
    res = answer_query(chain_ab, "B", {}, stop=stop)
    assert res.status == SATISFIED
    assert res.threshold_answer is False


def test_budget_exhaustion_reported():
    net = gen_polytree(GenSpec(node_count=60, seed=5))
    res = answer_query(net, net.node_ids()[0], {}, stop=StopCriterion.width(0.0), budget_ms=0.0)
    assert res.status == BUDGET
    assert res.iterations >= 1


def test_every_iteration_sound(chain_ab):
    res = answer_query(chain_ab, "B", {}, stop=StopCriterion.width(0.0))
    for bel in res.bels:
        assert bel.contains_point((0.41, 0.59), 1e-9)
    assert res.widths == [b.max_width for b in res.bels]
    assert len(res.elapsed) == res.iterations == len(res.active_nodes)


def test_stop_criterion_validation():
    with pytest.raises(ValueError):
        StopCriterion()
    with pytest.raises(ValueError):
        StopCriterion(target_width=0.5, threshold=(0, ">", 0.5))
    with pytest.raises(ValueError):
        StopCriterion(target_width=1.5)
    with pytest.raises(ValueError):
        StopCriterion(threshold=(0, ">=", 0.5))


def test_message_invariants():
    with pytest.raises(ValueError):
        Message("rho", ("A", "B"), vacuous(2))
    with pytest.raises(ValueError):
        Message("pi", ("A", "B"), IntervalVector.point([0.5, 0.5]), vacuous=True)
    msg = Message.vacuous_message("lambda", ("A", "B"), 3)
    assert msg.vacuous and msg.value == vacuous(3)

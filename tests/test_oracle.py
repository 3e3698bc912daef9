import itertools
import math
import random
import time

import pytest

from boundprop import BeliefNetwork, enumerate_marginal, parse_network, polytree_exact
from boundprop.intervals import ConflictingEvidenceError
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence
from boundprop.oracle import STATE_SPACE_CAP, StateSpaceError

from conftest import build_net, clamped_state_range, grid_spec


def brute_force(net, evidence):
    """The posterior of every node under ``evidence`` alone (the
    network's stored evidence is not read), summed over every joint
    state of the network."""
    ids = net.node_ids()
    assert len(ids) <= 10
    sums = {v: [0.0] * net.state_count(v) for v in ids}
    for states in itertools.product(*(range(net.state_count(v)) for v in ids)):
        at = dict(zip(ids, states))
        if any(at[v] != s for v, s in evidence.items()):
            continue
        p = 1.0
        for n in net.nodes:
            row = 0
            for u in n.parents:
                row = row * net.state_count(u) + at[u]
            p *= n.cpt[row][at[n.id]]
        for v, s in at.items():
            sums[v][s] += p
    total = sum(sums[ids[0]])
    if total <= 0.0:
        raise ConflictingEvidenceError("evidence has zero probability")
    return {v: tuple(x / total for x in out) for v, out in sums.items()}


def test_chain_hand_value(chain_ab):
    assert enumerate_marginal(chain_ab, {}, "B") == pytest.approx((0.41, 0.59))
    assert polytree_exact(chain_ab, {}, "B") == pytest.approx((0.41, 0.59))


def test_uniform_root():
    net = build_net("u", {"A": [], "B": ["A"]})
    assert enumerate_marginal(net, {}, "A") == pytest.approx((0.5, 0.5))


def test_evidence_on_query_is_indicator():
    net = build_net("u", {"A": [], "B": ["A"]}, seed=5)
    assert enumerate_marginal(net, {"B": 1}, "B") == (0.0, 1.0)
    assert polytree_exact(net, {"B": 1}, "B") == (0.0, 1.0)


def test_deterministic_chain_propagates_indicator():
    text = (
        "network d\nnode A states t f\nnode B states t f\nnode C states t f\n"
        "parents A\nparents B A\nparents C B\n"
        "cpt A\n1 0\ncpt B\n1 0\n0 1\ncpt C\n1 0\n0 1\n"
    )
    net = parse_network(text)
    assert polytree_exact(net, {}, "C") == pytest.approx((1.0, 0.0))
    assert enumerate_marginal(net, {}, "C") == pytest.approx((1.0, 0.0))


def test_cross_oracle_agreement():
    for seed in range(30):
        net = gen_polytree(GenSpec(node_count=random.Random(seed).randint(3, 12), seed=seed))
        rng = random.Random(seed + 500)
        ev = sample_evidence(net, rng)
        for q in rng.sample(net.node_ids(), 3):
            a = enumerate_marginal(net, ev, q)
            b = polytree_exact(net, ev, q)
            assert a == pytest.approx(b, abs=1e-9)


def test_polytree_exact_rejects_loops():
    net = gen_loopy(GenSpec(node_count=6, topology="loopy", arc_ratio=1.2, seed=1))
    with pytest.raises(ValueError):
        polytree_exact(net, {}, "n0")


def test_elimination_matches_brute_force_on_loopy_networks():
    for seed in range(40):
        rng = random.Random(seed)
        spec = GenSpec(node_count=rng.randint(5, 10), topology="loopy",
                       arc_ratio=rng.choice([1.1, 1.2, 1.3]), seed=seed)
        net = gen_loopy(spec)
        ev = sample_evidence(net, rng)
        want = brute_force(net, ev)
        # Every node is asked, an observed one included when there is one.
        for q in net.node_ids():
            assert enumerate_marginal(net, ev, q) == pytest.approx(want[q], abs=1e-12, rel=0)


def test_elimination_lays_the_callers_evidence_over_the_stored_one():
    for seed in range(10):
        rng = random.Random(seed)
        net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.4, seed=seed))
        stored_nodes = rng.sample(net.node_ids(), 3)
        stored = {v: rng.randrange(net.state_count(v)) for v in stored_nodes}
        # The caller overrides one stored node and adds one of its own.
        first = stored_nodes[0]
        caller = {first: (stored[first] + 1) % net.state_count(first)}
        extra = next(v for v in net.node_ids() if v not in stored)
        caller[extra] = 0
        with_stored = BeliefNetwork(net.name, net.nodes, evidence=stored)
        merged = {**stored, **caller}
        want = brute_force(net, merged)
        for q in net.node_ids():
            assert enumerate_marginal(with_stored, caller, q) == pytest.approx(want[q], abs=1e-12, rel=0)


def test_zero_probability_evidence_on_a_loopy_network():
    # A -> B, A -> C, {B, C} -> D, all copies of A: B and C cannot differ.
    text = (
        "network d\nnode A states t f\nnode B states t f\nnode C states t f\nnode D states t f\n"
        "parents A\nparents B A\nparents C A\nparents D B C\n"
        "cpt A\n0.4 0.6\ncpt B\n1 0\n0 1\ncpt C\n1 0\n0 1\ncpt D\n1 0\n0.5 0.5\n0.5 0.5\n0 1\n"
    )
    net = parse_network(text)
    for ev in ({"B": 0, "C": 1}, {"A": 0, "D": 1}):
        with pytest.raises(ConflictingEvidenceError):
            brute_force(net, ev)
        for q in "ABCD":
            with pytest.raises(ConflictingEvidenceError):
                enumerate_marginal(net, ev, q)
    want = brute_force(net, {"D": 0})
    for q in "ABCD":
        assert enumerate_marginal(net, {"D": 0}, q) == pytest.approx(want[q], abs=1e-12, rel=0)


def test_elimination_answers_a_40_node_polytree():
    # 40 nodes of at least 2 states each: a joint table past 2^40 entries,
    # but no factor along the elimination of a polytree is large.
    net = gen_polytree(GenSpec(node_count=40, seed=0))
    ev = sample_evidence(net, random.Random(3))
    for q in ("n0", "n17", "n39"):
        assert enumerate_marginal(net, ev, q) == pytest.approx(polytree_exact(net, ev, q), abs=1e-12)


def many_observations(n=4000, observed=800, seed=1):
    """A seeded n-node polytree with ``observed`` nodes at random states:
    the evidence then has a probability far below the smallest double."""
    net = gen_polytree(GenSpec(node_count=n, seed=seed))
    rng = random.Random(seed)
    return net, {v: rng.randrange(net.state_count(v)) for v in rng.sample(net.node_ids(), observed)}


def test_elimination_answers_a_large_polytree_under_hundreds_of_observations():
    net, ev = many_observations()
    free = [v for v in net.node_ids() if v not in ev]
    for q in (free[0], free[len(free) // 2], free[-1], next(iter(ev))):
        assert enumerate_marginal(net, ev, q) == pytest.approx(polytree_exact(net, ev, q), abs=1e-9)


def test_state_space_error_comes_fast_in_a_short_line_that_names_the_cap():
    # A 30 x 30 grid asked at its far corner: every node is an ancestor,
    # and eliminating a grid needs factors over about a row of nodes.
    net = build_net("grid", grid_spec(30), seed=3)
    t0 = time.perf_counter()
    with pytest.raises(StateSpaceError) as err:
        enumerate_marginal(net, {}, "g29_29")
    assert time.perf_counter() - t0 < 1.0
    message = str(err.value)
    assert len(message) < 200
    assert "over 900 nodes needs 2^" in message
    assert f"exceeds cap 2^{math.log2(STATE_SPACE_CAP):g}" in message


def test_conflicting_evidence_detected():
    text = (
        "network d\nnode A states t f\nnode B states t f\n"
        "parents A\nparents B A\n"
        "cpt A\n1 0\ncpt B\n1 0\n0 1\n"
    )
    net = parse_network(text)
    with pytest.raises(ConflictingEvidenceError):
        enumerate_marginal(net, {"A": 0, "B": 1}, "B")


def test_oracles_check_their_inputs_as_the_engine_does(chain_ab, figure_net):
    for oracle in (enumerate_marginal, polytree_exact):
        with pytest.raises(KeyError):
            oracle(chain_ab, {}, "zz")
        with pytest.raises(KeyError):
            oracle(chain_ab, {"Z": 0}, "A")
        for state in (2, -1, 0.5, 1.0, True, "1"):
            with pytest.raises(ValueError):
                oracle(chain_ab, {"B": state}, "A")
    with pytest.raises(KeyError):
        clamped_state_range(figure_net, {}, "zz", "B")
    with pytest.raises(ValueError):
        clamped_state_range(figure_net, {"X": 2}, "C", "B")


def test_clamped_state_range_brackets_conditionals(figure_net):
    ranges = clamped_state_range(figure_net, {"X": 0}, "C", "B")
    direct = enumerate_marginal(figure_net, {"X": 0}, "C")
    # the b-wise envelope straddles the mixed conditional
    for (lo, hi), v in zip(ranges, direct):
        assert lo <= v + 1e-9
        assert hi >= v - 1e-9


def test_polytree_exact_answers_on_a_long_chain():
    n = 5000
    net = build_net("long", {f"n{i}": [f"n{i - 1}"] if i else [] for i in range(n)}, seed=8)
    # With no evidence the marginal is the forward product of the tables.
    forward = list(net.node("n0").cpt[0])
    for i in range(1, n):
        rows = net.node(f"n{i}").cpt
        forward = [sum(p * row[j] for p, row in zip(forward, rows)) for j in range(2)]
    assert polytree_exact(net, {}, f"n{n - 1}") == pytest.approx(forward, abs=1e-12)
    # Evidence at the far end reaches the query through every message.
    bel = polytree_exact(net, {f"n{n - 1}": 0}, "n0")
    assert sum(bel) == pytest.approx(1.0) and min(bel) >= 0.0

"""Each kernel fast path against the general body it skips.

The general bodies below are the kernels without their fast paths: joint
weights for every parent set, the outer pass for every lambda message,
a product from ones for every lambda value and both greedy passes for
every dot.  On any input a kernel must give the same floats, compared by
``float.hex``, or raise the same error.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundprop import ActiveSet, BeliefNetwork, lambda_hat, lambda_msg, loops, pi_hat, propagate
from boundprop.engine import (
    _joint_weights,
    _lambda_message_kernel,
    _lambda_value_kernel,
    _normalized_product,
    _pi_value_kernel,
)
from boundprop.intervals import (
    IntervalVector,
    _dot_bounds,
    _extreme,
    _normalized,
    _orders,
    _outward,
    _spare,
    vacuous,
)
from boundprop.netgen import GenSpec, gen_loopy
from boundprop.network import Node, find_loop_clusters

# -- the general bodies -------------------------------------------------------


def _general_dot(a_lo, a_hi, b, spare, orders):
    lower = _extreme(a_lo, b.lo, b.hi, spare, orders[0])
    upper = _extreme(a_hi, b.lo, b.hi, spare, orders[1])
    return _outward(lower, upper) if lower > upper else (lower, upper)


def _general_pi_value(net, x, parent_msgs):
    columns, orders, _ = net._kernel_tables(x)
    weights = _joint_weights(parent_msgs)
    spare = _spare(weights, len(columns[0]))
    bounds = [_general_dot(c, c, weights, spare, o) for c, o in zip(columns, orders)]
    return _normalized(*zip(*bounds))


def _general_lambda_message(net, x, u, lam, coparent_msgs):
    parents = net.parents(x)
    n_u = net.state_count(u)
    stride = math.prod(map(net.state_count, parents[parents.index(u) + 1 :]))
    rows = net.node(x).cpt
    _, _, orders = net._kernel_tables(x)
    weights = _joint_weights(coparent_msgs)
    spare = _spare(lam, len(rows[0]))
    inner = [_general_dot(r, r, lam, spare, o) for r, o in zip(rows, orders)]
    runs = [inner[b : b + stride] for b in range(0, len(inner), stride)]
    spare = _spare(weights, len(rows) // n_u)
    out = []
    for y in range(n_u):
        a_lo, a_hi = zip(*[d for run in runs[y::n_u] for d in run])
        if min(a_lo) < 0.0:
            raise ValueError("simplex_dot requires nonnegative entries")
        out.append(_general_dot(a_lo, a_hi, weights, spare, _orders(a_lo, a_hi)))
    return _normalized(*zip(*out))


def _general_lambda_value(n, child_msgs):
    return _normalized_product(IntervalVector.ones(n), child_msgs)


def _outcome(kernel, *args):
    """The floats a kernel returns as hex, or the error it raises."""
    try:
        vec, scale = kernel(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return [v.hex() for v in (*vec.lo, *vec.hi, *scale)]


# -- inputs -------------------------------------------------------------------


@st.composite
def _distribution(draw, k):
    # Small integer weights make ties and zeros common; a zero may be -0.0.
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    zero = draw(st.sampled_from((0.0, -0.0)))
    return tuple(v / sum(raw) if v else zero for v in raw)


@st.composite
def _message(draw, k, bad=True):
    """A coherent box (its lower bounds zero in an "open" one), a point,
    an indicator or a vacuous vector; with ``bad``, also one with a
    negative bound or one state too many."""
    kinds = ("box", "open", "point", "indicator", "vacuous") + (("negative", "long") if bad else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "vacuous":
        return vacuous(k)
    if kind == "long":
        return draw(_message(k + 1, bad=False))
    if kind == "indicator":
        return IntervalVector.indicator(k, draw(st.integers(0, k - 1)))
    p = draw(_distribution(k))
    if kind == "point":
        return IntervalVector.point(p)
    if kind == "negative":
        return IntervalVector.from_bounds((-0.25,) + p[1:], p)
    r = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k))
    lo = [0.0] * k if kind == "open" else [v * f for v, f in zip(p, r)]
    return IntervalVector.from_bounds(lo, [v + (1.0 - v) * f for v, f in zip(p, r[k:])])


@st.composite
def _net(draw, min_parents=0):
    """Node x with 0-3 root parents p0, p1, ...; every node has 2-4 states."""
    m = draw(st.integers(min_parents, 3))
    counts = draw(st.lists(st.integers(2, 4), min_size=m + 1, max_size=m + 1))
    states = [tuple(f"s{j}" for j in range(k)) for k in counts]
    nodes = [Node(f"p{i}", states[i], (), (draw(_distribution(counts[i])),)) for i in range(m)]
    cpt = tuple(draw(_distribution(counts[m])) for _ in range(math.prod(counts[:m])))
    nodes.append(Node("x", states[m], tuple(f"p{i}" for i in range(m)), cpt))
    return BeliefNetwork("fast", nodes)


def _parent_messages(draw, net, parents):
    # All vacuous a third of the time, as outside the active set.
    if draw(st.integers(0, 2)) == 0:
        return [vacuous(net.state_count(p) + draw(st.sampled_from((0, 0, 0, 1)))) for p in parents]
    return [draw(_message(net.state_count(p))) for p in parents]


# -- bit for bit ----------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_net(), st.data())
def test_pi_value_fast_paths_equal_the_general_body(net, data):
    # One parent, every parent vacuous, and point weights (no parent, or
    # point messages) each skip work; nothing else may change.
    msgs = _parent_messages(data.draw, net, net.parents("x"))
    want = _outcome(_general_pi_value, net, "x", msgs)
    assert _outcome(_pi_value_kernel, net, "x", msgs) == want


@settings(max_examples=150, deadline=None)
@given(_net(min_parents=1), st.data())
def test_lambda_message_fast_paths_equal_the_general_body(net, data):
    # With one parent there are no co-parents and no outer pass; a point
    # lambda makes every inner dot a point dot.
    parents = net.parents("x")
    u = data.draw(st.sampled_from(parents))
    lam = data.draw(_message(net.state_count("x")))
    others = _parent_messages(data.draw, net, [p for p in parents if p != u])
    want = _outcome(_general_lambda_message, net, "x", u, lam, others)
    assert _outcome(_lambda_message_kernel, net, "x", u, lam, others) == want


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4), st.data())
def test_lambda_value_fast_path_equals_the_general_body(n, data):
    msgs = data.draw(st.lists(_message(n), max_size=3))
    assert _outcome(_lambda_value_kernel, n, msgs) == _outcome(_general_lambda_value, n, msgs)


@settings(max_examples=150, deadline=None)
@given(_net(), st.data())
def test_point_dot_fast_path_equals_the_general_body(net, data):
    columns, orders, _ = net._kernel_tables("x")
    weights = data.draw(_message(len(columns[0]), bad=False))
    spare = _spare(weights, len(columns[0]))
    for c, o in zip(columns, orders):
        got = _dot_bounds(c, c, weights, spare, o)
        assert [v.hex() for v in got] == [v.hex() for v in _general_dot(c, c, weights, spare, o)]


# -- the checks a fast path skips still raise ---------------------------------

CHAIN = BeliefNetwork(
    "chain",
    [
        Node("A", ("t", "f"), (), ((0.3, 0.7),)),
        Node("B", ("t", "f"), ("A",), ((0.9, 0.1), (0.2, 0.8))),
    ],
)


def test_one_parent_pi_value_rejects_a_negative_bound():
    negative = IntervalVector.from_bounds((-0.25, 0.5), (0.5, 1.0))
    with pytest.raises(ValueError, match="nonnegative message bounds"):
        pi_hat(CHAIN, "B", {"A": negative})


def test_vacuous_pi_value_rejects_a_wrong_length():
    # Also once the network keeps B's prior under a vacuous parent.
    for _ in range(2):
        with pytest.raises(ValueError, match="equal-length"):
            pi_hat(CHAIN, "B", {"A": vacuous(3)})
        pi_hat(CHAIN, "B", {})


def test_lambda_message_without_coparents_rejects_a_negative_inner_bound():
    # Under this lambda the inner bound of A's state t is [-0.7, -0.3].
    lam = IntervalVector.from_bounds((-1.0, 0.0), (-0.5, 2.0))
    with pytest.raises(ValueError, match="nonnegative entries"):
        lambda_msg(CHAIN, "B", "A", lam, {})


FORK = BeliefNetwork(
    "fork",
    [
        Node("A", ("t", "f"), (), ((0.3, 0.7),)),
        Node("B", ("t", "f"), ("A",), ((0.9, 0.1), (0.2, 0.8))),
        Node("C", ("t", "f"), ("A",), ((0.6, 0.4), (0.5, 0.5))),
    ],
)


@pytest.mark.parametrize("first", [vacuous(3), IntervalVector.from_bounds((-0.25, 0.5), (0.5, 1.0))])
def test_lambda_value_checks_its_first_child_message(first):
    with pytest.raises(ValueError, match="equal lengths and nonnegative bounds"):
        lambda_hat(FORK, "A", {"B": first, "C": IntervalVector.point((0.5, 0.5))})


# -- a tree is evaluated without a loop search --------------------------------


def _connected_sets(net, rng, count):
    """Random connected active sets of ``net`` holding every arc among
    their nodes or, half the time, a spanning tree of them."""
    for _ in range(count):
        start = rng.choice(net.node_ids())
        nodes, frontier, arcs = {start}, [start], set()
        while frontier and len(nodes) < 10:
            v = frontier.pop(rng.randrange(len(frontier)))
            for w in net.skeleton_neighbors(v):
                if w not in nodes and rng.random() < 0.7:
                    nodes.add(w)
                    frontier.append(w)
                    arcs.add((v, w) if v in net.parents(w) else (w, v))
        if rng.random() < 0.5:
            arcs = {(p, c) for (p, c) in net.arcs if p in nodes and c in nodes}
        yield start, ActiveSet(frozenset(nodes), frozenset(arcs))


def test_only_a_set_with_a_cycle_searches_and_conditions(monkeypatch):
    searched, conditioned = [], []
    search, condition = loops.find_loop_clusters, loops._conditioned_bel

    def counted_search(*args):
        searched.append(args)
        return search(*args)

    def counted_condition(*args):
        conditioned.append(args)
        return condition(*args)

    monkeypatch.setattr(loops, "find_loop_clusters", counted_search)
    monkeypatch.setattr(loops, "_conditioned_bel", counted_condition)
    rng = random.Random(17)
    trees = cycles = 0
    for seed in range(12):
        net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.3, seed=seed))
        for query, active in _connected_sets(net, rng, 5):
            searched.clear()
            conditioned.clear()
            propagate(net, active, {}, query)
            tree = len(active.arcs) == len(active.nodes) - 1
            assert bool(find_loop_clusters(active.nodes, active.arcs)) != tree
            assert len(searched) == (0 if tree else 1)
            assert len(conditioned) == (0 if tree else 1)
            trees += tree
            cycles += not tree
    assert trees > 10 and cycles > 10

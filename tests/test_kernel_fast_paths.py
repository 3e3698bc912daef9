"""Each kernel fast path against the general body it skips.

The general bodies below are the kernels without their fast paths: joint
weights for every parent set, the outer pass for every lambda message,
a product from ones for every lambda value and both greedy passes for
every dot.  On any input a kernel must give the same floats, compared by
``float.hex``, or raise the same error.  ``_general_dot`` sums through
``_weighted_sum``, which ``_dot_table`` calls only for a NaN sum.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundprop import ActiveSet, BeliefNetwork, intervals, lambda_hat, lambda_msg, loops, pi_hat, propagate
from boundprop.engine import (
    _joint_weights,
    _Run,
    _lambda_message_kernel,
    _lambda_value_kernel,
    _normalized_product,
    _pi_value_kernel,
)
from boundprop.intervals import (
    IntervalVector,
    _dot_table,
    _fill,
    _normalized,
    _orders,
    _outward,
    _spare,
    _table_message,
    _weighted_sum,
    vacuous,
)
from boundprop.netgen import GenSpec, gen_loopy
from boundprop.network import Node, _Context, find_loop_clusters

# -- the general bodies -------------------------------------------------------


def _general_dot(a_lo, a_hi, b, spare, orders):
    lower = _weighted_sum(a_lo, _fill(b.lo, b.hi, spare, orders[0]))
    upper = _weighted_sum(a_hi, _fill(b.lo, b.hi, spare, orders[1]))
    return _outward(lower, upper) if lower > upper else (lower, upper)


def _general_pi_value(net, x, parent_msgs):
    columns, orders, _, _, _ = net._kernel_tables(x)
    weights = _joint_weights(parent_msgs)
    spare = _spare(weights, len(columns[0]))
    bounds = [_general_dot(c, c, weights, spare, o) for c, o in zip(columns, orders)]
    return _normalized(*zip(*bounds))


def _general_lambda_message(net, x, u, lam, coparent_msgs):
    parents = net.parents(x)
    n_u = net.state_count(u)
    stride = math.prod(map(net.state_count, parents[parents.index(u) + 1 :]))
    rows = net.node(x).cpt
    _, _, orders, _, _ = net._kernel_tables(x)
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
def _net(draw, min_parents=0, max_parents=3):
    """Node x with min_parents to max_parents (0-3 by default) root
    parents p0, p1, ...; every node has 2-4 states."""
    m = draw(st.integers(min_parents, max_parents))
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
    columns, orders, _, _, _ = net._kernel_tables("x")
    weights = data.draw(_message(len(columns[0]), bad=False))
    spare = _spare(weights, len(columns[0]))
    got = zip(*_dot_table(columns, columns, orders, weights, spare))
    want = [_general_dot(c, c, weights, spare, o) for c, o in zip(columns, orders)]
    assert [[v.hex() for v in pair] for pair in got] == [[v.hex() for v in pair] for pair in want]


def _dot_outcome(dot, los, his, weights):
    """Each row's bounds from ``dot`` as hex, or the error it raises."""
    try:
        spare = _spare(weights, len(los[0]))
        return [[v.hex() for v in pair] for pair in dot(los, his, weights, spare)]
    except ValueError as exc:
        return type(exc), str(exc)


def _table_dot(los, his, weights, spare):
    return zip(*_dot_table(los, his, list(map(_orders, los, his)), weights, spare))


def _general_table_dot(los, his, weights, spare):
    return [_general_dot(lo, hi, weights, spare, _orders(lo, hi)) for lo, hi in zip(los, his)]


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 4), st.data())
def test_dots_with_an_infinity_equal_the_general_body(k, data):
    # An infinite row entry against a zero weight makes a NaN product, so
    # the point table (``his is los`` against point weights) and the
    # general loop both fall back to the sum without the zero weights.
    entries = st.sampled_from((0.0, 0.25, 0.5, 2.0, math.inf))
    los = data.draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=4))
    his = los
    if data.draw(st.booleans()):
        his = [[v + data.draw(st.sampled_from((0.0, 0.5, math.inf))) for v in row] for row in los]
    weights = data.draw(_message(k, bad=False))
    if data.draw(st.booleans()):
        hi = list(weights.hi)
        hi[data.draw(st.integers(0, k - 1))] = math.inf
        weights = IntervalVector.from_bounds(weights.lo, hi)
    want = _dot_outcome(_general_table_dot, los, his, weights)
    assert _dot_outcome(_table_dot, los, his, weights) == want


@pytest.mark.parametrize(
    "weights",
    [IntervalVector.point((0.0, 1.0)), IntervalVector.from_bounds((0.0, 0.5), (0.5, math.inf))],
    ids=["point table", "general loop"],
)
def test_both_dot_branches_reach_the_nan_fallback(monkeypatch, weights):
    # Row (inf, 0.5): the point weights, and the lower bound's fill of the
    # box, put 0 on the infinite entry.
    sums = []
    monkeypatch.setattr(intervals, "_weighted_sum", lambda w, m: sums.append(w) or _weighted_sum(w, m))
    los = [(math.inf, 0.5)]
    got = _dot_outcome(_table_dot, los, los, weights)
    assert sums == [los[0]]
    assert got == _dot_outcome(_general_table_dot, los, los, weights)
    assert got[0][0] == (0.5).hex()


@st.composite
def _table(draw):
    """A table of 1-4 rows of k entries, a point one (``his is los``) or
    a box one, with zeros, signed zeros and infinities among the entries,
    against weights of k entries or, now and then, one entry too many.
    The weights are a point, a box (an infinite upper bound now and then)
    or a box whose lower bounds already hold all the mass, so that it has
    no spare mass though it is not a point."""
    k = draw(st.integers(2, 4))
    entries = st.sampled_from((0.0, -0.0, 0.25, 0.5, 2.0, math.inf))
    los = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=1, max_size=4))
    his = los
    if draw(st.booleans()):
        his = [[v + draw(st.sampled_from((0.0, 0.5, math.inf))) for v in row] for row in los]
    n = k + (draw(st.integers(0, 5)) == 0)
    kind = draw(st.sampled_from(("message", "infinite", "full")))
    weights = draw(_message(n, bad=False))
    if kind == "infinite":
        hi = list(weights.hi)
        hi[draw(st.integers(0, n - 1))] = math.inf
        weights = IntervalVector.from_bounds(weights.lo, hi)
    elif kind == "full":
        lo = [v * (1.0 + 1e-10) for v in draw(_distribution(n))]
        weights = IntervalVector.from_bounds(lo, [v + 0.25 for v in lo])
    return los, his, weights


def _chained_table_message(los, his, orders, b):
    return _normalized(*_dot_table(los, his, orders, b, _spare(b, len(los[0]))))


# A row of inf and -inf dots to NaN, and the zero row beside it would
# normalize to 0.0 and hide it: the order check must still raise, in the
# point table, the box table without spare mass and the greedy loop.
_NAN_ROW = [[math.inf, -math.inf], [0.0, 0.0]]


@settings(max_examples=400, deadline=None)
@given(_table())
@example((_NAN_ROW, _NAN_ROW, IntervalVector.point((0.5, 0.5))))
@example((_NAN_ROW, [list(row) for row in _NAN_ROW], IntervalVector.point((0.5, 0.5))))
@example((_NAN_ROW, _NAN_ROW, IntervalVector.from_bounds((0.25, 0.25), (0.75, 0.75))))
def test_table_message_equals_the_dot_then_the_normalization(case):
    los, his, weights = case
    orders = list(map(_orders, los, his))
    want = _outcome(_chained_table_message, los, his, orders, weights)
    assert _outcome(_table_message, los, his, orders, weights) == want
    # With no spare mass no fill reads an order, and weights that fail
    # their check fail before any is read.
    try:
        spare = _spare(weights, len(los[0]))
    except ValueError:
        spare = 0.0
    if spare <= 0.0:
        assert _outcome(_table_message, los, his, None, weights) == want


def _with_scale(kernel, s, *args):
    vec, z = kernel(*args)
    return vec, (s[0] * z[0], s[1] * z[1])


def _one_input_run(net):
    ctx = _Context(net, None, "x")
    return _Run(ctx, ActiveSet(frozenset(net.node_ids()), frozenset(net.arcs)), {}, {})


_SCALE = st.tuples(st.sampled_from((0.25, 0.5, 1.0)), st.sampled_from((1.0, 1.5, 3.0)))


@settings(max_examples=200, deadline=None)
@given(_net(min_parents=1, max_parents=1), _SCALE, st.data())
def test_one_input_pi_value_equals_the_general_body(net, s, data):
    # The one parent's message goes straight to the table; its scale is
    # multiplied in as the general loop over the inputs multiplies it.
    k = net.state_count("p0")
    m = data.draw(st.one_of(_message(k), st.sampled_from((vacuous(k), vacuous(k + 1)))))
    got = _outcome(_Run._compute, _one_input_run(net), ("pi_val", "x"), ((m, s),))
    assert got == _outcome(_with_scale, _general_pi_value, s, net, "x", [m])


@settings(max_examples=200, deadline=None)
@given(_net(min_parents=1, max_parents=1), _SCALE, st.data())
def test_one_input_lambda_message_equals_the_general_body(net, s, data):
    lam = data.draw(_message(net.state_count("x")))
    if data.draw(st.integers(0, 4)) == 0:
        # A negative lower bound, for the inner bounds' own check.
        lam = IntervalVector.from_bounds((-1.0,) + lam.lo[1:], (2.0,) * len(lam.hi))
    got = _outcome(_Run._compute, _one_input_run(net), ("lam_msg", "x", "p0"), ((lam, s),))
    assert got == _outcome(_with_scale, _general_lambda_message, s, net, "x", "p0", lam, [])


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
            assert bool(find_loop_clusters(active.arcs)) != tree
            assert len(searched) == (0 if tree else 1)
            assert len(conditioned) == (0 if tree else 1)
            trees += tree
            cycles += not tree
    assert trees > 10 and cycles > 10

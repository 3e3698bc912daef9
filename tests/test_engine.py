import math
import random
import sys
import time

import pytest

from boundprop import (
    ActiveSet,
    BeliefNetwork,
    StopCriterion,
    answer_query,
    bel_hat,
    enumerate_marginal,
    lambda_hat,
    lambda_msg,
    parse_network,
    pi_hat,
    pi_msg,
    polytree_exact,
    propagate,
    relevant_set,
    serialize_network,
)
from boundprop import loops
from boundprop.engine import (
    BUDGET,
    SATISFIED,
    SATURATED,
    LOOP_DELAYS,
    PACING_FACTOR,
    DelayedLoops,
    _Context,
    _Run,
    _joint_weights,
    _lambda_message_kernel,
    _lambda_value_kernel,
    _pi_value_kernel,
    _pinned,
    _uniform,
    _vacuous_lambda,
)
from boundprop.intervals import (
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    normalize_scaled,
    simplex_dot,
    vacuous,
)
from boundprop.network import Node, UnionFind
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence

from conftest import NoCache, build_net, is_coherent


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
    want, _ = normalize_scaled(IntervalVector([Interval(0.2, 0.9), Interval(0.1, 0.8)]))
    assert got == want


def test_pi_hat_point_messages_match_point_solver(chain_ab):
    got = pi_hat(chain_ab, "B", {"A": IntervalVector.point([0.3, 0.7])})
    assert got.contains_point((0.41, 0.59), 1e-12)
    assert got.max_width <= 1e-12


def test_lambda_hat_no_children_is_uniform():
    net = build_net("u", {"A": [], "B": ["A"]}, seed=2)
    got = lambda_hat(net, "B", {})
    assert got == IntervalVector.point([0.5, 0.5])


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
    assert msg == normalize_scaled(pi)[0]


def test_pi_msg_vacuous_siblings_widen():
    net = build_net("u", {"A": [], "B": ["A"], "C": ["A"]}, seed=2)
    pi = IntervalVector.point([0.3, 0.7])
    msg = pi_msg(net, "A", "B", pi, {"C": vacuous(2)})
    assert msg.contains_point((0.3, 0.7), 1e-12)
    assert msg.max_width > 0.2


def test_lambda_msg_vacuous_child_spans_rows(chain_ab):
    # message B sends to A when nothing is known below B
    got = lambda_msg(chain_ab, "B", "A", vacuous(2), {})
    want, _ = normalize_scaled(IntervalVector([Interval(0.1, 0.9), Interval(0.2, 0.8)]))
    assert got == want


def test_lambda_msg_point_inputs_match_point_solver(chain_ab):
    # with B observed first state: message to A is P(b0 | a), normalized
    got = lambda_msg(chain_ab, "B", "A", IntervalVector.indicator(2, 0), {})
    raw = [0.9, 0.2]
    total = sum(raw)
    assert got.contains_point([x / total for x in raw], 1e-12)
    assert got.max_width <= 1e-12


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda net, m: pi_hat(net, "B", {"Z": m}), "'Z', which is not a parent of 'B'"),
        (lambda net, m: pi_hat(net, "D", {"B": m, "A": m}), "'A', which is not a parent of 'D'"),
        (lambda net, m: lambda_msg(net, "D", "B", m, {"B": m}), "'B', which is not a co-parent of 'D'"),
        (lambda net, m: lambda_msg(net, "D", "B", m, {"A": m}), "'A', which is not a co-parent of 'D'"),
        (lambda net, m: lambda_hat(net, "A", {"B": m, "D": m}), "'D', which is not a child of 'A'"),
        (lambda net, m: pi_msg(net, "A", "B", m, {"D": m}), "'D', which is not a child of 'A'"),
        (lambda net, m: pi_msg(net, "A", "D", m, {}), "'D' is not a child of 'A'"),
        (lambda net, m: lambda_msg(net, "D", "A", m, {}), "'A' is not a parent of 'D'"),
    ],
)
def test_single_step_functions_reject_a_message_from_a_non_neighbour(diamond, call, message):
    # Such a message used to be ignored, its sender's real slot vacuous,
    # and a pi message to a node that is not a child was still sent.
    with pytest.raises(ValueError, match=message):
        call(diamond, vacuous(2))


def test_single_step_functions_take_each_neighbour(diamond):
    m = IntervalVector.point([0.4, 0.6])
    assert pi_hat(diamond, "D", {"B": m, "C": m}) == pi_hat(diamond, "D", {"C": m, "B": m})
    assert is_coherent(lambda_msg(diamond, "D", "B", m, {"C": m}))
    assert lambda_hat(diamond, "A", {"B": m, "C": m}) == lambda_hat(diamond, "A", {"C": m, "B": m})
    # The receiving child's own message is a child's message, left out.
    assert pi_msg(diamond, "A", "B", m, {"B": vacuous(2), "C": m}) == pi_msg(diamond, "A", "B", m, {"C": m})


# -- the table kernels against bodies that build every vector afresh ---------
#
# The references are the kernels as they were before a node's columns and
# rows, and their greedy orders, were derived once per network: every call
# builds each column or row as a point vector and dots it with the public
# ``simplex_dot``, which sorts it again.  The table kernels must give the
# same floats, scale included.


def _ref_pi_value(net, x, parent_msgs):
    node = net.node(x)
    weights = _joint_weights(parent_msgs)
    out = [
        simplex_dot(IntervalVector.point(row[i] for row in node.cpt), weights)
        for i in range(len(node.states))
    ]
    return normalize_scaled(IntervalVector(out))


def _ref_lambda_message(net, x, u, lam, coparent_msgs):
    parents = net.parents(x)
    n_u = net.state_count(u)
    stride = 1
    for p in parents[parents.index(u) + 1 :]:
        stride *= net.state_count(p)
    rows = net.node(x).cpt
    weights = _joint_weights(coparent_msgs)
    out = []
    for y in range(n_u):
        a = [
            simplex_dot(IntervalVector.point(row), lam)
            for b in range(y * stride, len(rows), stride * n_u)
            for row in rows[b : b + stride]
        ]
        out.append(simplex_dot(IntervalVector(a), weights))
    return normalize_scaled(IntervalVector(out))


def _tied_row(k, rng):
    # Small integer weights make tied entries and zeros common.
    raw = [0] * k
    while not any(raw):
        raw = [rng.choice((0, 1, 1, 2, 3)) for _ in range(k)]
    return tuple(v / sum(raw) for v in raw)


def _tied_net(rng):
    # Node x with 1-3 root parents p0, p1, ...; every node has 2-4 states.
    m = rng.randint(1, 3)
    counts = [rng.randint(2, 4) for _ in range(m + 1)]
    states = [tuple(f"s{j}" for j in range(k)) for k in counts]
    nodes = [Node(f"p{i}", states[i], (), (_tied_row(counts[i], rng),)) for i in range(m)]
    cpt = tuple(_tied_row(counts[m], rng) for _ in range(math.prod(counts[:m])))
    nodes.append(Node("x", states[m], tuple(f"p{i}" for i in range(m)), cpt))
    return BeliefNetwork("tied", nodes)


def _message(k, rng):
    kind = rng.choice(("point", "vacuous", "indicator", "boxed"))
    if kind == "vacuous":
        return vacuous(k)
    if kind == "indicator":
        return IntervalVector.indicator(k, rng.randrange(k))
    p = _tied_row(k, rng)
    if kind == "point":
        return IntervalVector.point(p)
    return IntervalVector.from_bounds(
        [v * rng.random() for v in p], [v + (1.0 - v) * rng.random() for v in p]
    )


def _kernel_outcome(kernel, *args):
    try:
        vec, scale = kernel(*args)
    except ConflictingEvidenceError:
        return "conflict"
    return vec.lo, vec.hi, (scale.lo, scale.hi) if isinstance(scale, Interval) else scale


def test_table_kernels_bit_identical_to_fresh_vector_bodies():
    rng = random.Random(12)
    cases = 0
    for _ in range(400):
        net = _tied_net(rng)
        parents = net.parents("x")
        for _ in range(3):
            msgs = [_message(net.state_count(p), rng) for p in parents]
            got = _kernel_outcome(_pi_value_kernel, net, "x", msgs)
            assert got == _kernel_outcome(_ref_pi_value, net, "x", msgs)
            lam = _message(net.state_count("x"), rng)
            for j, u in enumerate(parents):
                others = msgs[:j] + msgs[j + 1 :]
                got = _kernel_outcome(_lambda_message_kernel, net, "x", u, lam, others)
                assert got == _kernel_outcome(_ref_lambda_message, net, "x", u, lam, others)
                cases += 1
    assert cases > 1000


def test_kernel_tables_belong_to_one_network():
    # Two networks with the same node ids and state counts but different
    # tables, queried interleaved in one process, and a third built and
    # dropped each round so that a freed object's id can come back.  Every
    # answer must equal the answer on a fresh parse of its own text.
    spec = {"Y": [], "A": ["Y"], "B": ["A"], "C": ["A", "Y"], "D": ["B", "C"], "X": ["D"]}
    counts = {"A": 3, "C": 4}
    texts = [serialize_network(build_net("same", spec, seed=s, state_counts=counts)) for s in (1, 2, 3)]
    kept = [parse_network(texts[0]), parse_network(texts[1])]
    rng = random.Random(5)

    def answer(net, q, ev, strategy):
        r = answer_query(net, q, ev, strategy=strategy, stop=StopCriterion.width(0.0))
        return r.status, r.iterations, [(b.lo, b.hi) for b in r.bels]

    for _ in range(30):
        i = rng.randrange(3)
        net = kept[i] if i < 2 else parse_network(texts[2])
        q = rng.choice(net.node_ids())
        ev = {v: rng.randrange(net.state_count(v)) for v in rng.sample(net.node_ids(), 2) if v != q}
        strategy = rng.choice(("bfs", "delayed", "no-loops"))
        assert answer(net, q, ev, strategy) == answer(parse_network(texts[i]), q, ev, strategy)
    assert kept[0].node("D").cpt != kept[1].node("D").cpt


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


@pytest.mark.parametrize("nodes, arc, message", [
    ("AB", ("B", "A"), r"arc \('B', 'A'\) not in network"),
    ("AB", ("A", "Z"), r"arc \('A', 'Z'\) not in network"),
    ("B", ("A", "B"), r"arc \('A', 'B'\) endpoint outside active set"),
])
def test_propagate_rejects_a_bad_arc(chain_ab, nodes, arc, message):
    with pytest.raises(ValueError, match=message):
        propagate(chain_ab, ActiveSet(frozenset(nodes), frozenset({arc})), {}, "B")


def test_an_observed_query_in_an_impossible_state_raises():
    # B is never t: its observation contradicts the network, so the
    # belief of the observed query has no answer, whatever the active set.
    net = parse_network(
        "network z\nnode A states t f\nnode B states t f\nparents B A\n"
        "cpt A\n0.5 0.5\ncpt B\n0 1\n0 1\n"
    )
    full = ActiveSet(frozenset("AB"), frozenset({("A", "B")}))
    for active in (ActiveSet.initial("B"), full):
        with pytest.raises(ConflictingEvidenceError, match="observed state 0 of 'B' has zero probability"):
            propagate(net, active, {"B": 0}, "B")
    with pytest.raises(ConflictingEvidenceError, match="zero probability"):
        answer_query(net, "B", {"B": 0})


def test_an_uncut_loop_raises_instead_of_growing_the_stack():
    # A triangle plus a lone node: as many arcs as a tree on four nodes,
    # so the loop is neither searched for nor cut, and the triangle's
    # messages depend on each other.
    net = build_net("tri", {"A": [], "B": ["A"], "C": ["A", "B"], "D": []}, seed=3)
    active = ActiveSet(frozenset("ABCD"), frozenset({("A", "B"), ("A", "C"), ("B", "C")}))
    with pytest.raises(RuntimeError, match=r"message \(.*\) depends on itself"):
        loops.evaluate(net, active, _Context(net, {}, "C"), {})


# -- cache --------------------------------------------------------------------


def _uncached_answer(monkeypatch, *args, **kwargs):
    """``answer_query`` with every evaluation given a cache that keeps nothing."""
    evaluate = loops.evaluate
    with monkeypatch.context() as m:
        m.setattr(loops, "evaluate", lambda net, active, ctx, cache: evaluate(net, active, ctx, NoCache()))
        return answer_query(*args, **kwargs)


def test_cached_and_uncached_runs_identical(monkeypatch):
    for seed in range(10):
        net = gen_polytree(GenSpec(node_count=10, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice(net.node_ids())
        with_cache = answer_query(net, q, ev, strategy="bfs")
        without = _uncached_answer(monkeypatch, net, q, ev, strategy="bfs")
        assert with_cache.bels == without.bels
    for seed in range(5):
        net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.25, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice(net.node_ids())
        a = answer_query(net, q, ev, strategy="delayed")
        b = _uncached_answer(monkeypatch, net, q, ev, strategy="delayed")
        assert a.bels == b.bels
    # Runs under cutset clamps share the cache with the runs without them.
    conditioned = []
    inner = loops._conditioned_bel

    def spy(*args):
        conditioned.append(args[2])
        return inner(*args)

    monkeypatch.setattr(loops, "_conditioned_bel", spy)
    for seed in range(5):
        net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        a = answer_query(net, q, ev, strategy="bfs")
        b = _uncached_answer(monkeypatch, net, q, ev, strategy="bfs")
        assert (a.bels, a.status, a.iterations) == (b.bels, b.status, b.iterations)
    assert any(conditioned)


def test_cache_saves_visits(monkeypatch):
    net = gen_polytree(GenSpec(node_count=40, seed=3))
    q = net.node_ids()[10]
    cached = answer_query(net, q, {})
    uncached = _uncached_answer(monkeypatch, net, q, {})
    assert cached.bels == uncached.bels
    assert cached.node_visits < uncached.node_visits


def test_shared_cache_reuses_nothing_across_evidence():
    # A -> B -> C with the active set {A, B}.  Without evidence C sums out
    # of the posterior; with C observed, the absent arc B -> C leads to
    # evidence and B's likelihood turns vacuous, so no stored message
    # from the first call fits the second.
    net = build_net("abc", {"A": [], "B": ["A"], "C": ["B"]}, seed=5)
    active = ActiveSet(frozenset({"A", "B"}), frozenset({("A", "B")}))
    cache = {}
    loops.evaluate(net, active, _Context(net, {}, "A"), cache)
    bel, _ = loops.evaluate(net, active, _Context(net, {"C": 0}, "A"), cache)
    assert bel.contains_point(enumerate_marginal(net, {"C": 0}, "A"))
    assert bel == propagate(net, active, {"C": 0}, "A")


def test_cache_is_shared_with_clamped_runs(figure_net):
    # Every cutset instance reuses the messages no clamp reaches.
    ctx = _Context(figure_net, {"X": 0}, "D")
    active = full_active(figure_net)
    cached, cached_visits = loops.evaluate(figure_net, active, ctx, {})
    fresh, fresh_visits = loops.evaluate(figure_net, active, ctx, NoCache())
    assert cached == fresh
    assert cached_visits < fresh_visits


CHAIN3 = """
network chain3
node A states a0 a1 a2
node B states b0 b1 b2
node C states c0 c1 c2
parents A
parents B A
parents C B
cpt A
0.2 0.3 0.5
cpt B
0.7 0.2 0.1
0.1 0.6 0.3
0.2 0.2 0.6
cpt C
0.8 0.1 0.1
0.1 0.8 0.1
0.1 0.1 0.8
"""


def test_a_message_with_one_input_is_that_input():
    # With A outside the active set, B's pi value is a box.  Its message
    # to C has no other input, so the engine passes the box on, where the
    # public pi_msg normalizes it a second time, which here widens it.
    net = parse_network(CHAIN3)
    active = ActiveSet(frozenset({"B", "C"}), frozenset({("B", "C")}))
    bel = propagate(net, active, {}, "C")
    pi_b = pi_hat(net, "B", {})
    msg = pi_msg(net, "B", "C", pi_b, {})
    assert all(lo < a or hi > b for lo, hi, a, b in zip(msg.lo, msg.hi, pi_b.lo, pi_b.hi))
    composed = bel_hat(pi_hat(net, "C", {"B": msg}), lambda_hat(net, "C", {}))
    assert all(c_lo < lo and hi < c_hi for lo, hi, c_lo, c_hi in zip(bel.lo, bel.hi, composed.lo, composed.hi))
    assert bel.contains_point(enumerate_marginal(net, {}, "C"))


CHAIN5 = {f"n{i}": [f"n{i - 1}"] if i else [] for i in range(5)}


def test_aliased_messages_are_neither_computed_nor_cached():
    # n0 -> ... -> n4 with n4 observed, asking n2.  The kernels run for
    # pi values n1 and n2 and lambda messages n4->n3 and n3->n2; the pi
    # messages n0->n1 and n1->n2 and the lambda values of n2 and n3 are
    # their one input, and n0's pi value and n4's lambda value are
    # constants.
    net = build_net("chain5", CHAIN5, seed=3)
    cache = {}
    bel, visits = loops.evaluate(net, full_active(net), _Context(net, {"n4": 0}, "n2"), cache)
    assert visits == 4
    assert sorted(cache) == [
        ("lam_msg", "n3", "n2"), ("lam_msg", "n4", "n3"), ("pi_val", "n1"), ("pi_val", "n2"),
    ]
    assert bel.contains_point(enumerate_marginal(net, {"n4": 0}, "n2"), 1e-12)
    assert bel.max_width <= 1e-12


def _schedule_spy(monkeypatch):
    """The keys ``_Run`` computes, in a list that fills as evaluations run."""
    computed = []
    compute = _Run._compute

    def computing(self, key, *args):
        computed.append(key)
        return compute(self, key, *args)

    monkeypatch.setattr(_Run, "_compute", computing)
    return computed


def test_an_alias_is_named_by_its_source_and_never_expanded(monkeypatch):
    # The query above: only the 4 messages that read more than one input
    # are computed, and a kernel that reads an alias is given its
    # source's value: n3's lambda value is n4's lambda message, and n1's
    # pi message to n2 is n1's pi value.
    net = build_net("chain5", CHAIN5, seed=3)
    computed = _schedule_spy(monkeypatch)
    cache = {}
    loops.evaluate(net, full_active(net), _Context(net, {"n4": 0}, "n2"), cache)
    assert sorted(computed) == [
        ("lam_msg", "n3", "n2"), ("lam_msg", "n4", "n3"), ("pi_val", "n1"), ("pi_val", "n2"),
    ]
    assert cache[("lam_msg", "n3", "n2")][0][0] is cache[("lam_msg", "n4", "n3")][1]
    assert cache[("pi_val", "n2")][0][0] is cache[("pi_val", "n1")][1]


def test_a_message_that_reads_no_message_is_never_expanded_computed_or_cached(monkeypatch, figure_net):
    # A root's pi value and an observed node's messages read no other
    # message: each is its shared constant, never computed or cached.
    net = build_net("chain5", CHAIN5, seed=3)
    computed = _schedule_spy(monkeypatch)
    ctx = _Context(net, {"n4": 0}, "n2")
    cache = {}
    loops.evaluate(net, full_active(net), ctx, cache)
    for key in [("pi_val", "n0"), ("lam_val", "n4")]:
        assert key not in computed and key not in cache, key
    # The kernels that read them were given the shared constants.
    assert cache[("pi_val", "n1")][0][0] is net._kernel_tables("n0")[3]
    assert cache[("lam_msg", "n4", "n3")][0][0] is _pinned(net.state_count("n4"), 0)
    # The clamped node of a conditioned evaluation sends constants too:
    # its pi messages and its lambda value.
    cuts = []
    conditioned = loops._conditioned_bel

    def spy(ctx, active, cut, observed, cache):
        cuts.append(list(cut))
        return conditioned(ctx, active, cut, observed, cache)

    monkeypatch.setattr(loops, "_conditioned_bel", spy)
    del computed[:]
    cache = {}
    bel, visits = loops.evaluate(figure_net, full_active(figure_net), _Context(figure_net, {"X": 0}, "D"), cache)
    assert cuts and visits == len(computed) > 0
    assert bel.contains_point(enumerate_marginal(figure_net, {"X": 0}, "D"), 1e-9)
    for c in cuts[0]:
        sent = [("lam_val", c)] + [("pi_msg", c, w) for w in figure_net.children(c)]
        for key in sent:
            assert key not in computed and key not in cache, key


def test_a_sweep_stops_at_the_arcs_that_leave_a_pinned_node(monkeypatch):
    # n2 observed: it sends n1 its lambda message from its indicator, so
    # nothing below it is read, though n3 and n4 are active.
    net = build_net("chain5", CHAIN5, seed=3)
    computed = _schedule_spy(monkeypatch)
    cache = {}
    bel, _ = loops.evaluate(net, full_active(net), _Context(net, {"n2": 1}, "n1"), cache)
    assert ("lam_msg", "n2", "n1") in computed
    for key in [*computed, *cache]:
        assert key[1] not in ("n3", "n4"), key
    assert bel.contains_point(enumerate_marginal(net, {"n2": 1}, "n1"), 1e-12)


def test_no_message_is_computed_twice_in_one_run(monkeypatch):
    # The roots of one run, the query and the representatives of the
    # pieces the clamps touch, lie in different pieces of the working
    # forest, and each node sends one message toward its root.  With a
    # cache that keeps nothing, a key evaluated twice is computed twice.
    runs = []

    class Recording(loops._Run):
        def __init__(self, ctx, active, pinned, cache):
            super().__init__(ctx, active, pinned, NoCache())
            self.computed = []
            runs.append(self)

        def _compute(self, key, args):
            self.computed.append(key)
            return super()._compute(key, args)

    monkeypatch.setattr(loops, "_Run", Recording)
    for seed in range(12):
        net = gen_loopy(GenSpec(node_count=14, topology="loopy", arc_ratio=1.3, seed=40 + seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        answer_query(net, q, ev, strategy="bfs", stop=StopCriterion.width(0.0))
    conditioned = [r for r in runs if r.pinned.keys() - r.ctx.evidence.keys()]
    assert len(conditioned) > 20
    for r in runs:
        assert len(r.computed) == len(set(r.computed)), r.computed


def test_each_constant_message_is_its_kernels_value():
    # The constants are the floats the kernels would compute: the lambda
    # value of a node whose child messages are all vacuous, and every
    # message of a pinned node.
    def hexed(pair):
        vec, scale = pair
        return [x.hex() for x in (*vec.lo, *vec.hi, *scale)]

    for n in range(1, 6):
        for c in range(1, 4):
            assert hexed(_vacuous_lambda(n)) == hexed(_lambda_value_kernel(n, [vacuous(n)] * c)), (n, c)
        assert hexed(_uniform(n)) == hexed(_lambda_value_kernel(n, []))
        for k in range(n):
            assert hexed(_pinned(n, k)) == hexed((IntervalVector.indicator(n, k), (1.0, 1.0)))
            assert _pinned(n, k)[0] is IntervalVector.indicator(n, k)


def test_constant_messages_are_one_instance_per_shape():
    # However many shapes are asked for in between, a shape's constant is
    # the one object.
    first = _uniform(3), _vacuous_lambda(3), _pinned(30, 0)
    for n in range(1, 400):
        _uniform(n)
        _vacuous_lambda(n)
    for n in range(2, 40):
        for k in range(n):
            _pinned(n, k)
    again = _uniform(3), _vacuous_lambda(3), _pinned(30, 0)
    assert all(a is b for a, b in zip(again, first))


def test_every_iteration_contains_the_posterior_on_a_netgen_sweep():
    rng = random.Random(20)
    for seed in range(16):
        topology = ("polytree", "loopy")[seed % 2]
        spec = GenSpec(node_count=10, topology=topology, arc_ratio=1.3, seed=900 + seed)
        net = gen_polytree(spec) if topology == "polytree" else gen_loopy(spec)
        ev = sample_evidence(net, rng)
        for q in rng.sample([v for v in net.node_ids() if v not in ev], 3):
            want = enumerate_marginal(net, ev, q)
            for strategy in LOOP_DELAYS:
                r = answer_query(net, q, ev, strategy=strategy)
                assert all(b.contains_point(want, 1e-9) for b in r.bels), (seed, q, strategy)


def test_a_vacuous_parent_prior_is_built_once_per_network():
    # A -> B -> C: B's pi value with A outside the active set, and A's
    # own prior, are the same objects in every query on the network; a
    # lambda value without child messages is one object per state count.
    net = build_net("abc", {"A": [], "B": ["A"], "C": ["B"]}, seed=5)
    values = []
    for query in "BC":
        active = ActiveSet(frozenset({"B", "C"}), frozenset({("B", "C")}))
        ctx = _Context(net, {}, query)
        values.append(_Run(ctx, active, ctx.evidence, {})._root("B")[1])
    assert values[0] is values[1]
    assert pi_hat(net, "A", {}) is pi_hat(net, "A", {})
    assert pi_hat(net, "B", {}) is values[0][0]
    assert lambda_hat(net, "C", {}) is lambda_hat(net, "A", {})


def _outcome(net, query, evidence):
    """Everything an answer reports that the evidence memo could touch."""
    r = answer_query(net, query, evidence, stop=StopCriterion.width(0.05))
    return r.status, r.iterations, r.node_visits, r.active_nodes, r.bels


def test_evidence_memo_never_changes_an_answer():
    text = serialize_network(gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.2, seed=3)))
    net = parse_network(text)
    rng = random.Random(5)
    ids = net.node_ids()
    sets = [{v: rng.randrange(net.state_count(v)) for v in rng.sample(ids, 3)} for _ in range(7)]
    assert len({frozenset(ev.items()) for ev in sets}) == 7
    a, b, *rest = sets
    # The network keeps one evidence set: each change replaces it, and A
    # asked again after B is checked and walked afresh.
    for ev in [a, b, a, *rest, a]:
        for q in [v for v in ids if v not in ev][:2]:
            assert _outcome(net, q, ev) == _outcome(parse_network(text), q, ev), (q, ev)
    ev = dict(a)
    q = next(v for v in ids if v not in ev)
    _outcome(net, q, ev)
    v = next(iter(ev))
    ev[v] = (ev[v] + 1) % net.state_count(v)
    assert _outcome(net, q, ev) == _outcome(parse_network(text), q, ev)


def _saturated(net, query, evidence):
    """The active set that answer_query's breadth-first growth ends at,
    under ``evidence`` laid over the network's stored evidence."""
    relevant = relevant_set(net, query, {**net.evidence, **evidence})
    grow = DelayedLoops(LOOP_DELAYS["bfs"])
    active = ActiveSet.initial(query)
    while True:
        grown = grow.step(net, active, relevant, 0)
        if grown is None:
            return active
        active = grown


def test_propagate_answers_under_the_stored_evidence(chain_ab, figure_net):
    # A -> B with B observed in the file: both entry points condition on it.
    stored = BeliefNetwork(chain_ab.name, chain_ab.nodes, evidence={"B": 0})
    bel = propagate(stored, full_active(stored), {}, "A")
    assert bel == answer_query(stored, "A").bels[-1]
    assert bel.contains_point(enumerate_marginal(stored, {"B": 0}, "A"), 1e-12)
    ev = {"B": 1, "X": 0}
    stored = BeliefNetwork(figure_net.name, figure_net.nodes, evidence=ev)
    for q in "YACD":
        r = answer_query(stored, q)
        active = _saturated(stored, q, {})
        assert r.active_nodes[-1] == len(active.nodes)
        bel = propagate(stored, active, {}, q)
        assert bel == r.bels[-1]
        assert bel.contains_point(enumerate_marginal(stored, ev, q), 1e-12)


def test_the_callers_state_wins_over_a_stored_one(figure_net):
    stored = BeliefNetwork(figure_net.name, figure_net.nodes, evidence={"B": 0, "X": 1})
    caller = {"B": 1}
    merged = {"B": 1, "X": 1}
    for q in "YACD":
        want = enumerate_marginal(figure_net, merged, q)
        assert enumerate_marginal(stored, caller, q) == want
        r = answer_query(stored, q, caller)
        assert r.bels == answer_query(figure_net, q, merged).bels
        assert r.bels[-1].contains_point(want, 1e-12)
        active = _saturated(stored, q, caller)
        bel = propagate(stored, active, caller, q)
        assert bel == propagate(figure_net, active, merged, q)
        assert bel.contains_point(want, 1e-12)
    # The point solver reads the stored evidence too, on figure_net's
    # tree: the arc C -> D dropped.
    nodes = [n if n.id != "D" else Node("D", n.states, ("B",), n.cpt[::2]) for n in figure_net.nodes]
    tree = BeliefNetwork("tree", nodes)
    stored = BeliefNetwork("tree", nodes, evidence={"B": 0, "X": 1})
    for q in "YACD":
        assert polytree_exact(stored, caller, q) == polytree_exact(tree, merged, q)


def test_relevant_set_reads_the_stored_evidence(figure_net):
    ev = {"B": 0, "X": 1}
    nets = [(figure_net, ev)]
    for seed in range(6):
        if seed % 2:
            net = gen_polytree(GenSpec(node_count=14, seed=seed))
        else:
            net = gen_loopy(GenSpec(node_count=14, topology="loopy", arc_ratio=1.3, seed=seed))
        nets.append((net, sample_evidence(net, random.Random(seed))))
    saturated = 0
    for plain, ev in nets:
        stored = BeliefNetwork(plain.name, plain.nodes, evidence=ev)
        for q in plain.node_ids():
            rel = relevant_set(stored, q, {})
            assert rel == relevant_set(plain, q, ev), (plain.name, q)
            for strategy in LOOP_DELAYS:
                r = answer_query(stored, q, strategy=strategy, stop=StopCriterion.width(0.0))
                if r.status == SATURATED:
                    assert r.active_nodes[-1] == len(rel), (plain.name, q, strategy)
                    saturated += 1
    assert saturated


def test_a_failed_evidence_check_is_never_kept():
    net = build_net("abc", {"A": [], "B": ["A"], "C": ["B"]}, seed=5)
    active = ActiveSet(frozenset({"A"}), frozenset())
    for _ in range(3):
        with pytest.raises(ValueError):
            answer_query(net, "A", {"C": 2})
        with pytest.raises(KeyError):
            answer_query(net, "A", {"X": 0})
        with pytest.raises(ValueError):
            propagate(net, active, {"C": 2}, "A")
        answer_query(net, "A", {"B": 0})
        with pytest.raises(ValueError):
            answer_query(net, "A", {"B": 0, "C": 2})
        # A state is an int that is not a bool.
        for state in (0.5, 1.0, True, "1"):
            with pytest.raises(ValueError, match="must be an int"):
                answer_query(net, "A", {"C": state})
        # Nor after an equal int was kept: a mapping equal to the kept
        # evidence is checked again before the kept slot is reused.
        answer_query(net, "A", {"C": 1})
        for state in (True, 1.0):
            with pytest.raises(ValueError, match="must be an int"):
                answer_query(net, "A", {"C": state})
            with pytest.raises(ValueError, match="must be an int"):
                propagate(net, active, {"C": state}, "A")
            with pytest.raises(ValueError, match="must be an int"):
                relevant_set(net, "A", {"C": state})


def test_a_callers_evidence_is_read_afresh_on_every_query(figure_net):
    ev = {"X": 0}
    answer_query(figure_net, "A", ev)
    ev["X"] = 1
    r = answer_query(figure_net, "A", ev)
    assert r.bels == answer_query(BeliefNetwork(figure_net.name, figure_net.nodes), "A", {"X": 1}).bels
    assert r.bels[-1].contains_point(enumerate_marginal(figure_net, {"X": 1}, "A"), 1e-12)
    ev["X"] = 2
    with pytest.raises(ValueError, match="out of range"):
        answer_query(figure_net, "A", ev)


def test_evidence_closure_is_built_once_per_evidence(monkeypatch):
    net = gen_polytree(GenSpec(node_count=4000, seed=11))
    rng = random.Random(11)
    ev = {v: rng.randrange(net.state_count(v)) for v in rng.sample(net.node_ids(), 120)}
    queries = rng.sample([v for v in net.node_ids() if v not in ev], 30)
    closure = BeliefNetwork.ancestral_closure
    calls = []

    def spy(self, seed, **kwargs):
        seed = list(seed)
        out = closure(self, seed, **kwargs)
        calls.append((seed, out))
        return out

    monkeypatch.setattr(BeliefNetwork, "ancestral_closure", spy)
    for q in queries:
        answer_query(net, q, ev, stop=StopCriterion.width(0.05))
    evidence_walks = [out for seed, out in calls if set(seed) == set(ev)]
    assert len(evidence_walks) == 1
    below = evidence_walks[0]
    query_walks = [(seed, out) for seed, out in calls if set(seed) != set(ev)]
    assert [seed for seed, _ in query_walks] == [[q] for q in queries]
    for (q,), out in query_walks:
        assert out.isdisjoint(below)
        assert out | below == closure(net, {q, *ev})


@pytest.fixture(scope="module")
def long_chain():
    n = 5000
    net = build_net("long", {f"n{i}": [f"n{i - 1}"] if i else [] for i in range(n)}, seed=8)
    return net, full_active(net), {f"n{n - 1}": 0}


def _evaluate(net, active, ev, query, cache):
    bel, _ = loops.evaluate(net, active, _Context(net, ev, query), cache)
    return bel


def test_long_chain_cached_and_uncached_agree(long_chain):
    net, active, ev = long_chain
    assert _evaluate(net, active, ev, "n0", {}) == _evaluate(net, active, ev, "n0", NoCache())


def test_propagation_leaves_the_recursion_limit_alone(long_chain):
    net, active, ev = long_chain
    before = sys.getrecursionlimit()
    _evaluate(net, active, ev, "n0", {})
    propagate(net, active, ev, "n0")
    assert sys.getrecursionlimit() == before


# -- expansion ----------------------------------------------------------------


def test_expand_chain_one_step():
    net = build_net("c", {"A": [], "B": ["A"], "C": ["B"]}, seed=1)
    rel = relevant_set(net, "C", {"A": 0})
    grown = DelayedLoops(0).step(net, ActiveSet.initial("C"), rel, 0)
    assert grown.nodes == frozenset({"B", "C"})
    assert grown.arcs == frozenset({("B", "C")})


def test_expand_no_loops_excludes_closing_arc(figure_net):
    strat = DelayedLoops(None)
    rel = relevant_set(figure_net, "C", {"X": 0})
    active = ActiveSet.initial("C")
    while (nxt := strat.step(figure_net, active, rel, 0)) is not None:
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
    rel = relevant_set(net, "B", {})
    assert DelayedLoops(0).step(net, active, rel, 0) is None


def test_no_loops_stays_polytree_on_random_networks():
    for seed in range(10):
        net = gen_loopy(GenSpec(node_count=9, topology="loopy", arc_ratio=1.3, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice(net.node_ids())
        rel = relevant_set(net, q, ev)
        strat = DelayedLoops(None)
        active = ActiveSet.initial(q)
        while active is not None:
            assert is_polytree_subgraph(active)
            active = strat.step(net, active, rel, 0)


def test_strategy_names_are_one_growth_rule_by_loop_delay():
    assert LOOP_DELAYS == {"bfs": 0, "no-loops": None, "delayed": 5}
    for bad in (-1, -5):
        with pytest.raises(ValueError, match="loop delay"):
            DelayedLoops(bad)


def test_waiting_rounds_run_inside_one_step(figure_net):
    # The closing arc B -> D enters two rounds after it is first seen;
    # the round in between changes nothing and is not returned.
    strat = DelayedLoops(2)
    rel = relevant_set(figure_net, "C", {"X": 0})
    active = ActiveSet.initial("C")
    steps = 0
    while (nxt := strat.step(figure_net, active, rel, 0)) is not None:
        assert nxt != active
        active = nxt
        steps += 1
    assert active.arcs == frozenset(figure_net.arcs)
    # a round per returned set, one for the fixed point, one waiting
    assert strat.round == steps + 2


class _RebuildGrowth:
    """The growth rule written as a rebuild: every round walks the
    neighbors of the whole active set, re-sorts every induced arc not yet
    active and rebuilds a union-find over every active arc."""

    def __init__(self, delay):
        self.delay, self.round, self.first_seen = delay, 0, {}

    def step(self, net, active, relevant, size):
        assert size == 0  # the next different set, as ``_growth`` asks
        nodes = set(active.nodes)
        nodes.update(
            w for v in active.nodes for w in net.skeleton_neighbors(v) if w in relevant
        )
        candidates = sorted(
            (
                (p, c)
                for c in nodes
                for p in net.parents(c)
                if p in nodes and (p, c) not in active.arcs
            ),
            key=lambda a: (net.order(a[0]), net.order(a[1])),
        )
        sets = UnionFind()
        for p, c in active.arcs:
            sets.union(p, c)
        while True:
            self.round += 1
            arcs = set(active.arcs)
            pending = False
            for arc in candidates:
                if sets.union(*arc):
                    arcs.add(arc)
                elif self.delay is not None:
                    seen = self.first_seen.setdefault(arc, self.round)
                    if self.round - seen >= self.delay:
                        arcs.add(arc)
                    else:
                        pending = True
            if nodes != active.nodes or arcs != active.arcs:
                return ActiveSet(frozenset(nodes), frozenset(arcs))
            if not pending:
                return None


def _growth(grow, net, start, rel):
    """Every set ``grow`` returns from ``start`` to its fixed point."""
    sets = [start]
    while (nxt := grow.step(net, sets[-1], rel, 0)) is not None:
        sets.append(nxt)
    return sets


def _growth_cases():
    for seed in range(12):
        for gen, topology in ((gen_polytree, "polytree"), (gen_loopy, "loopy")):
            spec = GenSpec(node_count=8 + 2 * seed, topology=topology, arc_ratio=1.3, seed=seed)
            net = gen(spec)
            rng = random.Random(seed)
            ev = sample_evidence(net, rng)
            for q in rng.sample([v for v in net.node_ids() if v not in ev], 2):
                yield net, q, relevant_set(net, q, ev)


def test_growth_equals_the_rebuild_rule():
    for net, q, rel in _growth_cases():
        for delay in (0, 1, 2, 5, None):
            grow, ref = DelayedLoops(delay), _RebuildGrowth(delay)
            start = ActiveSet.initial(q)
            assert _growth(grow, net, start, rel) == _growth(ref, net, start, rel)
            assert grow.round == ref.round


def test_bfs_growth_holds_every_arc_between_its_nodes():
    lacking = 0
    for net, q, rel in _growth_cases():
        # A set grown without closing loops lacks arcs, and a set step
        # did not return takes the reset path.
        other = _growth(DelayedLoops(None), net, ActiveSet.initial(q), rel)
        for start in (ActiveSet.initial(q), other[len(other) // 2], other[-1]):
            induced = {(p, c) for p, c in net.arcs if p in start.nodes and c in start.nodes}
            lacking += start.arcs != induced
            for s in _growth(DelayedLoops(0), net, start, rel)[1:]:
                assert s.arcs == {(p, c) for p, c in net.arcs if p in s.nodes and c in s.nodes}
    assert lacking


def test_a_set_step_did_not_return_starts_a_new_growth():
    cases = list(_growth_cases())
    for (net_a, q_a, rel_a), (net, q, rel) in zip(cases, cases[1:]):
        grow = DelayedLoops(2)
        _growth(grow, net_a, ActiveSet.initial(q_a), rel_a)
        # A set grown without closing loops lacks arcs between its nodes.
        other = _growth(DelayedLoops(None), net, ActiveSet.initial(q), rel)
        for start in (ActiveSet.initial(q), other[len(other) // 2], other[-1]):
            sets = _growth(grow, net, start, rel)
            assert sets == _growth(DelayedLoops(2), net, start, rel)
            assert sets == _growth(_RebuildGrowth(2), net, start, rel)
            for s in sets:
                assert all(p in s.nodes and c in s.nodes for p, c in s.arcs)


def _stepped(grow, net, active, rel, size):
    """Steps to the next different set, repeated until one holds ``size``
    nodes or growth reaches its fixed point; None if none differs."""
    grown = active
    while len(grown.nodes) < size or grown is active:
        nxt = grow.step(net, grown, rel, 0)
        if nxt is None:
            break
        grown = nxt
    return None if grown is active else grown


@pytest.mark.parametrize("strategy", sorted(LOOP_DELAYS))
def test_a_sized_step_equals_the_steps_it_spans(strategy):
    sizes = (lambda n: 0, lambda n: n + 1, lambda n: PACING_FACTOR * n, lambda n: 3 * n, lambda n: 10**9)
    for seed in range(10):
        net = gen_loopy(GenSpec(node_count=10 + 2 * seed, topology="loopy", arc_ratio=1.3, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        for q in rng.sample([v for v in net.node_ids() if v not in ev], 2):
            rel = relevant_set(net, q, ev)
            for size in sizes:
                grow, ref = DelayedLoops(LOOP_DELAYS[strategy]), DelayedLoops(LOOP_DELAYS[strategy])
                got = want = ActiveSet.initial(q)
                while True:
                    got = grow.step(net, got, rel, size(len(got.nodes)))
                    want = _stepped(ref, net, want, rel, size(len(want.nodes)))
                    assert grow.round == ref.round
                    if got is None:
                        assert want is None
                        break
                    assert (got.nodes, got.arcs) == (want.nodes, want.arcs)


def test_strategy_must_be_a_name_or_growth_rule(chain_ab):
    # A width of 1 is met by the first evaluation, so a bad strategy
    # must be caught before it.
    for bad in (3, None, DelayedLoops(2), "depth-first", "breadth-first", "BFS", "no_loops"):
        with pytest.raises(ValueError, match="unknown strategy"):
            answer_query(chain_ab, "B", {}, strategy=bad, stop=StopCriterion.width(1.0))


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


def test_budget_must_be_a_nonnegative_number(chain_ab):
    # NaN compares false against any elapsed time, so it would mean no budget.
    for bad in (float("nan"), -1.0):
        with pytest.raises(ValueError, match="budget_ms"):
            answer_query(chain_ab, "B", {}, budget_ms=bad)
    res = answer_query(chain_ab, "B", {}, stop=StopCriterion.width(0.0), budget_ms=0)
    assert (res.status, res.iterations) == (BUDGET, 1)


def test_budget_stops_a_conditioned_evaluation_between_instances(monkeypatch):
    # A fake clock that moves one second per run built.  The third
    # evaluation conditions the diamond's loop on a three-state node, and
    # a budget of 3.5 s runs out after its second instance.
    net = build_net("d3", {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]}, seed=3,
                    state_counts=dict.fromkeys("ABCD", 3))
    clock = [0.0]
    runs_per_evaluation = []
    run, evaluate = loops._Run, loops.evaluate

    class TickingRun(run):
        def __init__(self, *args):
            clock[0] += 1.0
            super().__init__(*args)

    def counting_evaluate(*args):
        before = clock[0]
        try:
            return evaluate(*args)
        finally:
            runs_per_evaluation.append(int(clock[0] - before))

    monkeypatch.setattr(time, "perf_counter", lambda: clock[0])
    monkeypatch.setattr(loops, "_Run", TickingRun)
    monkeypatch.setattr(loops, "evaluate", counting_evaluate)
    full = answer_query(net, "D", {}, stop=StopCriterion.width(0.0))
    assert runs_per_evaluation == [1, 1, 3]
    runs_per_evaluation.clear()
    res = answer_query(net, "D", {}, stop=StopCriterion.width(0.0), budget_ms=3500)
    assert res.status == BUDGET
    assert res.bels == full.bels[:2]
    assert runs_per_evaluation == [1, 1, 2]
    assert len(res.elapsed) == len(res.active_nodes) == 2


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
    for w in (True, False):
        with pytest.raises(ValueError, match="target width"):
            StopCriterion.width(w)
    for p in (1.5, -0.1, float("nan"), float("inf"), True, False):
        for direction in "><":
            with pytest.raises(ValueError, match="threshold probability"):
                StopCriterion.prob_threshold(0, direction, p)
    for state in (0.5, True):
        with pytest.raises(ValueError, match="threshold state"):
            StopCriterion.prob_threshold(state, ">", 0.3)


def test_threshold_state_out_of_range_rejected(chain_ab):
    stop = StopCriterion.prob_threshold(2, ">", 0.5)
    with pytest.raises(ValueError, match="threshold state 2 out of range"):
        answer_query(chain_ab, "B", {}, stop=stop)


# -- pacing ---------------------------------------------------------------------


def _grown_sets(net, query, ev, strategy):
    """Every set a fresh growth reaches, from the query node to its fixed point."""
    rel = relevant_set(net, query, ev)
    return _growth(DelayedLoops(LOOP_DELAYS[strategy]), net, ActiveSet.initial(query), rel)


@pytest.mark.parametrize("strategy", ["bfs", "delayed", "no-loops"])
@pytest.mark.parametrize("topology", ["polytree", "loopy"])
def test_evaluations_are_a_doubling_subsequence_of_the_growth(topology, strategy):
    gen = gen_polytree if topology == "polytree" else gen_loopy
    for seed in range(8):
        net = gen(GenSpec(node_count=14 + seed, topology=topology, arc_ratio=1.3, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        sets = _grown_sets(net, q, ev, strategy)
        res = answer_query(net, q, ev, strategy=strategy, stop=StopCriterion.width(0.0))
        # Match each evaluation to the earliest later grown set it came from.
        picked, k = [], 0
        for bel, size in zip(res.bels, res.active_nodes):
            while len(sets[k].nodes) != size or propagate(net, sets[k], ev, q) != bel:
                k += 1
            picked.append(sets[k])
            k += 1
        assert picked[0] == sets[0]
        sizes = [len(s.nodes) for s in picked]
        assert all(b >= 2 * a for a, b in zip(sizes, sizes[1:-1]))
        if res.status == SATURATED:
            assert picked[-1] == sets[-1]


@pytest.mark.parametrize("strategy", sorted(LOOP_DELAYS))
def test_one_growth_call_per_evaluation(monkeypatch, strategy):
    # Every evaluation but the first follows one call, and a saturated
    # query makes one more that finds the fixed point.
    calls = 0
    step = DelayedLoops.step

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return step(self, *args)

    monkeypatch.setattr(DelayedLoops, "step", counted)
    iterations = 0
    for seed in range(8):
        for gen, topology in ((gen_polytree, "polytree"), (gen_loopy, "loopy")):
            net = gen(GenSpec(node_count=20 + seed, topology=topology, arc_ratio=1.3, seed=seed))
            rng = random.Random(seed)
            ev = sample_evidence(net, rng)
            q = rng.choice([v for v in net.node_ids() if v not in ev])
            calls = 0
            res = answer_query(net, q, ev, strategy=strategy, stop=StopCriterion.width(0.0))
            assert res.iterations - 1 <= calls <= res.iterations
            iterations += res.iterations
    assert iterations > 16


def test_evaluation_work_is_linear_on_a_long_chain():
    # Rows 0.999/0.001 keep the bounds wide until the active set reaches
    # the evidence at the far end, so the whole chain is grown.  Measured
    # from the middle: 11 evaluations (sizes 1, 3, 7, ..., 1023, 2000)
    # and 8071 message computations.  Evaluating after every round took
    # 1001 evaluations and 2002000 computations.  Growth walks each
    # node's neighbors once; rebuilding the whole active set every round
    # walked them 1002000 times from the middle and 2001000 from an end.
    n = 2000
    lines = ["network sticky"] + [f"node n{i} states a b" for i in range(n)]
    lines += ["parents n0"] + [f"parents n{i} n{i - 1}" for i in range(1, n)]
    lines += ["cpt n0", "0.5 0.5"]
    for i in range(1, n):
        lines += [f"cpt n{i}", "0.999 0.001", "0.001 0.999"]
    net = parse_network("\n".join(lines))
    walks = 0
    neighbors = net.skeleton_neighbors

    def counted(node_id):
        nonlocal walks
        walks += 1
        return neighbors(node_id)

    net.skeleton_neighbors = counted
    for query, ev in ((f"n{n // 2}", {"n0": 1, f"n{n - 1}": 0}), ("n0", {f"n{n - 1}": 0})):
        walks = 0
        res = answer_query(net, query, ev, strategy="bfs", stop=StopCriterion.width(0.0))
        assert res.active_nodes[-1] == n
        assert res.iterations <= math.ceil(math.log2(n)) + 2
        assert res.node_visits <= 5 * n
        assert walks <= 2 * n


def _walled_neighbourhood(rest_size):
    """A fixed neighbourhood w1 -> a -> q <- b <- w2, q -> c, embedded in
    a random polytree that carries its own evidence.  The observed walls
    join it to the rest only as a chain (r -> w1 -> a) and a fork
    (b <- w2 -> root), never as a collider, so d-separation cuts the rest
    off the query at every size.  Both walls reach the one rest tree, so
    they close a loop, and the evidence cuts that too."""
    rest = gen_polytree(GenSpec(node_count=rest_size, seed=rest_size))
    evidence = sample_evidence(rest, random.Random(rest_size))
    r = rest.node_ids()[-1]
    root = next(v for v in rest.node_ids() if not rest.parents(v) and v != r)
    old = rest.node(root)
    two = ("s0", "s1")
    nodes = [Node(root, old.states, ("w2",), old.cpt * 2) if n.id == root else n for n in rest.nodes]
    nodes += [
        Node("w1", two, (r,), ((0.3, 0.7),) * rest.state_count(r)),
        Node("w2", two, (), ((0.6, 0.4),)),
        Node("a", two, ("w1",), ((0.9, 0.1), (0.2, 0.8))),
        Node("b", two, ("w2",), ((0.7, 0.3), (0.25, 0.75))),
        Node("q", ("s0", "s1", "s2"), ("a", "b"),
             ((0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (0.4, 0.4, 0.2), (0.05, 0.15, 0.8))),
        Node("c", two, ("q",), ((0.8, 0.2), (0.3, 0.7), (0.45, 0.55))),
    ]
    return BeliefNetwork(f"walled-{rest_size}", nodes), {**evidence, "w1": 1, "w2": 0, "c": 1}


def test_a_walled_query_reads_the_same_at_every_network_size():
    # The structural target without timing: what the engine does for a
    # query, and the bounds it gives, depend on the query's relevant
    # part alone, however large the network around it.
    seen = {}
    for size in (1000, 10000, 40000):
        net, evidence = _walled_neighbourhood(size)
        assert len(evidence) > 100
        assert relevant_set(net, "q", evidence) == {"q", "a", "b", "c", "w1", "w2"}
        for strategy in ("bfs", "delayed"):
            r = answer_query(net, "q", evidence, strategy=strategy, stop=StopCriterion.width(0.0))
            bels = [[x.hex() for x in (*b.lo, *b.hi)] for b in r.bels]
            got = (r.status, r.iterations, r.node_visits, r.active_nodes, bels)
            assert seen.setdefault(strategy, got) == got, (size, strategy)
    assert seen["bfs"][:4] == (SATISFIED, 3, 5, [1, 4, 6])

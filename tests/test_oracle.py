import random
import tracemalloc

import pytest

from boundprop import enumerate_marginal, parse_network, polytree_exact
from boundprop.intervals import ConflictingEvidenceError
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence
from boundprop.oracle import StateSpaceError, joint_table

from conftest import build_net, clamped_state_range


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


def test_joint_table_sums_to_one():
    net = gen_loopy(GenSpec(node_count=7, topology="loopy", arc_ratio=1.3, seed=9))
    assert float(joint_table(net).sum()) == pytest.approx(1.0, abs=1e-9)


def test_joint_table_builds_no_second_full_array():
    net = build_net("c20", {f"n{i}": [f"n{i - 1}"] if i else [] for i in range(20)}, seed=4)
    tracemalloc.start()
    try:
        table = joint_table(net)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 8 * 2 ** 20
    assert peak < 1.5 * table.nbytes


def test_state_space_cap():
    # 40 nodes of at least 2 states each: a joint table past 2^24 entries.
    net = gen_polytree(GenSpec(node_count=40, seed=0))
    with pytest.raises(StateSpaceError):
        enumerate_marginal(net, {}, "n0")


def test_state_space_error_names_the_size_in_a_short_line():
    # The message states the node count, the entry count and the cap, not
    # the shape, which on a large network runs to thousands of characters.
    net = gen_loopy(GenSpec(node_count=5000, topology="loopy", arc_ratio=1.1, seed=1))
    with pytest.raises(StateSpaceError) as err:
        joint_table(net)
    message = str(err.value)
    assert len(message) < 200
    assert "5000 nodes" in message and "exceeds cap" in message


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

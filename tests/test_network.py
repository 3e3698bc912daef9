import random

import pytest

from boundprop import (
    BeliefNetwork,
    NetworkFormatError,
    d_separated,
    find_loop_clusters,
    is_polytree,
    parse_network,
    relevant_set,
    serialize_network,
)
from boundprop.engine import _Context
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree
from boundprop.network import reachable_from

from conftest import build_net


def test_parse_two_node_chain(chain_ab):
    assert chain_ab.node_ids() == ("A", "B")
    assert chain_ab.arcs == (("A", "B"),)
    assert chain_ab.parents("B") == ("A",)
    assert chain_ab.cpt_row("B", (0,)) == (0.9, 0.1)


def test_parse_builds_the_network_once(monkeypatch):
    calls = []
    init = BeliefNetwork.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BeliefNetwork, "__init__", counting_init)
    net = parse_network(
        "network x\nnode A states t f\nparents A\ncpt A\n0.5 0.5\nevidence A f\n"
    )
    assert len(calls) == 1
    assert net.evidence == {"A": 1}


def test_parse_rejects_bad_row_sum():
    text = "network x\nnode A states t f\nparents A\ncpt A\n0.5 0.4\n"
    with pytest.raises(NetworkFormatError, match="sums to"):
        parse_network(text)


def test_parse_rejects_cycle():
    text = (
        "network x\nnode A states t f\nnode B states t f\n"
        "parents A B\nparents B A\n"
        "cpt A\n0.5 0.5\n0.5 0.5\ncpt B\n0.5 0.5\n0.5 0.5\n"
    )
    with pytest.raises(NetworkFormatError, match="cycle"):
        parse_network(text)


def test_parse_rejects_unknown_reference():
    text = "network x\nnode A states t f\nparents A Z\ncpt A\n0.5 0.5\n"
    with pytest.raises(NetworkFormatError, match="Z"):
        parse_network(text)


def test_parse_error_carries_line_number():
    text = "network x\nnode A states t f\nbogus A\n"
    with pytest.raises(NetworkFormatError, match="line 3"):
        parse_network(text)


def test_parse_rejects_single_state_node():
    text = "network x\nnode A states only\nparents A\ncpt A\n1.0\n"
    with pytest.raises(NetworkFormatError):
        parse_network(text)


def test_parse_rejects_missing_cpt():
    text = "network x\nnode A states t f\n"
    with pytest.raises(NetworkFormatError, match="missing cpt"):
        parse_network(text)


def test_parse_evidence_line():
    text = (
        "network x\nnode A states t f\nparents A\ncpt A\n0.5 0.5\n"
        "evidence A f\n"
    )
    net = parse_network(text)
    assert net.evidence == {"A": 1}
    assert parse_network(serialize_network(net)).evidence == {"A": 1}


def test_roundtrip_bit_equal():
    rng = random.Random(4)
    for seed in range(10):
        net = gen_polytree(GenSpec(node_count=rng.randint(3, 20), seed=seed))
        text = serialize_network(net)
        back = parse_network(text)
        assert back.node_ids() == net.node_ids()
        assert back.arcs == net.arcs
        for a, b in zip(net.nodes, back.nodes):
            assert a.cpt == b.cpt
            assert a.states == b.states
        assert serialize_network(back) == text


def test_is_polytree():
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    assert is_polytree(chain)
    single = build_net("s", {"A": []})
    assert is_polytree(single)
    dia = build_net("d", {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]})
    assert not is_polytree(dia)


def test_d_separation_chain_and_collider():
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    assert d_separated(chain, "A", "C", {"B": 0})
    assert not d_separated(chain, "A", "C", {})
    collider = build_net("v", {"A": [], "B": [], "C": ["A", "B"]})
    assert d_separated(collider, "A", "B", {})
    assert not d_separated(collider, "A", "B", {"C": 0})


def _brute_d_connected(net, a, b, observed):
    """Path-based reference: any trail whose interior passes the rules."""
    anc = net.ancestral_closure(observed)
    adj = {}
    for p, c in net.arcs:
        adj.setdefault(p, set()).add(c)
        adj.setdefault(c, set()).add(p)
    for v in net.node_ids():
        adj.setdefault(v, set())

    def arrow_into(x, y):
        return (x, y) in set(net.arcs)

    def active_path(path):
        for i in range(1, len(path) - 1):
            prev, node, nxt = path[i - 1], path[i], path[i + 1]
            collider = arrow_into(prev, node) and arrow_into(nxt, node)
            if collider:
                if node not in anc:
                    return False
            elif node in observed:
                return False
        return True

    def dfs(path):
        last = path[-1]
        if last == b and len(path) > 1:
            if active_path(path):
                return True
        for w in adj[last]:
            if w not in path:
                if w == b:
                    if active_path(path + [w]):
                        return True
                else:
                    if dfs(path + [w]):
                        return True
        return False

    return dfs([a])


def test_d_separation_matches_path_enumeration():
    rng = random.Random(12)
    for seed in range(15):
        if seed % 2:
            net = gen_polytree(GenSpec(node_count=7, seed=seed))
        else:
            net = gen_loopy(GenSpec(node_count=7, topology="loopy", arc_ratio=1.3, seed=seed))
        ids = net.node_ids()
        for _ in range(10):
            a, b = rng.sample(ids, 2)
            observed = {v: 0 for v in rng.sample(ids, rng.randint(0, 3)) if v not in (a, b)}
            want = not _brute_d_connected(net, a, b, observed)
            assert d_separated(net, a, b, observed) == want, (net.name, a, b, observed)


def test_d_separation_symmetric():
    rng = random.Random(42)
    for seed in range(10):
        net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.25, seed=seed))
        ids = net.node_ids()
        for _ in range(15):
            a, b = rng.sample(ids, 2)
            observed = {v: 0 for v in rng.sample(ids, rng.randint(0, 2))}
            assert d_separated(net, a, b, observed) == d_separated(net, b, a, observed)


def test_relevant_set_examples():
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    assert relevant_set(chain, "A", {"B": 0}) == {"A", "B"}
    # disconnected node is never relevant
    two = build_net("t", {"A": [], "B": ["A"], "Z": []})
    assert "Z" not in relevant_set(two, "A", {})
    # childless unobserved branches below the query drop out
    tree = build_net("b", {"A": [], "B": ["A"], "C": ["B"], "D": ["B"]})
    assert relevant_set(tree, "A", {}) == {"A"}
    assert relevant_set(tree, "B", {"C": 0}) == {"A", "B", "C"}


def _relevant_reference(net, query, evidence):
    """The definition: active trails from the query, cut to the ancestral
    closure of the query and the evidence."""
    return (reachable_from(net, query, evidence) & net.ancestral_closure({query, *evidence})) | {query}


def test_relevant_set_matches_its_definition_on_random_networks():
    rng = random.Random(7)
    for seed in range(40):
        if seed % 2:
            net = gen_polytree(GenSpec(node_count=rng.randint(10, 40), seed=seed))
        else:
            net = gen_loopy(GenSpec(node_count=rng.randint(10, 40), topology="loopy", arc_ratio=1.3, seed=seed))
        ids = net.node_ids()
        for _ in range(8):
            observed = rng.sample(ids, rng.randint(0, len(ids) // 3))
            evidence = {v: rng.randrange(net.state_count(v)) for v in observed}
            # Every third query is itself observed, where there is evidence.
            query = rng.choice(observed) if observed and rng.random() < 1 / 3 else rng.choice(ids)
            want = _relevant_reference(net, query, evidence)
            assert relevant_set(net, query, evidence) == want, (net.name, query, evidence)
            assert relevant_set(net, query, list(evidence)) == want, (net.name, query, evidence)
            # The engine's call, over the closure the network keeps for the evidence.
            assert relevant_set(net, query, _Context(net, evidence, query)) == want


def test_relevant_set_rejects_an_unknown_query():
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    with pytest.raises(KeyError):
        relevant_set(chain, "X", {})
    with pytest.raises(KeyError):
        relevant_set(chain, "X", {"C": 0})


def _brute_cycle_arcs(net):
    """Arcs on some undirected simple cycle, by exhaustive path search."""
    arcs = list(net.arcs)
    adj = {}
    for i, (p, c) in enumerate(arcs):
        adj.setdefault(p, []).append((c, i))
        adj.setdefault(c, []).append((p, i))
    for v in net.node_ids():
        adj.setdefault(v, [])
    on_cycle = set()

    def dfs(start, node, used_edges, used_nodes):
        for w, e in adj[node]:
            if e in used_edges:
                continue
            if w == start and len(used_edges) >= 2:
                on_cycle.update(used_edges | {e})
            elif w not in used_nodes:
                dfs(start, w, used_edges | {e}, used_nodes | {w})

    for v in net.node_ids():
        dfs(v, v, frozenset(), frozenset({v}))
    return {arcs[i] for i in on_cycle}


def test_loop_clusters_against_cycle_enumeration():
    for seed in range(8):
        net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.3, seed=100 + seed))
        clusters = find_loop_clusters(net)
        clustered = set().union(*(c.arcs for c in clusters)) if clusters else set()
        assert clustered == _brute_cycle_arcs(net)
        seen = set()
        for c in clusters:
            assert not (c.nodes & seen)
            seen |= c.nodes


def test_loop_clusters_shapes():
    assert find_loop_clusters(build_net("c", {"A": [], "B": ["A"], "C": ["B"]})) == ()
    dia = build_net("d", {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]})
    (cluster,) = find_loop_clusters(dia)
    assert cluster.nodes == frozenset("ABCD")
    assert cluster.arcs == frozenset({("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")})
    # two loops joined by a chain stay separate clusters
    double = build_net(
        "dd",
        {
            "A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"],
            "E": ["D"], "F": ["E"], "G": ["E"], "H": ["F", "G"],
        },
    )
    clusters = find_loop_clusters(double)
    assert len(clusters) == 2
    assert {frozenset("ABCD"), frozenset("EFGH")} == {c.nodes for c in clusters}


def test_loop_clusters_merge_on_shared_node():
    # two diamonds sharing D form a single cluster
    fused = build_net(
        "f",
        {
            "A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"],
            "E": ["D"], "F": ["D"], "G": ["E", "F"],
        },
    )
    (cluster,) = find_loop_clusters(fused)
    assert cluster.nodes == frozenset("ABCDEFG")

import itertools
import math
import random
import re
import tracemalloc

import pytest

from boundprop import (
    BeliefNetwork,
    NetworkFormatError,
    find_loop_clusters,
    is_polytree,
    network,
    parse_network,
    relevant_set,
    serialize_network,
)
from boundprop.engine import _Context
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree
from boundprop.network import Node, _trails

from conftest import build_net


def test_parse_two_node_chain(chain_ab):
    assert chain_ab.node_ids() == ("A", "B")
    assert chain_ab.arcs == (("A", "B"),)
    assert chain_ab.parents("B") == ("A",)
    assert dict(zip(chain_ab.parent_configs("B"), chain_ab.node("B").cpt))[(0,)] == (0.9, 0.1)


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


_HEAD = "network x\nnode A states t f\n"

# One row per check on a network file that the tests above leave out:
# the text, the message and the line the error names (None where the
# whole file is at fault).
MALFORMED = [
    (_HEAD + "cpt A\n0.5\n", "cpt row for 'A' has 1 values, expected 2", 4),
    (_HEAD + "node B states t f\nparents B A\ncpt B\n0.5 0.5\nnode C states t f\n",
     "expected 1 more cpt row(s) for 'B'", 7),
    ("network\n", "network line needs exactly one name", 1),
    ("network x\nnetwork y\n", "duplicate network line", 2),
    (_HEAD + "node A states u v\n", "duplicate node 'A'", 3),
    ("network x\nparents\n", "parents line needs a node id", 2),
    ("network x\nparents A\n", "parents for undeclared node 'A'", 2),
    (_HEAD + "parents A\nparents A\n", "duplicate parents line for 'A'", 4),
    (_HEAD + "node B states t f\ncpt B\n0.5 0.5\nparents B A\n", "parents of 'B' declared after its cpt", 6),
    ("network x\ncpt\n", "cpt line needs exactly one node id", 2),
    ("network x\ncpt A\n", "cpt for undeclared node 'A'", 2),
    (_HEAD + "cpt A\n0.5 0.5\ncpt A\n0.5 0.5\n", "duplicate cpt for 'A'", 5),
    (_HEAD + "evidence A\n", "evidence line must read: evidence <id> <state>", 3),
    ("network x\nevidence A t\n", "evidence for undeclared node 'A'", 2),
    (_HEAD + "evidence A u\n", "node 'A' has no state 'u'", 3),
    (_HEAD + "evidence A t\nevidence A f\n", "duplicate evidence for 'A'", 4),
    (_HEAD + "cpt A\n", "file ended with 1 cpt row(s) missing for 'A'", None),
    ("node A states t f\ncpt A\n0.5 0.5\n", "missing network line", None),
    ("network x\nnode A states t t\ncpt A\n0.5 0.5\n", "node 'A' has duplicate state names", None),
    (_HEAD + "node B states t f\nparents B A A\ncpt A\n0.5 0.5\ncpt B\n" + "0.5 0.5\n" * 4,
     "node 'B' lists a parent twice", None),
    (_HEAD + "cpt A\n1.5 -0.5\n", "cpt entry 1.5 of 'A' outside [0, 1]", None),
    # A row text read once under a 2-state node is checked again at its repeat.
    (_HEAD + "node B states t f u\ncpt A\n0.5 0.5\ncpt B\n0.5 0.5\n",
     "cpt row for 'B' has 2 values, expected 3", 7),
]


# The parse tests below run again with the text split into lines this
# many characters at a time (``network._CHUNK``); None keeps the default.
CHUNKS = [None, 1, 2, 7, 64]


@pytest.fixture
def chunked(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(network, "_CHUNK", request.param)


@pytest.mark.parametrize("chunked", CHUNKS, indirect=True)
@pytest.mark.parametrize("text, message, line", MALFORMED)
def test_parse_names_each_malformed_line(text, message, line, chunked):
    for copy in (text, text.replace("\n", "\r\n")):
        with pytest.raises(NetworkFormatError) as exc:
            parse_network(copy)
        assert exc.value.line == line
        assert str(exc.value) == (message if line is None else f"line {line}: {message}")


@pytest.mark.parametrize("chunked", CHUNKS, indirect=True)
def test_parse_skips_blank_and_comment_lines_between_cpt_rows(chunked):
    plain = (
        "network x\nnode A states t f\nnode B states t f\nparents B A\n"
        "cpt A\n0.3 0.7\ncpt B\n0.9 0.1\n0.2 0.8\n"
    )
    spaced = plain.replace("\n0.9 0.1\n", "\n\n# first row\n0.9 0.1\n   \n  # second row\n\n")
    assert spaced != plain
    want = serialize_network(parse_network(plain))
    for text in (plain, spaced):
        assert serialize_network(parse_network(text)) == want
        assert serialize_network(parse_network(text.replace("\n", "\r\n"))) == want


_TWO_ROWS = _HEAD + "node B states t f\nparents B A\ncpt A\n0.5 0.5\ncpt B\n{}\n{}\n"


@pytest.mark.parametrize("chunked", CHUNKS, indirect=True)
@pytest.mark.parametrize("first, second", [("0 1", "-0 1"), ("-0 1", "0 1"), ("0.5 0.5", "0.50 0.5")])
def test_parse_reads_each_row_by_its_own_text(first, second, chunked):
    # Rows are shared by their text, so rows whose texts differ keep what
    # float() makes of each: the sign of a zero, and equal values from
    # different spellings.
    for text in (_TWO_ROWS.format(first, second), _TWO_ROWS.format(first, second).replace("\n", "\r\n")):
        cpt = parse_network(text).node("B").cpt
        assert cpt == (tuple(map(float, first.split())), tuple(map(float, second.split())))
        signs = [math.copysign(1.0, v) for row in cpt for v in row]
        assert signs == [-1.0 if t.startswith("-") else 1.0 for t in f"{first} {second}".split()]


@pytest.mark.parametrize("net", [
    gen_polytree(GenSpec(node_count=300, seed=5)),
    gen_loopy(GenSpec(node_count=300, topology="loopy", arc_ratio=1.3, seed=5)),
], ids=["polytree", "loopy"])
def test_parse_holds_each_row_text_and_each_id_once(net):
    last = net.nodes[-1]
    text = serialize_network(net) + f"evidence {last.id} {last.states[0]}\n"
    back = parse_network(text)
    for n in back.nodes:
        for p in n.parents:
            assert p is back.node(p).id
    assert [v is back.node(v).id for v in back.evidence] == [True]
    keywords = {"network", "node", "parents", "cpt", "evidence"}
    row_texts = {line for line in text.splitlines() if line.split()[0] not in keywords}
    rows = {id(row) for n in back.nodes for row in n.cpt}
    assert len(rows) == len(row_texts) < sum(len(n.cpt) for n in back.nodes)


# Every line boundary ``str.splitlines`` knows besides "\n" and "\r\n".
_BOUNDARIES = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("chunked", CHUNKS, indirect=True)
@pytest.mark.parametrize("boundary", _BOUNDARIES, ids=[hex(ord(b)) for b in _BOUNDARIES])
def test_a_comment_ends_where_splitlines_ends_its_line(boundary, chunked):
    # The declaration after the boundary is line 3, whether it parses or not.
    head = "network x\nnode A states t f # a comment" + boundary
    net = parse_network(head + "node B states t f\nparents B A\ncpt A\n0.5 0.5\ncpt B\n0.5 0.5\n0.5 0.5\n")
    assert net.node_ids() == ("A", "B")
    assert net.parents("B") == ("A",)
    with pytest.raises(NetworkFormatError) as exc:
        parse_network(head + "evidence A u\n")
    assert exc.value.line == 3
    assert str(exc.value) == "line 3: node 'A' has no state 'u'"


def test_parse_names_the_line_of_a_bad_row_after_a_comment():
    text = _HEAD + "node B states t f\nparents B A\ncpt B\n0.5 0.5\n# the second row\n\n0.5\n"
    with pytest.raises(NetworkFormatError) as exc:
        parse_network(text)
    assert exc.value.line == 9
    assert str(exc.value) == "line 9: cpt row for 'B' has 1 values, expected 2"


_ROW2, _ROW1 = (0.5, 0.5), (1.0,)


@pytest.mark.parametrize("nodes, message", [
    ([Node("A", ("t", "f"), (), (_ROW2,))] * 2, "duplicate node id"),
    ([Node("B", ("t", "f"), ("Z",), (_ROW2, _ROW2))], "unknown node reference 'Z' in parents of 'B'"),
    ([Node("A", ("t",), (), (_ROW1,))], "node 'A' needs at least two states"),
    ([Node("A", ("t", "f"), (), (_ROW2, _ROW2))], "cpt of 'A' has 2 rows, expected 1"),
    ([Node("A", ("t", "f"), (), (_ROW1,))], "cpt row 0 of 'A' has wrong length"),
])
def test_network_rejects_a_malformed_node(nodes, message):
    # A parsed file never reaches these checks, since the parser refuses
    # each case first, so the nodes are built directly.
    with pytest.raises(NetworkFormatError) as exc:
        BeliefNetwork("x", nodes)
    assert exc.value.line is None
    assert str(exc.value) == message


def test_parse_evidence_line():
    text = (
        "network x\nnode A states t f\nparents A\ncpt A\n0.5 0.5\n"
        "evidence A f\n"
    )
    net = parse_network(text)
    assert net.evidence == {"A": 1}
    assert parse_network(serialize_network(net)).evidence == {"A": 1}


@pytest.mark.parametrize("chunked", CHUNKS, indirect=True)
def test_roundtrip_bit_equal(chunked):
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


def test_serialize_peaks_under_three_times_its_text():
    # Written through one buffer, with no list of every line.
    net = gen_polytree(GenSpec(node_count=5000, seed=1))
    tracemalloc.start()
    try:
        text = serialize_network(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * len(text), peak / len(text)


@pytest.mark.parametrize("name, nodes, field", [
    ("my net", [Node("A", ("t", "f"), (), ((0.5, 0.5),))], "network name 'my net'"),
    ("x", [Node("A#1", ("t", "f"), (), ((0.5, 0.5),))], "node id 'A#1'"),
    ("x", [Node("A", ("t x", "f"), (), ((0.5, 0.5),))], "state name 't x'"),
    ("x", [Node("A", ("", "f"), (), ((0.5, 0.5),))], "state name ''"),
])
def test_serialize_rejects_a_value_the_format_cannot_hold(name, nodes, field):
    # Each would be written as text that parse_network rejects.
    with pytest.raises(ValueError, match=re.escape(field) + " cannot be written"):
        serialize_network(BeliefNetwork(name, nodes))


def test_parsed_nodes_share_state_tuples_and_hold_no_dict():
    net = parse_network(serialize_network(gen_polytree(GenSpec(node_count=40, seed=3))))
    by_names: dict[tuple[str, ...], tuple[str, ...]] = {}
    for n in net.nodes:
        assert by_names.setdefault(n.states, n.states) is n.states
    assert len(by_names) < len(net.nodes)
    assert not hasattr(net.nodes[0], "__dict__")


def test_is_polytree():
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    assert is_polytree(chain)
    single = build_net("s", {"A": []})
    assert is_polytree(single)
    dia = build_net("d", {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]})
    assert not is_polytree(dia)


def test_skeleton_neighbors_hold_no_duplicates():
    # Parents are distinct and no parent is also a child, so parents then
    # children is the deduplicated list.
    nets = [gen_polytree(GenSpec(node_count=25, seed=s)) for s in range(15)]
    nets += [gen_loopy(GenSpec(node_count=25, topology="loopy", arc_ratio=1.4, seed=s)) for s in range(15)]
    nets.append(build_net("h", {"A": [], "B": [], "C": [], "X": ["A", "B", "C"], "D": ["A", "X"], "E": ["X"]}))
    assert nets[-1].skeleton_neighbors("X") == ("A", "B", "C", "D", "E")
    for net in nets:
        for v in net.node_ids():
            expected = tuple(dict.fromkeys(net.parents(v) + net.children(v)))
            assert net.skeleton_neighbors(v) == expected


@pytest.mark.parametrize("counts", [c for k in (1, 2, 3) for c in itertools.product((2, 3, 4), repeat=k)])
def test_kernel_record_groups_the_rows_of_each_parent_state(counts):
    parents = [f"p{i}" for i in range(len(counts))]
    spec = {**{p: [] for p in parents}, "x": parents}
    net = build_net("g", spec, seed=1, state_counts={**dict(zip(parents, counts)), "x": 3})
    record = net._kernel_tables("x")
    configs = list(net.parent_configs("x"))
    groups = record[4]
    assert len(groups) == len(parents)
    for i, by_state in enumerate(groups):
        assert len(by_state) == counts[i]
        assert sorted(r for rows in by_state for r in rows) == list(range(len(net.node("x").cpt)))
        for y, rows in enumerate(by_state):
            assert list(rows) == sorted(rows)
            assert rows == tuple(r for r, config in enumerate(configs) if config[i] == y)
    assert net._kernel_tables("x") is record


def _reachable(net, source, observed):
    """Nodes joined to ``source`` by a trail active given ``observed``;
    the endpoints never block."""
    z = set(observed)
    return _trails(net, source, z, net.ancestral_closure(z), net)


def d_separated(net, a, b, observed):
    """True when no trail active given ``observed`` joins a and b."""
    return b not in _reachable(net, a, observed)


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


def _moral_separated(net, a, b, observed):
    """Lauritzen et al. (1990): a and b are d-separated by Z exactly when
    Z separates them in the moral graph of An({a, b} ∪ Z)."""
    keep, stack = set(), [a, b, *observed]
    while stack:
        v = stack.pop()
        if v not in keep:
            keep.add(v)
            stack += net.parents(v)
    adj = {v: set() for v in keep}
    for v in keep:
        family = (v, *net.parents(v))
        for x, y in itertools.combinations(family, 2):  # the arcs and the married parents
            adj[x].add(y)
            adj[y].add(x)
    seen, stack = {a}, [a]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen and w not in observed:
                seen.add(w)
                stack.append(w)
    return b not in seen


def test_trails_match_moral_graph_separation():
    rng = random.Random(30)
    for seed in range(16):
        if seed % 2:
            net = gen_polytree(GenSpec(node_count=rng.randint(5, 25), seed=seed))
        else:
            net = gen_loopy(GenSpec(node_count=rng.randint(5, 25), topology="loopy", arc_ratio=1.3, seed=seed))
        ids = net.node_ids()
        for _ in range(4):
            observed = rng.sample(ids, rng.randint(0, len(ids) // 3))
            evidence = {v: rng.randrange(net.state_count(v)) for v in observed}
            free = [v for v in ids if v not in evidence]
            for a in free:
                reach = _reachable(net, a, evidence)
                for b in free:
                    if b != a:
                        want = _moral_separated(net, a, b, evidence)
                        assert (b not in reach) == want, (net.name, a, b, evidence)


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
    return (_reachable(net, query, evidence) & net.ancestral_closure({query, *evidence})) | {query}


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
            # The engine's call, over the closure the network keeps for the evidence.
            assert relevant_set(net, query, _Context(net, evidence, query)) == want


def test_relevant_set_rejects_an_unknown_query():
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    with pytest.raises(KeyError):
        relevant_set(chain, "X", {})
    with pytest.raises(KeyError):
        relevant_set(chain, "X", {"C": 0})


def _reach(start, arcs):
    """Nodes and arcs of the skeleton piece of ``arcs`` that holds ``start``."""
    nodes, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for p, c in arcs:
            for a, b in ((p, c), (c, p)):
                if a == v and b not in nodes:
                    nodes.add(b)
                    frontier.append(b)
    return nodes, [(p, c) for p, c in arcs if p in nodes]


def _brute_two_core(arcs):
    """Clusters of the skeleton's 2-core by connectivity alone: an arc
    belongs if its ends stay joined without it (it lies on a cycle), or
    if it is a bridge with a cycle on both sides (a piece with at least
    as many arcs as nodes)."""
    core = set()
    for arc in arcs:
        rest = [a for a in arcs if a != arc]
        sides = [_reach(end, rest) for end in arc]
        if arc[1] in sides[0][0] or all(len(es) >= len(ns) for ns, es in sides):
            core.add(arc)
    clusters = set()
    for p, c in core:
        nodes, piece = _reach(p, sorted(core))
        clusters.add((frozenset(nodes), frozenset(piece)))
    return clusters


def test_loop_clusters_against_a_brute_force_two_core():
    # At 12 nodes and ratio 1.2, seeds 104, 124 and 136 join two cycles
    # by a path, which the 2-core holds and the cycles alone do not.
    joined = 0
    for seed in range(100, 140):
        net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.2, seed=seed))
        clusters = find_loop_clusters(net.arcs)
        assert {(c.nodes, c.arcs) for c in clusters} == _brute_two_core(list(net.arcs))
        seen = set()
        for c in clusters:
            assert not (c.nodes & seen)
            seen |= c.nodes
        # A cluster with a bridge holds two cycles joined by a path.
        joined += any(
            arc[1] not in _reach(arc[0], [a for a in c.arcs if a != arc])[0]
            for c in clusters for arc in c.arcs
        )
    assert joined >= 3


def test_a_connected_graph_has_at_most_one_loop_cluster():
    rng = random.Random(5)
    loopy = 0
    for seed in range(40):
        net = gen_loopy(GenSpec(node_count=rng.randint(8, 20), topology="loopy", arc_ratio=1.3, seed=seed))
        for _ in range(5):
            # Grow a connected node set from a random start, keep the arcs
            # it grew by, and add each other arc inside it with even odds.
            start = rng.choice(net.node_ids())
            nodes, frontier, arcs = {start}, [start], set()
            while frontier and len(nodes) < 12:
                v = frontier.pop(rng.randrange(len(frontier)))
                for w in net.skeleton_neighbors(v):
                    if w not in nodes and rng.random() < 0.7:
                        nodes.add(w)
                        frontier.append(w)
                        arcs.add((v, w) if v in net.parents(w) else (w, v))
            arcs |= {a for a in net.arcs if a[0] in nodes and a[1] in nodes and rng.random() < 0.5}
            clusters = find_loop_clusters(arcs)
            assert len(clusters) <= 1
            assert {(c.nodes, c.arcs) for c in clusters} == _brute_two_core(sorted(arcs))
            loopy += len(clusters)
    assert loopy > 50


def test_loop_clusters_do_not_depend_on_input_order():
    for seed in range(8):
        net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.3, seed=400 + seed))
        want = set(find_loop_clusters(net.arcs))
        assert want
        rng = random.Random(seed)
        for _ in range(5):
            arcs = list(net.arcs)
            rng.shuffle(arcs)
            assert set(find_loop_clusters(arcs)) == want
        assert set(find_loop_clusters(frozenset(arcs))) == want


def test_stored_evidence_states_are_ints_in_range(chain_ab):
    BeliefNetwork("ok", chain_ab.nodes, {"B": 1})
    for evidence in ({"B": 0.5}, {"B": 1.0}, {"B": True}, {"B": "1"}, {"B": 2}, {"B": -1}, {"Z": 0}):
        with pytest.raises(NetworkFormatError, match="stored evidence"):
            BeliefNetwork("bad", chain_ab.nodes, evidence)


def test_loop_clusters_shapes(double_diamond):
    chain = build_net("c", {"A": [], "B": ["A"], "C": ["B"]})
    assert find_loop_clusters(chain.arcs) == ()
    dia = build_net("d", {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]})
    (cluster,) = find_loop_clusters(dia.arcs)
    assert cluster.nodes == frozenset("ABCD")
    assert cluster.arcs == frozenset({("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")})
    # two loops joined by the arc D -> E are one cluster that holds it
    (cluster,) = find_loop_clusters(double_diamond.arcs)
    assert cluster.nodes == frozenset("ABCDEFGH")
    assert cluster.arcs == frozenset(double_diamond.arcs) and ("D", "E") in cluster.arcs


def test_loop_clusters_merge_on_shared_node():
    # two diamonds sharing D form a single cluster
    fused = build_net(
        "f",
        {
            "A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"],
            "E": ["D"], "F": ["D"], "G": ["E", "F"],
        },
    )
    (cluster,) = find_loop_clusters(fused.arcs)
    assert cluster.nodes == frozenset("ABCDEFG")

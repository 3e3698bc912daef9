"""Belief-network representation, validation, and structural queries.

A network's nodes, tables and stored evidence never change after
construction.  It keeps two memos, neither of which changes an answer:
one record per node derived from its table on first use
(``BeliefNetwork._kernel_tables``) and one slot for the last evidence
asked about (``BeliefNetwork._observe``).  Conditional probability
tables are stored as one row per joint parent configuration, with the
last-listed parent varying fastest; that order is also the on-disk row
order, so files round-trip bit for bit.

A ``Node`` is a slotted record.  ``parse_network`` shares what equal
text gives: every node with the same state names holds one ``states``
tuple, every CPT row with the same text (comment removed) one float
tuple, and every reference to a node id the string of its node line.
It reads its text in chunks of about ``_CHUNK`` characters, so no list
of every line of a large file is ever built, and builds each node when
its ``cpt`` block closes.

Loop clusters are the connected pieces of the skeleton's 2-core
(``_two_core``), which the cutset greedy in ``loops`` prunes with too.
"""

from __future__ import annotations

import io
import itertools
import math
import re
from dataclasses import dataclass
from operator import itemgetter
from typing import Collection, Container, Iterable, Iterator, Mapping, Sequence

from .intervals import _normalized, _orders

ROW_SUM_TOL = 1e-9

# The characters ``parse_network`` splits into lines at a time: enough
# that the per-piece cost vanishes, few enough that one piece's lines
# hold little memory next to the network.
_CHUNK = 1 << 20

Evidence = dict[str, int]


class NetworkFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True, slots=True)
class Node:
    id: str
    states: tuple[str, ...]
    parents: tuple[str, ...]
    cpt: tuple[tuple[float, ...], ...]


class BeliefNetwork:
    """Directed acyclic network of categorical variables with CPTs."""

    def __init__(self, name: str, nodes: Sequence[Node], evidence: Mapping[str, int] | None = None):
        self.name = name
        self.nodes = tuple(nodes)
        self._by_id = {n.id: n for n in self.nodes}
        if len(self._by_id) != len(self.nodes):
            raise NetworkFormatError("duplicate node id")
        self._order = {n.id: i for i, n in enumerate(self.nodes)}
        children: dict[str, list[str]] = {n.id: [] for n in self.nodes}
        for n in self.nodes:
            for p in n.parents:
                if p not in self._by_id:
                    raise NetworkFormatError(f"unknown node reference {p!r} in parents of {n.id!r}")
                children[p].append(n.id)
        self._children = {k: tuple(v) for k, v in children.items()}
        self._validate()
        self.evidence: Evidence = dict(evidence or {})
        try:
            _check_evidence(self, self.evidence)
        except (KeyError, ValueError) as exc:
            raise NetworkFormatError(f"stored evidence: {exc.args[0]}") from None
        # The last evidence mapping asked about, its checked copy and An(Z).
        self._observed: tuple[Mapping[str, int], Evidence, set[str]] | None = None
        # The derived record of each node (``_kernel_tables``), built on
        # first use (at parse it would cost about as much as the parse);
        # equal greedy orders are stored once across nodes.
        self._tables: dict[str, tuple] = {}
        self._orders: dict[tuple, tuple] = {}

    def _validate(self) -> None:
        for n in self.nodes:
            if len(n.states) < 2:
                raise NetworkFormatError(f"node {n.id!r} needs at least two states")
            if len(set(n.states)) != len(n.states):
                raise NetworkFormatError(f"node {n.id!r} has duplicate state names")
            if len(set(n.parents)) != len(n.parents):
                raise NetworkFormatError(f"node {n.id!r} lists a parent twice")
            expected_rows = 1
            for p in n.parents:
                expected_rows *= len(self._by_id[p].states)
            if len(n.cpt) != expected_rows:
                raise NetworkFormatError(
                    f"cpt of {n.id!r} has {len(n.cpt)} rows, expected {expected_rows}"
                )
            for r, row in enumerate(n.cpt):
                if len(row) != len(n.states):
                    raise NetworkFormatError(f"cpt row {r} of {n.id!r} has wrong length")
                for v in row:
                    if not 0.0 <= v <= 1.0:
                        raise NetworkFormatError(f"cpt entry {v} of {n.id!r} outside [0, 1]")
                if abs(sum(row) - 1.0) > ROW_SUM_TOL:
                    raise NetworkFormatError(
                        f"cpt row {r} of {n.id!r} sums to {sum(row)!r}, not 1"
                    )
        if self._topological_order() is None:
            raise NetworkFormatError("cycle detected")

    def _topological_order(self) -> list[str] | None:
        indeg = {n.id: len(n.parents) for n in self.nodes}
        ready = [n.id for n in self.nodes if indeg[n.id] == 0]
        out: list[str] = []
        while ready:
            v = ready.pop()
            out.append(v)
            for c in self._children[v]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
        return out if len(out) == len(self.nodes) else None

    # -- basic accessors -------------------------------------------------

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._by_id

    def node(self, node_id: str) -> Node:
        try:
            return self._by_id[node_id]
        except KeyError:
            raise KeyError(f"no node {node_id!r} in network {self.name!r}") from None

    def node_ids(self) -> tuple[str, ...]:
        return tuple(n.id for n in self.nodes)

    def order(self, node_id: str) -> int:
        return self._order[node_id]

    def states(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).states

    def state_count(self, node_id: str) -> int:
        return len(self.node(node_id).states)

    def state_index(self, node_id: str, state_name: str) -> int:
        states = self.node(node_id).states
        try:
            return states.index(state_name)
        except ValueError:
            raise KeyError(f"node {node_id!r} has no state {state_name!r}") from None

    def parents(self, node_id: str) -> tuple[str, ...]:
        return self.node(node_id).parents

    def children(self, node_id: str) -> tuple[str, ...]:
        return self._children[node_id]

    @property
    def arcs(self) -> tuple[tuple[str, str], ...]:
        return tuple((p, n.id) for n in self.nodes for p in n.parents)

    def parent_configs(self, node_id: str) -> Iterator[tuple[int, ...]]:
        """Joint parent configurations in CPT row order (last parent fastest)."""
        ranges = [range(len(self._by_id[p].states)) for p in self.node(node_id).parents]
        return itertools.product(*ranges)

    def _kernel_tables(self, node_id: str):
        """The node's derived record, built once: its CPT columns as float
        tuples, the greedy orders (``intervals._orders``) of each column
        and of each row, its pi value under vacuous parent messages (see
        ``engine``'s kernel fast paths) and, per parent, the row indices
        of each of its states, ascending."""
        found = self._tables.get(node_id)
        if found is None:
            cpt = self.node(node_id).cpt
            columns = tuple(zip(*cpt))
            shared = self._orders
            orders = [tuple(shared.setdefault(o, o) for o in map(_orders, v, v)) for v in (columns, cpt)]
            prior = _normalized(*zip(*[(c[lo[0]], c[hi[0]]) for c, (lo, hi) in zip(columns, orders[0])]))
            configs = tuple(self.parent_configs(node_id))
            groups = tuple(
                tuple(tuple(r for r, c in enumerate(configs) if c[i] == y) for y in range(self.state_count(p)))
                for i, p in enumerate(self.parents(node_id))
            )
            found = self._tables[node_id] = (columns, *orders, prior, groups)
        return found

    # -- structural queries ----------------------------------------------

    def skeleton_neighbors(self, node_id: str) -> tuple[str, ...]:
        # No duplicates: parents are distinct, and in a DAG no parent is a child.
        return self.node(node_id).parents + self._children[node_id]

    def ancestral_closure(self, seed: Iterable[str], closed: Container[str] = frozenset()) -> set[str]:
        """The seed nodes together with all their ancestors, leaving out
        ``closed``, a set that already holds the ancestors of its members."""
        out: set[str] = set()
        stack = list(seed)
        while stack:
            v = stack.pop()
            if v in out or v in closed:
                continue
            out.add(v)
            stack.extend(self.node(v).parents)
        return out

    def _observe(self, evidence: Mapping[str, int]) -> tuple[Evidence, set[str]]:
        """The checked evidence and An(Z), the ancestral closure of its
        nodes Z, kept in one slot for every query and entry point.

        The slot holds the mapping last asked about, its checked copy and
        An(Z), and is rebuilt, checked first, when the mapping is not
        ``==`` to that copy; a check that fails raises before anything is
        kept.  An equal mapping that is not the kept object is checked
        (O(|Z|), no closure) before the slot is reused, so ``{"C": True}``
        or ``{"C": 1.0}`` after ``{"C": 1}`` raises.  Left open: the kept
        mapping itself changed in place to an equal state (``1`` to
        ``True``) is read as the kept int without a check; an immutable
        observation value would close that.
        """
        kept = self._observed
        if kept is None or kept[1] != evidence:
            _check_evidence(self, evidence)
            checked = dict(evidence)
            kept = self._observed = (evidence, checked, self.ancestral_closure(checked))
        elif kept[0] is not evidence:
            _check_evidence(self, evidence)
        return kept[1], kept[2]


def _check_evidence(net: BeliefNetwork, evidence: Mapping[str, int]) -> None:
    """Raise ``KeyError`` for a node the network lacks and ``ValueError``
    for a state that is not an ``int`` (a ``bool`` is not) in the node's
    range."""
    for v, s in evidence.items():
        n = net.state_count(v)
        if isinstance(s, bool) or not isinstance(s, int):
            raise ValueError(f"evidence state of {v!r} must be an int, not {s!r}")
        if not 0 <= s < n:
            raise ValueError(f"evidence state {s} out of range for {v!r}")


class _Context:
    """Per-query constants shared by every evaluation of one query.

    The caller's evidence is laid over the evidence stored on the
    network; this is the one place the engine reads the stored set, so
    ``answer_query``, ``propagate`` and ``relevant_set`` answer under
    the same evidence.  Each builds one, so the query and the evidence
    are checked here.  The checked evidence and An(Z) come from the
    network's one kept slot (``BeliefNetwork._observe``); ``own`` is the
    query's own ancestors outside An(Z), walked for this query only, so
    ``v in ctx`` tests membership in An({q} ∪ Z) without copying either
    set.  ``deadline`` is the ``time.perf_counter()`` reading at which a
    conditioned evaluation stops; only ``answer_query`` sets it, from
    its ``budget_ms``.
    """

    __slots__ = ("net", "query", "evidence", "ancestors", "own", "deadline")

    def __init__(self, net: BeliefNetwork, evidence: Mapping[str, int] | None, query: str):
        self.net = net
        self.query = query
        stored = net.evidence
        # A merged copy only when both sides give evidence; ``_observe``
        # checks and copies whichever mapping it is given.
        self.evidence, self.ancestors = net._observe(
            {**stored, **evidence} if stored and evidence else evidence or stored
        )
        self.own = net.ancestral_closure((query,), closed=self.ancestors)
        self.deadline: float | None = None

    def __contains__(self, v: str) -> bool:
        return v in self.own or v in self.ancestors


class UnionFind:
    """Disjoint sets over hashable items; an unseen item is its own set."""

    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, v):
        parent = self.parent
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(self, a, b) -> bool:
        """Join the sets of a and b; False when they were already one."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def skeleton_acyclic(arcs: Iterable[tuple[str, str]], split: Iterable[str] = ()) -> bool:
    """True when the undirected skeleton of ``arcs`` has no cycle.

    Arcs leaving a ``split`` node are ignored: clamping a node silences
    its outgoing arcs only, while flow between its parents survives
    (explaining away), so those edges stay.
    """
    split = set(split)
    sets = UnionFind()
    return all(sets.union(p, c) for p, c in arcs if p not in split)


def is_polytree(net: BeliefNetwork) -> bool:
    """True when the undirected skeleton has no cycle."""
    return skeleton_acyclic(net.arcs)


# -- relevance ------------------------------------------------------------


def _trails(net: BeliefNetwork, source: str, observed: Container[str], below: Container[str],
            within: Container[str]) -> set[str]:
    """Nodes joined to ``source`` by a trail active given ``observed``.

    ``below`` is the ancestral closure of ``observed``.  A trail is
    active when every intermediate collider is in ``below`` and every
    other intermediate node is unobserved, and stops where it leaves
    ``within``.  As in Bayes-Ball (Shachter, UAI 1998), a node has two
    marks, each with its own stack: ``down``, reached along an arc into
    it, and ``up``, reached from a child or as the source.  The source
    never blocks: its up mark passes on all that a down mark would.
    """
    by_id, children = net._by_id, net._children
    up, down, ups, downs = set(), set(), [source], []
    while ups or downs:
        while ups:
            v = ups.pop()
            if v not in up and v in within:
                up.add(v)
                if v not in observed or v == source:
                    ups += by_id[v].parents
                    downs += children[v]
        while downs:
            v = downs.pop()
            if v not in down and v in within:
                down.add(v)
                if v not in observed:
                    downs += children[v]
                if v in below:  # An(Z) holds Z: an open collider passes on
                    ups += by_id[v].parents
    return up | down


def relevant_set(net: BeliefNetwork, query: str, evidence: Mapping[str, int]) -> set[str]:
    """Nodes that can influence the query's posterior.

    A node matters only if it is joined to the query by an active trail
    and sits in the ancestral closure of the query and the evidence;
    anything else either cannot pass information or sums out of the
    posterior exactly (childless unobserved branches).  Descendants of
    a node outside that closure are outside it too, so a trail that
    leaves it never comes back, and one walk that stops there, with two
    marks per node as in Bayes-Ball, finds them all.

    ``evidence`` is laid over the evidence stored on the network and
    checked, as ``answer_query`` does, through one ``_Context``.  The
    engine passes its per-query ``_Context`` instead, whose evidence
    and closures the walk reuses.
    """
    ctx = evidence if isinstance(evidence, _Context) else _Context(net, evidence, query)
    return _trails(net, query, ctx.evidence, ctx.ancestors, ctx)


# -- loop structure --------------------------------------------------------


@dataclass(frozen=True)
class LoopCluster:
    """One connected piece of the skeleton's 2-core: cycles and the paths
    that join them."""

    nodes: frozenset[str]
    arcs: frozenset[tuple[str, str]]


def _two_core(arcs: Collection[tuple[str, str]]) -> list[tuple[str, str]]:
    """The arcs of the skeleton's 2-core, in the order of ``arcs``: what is
    left once nodes with at most one arc are pruned until none is left.
    Empty when the skeleton has no cycle."""
    neighbours: dict[str, list[str]] = {}
    for p, c in arcs:
        neighbours.setdefault(p, []).append(c)
        neighbours.setdefault(c, []).append(p)
    degree = {v: len(ws) for v, ws in neighbours.items()}
    leaves = [v for v, d in degree.items() if d <= 1]
    pruned: set[str] = set()
    while leaves:
        v = leaves.pop()
        if v in pruned:
            continue
        pruned.add(v)
        for w in neighbours[v]:
            if w not in pruned:
                degree[w] -= 1
                if degree[w] == 1:
                    leaves.append(w)
    return [(p, c) for p, c in arcs if p not in pruned and c not in pruned]


def find_loop_clusters(arcs: Collection[tuple[str, str]]) -> tuple[LoopCluster, ...]:
    """The connected pieces of the 2-core of the skeleton of ``arcs``:
    every arc on an undirected cycle, plus every path that joins two
    cycles.

    Two cycles joined by any path share a cluster, so clusters are
    node-disjoint, a connected graph has at most one, and removing the
    arcs of them all leaves a forest.  Which clusters come out does not
    depend on the order of ``arcs``; only their order in the result
    does, following ``arcs``.  For a whole network pass ``net.arcs``.
    """
    core = _two_core(arcs)
    sets = UnionFind()
    for p, c in core:
        sets.union(p, c)
    groups: dict[str, list[tuple[str, str]]] = {}
    for p, c in core:
        groups.setdefault(sets.find(p), []).append((p, c))
    return tuple(LoopCluster(frozenset(itertools.chain(*es)), frozenset(es)) for es in groups.values())


# -- file format ------------------------------------------------------------


def _fmt_real(x: float) -> str:
    return f"{x:.17g}"


# A comment: ``#`` up to the next line boundary that ``str.splitlines``
# knows, so that removing comments leaves the same lines.
_COMMENT = re.compile(r"#[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")


def _chunks(text: str) -> Iterator[str]:
    """``text`` in pieces of at least ``_CHUNK`` characters, each but the
    last ending just after a ``"\\n"``.  No line boundary, ``"\\r\\n"``
    included, spans two pieces, so the pieces' lines are the text's."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def parse_network(text: str) -> BeliefNetwork:
    """Parse the line-oriented network format.

    Grammar, one declaration per line, ``#`` starts a comment:

        network <name>
        node <id> states <s1> <s2> ...
        parents <id> [<p1> <p2> ...]
        cpt <id>            (followed by one row per parent configuration,
                             in CPT row order; blank and comment lines
                             may come between the rows)
        evidence <id> <state-name>

    Rows with equal text, comment removed, share one float tuple (equal
    text gives bit-identical floats), and every reference to a node is
    the string of its node line.
    """
    name: str | None = None
    ids: dict[str, str] = {}  # each declared id to the node line's own string
    states: dict[str, tuple[str, ...]] = {}  # in declaration order
    parents: dict[str, tuple[str, ...]] = {}
    built: dict[str, Node] = {}  # each node, once its cpt block closes
    evidence: dict[str, int] = {}
    state_lists: dict[tuple[str, ...], tuple[str, ...]] = {}
    row_texts: dict[str, tuple[float, ...]] = {}

    # Each line with tokens as (text, line number, tokens), read lazily; a
    # ``cpt`` line takes its rows from this stream.  The line list comes
    # first in ``zip``, so the shared count carries on across pieces.
    numbers = itertools.count(1)
    pieces = (_COMMENT.sub("", chunk).splitlines() for chunk in _chunks(text))
    lines = filter(itemgetter(2), itertools.chain.from_iterable(
        zip(ls, numbers, map(str.split, ls)) for ls in pieces
    ))
    for _, lineno, tokens in lines:
        keyword = tokens[0]
        if keyword == "network":
            if len(tokens) != 2:
                raise NetworkFormatError("network line needs exactly one name", lineno)
            if name is not None:
                raise NetworkFormatError("duplicate network line", lineno)
            name = tokens[1]
        elif keyword == "node":
            if len(tokens) < 5 or tokens[2] != "states":
                raise NetworkFormatError(
                    "node line must read: node <id> states <s1> <s2> ...", lineno
                )
            node_id = tokens[1]
            if node_id in ids:
                raise NetworkFormatError(f"duplicate node {node_id!r}", lineno)
            names = tuple(tokens[3:])
            ids[node_id] = node_id
            states[node_id] = state_lists.setdefault(names, names)
        elif keyword == "parents":
            if len(tokens) < 2:
                raise NetworkFormatError("parents line needs a node id", lineno)
            node_id = ids.get(tokens[1])
            if node_id is None:
                raise NetworkFormatError(f"parents for undeclared node {tokens[1]!r}", lineno)
            if node_id in parents:
                raise NetworkFormatError(f"duplicate parents line for {node_id!r}", lineno)
            if node_id in built:
                raise NetworkFormatError(f"parents of {node_id!r} declared after its cpt", lineno)
            try:
                parents[node_id] = tuple(map(ids.__getitem__, tokens[2:]))
            except KeyError as exc:
                raise NetworkFormatError(f"unknown node reference {exc.args[0]!r}", lineno) from None
        elif keyword == "cpt":
            if len(tokens) != 2:
                raise NetworkFormatError("cpt line needs exactly one node id", lineno)
            node_id = ids.get(tokens[1])
            if node_id is None:
                raise NetworkFormatError(f"cpt for undeclared node {tokens[1]!r}", lineno)
            if node_id in built:
                raise NetworkFormatError(f"duplicate cpt for {node_id!r}", lineno)
            width = len(states[node_id])
            node_parents = parents.get(node_id, ())
            needed = math.prod(len(states[p]) for p in node_parents)
            rows = []
            for raw, lineno, tokens in itertools.islice(lines, needed):
                row = row_texts.get(raw)
                if row is None:
                    try:
                        row = row_texts[raw] = tuple(map(float, tokens))
                    except ValueError:
                        raise NetworkFormatError(
                            f"expected {needed - len(rows)} more cpt row(s) for {node_id!r}", lineno
                        ) from None
                if len(row) != width:
                    raise NetworkFormatError(
                        f"cpt row for {node_id!r} has {len(row)} values, expected {width}", lineno
                    )
                rows.append(row)
            if len(rows) < needed:
                raise NetworkFormatError(
                    f"file ended with {needed - len(rows)} cpt row(s) missing for {node_id!r}"
                )
            built[node_id] = Node(node_id, states[node_id], node_parents, tuple(rows))
        elif keyword == "evidence":
            if len(tokens) != 3:
                raise NetworkFormatError("evidence line must read: evidence <id> <state>", lineno)
            node_id, state_name = ids.get(tokens[1]), tokens[2]
            if node_id is None:
                raise NetworkFormatError(f"evidence for undeclared node {tokens[1]!r}", lineno)
            if state_name not in states[node_id]:
                raise NetworkFormatError(
                    f"node {node_id!r} has no state {state_name!r}", lineno
                )
            if node_id in evidence:
                raise NetworkFormatError(f"duplicate evidence for {node_id!r}", lineno)
            evidence[node_id] = states[node_id].index(state_name)
        else:
            raise NetworkFormatError(f"unknown declaration {keyword!r}", lineno)

    if name is None:
        raise NetworkFormatError("missing network line")
    try:
        nodes = [built[v] for v in states]
    except KeyError as exc:
        raise NetworkFormatError(f"missing cpt for {exc.args[0]!r}") from None
    # The network keeps none of these; dropped, they leave room for its own tables.
    del ids, states, parents, built, state_lists, row_texts
    return BeliefNetwork(name, nodes, evidence=evidence)


def serialize_network(net: BeliefNetwork) -> str:
    """The network in the format ``parse_network`` reads, written into one
    buffer.  The network name, node ids and state names must be tokens
    without whitespace or ``#``; another raises ``ValueError`` naming its field."""
    states = dict.fromkeys(s for n in net.nodes for s in n.states)
    for field, values in ("network name", (net.name,)), ("node id", net._by_id), ("state name", states):
        for v in values:
            if v.split() != [v] or "#" in v:
                raise ValueError(f"{field} {v!r} cannot be written: a token is nonempty, "
                                 "without whitespace or '#'")
    out = io.StringIO()
    write = out.write
    write(f"network {net.name}\n")
    for n in net.nodes:
        write(f"node {n.id} states " + " ".join(n.states) + "\n")
    for n in net.nodes:
        write(" ".join(("parents", n.id, *n.parents)) + "\n")
    # The buffer holds each written string until it joins them: four lines a
    # write keep them few and, for a few states, small enough for the object
    # pools (a string per table left the next parse's peak 3 MB higher).
    for n in net.nodes:
        lines = [f"cpt {n.id}"] + [" ".join(map(_fmt_real, row)) for row in n.cpt]
        for i in range(0, len(lines), 4):
            write("\n".join(lines[i : i + 4]) + "\n")
    for node_id, state in net.evidence.items():
        write(f"evidence {node_id} {net.states(node_id)[state]}\n")
    return out.getvalue()

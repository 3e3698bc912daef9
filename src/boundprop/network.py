"""Belief-network representation, validation, and structural queries.

Networks are immutable after construction.  Conditional probability
tables are stored as one row per joint parent configuration, with the
last-listed parent varying fastest; that order is also the on-disk row
order, so files round-trip bit for bit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Collection, Container, Iterable, Iterator, Mapping, Sequence

from .intervals import _orders

ROW_SUM_TOL = 1e-9

Evidence = dict[str, int]


class NetworkFormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
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
        # The last evidence asked about, checked, with its closure.
        self._observed: _Observed | None = None
        # Kernel tables, built per node on first use (at parse they would
        # cost about as much as the parse); equal greedy orders stored once.
        self._tables: dict[str, tuple] = {}
        self._orders: dict[tuple, tuple] = {}
        # The pi value of each node under vacuous parent messages, built
        # by ``engine._pi_value_kernel`` on first use.
        self._priors: dict[str, tuple] = {}
        # Skeleton neighbours, likewise built per node on first use.
        self._neighbors: dict[str, tuple[str, ...]] = {}

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
        """The node's CPT columns as float tuples, the greedy orders
        (``intervals._orders``) of each column and those of each row."""
        found = self._tables.get(node_id)
        if found is None:
            cpt = self.node(node_id).cpt
            columns = tuple(zip(*cpt))
            shared = self._orders
            orders = [tuple(shared.setdefault(o, o) for o in map(_orders, v, v)) for v in (columns, cpt)]
            found = self._tables[node_id] = (columns, *orders)
        return found

    # -- structural queries ----------------------------------------------

    def skeleton_neighbors(self, node_id: str) -> tuple[str, ...]:
        found = self._neighbors.get(node_id)
        if found is None:
            n = self.node(node_id)
            found = self._neighbors[node_id] = tuple(dict.fromkeys(n.parents + self._children[node_id]))
        return found

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

    def _observe(self, evidence: Mapping[str, int]) -> "_Observed":
        """The checked evidence and its ancestral closure, rebuilt only when
        the evidence differs from the last set asked about.  A check that
        fails raises before anything is kept.  The sets are compared with
        ``==``, so a state equal to a kept int (``1.0``, ``True``) is read
        as that int without a check."""
        found = self._observed
        if found is None or found.evidence != evidence:
            found = self._observed = _Observed(self, evidence)
        return found


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


class _Observed:
    """Evidence checked against one network (``_check_evidence``) and
    An(Z), the ancestral closure of its nodes Z: one per evidence, for
    every query."""

    __slots__ = ("evidence", "ancestors")

    def __init__(self, net: BeliefNetwork, evidence: Mapping[str, int]):
        _check_evidence(net, evidence)
        self.evidence: Evidence = dict(evidence)
        self.ancestors = net.ancestral_closure(self.evidence)


class _Context:
    """Per-query constants shared by every evaluation of one query.

    The caller's evidence is laid over the evidence stored on the
    network; this is the one place a query reads the stored set, so
    every entry point answers under the same evidence.  Every entry
    point builds one, so the query and the evidence are checked here
    (see ``_Observed``).  The checked evidence and An(Z) come from the
    network's one kept ``_Observed``; ``own`` is the query's own
    ancestors outside An(Z), walked for this query only, so ``v in ctx``
    tests membership in An({q} ∪ Z) without copying either set.
    """

    __slots__ = ("net", "query", "observed", "evidence", "own")

    def __init__(self, net: BeliefNetwork, evidence: Mapping[str, int] | None, query: str):
        self.net = net
        self.query = query
        stored = net.evidence
        # A merged copy only when both sides give evidence; ``_observe``
        # checks and copies whichever mapping it is given.
        self.observed = net._observe({**stored, **evidence} if stored and evidence else evidence or stored)
        self.evidence = self.observed.evidence
        self.own = net.ancestral_closure((query,), closed=self.observed.ancestors)

    def __contains__(self, v: str) -> bool:
        return v in self.own or v in self.observed.ancestors


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


# -- d-separation ---------------------------------------------------------


def _trails(net: BeliefNetwork, source: str, observed: Container[str], below: Container[str],
            within: Container[str] | None = None) -> set[str]:
    """Nodes joined to ``source`` by a trail active given ``observed``.

    ``below`` is the ancestral closure of ``observed``.  A trail is
    active when every intermediate collider is in ``below`` and every
    other intermediate node is unobserved.  The source never blocks.
    With ``within``, a trail stops where it leaves that set.
    """
    by_id, children = net._by_id, net._children
    seen: set[tuple[str, bool]] = set()
    stack = [(source, False)]  # (node, arrived along an arc into it)
    while stack:
        v, down = stack.pop()
        if (v, down) in seen or (within is not None and v not in within):
            continue
        seen.add((v, down))
        if v in observed and v != source:
            # Only a collider passes on: back up to the other parents.
            if down:
                stack += [(p, False) for p in by_id[v].parents]
            continue
        stack += [(c, True) for c in children[v]]
        if not down or v in below:
            stack += [(p, False) for p in by_id[v].parents]
    return {v for v, _ in seen}


def reachable_from(net: BeliefNetwork, source: str, observed: Iterable[str]) -> set[str]:
    """Nodes joined to ``source`` by a trail active given ``observed``.

    A trail is active when every intermediate collider is observed or
    has an observed descendant and every other intermediate node is
    unobserved.  The endpoints themselves never block: an observed
    neighbor of the source is still reached, which is what message
    propagation needs (its observation feeds the source directly).
    """
    z = set(observed)
    return _trails(net, source, z, net.ancestral_closure(z))


def d_separated(net: BeliefNetwork, a: str, b: str, evidence: Mapping[str, int] | Iterable[str]) -> bool:
    """True when no active trail joins ``a`` and ``b`` given the evidence."""
    observed = evidence.keys() if isinstance(evidence, Mapping) else evidence
    net.node(a), net.node(b)
    if a == b:
        return False
    return b not in reachable_from(net, a, observed)


def relevant_set(net: BeliefNetwork, query: str, evidence: Mapping[str, int] | Iterable[str]) -> set[str]:
    """Nodes that can influence the query's posterior.

    A node matters only if it is joined to the query by an active trail
    and sits in the ancestral closure of the query and the evidence;
    anything else either cannot pass information or sums out of the
    posterior exactly (childless unobserved branches).  Descendants of
    a node outside that closure are outside it too, so a trail that
    leaves it never comes back, and one walk that stops there finds
    them all.

    ``evidence`` is the whole observed set, as a mapping or node ids;
    evidence stored on the network is not added.  The engine passes its
    per-query ``_Context`` instead, whose merged evidence and closures
    the walk reuses.
    """
    if isinstance(evidence, _Context):
        return _trails(net, query, evidence.evidence, evidence.observed.ancestors, evidence)
    z = set(evidence)
    return _trails(net, query, z, net.ancestral_closure(z), net.ancestral_closure({query, *z}))


# -- loop structure --------------------------------------------------------


@dataclass(frozen=True)
class LoopCluster:
    """A maximal multiply connected piece: the union of overlapping cycles."""

    nodes: frozenset[str]
    arcs: frozenset[tuple[str, str]]


def _skeleton_bridges(nodes: Collection[str], edges: Collection[tuple[str, str]]) -> set[frozenset[str]]:
    """Bridges of the undirected multigraph, by iterative lowpoint DFS."""
    adj: dict[str, list[tuple[str, int]]] = {v: [] for v in nodes}
    for i, (a, b) in enumerate(edges):
        adj[a].append((b, i))
        adj[b].append((a, i))
    visited: set[str] = set()
    disc: dict[str, int] = {}
    low: dict[str, int] = {}
    bridges: set[frozenset[str]] = set()
    counter = 0
    for root in nodes:
        if root in visited:
            continue
        stack: list[tuple[str, int, Iterator[tuple[str, int]]]] = []
        visited.add(root)
        disc[root] = low[root] = counter
        counter += 1
        stack.append((root, -1, iter(adj[root])))
        while stack:
            v, in_edge, it = stack[-1]
            advanced = False
            for w, edge_id in it:
                if edge_id == in_edge:
                    continue
                if w not in visited:
                    visited.add(w)
                    disc[w] = low[w] = counter
                    counter += 1
                    stack.append((w, edge_id, iter(adj[w])))
                    advanced = True
                    break
                low[v] = min(low[v], disc[w])
            if not advanced:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        bridges.add(frozenset((u, v)))
    return bridges


def find_loop_clusters(
    nodes: Collection[str], arcs: Collection[tuple[str, str]]
) -> tuple[LoopCluster, ...]:
    """Group every arc of the graph (``nodes``, ``arcs``) that lies on an
    undirected cycle into clusters.

    Two cycles sharing any node fall into the same cluster, so clusters
    are node-disjoint and removing them all leaves a forest.  Which
    clusters come out does not depend on the order of ``nodes`` or
    ``arcs``; only their order in the result does, following ``arcs``.
    For a whole network pass ``(net.node_ids(), net.arcs)``.
    """
    bridges = _skeleton_bridges(nodes, arcs)
    cyclic = [(p, c) for (p, c) in arcs if frozenset((p, c)) not in bridges]
    sets = UnionFind()
    for p, c in cyclic:
        sets.union(p, c)
    groups: dict[str, tuple[set[str], set[tuple[str, str]]]] = {}
    for p, c in cyclic:
        root = sets.find(p)
        ns, es = groups.setdefault(root, (set(), set()))
        ns.update((p, c))
        es.add((p, c))
    return tuple(LoopCluster(frozenset(ns), frozenset(es)) for ns, es in groups.values())


# -- file format ------------------------------------------------------------


def _fmt_real(x: float) -> str:
    return f"{x:.17g}"


def parse_network(text: str) -> BeliefNetwork:
    """Parse the line-oriented network format.

    Grammar, one declaration per line, ``#`` starts a comment:

        network <name>
        node <id> states <s1> <s2> ...
        parents <id> [<p1> <p2> ...]
        cpt <id>            (followed by one row per parent configuration)
        evidence <id> <state-name>
    """
    name: str | None = None
    states: dict[str, tuple[str, ...]] = {}
    parents: dict[str, tuple[str, ...]] = {}
    cpts: dict[str, list[tuple[float, ...]]] = {}
    evidence: dict[str, str] = {}
    node_order: list[str] = []

    pending_cpt: str | None = None
    pending_rows_needed = 0

    def rows_expected(node_id: str) -> int:
        total = 1
        for p in parents.get(node_id, ()):
            total *= len(states[p])
        return total

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if pending_cpt is not None:
            try:
                row = tuple(float(t) for t in tokens)
            except ValueError:
                raise NetworkFormatError(
                    f"expected {pending_rows_needed} more cpt row(s) for {pending_cpt!r}",
                    lineno,
                )
            if len(row) != len(states[pending_cpt]):
                raise NetworkFormatError(
                    f"cpt row for {pending_cpt!r} has {len(row)} values, "
                    f"expected {len(states[pending_cpt])}",
                    lineno,
                )
            cpts[pending_cpt].append(row)
            pending_rows_needed -= 1
            if pending_rows_needed == 0:
                pending_cpt = None
            continue
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
            if node_id in states:
                raise NetworkFormatError(f"duplicate node {node_id!r}", lineno)
            states[node_id] = tuple(tokens[3:])
            node_order.append(node_id)
        elif keyword == "parents":
            if len(tokens) < 2:
                raise NetworkFormatError("parents line needs a node id", lineno)
            node_id = tokens[1]
            if node_id not in states:
                raise NetworkFormatError(f"parents for undeclared node {node_id!r}", lineno)
            if node_id in parents:
                raise NetworkFormatError(f"duplicate parents line for {node_id!r}", lineno)
            if node_id in cpts:
                raise NetworkFormatError(f"parents of {node_id!r} declared after its cpt", lineno)
            for p in tokens[2:]:
                if p not in states:
                    raise NetworkFormatError(f"unknown node reference {p!r}", lineno)
            parents[node_id] = tuple(tokens[2:])
        elif keyword == "cpt":
            if len(tokens) != 2:
                raise NetworkFormatError("cpt line needs exactly one node id", lineno)
            node_id = tokens[1]
            if node_id not in states:
                raise NetworkFormatError(f"cpt for undeclared node {node_id!r}", lineno)
            if node_id in cpts:
                raise NetworkFormatError(f"duplicate cpt for {node_id!r}", lineno)
            cpts[node_id] = []
            pending_cpt = node_id
            pending_rows_needed = rows_expected(node_id)
        elif keyword == "evidence":
            if len(tokens) != 3:
                raise NetworkFormatError("evidence line must read: evidence <id> <state>", lineno)
            node_id, state_name = tokens[1], tokens[2]
            if node_id not in states:
                raise NetworkFormatError(f"evidence for undeclared node {node_id!r}", lineno)
            if state_name not in states[node_id]:
                raise NetworkFormatError(
                    f"node {node_id!r} has no state {state_name!r}", lineno
                )
            if node_id in evidence:
                raise NetworkFormatError(f"duplicate evidence for {node_id!r}", lineno)
            evidence[node_id] = state_name
        else:
            raise NetworkFormatError(f"unknown declaration {keyword!r}", lineno)

    if pending_cpt is not None:
        raise NetworkFormatError(
            f"file ended with {pending_rows_needed} cpt row(s) missing for {pending_cpt!r}"
        )
    if name is None:
        raise NetworkFormatError("missing network line")
    missing = [v for v in node_order if v not in cpts]
    if missing:
        raise NetworkFormatError(f"missing cpt for {missing[0]!r}")

    nodes = [
        Node(
            id=v,
            states=states[v],
            parents=parents.get(v, ()),
            cpt=tuple(cpts[v]),
        )
        for v in node_order
    ]
    return BeliefNetwork(
        name, nodes, evidence={v: states[v].index(s) for v, s in evidence.items()}
    )


def serialize_network(net: BeliefNetwork) -> str:
    lines = [f"network {net.name}"]
    for n in net.nodes:
        lines.append(f"node {n.id} states " + " ".join(n.states))
    for n in net.nodes:
        lines.append(f"parents {n.id}" + ("" if not n.parents else " " + " ".join(n.parents)))
    for n in net.nodes:
        lines.append(f"cpt {n.id}")
        for row in n.cpt:
            lines.append(" ".join(_fmt_real(v) for v in row))
    for node_id, state in net.evidence.items():
        lines.append(f"evidence {node_id} {net.states(node_id)[state]}")
    return "\n".join(lines) + "\n"

"""Interval-valued message propagation over a growing active set.

A query starts from an active set holding only the query node and
alternates propagation with expansion.  Arcs outside the active set
contribute vacuous [0, 1] messages, except that a child arc leading
only to childless unobserved territory contributes an exact
uninformative message (that branch sums out of the posterior, so
treating it as unknown would only widen the result for no reason).

Messages are pulled recursively toward the query, so each directed
message is computed once per evaluation.  Every computed vector is
paired with a scale interval bracketing the mass its normalization
discarded; conditioned evaluations (see ``loops``) use those scales to
weight cutset instances.
"""

from __future__ import annotations

import itertools
import sys
import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .intervals import (
    ONE,
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    iv_mul,
    normalize_scaled,
    simplex_dot,
    vacuous,
)
from .network import BeliefNetwork, Evidence, Node, UnionFind, relevant_set, skeleton_acyclic

SATISFIED = "satisfied"
SATURATED = "saturated"
BUDGET = "budget"


# -- active set -------------------------------------------------------------


@dataclass(frozen=True)
class ActiveSet:
    """The node and arc subset propagation currently runs over.

    An arc between two included nodes may legitimately be absent; such
    missing arcs are how loop-avoiding strategies keep the working
    graph singly connected.
    """

    nodes: frozenset[str]
    arcs: frozenset[tuple[str, str]]

    @staticmethod
    def initial(query: str) -> "ActiveSet":
        return ActiveSet(frozenset({query}), frozenset())

    def validate(self, net: BeliefNetwork, query: str) -> None:
        if query not in self.nodes:
            raise ValueError("active set must contain the query node")
        net_arcs = set(net.arcs)
        for p, c in self.arcs:
            if (p, c) not in net_arcs:
                raise ValueError(f"arc {(p, c)} not in network")
            if p not in self.nodes or c not in self.nodes:
                raise ValueError(f"arc {(p, c)} endpoint outside active set")
        # Connectivity over included arcs only.
        adj: dict[str, list[str]] = {v: [] for v in self.nodes}
        for p, c in self.arcs:
            adj[p].append(c)
            adj[c].append(p)
        seen = {query}
        stack = [query]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if seen != set(self.nodes):
            raise ValueError("active set is not connected")


# -- messages and cache -------------------------------------------------------


@dataclass(frozen=True)
class Message:
    kind: str  # "pi" or "lambda"
    arc: tuple[str, str]
    value: IntervalVector
    vacuous: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("pi", "lambda"):
            raise ValueError("message kind must be 'pi' or 'lambda'")
        if self.vacuous and not self.value.is_vacuous():
            raise ValueError("vacuous flag on a non-vacuous value")

    @staticmethod
    def vacuous_message(kind: str, arc: tuple[str, str], n: int) -> "Message":
        return Message(kind, arc, vacuous(n), vacuous=True)


@dataclass
class _CacheEntry:
    value: object
    fp: object
    deps: tuple


class MessageCache:
    """Message store keyed by (kind, arc), with exact change detection."""

    def __init__(self) -> None:
        self.entries: dict = {}

    def update(self, key, value, fp=None, deps=()) -> bool:
        old = self.entries.get(key)
        changed = old is None or old.value != value
        self.entries[key] = _CacheEntry(value, fp, tuple(deps))
        return changed

    def get(self, key):
        entry = self.entries.get(key)
        return None if entry is None else entry.value

    def __len__(self) -> int:
        return len(self.entries)


def cache_update(cache: MessageCache, message: Message) -> bool:
    """Store a message; report whether it differs from the cached value.

    Comparison is exact, so an unchanged message lets the caller stop
    re-propagating along that path when iterating.
    """
    return cache.update((message.kind, message.arc), message.value)


# -- message kernels ------------------------------------------------------------
#
# One body per message formula.  ``_Run`` gathers the inputs over the
# active set and the public single-step functions take them from the
# caller; both then call these.  Each returns a normalized vector with
# the mass its normalization discarded.


def _joint_weights(msgs: Sequence[IntervalVector]) -> IntervalVector:
    """Product weights of every joint configuration, last message fastest."""
    entries = []
    for config in itertools.product(*[range(len(m)) for m in msgs]):
        e = ONE
        for m, s in zip(msgs, config):
            e = iv_mul(e, m[s])
        entries.append(e)
    return IntervalVector(entries)


def _column_mass(node: Node, state: int, weights: IntervalVector) -> Interval:
    """Bounds on P(node = state) under interval parent-configuration weights."""
    column = IntervalVector(Interval.point(row[state]) for row in node.cpt)
    return simplex_dot(column, weights)


def _pi_value_kernel(node: Node, parent_msgs: Sequence[IntervalVector]):
    weights = _joint_weights(parent_msgs)
    out = [_column_mass(node, i, weights) for i in range(len(node.states))]
    return normalize_scaled(IntervalVector(out))


def _normalized_product(vec: IntervalVector, factors: Iterable[IntervalVector]):
    """Lambda value, pi message and belief: an entrywise product, normalized."""
    for f in factors:
        vec = vec.product(f)
    return normalize_scaled(vec)


def _lambda_message_kernel(
    net: BeliefNetwork,
    x: str,
    u: str,
    lam: IntervalVector,
    coparent_msgs: Sequence[IntervalVector],
):
    """The inner pass bounds the likelihood for each joint configuration
    of x's parents; the outer pass sums out the co-parents of u under
    their message weights."""
    parents = net.parents(x)
    j = parents.index(u)
    weights = _joint_weights(coparent_msgs)
    other_ranges = [range(net.state_count(p)) for p in parents if p != u]
    out = []
    for y in range(net.state_count(u)):
        a_entries = []
        for oc in itertools.product(*other_ranges):
            row = net.cpt_row(x, oc[:j] + (y,) + oc[j:])
            column = IntervalVector(Interval.point(v) for v in row)
            a_entries.append(simplex_dot(column, lam))
        out.append(simplex_dot(IntervalVector(a_entries), weights))
    return normalize_scaled(IntervalVector(out))


# -- propagation core ---------------------------------------------------------


class _Context:
    """Per-query constants shared by every instance evaluation."""

    def __init__(
        self,
        net: BeliefNetwork,
        active: ActiveSet,
        evidence: Mapping[str, int],
        query: str,
    ):
        self.net = net
        self.active = active
        self.evidence = dict(evidence)
        self.query = query
        self.arcs = set(active.arcs)
        self.ancestral = net.ancestral_closure({query, *self.evidence})

    def node_fingerprint(self, node_id: str):
        net = self.net
        return (
            self.evidence.get(node_id),
            tuple((p, (p, node_id) in self.arcs) for p in net.parents(node_id)),
            tuple((w, (node_id, w) in self.arcs) for w in net.children(node_id)),
        )


class _Run:
    """One pull-based evaluation, optionally under cutset clamps."""

    def __init__(
        self,
        ctx: _Context,
        clamps: Mapping[str, int] | None = None,
        cache: MessageCache | None = None,
    ):
        self.ctx = ctx
        self.clamps = dict(clamps or {})
        self.cache = cache if not self.clamps else None
        self._memo: dict = {}
        self._frames: list[list] = []
        self.visits = 0
        self.touched: set[str] = set()
        needed = 4 * len(ctx.active.nodes) + 500
        if sys.getrecursionlimit() < needed:
            sys.setrecursionlimit(needed)

    # pinned nodes are split: they emit indicator messages downward and a
    # bare indicator likelihood upward, which is what cuts loops.
    def _pinned(self, x: str) -> int | None:
        if x in self.clamps:
            return self.clamps[x]
        return self.ctx.evidence.get(x)

    def pull(self, key, record: bool = True):
        if record and self._frames:
            self._frames[-1].append(key)
        hit = self._memo.get(key)
        if hit is not None:
            return hit[0]
        fp = None
        if self.cache is not None:
            fp = self.ctx.node_fingerprint(key[1])
            entry = self.cache.entries.get(key)
            if entry is not None and entry.fp == fp:
                reusable = True
                for d in entry.deps:
                    self.pull(d, record=False)
                    if self._memo[d][1]:
                        reusable = False
                        break
                if reusable:
                    self._memo[key] = (entry.value, False)
                    return entry.value
        frame: list = []
        self._frames.append(frame)
        value = self._compute(key)
        self._frames.pop()
        changed = True
        if self.cache is not None:
            changed = self.cache.update(key, value, fp, frame)
        self._memo[key] = (value, changed)
        self.visits += 1
        self.touched.add(key[1])
        return value

    def _compute(self, key):
        kind = key[0]
        if kind == "pi_val":
            return self._pi_value(key[1])
        if kind == "lam_val":
            return self._lambda_value(key[1])
        if kind == "pi_msg":
            return self._pi_message(key[1], key[2])
        if kind == "lam_msg":
            return self._lambda_message(key[1], key[2])
        raise AssertionError(key)

    def _parent_inputs(self, x: str, scale: Interval, skip: str | None = None):
        """Messages over parent arcs; vacuous where the arc is absent."""
        net = self.ctx.net
        msgs: list[IntervalVector] = []
        for p in net.parents(x):
            if p == skip:
                continue
            if (p, x) in self.ctx.arcs:
                vec, s = self.pull(("pi_msg", p, x))
                msgs.append(vec)
                scale = iv_mul(scale, s)
            else:
                msgs.append(vacuous(net.state_count(p)))
        return msgs, scale

    def _child_inputs(self, x: str, scale: Interval, skip: str | None = None):
        """Messages over child arcs; vacuous where an absent arc leads to
        evidence or the query."""
        net = self.ctx.net
        msgs: list[IntervalVector] = []
        for w in net.children(x):
            if w == skip:
                continue
            if (x, w) in self.ctx.arcs:
                vec, s = self.pull(("lam_msg", w, x))
                msgs.append(vec)
                scale = iv_mul(scale, s)
            elif w in self.ctx.ancestral:
                msgs.append(vacuous(net.state_count(x)))
            # Otherwise the branch under w holds no evidence and no query:
            # its true likelihood message is exactly flat, so it drops out.
        return msgs, scale

    def _pi_value(self, x: str):
        msgs, scale = self._parent_inputs(x, ONE)
        vec, z = _pi_value_kernel(self.ctx.net.node(x), msgs)
        return vec, iv_mul(scale, z)

    def _lambda_value(self, x: str):
        n = self.ctx.net.state_count(x)
        pinned = self._pinned(x)
        if pinned is not None:
            return IntervalVector.indicator(n, pinned), ONE
        msgs, scale = self._child_inputs(x, ONE)
        vec, z = _normalized_product(IntervalVector.ones(n), msgs)
        return vec, iv_mul(scale, z)

    def _pi_message(self, u: str, x: str):
        pinned = self._pinned(u)
        if pinned is not None:
            return IntervalVector.indicator(self.ctx.net.state_count(u), pinned), ONE
        prod, scale = self.pull(("pi_val", u))
        msgs, scale = self._child_inputs(u, scale, skip=x)
        vec, z = _normalized_product(prod, msgs)
        return vec, iv_mul(scale, z)

    def _lambda_message(self, x: str, u: str):
        lam, scale = self.pull(("lam_val", x))
        msgs, scale = self._parent_inputs(x, scale, skip=u)
        vec, z = _lambda_message_kernel(self.ctx.net, x, u, lam, msgs)
        return vec, iv_mul(scale, z)

    def belief(self, x: str):
        """Belief bounds at x plus the evidence-mass interval of this run."""
        if x in self.clamps:
            raise ValueError("belief of a clamped node is fixed by construction")
        if x in self.ctx.evidence:
            k = self.ctx.evidence[x]
            pvec, ps = self.pull(("pi_val", x))
            if pvec[k].hi <= 0.0:
                raise ConflictingEvidenceError(
                    f"observed state {k} of {x!r} has zero probability"
                )
            return IntervalVector.indicator(len(pvec), k), iv_mul(ps, pvec[k])
        lam, _ = self.pull(("lam_val", x))
        pvec, _ = self.pull(("pi_val", x))
        vec, _ = _normalized_product(lam, [pvec])
        return vec, self.component_mass(x)

    def component_mass(self, x: str) -> Interval:
        """Evidence mass of the piece of the working graph holding x.

        Equals the belief mass at x; in a singly connected piece the
        same total comes out at whichever member node it is read.
        """
        if x in self.clamps or x in self.ctx.evidence:
            raise ValueError("mass must be read at an unpinned node")
        lam, ls = self.pull(("lam_val", x))
        pvec, ps = self.pull(("pi_val", x))
        return iv_mul(iv_mul(ls, ps), simplex_dot(lam, pvec))


# -- single-step kernels (exposed for direct use and testing) -----------------


def pi_hat(
    net: BeliefNetwork, node: str, parent_messages: Mapping[str, IntervalVector]
) -> IntervalVector:
    """Prior-side bounds for a node given messages from its parents.

    Missing parents default to vacuous messages.  Result is normalized.
    """
    msgs = [parent_messages.get(p, vacuous(net.state_count(p))) for p in net.parents(node)]
    vec, _ = _pi_value_kernel(net.node(node), msgs)
    return vec


def lambda_hat(
    net: BeliefNetwork,
    node: str,
    child_messages: Mapping[str, IntervalVector],
    observed_state: int | None = None,
) -> IntervalVector:
    """Likelihood-side bounds: normalized product of child messages.

    An observed node is a point indicator regardless of its children.
    """
    n = net.state_count(node)
    if observed_state is not None:
        return IntervalVector.indicator(n, observed_state)
    vec, _ = _normalized_product(IntervalVector.ones(n), child_messages.values())
    return vec


def bel_hat(pi_vec: IntervalVector, lam_vec: IntervalVector) -> IntervalVector:
    """Normalized entrywise product of the two directional summaries."""
    vec, _ = _normalized_product(lam_vec, [pi_vec])
    return vec


def pi_msg(
    net: BeliefNetwork,
    node: str,
    child: str,
    pi_vec: IntervalVector,
    sibling_messages: Mapping[str, IntervalVector],
    observed_state: int | None = None,
) -> Message:
    """Message a node sends to one child: its prior side times the
    likelihood messages from every other child."""
    n = net.state_count(node)
    if observed_state is not None:
        return Message("pi", (node, child), IntervalVector.indicator(n, observed_state))
    others = [vec for w, vec in sibling_messages.items() if w != child]
    vec, _ = _normalized_product(pi_vec, others)
    return Message("pi", (node, child), vec)


def lambda_msg(
    net: BeliefNetwork,
    node: str,
    parent: str,
    lam_vec: IntervalVector,
    coparent_messages: Mapping[str, IntervalVector],
) -> Message:
    """Message a node sends up to one parent; co-parents without a
    message count as vacuous."""
    msgs = [
        coparent_messages.get(p, vacuous(net.state_count(p)))
        for p in net.parents(node)
        if p != parent
    ]
    vec, _ = _lambda_message_kernel(net, node, parent, lam_vec, msgs)
    return Message("lambda", (parent, node), vec)


def propagate(
    net: BeliefNetwork,
    active: ActiveSet,
    evidence: Mapping[str, int],
    query: str,
    cache: MessageCache | None = None,
) -> IntervalVector:
    """Belief bounds at the query over a singly connected active set.

    Messages are computed in one pass toward the query; arcs absent
    from the active set contribute boundary messages as described in
    the module docstring.  Multiply connected active sets need
    ``loops.propagate_mixed``.
    """
    active.validate(net, query)
    if not skeleton_acyclic(active.arcs):
        raise ValueError("active set contains loops; use propagate_mixed")
    run = _Run(_Context(net, active, evidence, query), {}, cache)
    vec, _ = run.belief(query)
    return vec


# -- stopping and results ------------------------------------------------------


@dataclass(frozen=True)
class StopCriterion:
    """Either a target width or a one-sided probability test."""

    target_width: float | None = None
    threshold: tuple[int, str, float] | None = None

    def __post_init__(self) -> None:
        if (self.target_width is None) == (self.threshold is None):
            raise ValueError("exactly one stopping rule must be given")
        if self.target_width is not None and not 0.0 <= self.target_width <= 1.0:
            raise ValueError("target width must lie in [0, 1]")
        if self.threshold is not None and self.threshold[1] not in (">", "<"):
            raise ValueError("threshold direction must be '>' or '<'")

    @staticmethod
    def width(w: float) -> "StopCriterion":
        return StopCriterion(target_width=w)

    @staticmethod
    def prob_threshold(state: int, direction: str, p: float) -> "StopCriterion":
        return StopCriterion(threshold=(state, direction, p))

    def met(self, bel: IntervalVector) -> bool:
        if self.target_width is not None:
            return bel.max_width <= self.target_width
        state, _, p = self.threshold
        return bel[state].lo > p or bel[state].hi < p

    def verdict(self, bel: IntervalVector) -> bool | None:
        """Resolved answer of a threshold test, if it is resolved."""
        if self.threshold is None:
            return None
        state, direction, p = self.threshold
        if bel[state].lo > p:
            return direction == ">"
        if bel[state].hi < p:
            return direction == "<"
        return None


@dataclass
class QueryResult:
    query: str
    bel: IntervalVector
    status: str
    iterations: int
    widths: list[float] = field(default_factory=list)
    active_nodes: list[int] = field(default_factory=list)
    elapsed: list[float] = field(default_factory=list)
    bels: list[IntervalVector] = field(default_factory=list)
    node_visits: int = 0
    threshold_answer: bool | None = None

    @property
    def achieved_width(self) -> float:
        return self.bel.max_width


# -- active-set expansion -------------------------------------------------------


class DelayedLoops:
    """Breadth-first growth where an arc that would close a loop waits.

    Each round adds every relevant neighbor of the active set, then
    scans the induced arcs not yet active in network order.  An arc
    joining two separate pieces enters at once.  An arc whose endpoints
    are already connected inside the active set enters once it has
    waited ``delay`` rounds, or never when ``delay`` is None, which
    keeps the active set a polytree.  ``delay=0`` is plain breadth-first
    growth.

    The object counts the rounds of one growth; ``answer_query`` builds
    a fresh one for every query.
    """

    def __init__(self, delay: int | None = 5):
        self.delay = delay
        self.round = 0
        self.first_seen: dict[tuple[str, str], int] = {}

    def step(
        self,
        net: BeliefNetwork,
        active: ActiveSet,
        query: str,
        evidence: Mapping[str, int],
        relevant: set[str],
    ) -> ActiveSet | None:
        """The next active set; ``active`` itself while an arc still
        waits, None at a fixed point."""
        self.round += 1
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
        if nodes == active.nodes and arcs == active.arcs:
            return active if pending else None
        return ActiveSet(frozenset(nodes), frozenset(arcs))


def BreadthFirst() -> DelayedLoops:
    """Add every relevant neighbor of the current set, with all induced arcs."""
    return DelayedLoops(0)


def NoLoops() -> DelayedLoops:
    """Breadth-first growth that never closes an undirected cycle."""
    return DelayedLoops(None)


def make_strategy(spec, delay: int = 5):
    if not isinstance(spec, str):
        return spec
    delays = {"bfs": 0, "breadth-first": 0, "no-loops": None, "delayed": delay}
    name = spec.replace("_", "-").lower()
    if name not in delays:
        raise ValueError(f"unknown strategy {spec!r}")
    return DelayedLoops(delays[name])


def expand(
    active: ActiveSet,
    strategy,
    net: BeliefNetwork,
    query: str,
    evidence: Mapping[str, int],
) -> ActiveSet | None:
    """One expansion round.  Returns None at a fixed point."""
    strategy = make_strategy(strategy)
    relevant = relevant_set(net, query, evidence)
    grown = strategy.step(net, active, query, evidence, relevant)
    if grown is not None and grown == active:
        return active
    return grown


# -- the anytime loop -----------------------------------------------------------


def answer_query(
    net: BeliefNetwork,
    query: str,
    evidence: Mapping[str, int] | None = None,
    strategy="bfs",
    stop: StopCriterion | None = None,
    budget_ms: float | None = None,
    instance_cap: int = 65536,
    use_cache: bool = True,
) -> QueryResult:
    """Iteratively expand and propagate until the stop criterion holds.

    Evidence given here is merged over any evidence stored on the
    network.  The result records per-iteration belief bounds, widths,
    active-set sizes, and timings; its status tells whether the
    criterion was met, the active set saturated, or the budget ran out.
    """
    from .loops import evaluate

    net.node(query)
    eff: Evidence = dict(net.evidence)
    eff.update(evidence or {})
    for v, s in eff.items():
        if not 0 <= s < net.state_count(v):
            raise ValueError(f"evidence state {s} out of range for {v!r}")
    stop = stop if stop is not None else StopCriterion.width(0.0)
    strategy_obj = make_strategy(strategy)
    if isinstance(strategy_obj, DelayedLoops):
        # Waiting rounds belong to one query; a caller's object is never advanced.
        strategy_obj = DelayedLoops(strategy_obj.delay)
    relevant = relevant_set(net, query, eff)
    active = ActiveSet.initial(query)
    cache = MessageCache() if use_cache else None

    widths: list[float] = []
    sizes: list[int] = []
    timings: list[float] = []
    bels: list[IntervalVector] = []
    visits = 0
    started = time.perf_counter()
    status = SATURATED
    bel = vacuous(net.state_count(query))
    while True:
        t0 = time.perf_counter()
        bel, v = evaluate(net, active, eff, query, instance_cap=instance_cap, cache=cache)
        timings.append(time.perf_counter() - t0)
        bels.append(bel)
        widths.append(bel.max_width)
        sizes.append(len(active.nodes))
        visits += v
        if stop.met(bel):
            status = SATISFIED
            break
        if budget_ms is not None and (time.perf_counter() - started) * 1000.0 >= budget_ms:
            status = BUDGET
            break
        grown = strategy_obj.step(net, active, query, eff, relevant)
        while grown is not None and grown == active:
            grown = strategy_obj.step(net, active, query, eff, relevant)
        if grown is None:
            status = SATURATED
            break
        active = grown
    return QueryResult(
        query=query,
        bel=bel,
        status=status,
        iterations=len(bels),
        widths=widths,
        active_nodes=sizes,
        elapsed=timings,
        bels=bels,
        node_visits=visits,
        threshold_answer=stop.verdict(bel),
    )

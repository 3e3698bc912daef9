"""Interval-valued message propagation over a growing active set.

A query starts from an active set holding only the query node and
alternates propagation with expansion.  Arcs outside the active set
contribute vacuous [0, 1] messages, except that a child arc leading
only to childless unobserved territory contributes an exact
uninformative message (that branch sums out of the posterior, so
treating it as unknown would only widen the result for no reason).

Propagation is paced as in iterative deepening: after an evaluation
the active set keeps growing, round after round, and is evaluated again
once it holds at least ``PACING_FACTOR`` (g = 2) times the nodes of the
last evaluated set, or once growth reaches its fixed point.  Where an
evaluation's work grows linearly with its active set, the evaluations
up to any one of them then cost at most g / (g - 1) times that one, so
a query's work is linear, not quadratic, in its final active set.
Every evaluation is still a sound bound over a set the strategy
reached; only the anytime curve is coarser.

Each message the query needs is evaluated once per evaluation, after
its inputs, from an explicit stack: the schedule is a post-order walk
of the message dependencies toward the query, so its depth is not
bounded by the interpreter's call stack.  Every computed vector is
paired with a scale interval bracketing the mass its normalization
discarded; conditioned evaluations (see ``loops``) use those scales to
weight cutset instances.

A cache is a plain ``dict`` that carries values from one evaluation to
the next.  Each entry maps a message key to ``(signature, value)``,
where the signature is the message's pinned state and the arguments its
kernel was called with: each input message's value, or a vacuous
marker for an absent arc.  A stored value is reused only when the
current signature is ``==`` to the recorded one, which is memoization
of a pure function and so sound whatever evidence, query, active set or
cutset instance the cache saw before.  Runs under cutset clamps share
the one cache with the runs without them, so a message the clamps do
not reach is computed once for every instance.  A cache belongs to one
network: ``answer_query`` keeps one for the iterations of one query.

A query's evidence is the caller's evidence laid over the evidence
stored on the network, merged in the one per-query ``_Context`` that
every entry point builds.  A network keeps the last merged evidence it
was asked about, checked, with the ancestral closure of its nodes, so a
stream of queries under one evidence pays for that closure once and
each query walks only its own ancestors outside it.  That one slot is
derived from the network and the evidence alone: it never changes an
answer and holds no strategy or query state.
"""

from __future__ import annotations

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
from .network import BeliefNetwork, Node, UnionFind, _Context, relevant_set

SATISFIED = "satisfied"
SATURATED = "saturated"
BUDGET = "budget"
# Most joint cutset instances one conditioned evaluation may run.
DEFAULT_INSTANCE_CAP = 65536
# Growth g of the active set between evaluations (see the module
# docstring).  With work linear in the active set, the evaluations up
# to any one cost at most g / (g - 1) times it, twice at g = 2; the
# fixed-point evaluation adds at most one more.  At 1 every expansion
# round is evaluated.  Past 2 the work saved shrinks while the anytime
# curve keeps getting coarser.
PACING_FACTOR = 2


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
        for p, c in self.arcs:
            if c not in net or p not in net.parents(c):
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


# -- message kernels ------------------------------------------------------------
#
# One body per message formula, called by ``_Run`` and by the public
# single-step functions.  Each returns a normalized vector with the mass
# its normalization discarded, and works on the vectors' ``lo``/``hi``
# tuples, so no per-entry ``Interval`` is built.


def _joint_weights(msgs: Sequence[IntervalVector]) -> IntervalVector:
    """Product weights of every joint configuration, last message fastest."""
    los, his = [1.0], [1.0]
    for m in msgs:
        if min(m.lo) < 0.0:
            raise ValueError("iv_mul requires nonnegative bounds")
        los = [x * y for x in los for y in m.lo]
        his = [x * y for x in his for y in m.hi]
    return IntervalVector.from_bounds(los, his)


def _column_mass(node: Node, state: int, weights: IntervalVector) -> Interval:
    """Bounds on P(node = state) under interval parent-configuration weights."""
    return simplex_dot(IntervalVector.point(row[state] for row in node.cpt), weights)


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
    n_u = net.state_count(u)
    # Rows are stored last parent fastest, so the rows with u in state y
    # are the runs of ``stride`` rows starting at y * stride in every
    # block of stride * n_u, read in order.
    stride = 1
    for p in parents[parents.index(u) + 1 :]:
        stride *= net.state_count(p)
    rows = net.node(x).cpt
    weights = _joint_weights(coparent_msgs)
    out = []
    for y in range(n_u):
        a_entries = [
            simplex_dot(IntervalVector.point(row), lam)
            for b in range(y * stride, len(rows), stride * n_u)
            for row in rows[b : b + stride]
        ]
        out.append(simplex_dot(IntervalVector(a_entries), weights))
    return normalize_scaled(IntervalVector(out))


# -- propagation core ---------------------------------------------------------


class _Run:
    """One evaluation over an active set, optionally under cutset clamps.

    ``cache`` maps a message key to ``(signature, value)`` as described
    in the module docstring.  Runs with and without clamps share it: a
    clamp is the pinned state of the clamped node's messages, so it is
    in the signature of every message it reaches.
    """

    def __init__(
        self,
        ctx: _Context,
        active: ActiveSet,
        clamps: Mapping[str, int] | None = None,
        cache: dict | None = None,
    ):
        self.ctx = ctx
        self.arcs = active.arcs
        self.clamps = dict(clamps or {})
        self.cache = cache
        self._memo: dict = {}
        self.visits = 0

    def _pinned(self, x: str) -> int | None:
        if x in self.clamps:
            return self.clamps[x]
        return self.ctx.evidence.get(x)

    def _inputs(self, key):
        """The pinned state and the inputs of one message, in kernel order.

        Keys are ``("pi_val", x)``, ``("lam_val", x)``, ``("pi_msg", u, x)``
        and ``("lam_msg", x, u)``.  An input is the key of another message
        or, for an absent arc, the state count of the vacuous vector that
        stands in for it.  An absent child arc counts only where it leads
        to evidence or the query; otherwise the branch under the child
        sums out exactly and drops from the inputs.  A pinned node is
        split: it emits indicator messages downward and a bare indicator
        likelihood upward, with no inputs, which is what cuts loops.
        """
        kind, x = key[0], key[1]
        net = self.ctx.net
        skip = key[2] if len(key) == 3 else None
        if kind == "pi_val" or kind == "lam_msg":
            ins: list = [] if skip is None else [("lam_val", x)]
            for p in net.parents(x):
                if p != skip:
                    ins.append(("pi_msg", p, x) if (p, x) in self.arcs else net.state_count(p))
            return None, tuple(ins)
        pinned = self._pinned(x)
        if pinned is not None:
            return pinned, ()
        ins = [] if skip is None else [("pi_val", x)]
        for w in net.children(x):
            if w == skip:
                continue
            if (x, w) in self.arcs:
                ins.append(("lam_msg", w, x))
            elif w in self.ctx:
                ins.append(net.state_count(x))
        return None, tuple(ins)

    def value(self, key):
        """(vector, scale) of one message, evaluating its inputs first."""
        memo = self._memo
        cache = self.cache
        stack: list = [(key, None)]
        while stack:
            k, ins = stack.pop()
            if ins is None:
                if k not in memo:
                    ins = self._inputs(k)
                    stack.append((k, ins))
                    stack.extend((i, None) for i in ins[1] if type(i) is tuple and i not in memo)
                continue
            pinned, inputs = ins
            args = tuple([memo[i] if type(i) is tuple else i for i in inputs])
            if cache is not None:
                entry = cache.get(k)
                if entry is not None and entry[0] == (pinned, args):
                    memo[k] = entry[1]
                    continue
            memo[k] = value = self._compute(k, pinned, args)
            self.visits += 1
            if cache is not None:
                cache[k] = ((pinned, args), value)
        return memo[key]

    def _compute(self, key, pinned: int | None, args: tuple):
        """Call the message's kernel; its scale is the product of the
        input scales and the mass the kernel's normalization discarded."""
        net = self.ctx.net
        kind, x = key[0], key[1]
        if pinned is not None:
            return IntervalVector.indicator(net.state_count(x), pinned), ONE
        msgs: list[IntervalVector] = []
        scale = None
        for a in args:
            if type(a) is int:
                msgs.append(vacuous(a))
            else:
                msgs.append(a[0])
                scale = a[1] if scale is None else iv_mul(scale, a[1])
        if kind == "pi_val":
            vec, z = _pi_value_kernel(net.node(x), msgs)
        elif kind == "lam_val":
            vec, z = _normalized_product(IntervalVector.ones(net.state_count(x)), msgs)
        elif kind == "pi_msg":
            vec, z = _normalized_product(msgs[0], msgs[1:])
        else:
            vec, z = _lambda_message_kernel(net, x, key[2], msgs[0], msgs[1:])
        return vec, z if scale is None else iv_mul(scale, z)

    def belief(self, x: str):
        """Belief bounds at x plus the evidence-mass interval of this run."""
        if x in self.clamps:
            raise ValueError("belief of a clamped node is fixed by construction")
        if x in self.ctx.evidence:
            k = self.ctx.evidence[x]
            pvec, ps = self.value(("pi_val", x))
            if pvec.hi[k] <= 0.0:
                raise ConflictingEvidenceError(
                    f"observed state {k} of {x!r} has zero probability"
                )
            return IntervalVector.indicator(len(pvec), k), iv_mul(ps, pvec[k])
        lam, _ = self.value(("lam_val", x))
        pvec, _ = self.value(("pi_val", x))
        vec, _ = _normalized_product(lam, [pvec])
        return vec, self.component_mass(x)

    def component_mass(self, x: str) -> Interval:
        """Evidence mass of the piece of the working graph holding x.

        Equals the belief mass at x; in a singly connected piece the
        same total comes out at whichever member node it is read.
        """
        if x in self.clamps or x in self.ctx.evidence:
            raise ValueError("mass must be read at an unpinned node")
        lam, ls = self.value(("lam_val", x))
        pvec, ps = self.value(("pi_val", x))
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
) -> IntervalVector:
    """The message a node sends to one child: its prior side times the
    likelihood messages from every other child."""
    if observed_state is not None:
        return IntervalVector.indicator(net.state_count(node), observed_state)
    others = [vec for w, vec in sibling_messages.items() if w != child]
    vec, _ = _normalized_product(pi_vec, others)
    return vec


def lambda_msg(
    net: BeliefNetwork,
    node: str,
    parent: str,
    lam_vec: IntervalVector,
    coparent_messages: Mapping[str, IntervalVector],
) -> IntervalVector:
    """The message a node sends up to one parent; co-parents without a
    message count as vacuous."""
    msgs = [
        coparent_messages.get(p, vacuous(net.state_count(p)))
        for p in net.parents(node)
        if p != parent
    ]
    vec, _ = _lambda_message_kernel(net, node, parent, lam_vec, msgs)
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
        if self.threshold is not None and not 0.0 <= self.threshold[2] <= 1.0:
            raise ValueError("threshold probability must lie in [0, 1]")

    @staticmethod
    def width(w: float) -> "StopCriterion":
        return StopCriterion(target_width=w)

    @staticmethod
    def prob_threshold(state: int, direction: str, p: float) -> "StopCriterion":
        return StopCriterion(threshold=(state, direction, p))

    def met(self, bel: IntervalVector) -> bool:
        if self.target_width is not None:
            return bel.max_width <= self.target_width
        return self.verdict(bel) is not None

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

    The object counts the rounds of one growth; ``make_strategy`` builds
    a fresh one for every query.
    """

    def __init__(self, delay: int | None = 5):
        if delay is not None and delay < 0:
            raise ValueError(f"loop delay must be nonnegative or None, not {delay}")
        self.delay = delay
        self.round = 0
        self.first_seen: dict[tuple[str, str], int] = {}

    def step(self, net: BeliefNetwork, active: ActiveSet, relevant: set[str]) -> ActiveSet | None:
        """The next different active set, after as many rounds as the
        waiting arcs need; None at a fixed point."""
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
        # A round that is repeated added no arc, so it joined no pieces
        # and the next round starts from the same nodes and pieces.
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


def make_strategy(spec, delay: int = 5) -> DelayedLoops:
    """A fresh growth rule from a strategy name or a ``DelayedLoops``.

    ``delay`` is the loop delay of the name ``"delayed"``.  Waiting
    rounds belong to one growth, so a caller's object is copied and
    never advanced.
    """
    if isinstance(spec, DelayedLoops):
        return DelayedLoops(spec.delay)
    delays = {"bfs": 0, "breadth-first": 0, "no-loops": None, "delayed": delay}
    name = spec.replace("_", "-").lower() if isinstance(spec, str) else None
    if name not in delays:
        raise ValueError(f"unknown strategy {spec!r}")
    return DelayedLoops(delays[name])


# -- the anytime loop -----------------------------------------------------------


def answer_query(
    net: BeliefNetwork,
    query: str,
    evidence: Mapping[str, int] | None = None,
    strategy="bfs",
    stop: StopCriterion | None = None,
    budget_ms: float | None = None,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    use_cache: bool = True,
) -> QueryResult:
    """Iteratively expand and propagate until the stop criterion holds.

    One iteration is one evaluation.  The first is over the query node
    alone; each later one is made once the strategy has grown the active
    set to at least ``PACING_FACTOR`` (g) times the nodes of the last
    evaluated set, or to its fixed point, which is always evaluated
    before the status becomes saturated.  Where an evaluation's work
    grows linearly with its active set, the evaluations up to any one of
    them cost at most g / (g - 1) times that one.  The stop criterion
    and the budget are tested after each evaluation.

    Evidence given here is merged over any evidence stored on the
    network.  The result records per-iteration belief bounds, widths,
    active-set sizes, and timings; its status tells whether the
    criterion was met, the active set saturated, or the budget ran out.
    """
    from .loops import evaluate

    ctx = _Context(net, evidence, query)
    stop = stop if stop is not None else StopCriterion.width(0.0)
    if stop.threshold is not None and not 0 <= stop.threshold[0] < net.state_count(query):
        raise ValueError(f"threshold state {stop.threshold[0]} out of range for {query!r}")
    strategy_obj = make_strategy(strategy)
    relevant = relevant_set(net, query, ctx)
    active = ActiveSet.initial(query)
    cache: dict | None = {} if use_cache else None

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
        bel, v = evaluate(net, active, ctx, instance_cap=instance_cap, cache=cache)
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
        last = active
        grown = strategy_obj.step(net, active, relevant)
        while grown is not None and len(grown.nodes) < PACING_FACTOR * len(last.nodes):
            active = grown
            grown = strategy_obj.step(net, active, relevant)
        if grown is not None:
            active = grown
        elif active is last:
            status = SATURATED
            break
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

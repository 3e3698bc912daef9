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
paired with a scale, a float pair bracketing the mass its normalization
discarded; ``_Run.mass`` turns them into the float-pair evidence mass
by which conditioned evaluations (see ``loops``) weight cutset
instances.  The kernels run on bare floats: a node's CPT columns and
the greedy orders of its columns and rows are derived once per network,
when the node is first used, and each kernel call checks the coherence
of each weight vector once.  No ``Interval`` is built below the public
functions, except by the public ``simplex_dot`` that a mass calls.

A message whose one input is another message is that input.  A pi
message from a node with no other child message would only normalize
the node's pi value again, and a lambda value with exactly one child
message would only normalize that message again.  So ``_Run.value``
gives such a message its input's ``(vector, scale)`` pair: it neither
computes nor caches it, and it is not a node visit.  That is sound, and
up to rounding it is never wider than normalizing again:

- every kernel returns a normalized vector, so the message its input
  bounds is a distribution, and normalizing it discards a mass of
  exactly 1, the factor the alias's scale keeps;
- normalizing the output of a normalization again never tightens it.
  When ``(lo, hi)`` is the normalization of raw bounds ``(L, H)``, take
  the point ``t`` of the raw box with ``t_i = L_i`` and ``t_j = H_j``
  for every other j.  Then ``lo_i = t_i / sum(t)`` and ``hi_j >= t_j /
  sum(t)``, so ``lo_i + sum_{j != i} hi_j >= 1`` and a second
  normalization can only lower ``lo_i``; the mirror argument shows it
  can only raise ``hi_i``.

The public ``pi_msg`` and ``lambda_hat`` still normalize, since a
caller's vectors need not be normalized.

Two kernel results depend on the network alone and are built once.  A
node's pi value under vacuous parent messages, which for a root is its
prior, is kept on the network on the node's first use, next to its
kernel tables.  The lambda value of a node with no child message is one
shared uniform vector per state count.

A cache is a plain ``dict`` that carries values from one evaluation to
the next.  Each entry maps a message key to ``(signature, value)``,
where the signature is the message's pinned state and the arguments its
kernel was called with: each input message's value, or a vacuous
marker for an absent arc.  A stored value is reused only when the
current signature is ``==`` to the recorded one, which is memoization
of a pure function and so sound whatever evidence, query, active set or
cutset instance the cache saw before.  Runs under cutset clamps share
the one cache with the runs without them, so a message the clamps do
not reach is computed once for every instance.  Every evaluation has a
cache, and there is no uncached mode: ``answer_query`` keeps one dict
for the iterations of one query, and each ``propagate`` call starts a
fresh one.

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

import functools
import math
import time
from dataclasses import dataclass, field
from operator import mul
from typing import Iterable, Mapping, Sequence

from .intervals import (
    ConflictingEvidenceError,
    IntervalVector,
    _dot_bounds,
    _indicator,
    _normalized,
    _orders,
    _spare,
    _vacuous,
    simplex_dot,
    vacuous,
)
from .network import BeliefNetwork, UnionFind, _Context, relevant_set

SATISFIED = "satisfied"
SATURATED = "saturated"
BUDGET = "budget"
# The strategy names: each is ``DelayedLoops`` with this loop delay,
# the rounds a loop-closing arc waits (None: never enters).
LOOP_DELAYS = {"bfs": 0, "no-loops": None, "delayed": 5}
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
        sets = UnionFind()
        for p, c in self.arcs:
            sets.union(p, c)
        if len({sets.find(v) for v in self.nodes}) != 1:
            raise ValueError("active set is not connected")


# -- message kernels ------------------------------------------------------------
#
# One body per message formula, called by ``_Run`` and by the public
# single-step functions.  Each returns a normalized vector with the mass
# its normalization discarded, as a float pair.  A node's CPT columns and
# the greedy orders of its columns and rows are built on the node's first
# use and kept on the network (``BeliefNetwork._kernel_tables``).  A call
# checks the coherence of each weight vector once, dots every column or
# row against it on bare floats, and builds one ``IntervalVector``.  The
# inner loops run in builtins: a greedy pass ends in one
# ``sum(map(mul, ...))`` (``intervals._extreme`` says why that is the sum
# without the zero entries), a kernel hands its raw bound lists to
# ``intervals._normalized``, which checks them once, and the vacuous and
# indicator vectors are shared instances, one per shape.  The schedule
# reads the network's node and child tables directly, and growth reads a
# node's skeleton neighbours, which the network keeps per node.
#
# A kernel skips the work its inputs make trivial, with the same floats
# and the same errors as the general body:
# - pi value, one parent: the joint weights would be its message times
#   1.0, which is the message itself.
# - pi value, every parent message vacuous, a root included: the weights
#   are 0/1 with spare 1, so the greedy pass puts all of it on the first
#   entry of each order, and a column's bounds are its least and greatest
#   entries (where the sum would turn a -0.0 entry into 0.0, normalizing
#   does).  The result depends on the node alone, so the network keeps it
#   (``BeliefNetwork._priors``) on first use and every later call returns
#   that one pair.
# - lambda message, no co-parents: the outer pass dots each inner bound
#   against the point weight (1.0,) with no spare, which returns it.
# - lambda value: the product starts from the first child message, not
#   from ones (1.0 * y is y); with no child message it is the shared
#   ``_uniform`` pair of its state count.
# - ``intervals._dot_bounds`` of a point against point weights: both
#   greedy passes are the one sum over the weights' lower bounds.
# - ``loops.evaluate`` of a connected active set with an arc fewer than
#   its nodes: that set is a tree, so it has no loop to search for.
#
# The schedule, not a kernel, skips the messages that are their one
# input (``_ALIASED``, see the module docstring).  That alone changes
# floats: bounds and scales only get tighter, up to rounding.


def _joint_weights(msgs: Sequence[IntervalVector]) -> IntervalVector:
    """Product weights of every joint configuration, last message fastest."""
    los, his = [1.0], [1.0]
    for m in msgs:
        if min(m.lo) < 0.0:
            raise ValueError("joint weights need nonnegative message bounds")
        los = [x * y for x in los for y in m.lo]
        his = [x * y for x in his for y in m.hi]
    return IntervalVector.from_bounds(los, his)


def _pi_value_kernel(net: BeliefNetwork, x: str, parent_msgs: Sequence[IntervalVector]):
    if (
        all(not any(m.lo) and m.hi.count(1.0) == len(m.hi) for m in parent_msgs)
        and math.prod(map(len, parent_msgs)) == len(net._by_id[x].cpt)
    ):
        found = net._priors.get(x)
        if found is None:
            columns, orders, _ = net._kernel_tables(x)
            bounds = [(c[lo[0]], c[hi[0]]) for c, (lo, hi) in zip(columns, orders)]
            found = net._priors[x] = _normalized(*zip(*bounds))
        return found
    columns, orders, _ = net._kernel_tables(x)
    if len(parent_msgs) == 1 and min(parent_msgs[0].lo) >= 0.0:
        weights = parent_msgs[0]
    else:
        weights = _joint_weights(parent_msgs)
    spare = _spare(weights, len(columns[0]))
    bounds = [_dot_bounds(c, c, weights, spare, o) for c, o in zip(columns, orders)]
    return _normalized(*zip(*bounds))


def _normalized_product(vec: IntervalVector, factors: Iterable[IntervalVector]):
    """Lambda value, pi message and belief: an entrywise product in one pass, normalized."""
    lo, hi = vec.lo, vec.hi
    for f in factors:
        if len(f.lo) != len(lo) or min(lo) < 0.0 or min(f.lo) < 0.0:
            raise ValueError("an entrywise product needs equal lengths and nonnegative bounds")
        lo, hi = list(map(mul, lo, f.lo)), list(map(mul, hi, f.hi))
    return _normalized(lo, hi)


@functools.lru_cache(maxsize=256)
def _uniform(n: int):
    """The lambda value of a node with no child message, one per state count."""
    return _normalized_product(IntervalVector.ones(n), ())


def _lambda_value_kernel(n: int, child_msgs: Sequence[IntervalVector]):
    """Lambda value: the normalized product of the child messages, ones
    for a node with none."""
    if not child_msgs:
        return _uniform(n)
    if len(child_msgs[0]) == n and min(child_msgs[0].lo) >= 0.0:
        return _normalized_product(child_msgs[0], child_msgs[1:])
    return _normalized_product(IntervalVector.ones(n), child_msgs)


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
    # Rows are stored last parent fastest, so they come in runs of
    # ``stride`` rows with u fixed, u's state cycling from run to run.
    stride = math.prod(map(net.state_count, parents[parents.index(u) + 1 :]))
    rows = net.node(x).cpt
    _, _, orders = net._kernel_tables(x)
    weights = _joint_weights(coparent_msgs)
    spare = _spare(lam, len(rows[0]))
    inner = [_dot_bounds(r, r, lam, spare, o) for r, o in zip(rows, orders)]
    if not coparent_msgs and min(lo for lo, _ in inner) >= 0.0:
        return _normalized(*zip(*inner))
    runs = [inner[b : b + stride] for b in range(0, len(inner), stride)]
    spare = _spare(weights, len(rows) // n_u)
    out = []
    for y in range(n_u):
        a_lo, a_hi = zip(*[d for run in runs[y::n_u] for d in run])
        if min(a_lo) < 0.0:
            raise ValueError("simplex_dot requires nonnegative entries")
        out.append(_dot_bounds(a_lo, a_hi, weights, spare, _orders(a_lo, a_hi)))
    return _normalized(*zip(*out))


# -- propagation core ---------------------------------------------------------

# The kinds of message that are their input when an unpinned one has
# exactly one input and that input is a message (see the module docstring).
_ALIASED = ("pi_msg", "lam_val")


class _Run:
    """One evaluation over an active set under cutset clamps (none for a
    plain evaluation).

    ``cache`` maps a message key to ``(signature, value)`` as described
    in the module docstring.  Runs with and without clamps share it: a
    clamp is the pinned state of the clamped node's messages, so it is
    in the signature of every message it reaches.
    """

    def __init__(self, ctx: _Context, active: ActiveSet, clamps: Mapping[str, int], cache: dict):
        self.ctx = ctx
        self.arcs = active.arcs
        self.clamps = clamps
        self.cache = cache
        self._memo: dict = {}
        self.visits = 0

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
        nodes = self.ctx.net._by_id
        arcs = self.arcs
        skip = key[2] if len(key) == 3 else None
        if kind == "pi_val" or kind == "lam_msg":
            ins: list = [] if skip is None else [("lam_val", x)]
            for p in nodes[x].parents:
                if p != skip:
                    ins.append(("pi_msg", p, x) if (p, x) in arcs else len(nodes[p].states))
            return None, ins
        pinned = self.clamps.get(x)
        if pinned is None:
            pinned = self.ctx.evidence.get(x)
        if pinned is not None:
            return pinned, ()
        ins = [] if skip is None else [("pi_val", x)]
        for w in self.ctx.net._children[x]:
            if w == skip:
                continue
            if (x, w) in arcs:
                ins.append(("lam_msg", w, x))
            elif w in self.ctx:
                ins.append(len(nodes[x].states))
        return None, ins

    def value(self, key):
        """(vector, scale) of one message, evaluating its inputs first.

        A key expanded again before it is computed was reached from its
        own inputs: the message dependencies have a cycle, which only an
        active set whose loops were not cut can make.
        """
        memo = self._memo
        cache = self.cache
        expanded = set()
        stack: list = [(key, None)]
        while stack:
            k, ins = stack.pop()
            if ins is None:
                if k not in memo:
                    if k in expanded:
                        raise RuntimeError(f"message {k} depends on itself: an uncut loop")
                    expanded.add(k)
                    ins = self._inputs(k)
                    stack.append((k, ins))
                    stack += [(i, None) for i in ins[1] if type(i) is tuple and i not in memo]
                continue
            pinned, inputs = ins
            if pinned is None and len(inputs) == 1 and k[0] in _ALIASED and type(inputs[0]) is tuple:
                memo[k] = memo[inputs[0]]
                continue
            args = tuple([memo[i] if type(i) is tuple else i for i in inputs])
            entry = cache.get(k)
            if entry is not None and entry[0] == (pinned, args):
                memo[k] = entry[1]
                continue
            memo[k] = value = self._compute(k, pinned, args)
            self.visits += 1
            cache[k] = ((pinned, args), value)
        return memo[key]

    def _compute(self, key, pinned: int | None, args: tuple):
        """Call the message's kernel; its scale (a float pair) is the product
        of the input scales and the mass the kernel's normalization discarded."""
        net = self.ctx.net
        kind, x = key[0], key[1]
        if pinned is not None:
            return _indicator(len(net._by_id[x].states), pinned), (1.0, 1.0)
        msgs: list[IntervalVector] = []
        scale = None
        for a in args:
            if type(a) is int:
                msgs.append(_vacuous(a))
            else:
                msgs.append(a[0])
                scale = a[1] if scale is None else (scale[0] * a[1][0], scale[1] * a[1][1])
        if kind == "pi_val":
            out = _pi_value_kernel(net, x, msgs)
        elif kind == "lam_val":
            out = _lambda_value_kernel(len(net._by_id[x].states), msgs)
        elif kind == "pi_msg":
            out = _normalized_product(msgs[0], msgs[1:])
        else:
            out = _lambda_message_kernel(net, x, key[2], msgs[0], msgs[1:])
        if scale is None:
            return out
        vec, z = out
        return vec, (scale[0] * z[0], scale[1] * z[1])

    def belief(self, x: str) -> IntervalVector:
        """Belief bounds at x."""
        if x in self.clamps:
            raise ValueError("belief of a clamped node is fixed by construction")
        if x in self.ctx.evidence:
            k = self.ctx.evidence[x]
            pvec, _ = self.value(("pi_val", x))
            if pvec.hi[k] <= 0.0:
                raise ConflictingEvidenceError(
                    f"observed state {k} of {x!r} has zero probability"
                )
            return IntervalVector.indicator(len(pvec), k)
        lam, _ = self.value(("lam_val", x))
        pvec, _ = self.value(("pi_val", x))
        return _normalized_product(lam, [pvec])[0]

    def mass(self, x: str) -> tuple[float, float]:
        """Evidence mass of the piece of the working graph holding x, as a
        float pair; every unclamped member of a singly connected piece
        gives the same total."""
        if x in self.clamps:
            raise ValueError("mass must be read at an unclamped node")
        if x in self.ctx.evidence:
            k = self.ctx.evidence[x]
            pvec, ps = self.value(("pi_val", x))
            return ps[0] * pvec.lo[k], ps[1] * pvec.hi[k]
        lam, ls = self.value(("lam_val", x))
        pvec, ps = self.value(("pi_val", x))
        dot = simplex_dot(lam, pvec)
        return ls[0] * ps[0] * dot.lo, ls[1] * ps[1] * dot.hi


# -- single-step kernels (exposed for direct use and testing) -----------------


def _check_senders(messages: Mapping[str, IntervalVector], senders: Sequence[str], role: str, node: str):
    """Raise ``ValueError`` at the first message from a node that is not
    one of ``senders``, which would otherwise be ignored."""
    for k in messages:
        if k not in senders:
            raise ValueError(f"message from {k!r}, which is not a {role} of {node!r}")


def pi_hat(
    net: BeliefNetwork, node: str, parent_messages: Mapping[str, IntervalVector]
) -> IntervalVector:
    """Prior-side bounds for a node given messages from its parents.

    Missing parents default to vacuous messages; a message from any other
    node is a ``ValueError``.  Result is normalized.
    """
    parents = net.parents(node)
    _check_senders(parent_messages, parents, "parent", node)
    msgs = [parent_messages.get(p, vacuous(net.state_count(p))) for p in parents]
    return _pi_value_kernel(net, node, msgs)[0]


def lambda_hat(
    net: BeliefNetwork, node: str, child_messages: Mapping[str, IntervalVector]
) -> IntervalVector:
    """Likelihood-side bounds: normalized product of child messages; a
    message from a node that is not a child is a ``ValueError``.

    An observed node's likelihood is ``IntervalVector.indicator(n, k)``
    whatever its children send.
    """
    n = net.state_count(node)
    _check_senders(child_messages, net.children(node), "child", node)
    return _lambda_value_kernel(n, list(child_messages.values()))[0]


def bel_hat(pi_vec: IntervalVector, lam_vec: IntervalVector) -> IntervalVector:
    """Normalized entrywise product of the two directional summaries."""
    return _normalized_product(lam_vec, [pi_vec])[0]


def pi_msg(
    net: BeliefNetwork,
    node: str,
    child: str,
    pi_vec: IntervalVector,
    sibling_messages: Mapping[str, IntervalVector],
) -> IntervalVector:
    """The message a node sends to one child: its prior side times the
    likelihood messages from every other child (a receiver or a message
    from a node that is not a child is a ``ValueError``).  An observed
    node sends ``IntervalVector.indicator(n, k)`` instead."""
    children = net.children(node)
    if child not in children:
        raise ValueError(f"{child!r} is not a child of {node!r}")
    _check_senders(sibling_messages, children, "child", node)
    others = [vec for w, vec in sibling_messages.items() if w != child]
    return _normalized_product(pi_vec, others)[0]


def lambda_msg(
    net: BeliefNetwork,
    node: str,
    parent: str,
    lam_vec: IntervalVector,
    coparent_messages: Mapping[str, IntervalVector],
) -> IntervalVector:
    """The message a node sends up to one parent; co-parents without a
    message count as vacuous, and a receiver that is not a parent or a
    message from any other node is a ``ValueError``."""
    parents = net.parents(node)
    if parent not in parents:
        raise ValueError(f"{parent!r} is not a parent of {node!r}")
    coparents = [p for p in parents if p != parent]
    _check_senders(coparent_messages, coparents, "co-parent", node)
    msgs = [coparent_messages.get(p, vacuous(net.state_count(p))) for p in coparents]
    return _lambda_message_kernel(net, node, parent, lam_vec, msgs)[0]


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
        if self.threshold is not None:
            state, direction, p = self.threshold
            if isinstance(state, bool) or not isinstance(state, int):
                raise ValueError(f"threshold state must be an int, not {state!r}")
            if direction not in (">", "<"):
                raise ValueError("threshold direction must be '>' or '<'")
            if not 0.0 <= p <= 1.0:
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
    """One query's answer: the belief bounds of every iteration, with the
    active-set size and time of each.

    ``node_visits`` counts the kernel calls of every evaluation: a
    message reused from the cache, or given its one input's value (see
    the module docstring), is not a visit.
    """

    query: str
    status: str
    bels: list[IntervalVector]
    active_nodes: list[int] = field(default_factory=list)
    elapsed: list[float] = field(default_factory=list)
    node_visits: int = 0
    threshold_answer: bool | None = None

    @property
    def bel(self) -> IntervalVector:
        """The last iteration's belief bounds."""
        return self.bels[-1]

    @property
    def iterations(self) -> int:
        return len(self.bels)

    @property
    def achieved_width(self) -> float:
        return self.bel.max_width

    @property
    def widths(self) -> list[float]:
        """The width of each iteration's belief bounds."""
        return [b.max_width for b in self.bels]


# -- active-set expansion -------------------------------------------------------


class DelayedLoops:
    """Breadth-first growth where an arc that would close a loop waits.

    Each round adds every relevant neighbor of the active set, then
    scans the induced arcs not yet active in network order.  An arc
    that joins two pieces enters at once; one that closes a loop enters
    once it has waited ``delay`` rounds, or never when ``delay`` is
    None, which keeps the active set a polytree.  ``delay=0`` is plain
    breadth-first growth.

    The active set is one piece: growth starts from a connected set (as
    ``ActiveSet.validate`` requires) and each new node joins through an
    arc.  So an arc between active nodes always closes a loop, and only
    the nodes the last round added (``fresh``) can have relevant
    neighbors outside.  A round scans their arcs, their new neighbors'
    arcs and the arcs still ``waiting``: it costs what it adds, not the
    size of the active set.  An object serves one growth; a set that
    ``step`` did not last return starts a new one from all its nodes.
    ``answer_query`` builds one per query from ``LOOP_DELAYS``, so no
    waiting round outlives its query.
    """

    def __init__(self, delay: int | None):
        if delay is not None and delay < 0:
            raise ValueError(f"loop delay must be nonnegative or None, not {delay}")
        self.delay = delay
        self.round, self.fresh, self.waiting, self.last = 0, frozenset(), {}, None

    def step(self, net: BeliefNetwork, active: ActiveSet, relevant: set[str]) -> ActiveSet | None:
        """The next different active set, after as many rounds as the
        waiting arcs need; None at a fixed point."""
        if active is not self.last:
            self.round, self.fresh, self.waiting = 0, active.nodes, {}
        by_id, children, order = net._by_id, net._children, net._order
        new = {w for v in self.fresh for w in net.skeleton_neighbors(v)
               if w in relevant and w not in active.nodes}
        nodes = active.nodes | new
        touched, self.fresh = self.fresh | new, new
        arcs = {(p, c) for c in touched for p in by_id[c].parents if p in nodes}
        arcs.update([(p, c) for p in touched for c in children[p] if c in nodes])
        candidates = sorted(
            {a for a in arcs if a not in active.arcs} | self.waiting.keys(),
            key=lambda a: (order[a[0]], order[a[1]]),
        )
        sets = UnionFind()  # this round's new nodes; None is the active set
        # A repeated round follows one that added nothing: same arcs, same pieces.
        while True:
            self.round += 1
            added = []
            for p, c in candidates:
                if sets.union(p if p in new else None, c if c in new else None):
                    added.append((p, c))
                elif self.delay is not None:
                    if self.round - self.waiting.setdefault((p, c), self.round) >= self.delay:
                        del self.waiting[(p, c)]
                        added.append((p, c))
            if new or added:
                self.last = ActiveSet(nodes, active.arcs.union(added))
                return self.last
            if not self.waiting:
                return None


# -- the anytime loop -----------------------------------------------------------


def answer_query(
    net: BeliefNetwork,
    query: str,
    evidence: Mapping[str, int] | None = None,
    strategy: str = "bfs",
    stop: StopCriterion | None = None,
    budget_ms: float | None = None,
) -> QueryResult:
    """Iteratively expand and propagate until the stop criterion holds.

    One iteration is one evaluation.  The first is over the query node
    alone; each later one is made once the strategy has grown the active
    set to at least ``PACING_FACTOR`` (g) times the nodes of the last
    evaluated set, or to its fixed point, which is always evaluated
    before the status becomes saturated (the module docstring gives the
    cost bound).  The stop criterion and the budget are tested after
    each evaluation.

    ``strategy`` is a key of ``LOOP_DELAYS``: ``"bfs"``, ``"no-loops"``
    or ``"delayed"``.  Anything else, a ``DelayedLoops`` included, is a
    ``ValueError``; the query grows its active set with a
    ``DelayedLoops`` of its own.

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
    if budget_ms is not None and not budget_ms >= 0:
        raise ValueError(f"budget_ms must be a nonnegative number, not {budget_ms}")
    if not isinstance(strategy, str) or strategy not in LOOP_DELAYS:
        raise ValueError(f"unknown strategy {strategy!r}")
    growth = DelayedLoops(LOOP_DELAYS[strategy])
    relevant = relevant_set(net, query, ctx)
    active = ActiveSet.initial(query)
    cache: dict = {}

    sizes: list[int] = []
    timings: list[float] = []
    bels: list[IntervalVector] = []
    visits = 0
    started = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        bel, v = evaluate(net, active, ctx, cache)
        timings.append(time.perf_counter() - t0)
        bels.append(bel)
        sizes.append(len(active.nodes))
        visits += v
        if stop.met(bel):
            status = SATISFIED
            break
        if budget_ms is not None and (time.perf_counter() - started) * 1000.0 >= budget_ms:
            status = BUDGET
            break
        last = active
        grown = growth.step(net, active, relevant)
        while grown is not None and len(grown.nodes) < PACING_FACTOR * len(last.nodes):
            active = grown
            grown = growth.step(net, active, relevant)
        if grown is not None:
            active = grown
        elif active is last:
            status = SATURATED
            break
    return QueryResult(
        query=query,
        status=status,
        bels=bels,
        active_nodes=sizes,
        elapsed=timings,
        node_visits=visits,
        threshold_answer=stop.verdict(bel),
    )

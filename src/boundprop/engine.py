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

Each message the query needs is evaluated once per evaluation, by one
sweep toward the query (and one toward each piece's representative
whose mass a conditioned evaluation weighs).  The working forest is
the set of active arcs minus the arcs that leave a pinned node; once
loops are cut it is singly connected, so, as in Pearl's polytree
propagation, each node sends exactly one message toward the root.  A
breadth-first search from the root records, for every node it reaches,
the neighbour one step nearer; then, in reverse breadth-first order,
each node sends that neighbour a pi message when it is the node's child
and a lambda message when it is its parent, and the root's pi value and
lambda value come last.  Both passes are plain loops, so no depth is
bounded by the interpreter's call stack.  Every computed vector is
paired with a scale, a float pair bracketing the mass its normalization
discarded; ``_Run.mass`` turns them into the float-pair evidence mass
by which conditioned evaluations (see ``loops``) weight cutset
instances.  The kernels run on bare floats: a node's CPT columns and
the greedy orders of its columns and rows are derived once per network,
when the node is first used, and each kernel call checks the coherence
of each weight vector once and fills each distinct greedy order once.
No ``Interval`` is built below the public functions, except by the
public ``simplex_dot`` that a mass calls.

A message whose one input is another message is that input.  A pi
message from a node with no other child message would only normalize
the node's pi value again, and a lambda value with exactly one child
message would only normalize that message again.  So a sweep takes
such an alias as its source's ``(vector, scale)`` pair, the message it
is: an alias is never computed or cached, and it is not a node visit.
That is sound, and up to rounding it is never wider than normalizing
again:

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

A message that reads no message is a constant.  Every absent arc
carries a vacuous message, and a pinned node sends its indicator
whatever it is sent, so such a message depends on its node alone.
A sweep reads its value where the message is read: it is never computed
or cached, and it is not a node visit.  There are three kinds, each the
value its kernel would compute, built once:

- a pi value whose parent arcs are all absent, a root's included: the
  node's pi value under vacuous parent messages, kept in the node's
  record on the network (which for a root is its prior);
- an unpinned lambda value whose child arcs are all absent: one shared
  uniform vector per state count when no absent child counts, and one
  shared vacuous lambda value per state count when one does (any product
  of vacuous vectors is vacuous);
- every message of a pinned node, its pi messages and its lambda value:
  one shared indicator per state count and state, with scale (1, 1).
  A pinned node reads none of its neighbours' messages, which is what
  cuts loops.

A lambda message read from these constants also depends on its
co-parents' arcs, so it is computed, and cached, like any other.

A cache is a plain ``dict`` that carries values from one evaluation to
the next.  Each entry maps a message key to ``(signature, value)``,
where the signature is the arguments its kernel was called with: each
input message's value, or a vacuous marker for an absent arc.  A stored
value is reused only when the current signature is ``==`` to the
recorded one, which is memoization of a pure function and so sound
whatever evidence, query, active set or cutset instance the cache saw
before.  Runs under cutset clamps share the one cache with the runs
without them, so a message the clamps do not reach is computed once for
every instance.  Every evaluation has a
cache, and there is no uncached mode: ``answer_query`` keeps one dict
for the iterations of one query, and each ``propagate`` call starts a
fresh one.

A query's evidence is the caller's evidence laid over the evidence
stored on the network, merged in the one per-query ``_Context`` that
``answer_query``, ``propagate`` and ``relevant_set`` build.  A network
keeps one slot for the last merged evidence it was asked about: the
mapping, its checked copy and the ancestral closure of its nodes.  A
stream of queries under one evidence mapping pays for that closure once,
and each query walks only its own ancestors outside it; an equal mapping
that is not the kept one is checked again first.  That one slot is
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
    _dot_table,
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


class _BudgetSpent(Exception):
    """A conditioned evaluation reached ``_Context.deadline``."""


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
# its normalization discarded, as a float pair.  A node's constants are
# one record, built on its first use and kept on the network
# (``BeliefNetwork._kernel_tables``); a lambda message groups its inner
# bounds by that record's rows for each state of the receiving parent.
# A call checks the coherence of each weight vector once, dots its whole
# table of columns or rows against it on bare floats with the one
# constrained dot (``intervals._dot_table``; a lambda message's outer
# pass is one more call), and builds one ``IntervalVector``.  A
# greedy fill depends on the weights, the spare mass and the visiting
# order alone, so the table computes each distinct order's fill once
# (equal orders are one object in the record) and each bound as one
# ``sum(map(mul, ...))`` (``intervals._weighted_sum`` says why that is
# the sum without the zero entries).  A kernel hands its raw bound lists
# to ``intervals._normalized``, which checks them once, and the vacuous
# and indicator vectors are shared instances, one per shape.
# A sweep reads the network's node and child tables directly, and
# growth reads a node's skeleton neighbours, its parents then children.
#
# A kernel skips the work its inputs make trivial, with the same floats
# and the same errors as the general body:
# - pi value, one parent: the joint weights would be its message times
#   1.0, which is the message itself.
# - pi value, every parent message vacuous, a root included: the weights
#   are 0/1 with spare 1, so the greedy pass puts all of it on the first
#   entry of each order, and a column's bounds are its least and greatest
#   entries (where the sum would turn a -0.0 entry into 0.0, normalizing
#   does).  The result depends on the node alone, so it is part of the
#   node's record and every call returns that one pair.
# - lambda message, no co-parents: the outer pass dots each inner bound
#   against the point weight (1.0,) with no spare, which returns it.
# - lambda value: the product starts from the first child message, not
#   from ones (1.0 * y is y); with no child message it is the shared
#   ``_uniform`` pair of its state count.
# - the constant messages (see the module docstring) are these kernels'
#   values, built once: the pi value fast path above, ``_uniform``,
#   ``_vacuous_lambda`` and ``_pinned``.
# - ``intervals._dot_table`` of a point table against point weights:
#   both bounds of a row are the one sum over the weights' lower bounds.
# - ``intervals._dot_table`` sums each bound in line and calls
#   ``_weighted_sum`` only when that sum is NaN; otherwise the sum is the
#   one ``_weighted_sum`` would return.
# - ``loops.evaluate`` of a connected active set with an arc fewer than
#   its nodes: that set is a tree, so it has no loop to search for.
#
# A sweep, not a kernel, skips the messages that are their one input
# and the constants (see the module docstring).  Skipping an alias
# alone changes floats: bounds and scales only get tighter, up to
# rounding.


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
        return net._kernel_tables(x)[3]
    return _normalized(*_column_bounds(net, x, parent_msgs))


def _column_bounds(net: BeliefNetwork, x: str, parent_msgs: Sequence[IntervalVector]):
    """The raw (lows, highs) of x's CPT columns dotted against the joint
    weights of its parent messages, before any normalization: a pi
    value normalizes them, and ``loops`` reads a clamped node's column
    mass from them."""
    columns, orders, _, _, _ = net._kernel_tables(x)
    if len(parent_msgs) == 1 and min(parent_msgs[0].lo) >= 0.0:
        weights = parent_msgs[0]
    else:
        weights = _joint_weights(parent_msgs)
    return _dot_table(columns, columns, orders, weights, _spare(weights, len(columns[0])))


def _normalized_product(vec: IntervalVector, factors: Iterable[IntervalVector]):
    """Lambda value, pi message and belief: an entrywise product in one pass, normalized."""
    lo, hi = vec.lo, vec.hi
    for f in factors:
        if len(f.lo) != len(lo) or min(lo) < 0.0 or min(f.lo) < 0.0:
            raise ValueError("an entrywise product needs equal lengths and nonnegative bounds")
        lo, hi = list(map(mul, lo, f.lo)), list(map(mul, hi, f.hi))
    return _normalized(lo, hi)


@functools.cache
def _uniform(n: int):
    """The lambda value of a node with no child message, one per state count."""
    return _normalized_product(IntervalVector.ones(n), ())


@functools.cache
def _vacuous_lambda(n: int):
    """The lambda value of a node whose child messages are all vacuous,
    one per state count: any product of vacuous vectors is vacuous."""
    return _normalized_product(_vacuous(n), ())


@functools.cache
def _pinned(n: int, k: int):
    """Every message a node pinned to state k of n sends, one per (n, k)."""
    return _indicator(n, k), (1.0, 1.0)


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
    rows = net._by_id[x].cpt
    _, _, orders, _, rows_by_parent = net._kernel_tables(x)
    weights = _joint_weights(coparent_msgs) if coparent_msgs else None
    lows, highs = _dot_table(rows, rows, orders, lam, _spare(lam, len(rows[0])))
    if weights is not None:
        groups = rows_by_parent[net._by_id[x].parents.index(u)]
        spare = _spare(weights, len(groups[0]))
    # The outer pass needs nonnegative bounds; min alone can miss one after a NaN.
    if not min(lows) >= 0.0 and any(lo < 0.0 for lo in lows):
        raise ValueError("simplex_dot requires nonnegative entries")
    if weights is None:
        return _normalized(lows, highs)
    a_los = [[lows[r] for r in rows_of_y] for rows_of_y in groups]
    a_his = [[highs[r] for r in rows_of_y] for rows_of_y in groups]
    return _normalized(*_dot_table(a_los, a_his, list(map(_orders, a_los, a_his)), weights, spare))


# -- propagation core ---------------------------------------------------------


class _Run:
    """One evaluation over an active set with the states in ``pinned``
    fixed: ``ctx.evidence`` for a plain evaluation, and for one cutset
    instance the evidence on the active set with the instance's clamps
    laid over it.

    A run answers roots only: ``belief`` and ``mass`` of the query and
    of each piece's representative read a root's lambda value and pi
    value, from one sweep toward it over the working forest: the active
    arcs minus the arcs that leave a pinned node, whose message is the
    node's indicator whatever the node is sent.  A sweep reaches every
    node of the root's piece breadth first, and then, in reverse
    breadth-first order, each node sends its one message toward the
    neighbour it was reached from: a pi message to a child or a lambda
    message to a parent.  The root's two values come last.  Each message
    is sent once per sweep and each root is swept once per run.

    ``cache`` maps a message key to ``(signature, value)`` as described
    in the module docstring.  Runs with and without clamps share it.  A
    pinned node's messages are constants, never cached, and the
    signature of a message it reaches holds its indicator, so a clamp is
    in the signature of every message it reaches.
    """

    def __init__(self, ctx: _Context, active: ActiveSet, pinned: Mapping[str, int], cache: dict):
        self.ctx = ctx
        self.arcs = active.arcs
        self.pinned = pinned
        self.cache = cache
        # A root x -> its (lambda value, pi value).
        self._memo: dict = {}
        self.visits = 0

    def _root(self, x: str):
        """The lambda value and pi value of x, from one sweep toward x.

        First a breadth-first search from x over the working forest
        lists every node it reaches with the neighbour one step nearer x.
        Then each node, farthest first, sends its message toward that
        neighbour, reading its other neighbours' messages from ``sent``,
        and x's two values come last.  Each kernel reads its inputs in
        kernel order: parents in CPT order, children in network order, a
        message's own node's value first.  An absent arc's input is the
        state count of the vacuous vector that stands in for it; an
        absent child arc counts only where it leads to evidence or the
        query, since otherwise the branch under the child sums out
        exactly.  A node reached twice closes a loop of the working
        forest, which only an active set whose loops were not cut has:
        its messages would depend on themselves.
        """
        got = self._memo.get(x)
        if got is not None:
            return got
        ctx = self.ctx
        net = ctx.net
        by_id, children = net._by_id, net._children
        arcs, pinned = self.arcs, self.pinned
        # (node, neighbour one step nearer x, the message it sends there)
        order: list = [(x, None, None)]
        reached = {x}
        for v, nxt, _ in order:
            for p in by_id[v].parents:
                if p != nxt and (p, v) in arcs and p not in pinned:
                    if p in reached:
                        raise RuntimeError(f"message {('pi_msg', p, v)} depends on itself: an uncut loop")
                    reached.add(p)
                    order.append((p, v, "pi_msg"))
            if v not in pinned:
                for w in children[v]:
                    if w != nxt and (v, w) in arcs:
                        if w in reached:
                            raise RuntimeError(f"message {('lam_msg', w, v)} depends on itself: an uncut loop")
                        reached.add(w)
                        order.append((w, v, "lam_msg"))
        sent: dict = {}
        for v, nxt, sends in reversed(order):
            if sends == "pi_msg":
                n = len(by_id[v].states)
                ins = [self._pi_value(v, sent)]
                for w in children[v]:
                    if w != nxt:
                        if (v, w) in arcs:
                            ins.append(sent[w])
                        elif w in ctx:
                            ins.append(n)
                sent[v] = ins[0] if len(ins) == 1 else self._call(("pi_msg", v, nxt), tuple(ins))
            elif sends == "lam_msg":
                ins = [self._lambda_value(v, sent)]
                for p in by_id[v].parents:
                    if p != nxt:
                        if (p, v) not in arcs:
                            ins.append(len(by_id[p].states))
                        elif p in pinned:
                            ins.append(_pinned(len(by_id[p].states), pinned[p]))
                        else:
                            ins.append(sent[p])
                sent[v] = self._call(("lam_msg", v, nxt), tuple(ins))
        got = self._memo[x] = self._lambda_value(x, sent), self._pi_value(x, sent)
        return got

    def _pi_value(self, x: str, sent: dict):
        """x's pi value from its parents' messages in ``sent``; with every
        parent arc absent, the constant in x's record."""
        net = self.ctx.net
        by_id, arcs, pinned = net._by_id, self.arcs, self.pinned
        ins: list = []
        read = False
        for p in by_id[x].parents:
            if (p, x) not in arcs:
                ins.append(len(by_id[p].states))
                continue
            read = True
            if p in pinned:
                ins.append(_pinned(len(by_id[p].states), pinned[p]))
            else:
                ins.append(sent[p])
        if not read:
            return net._kernel_tables(x)[3]
        return self._call(("pi_val", x), tuple(ins))

    def _lambda_value(self, x: str, sent: dict):
        """x's lambda value from its children's messages in ``sent``: a
        pinned node's indicator, the one child message when there is one
        input, and a shared constant when no child arc is present."""
        ctx = self.ctx
        n = len(ctx.net._by_id[x].states)
        k = self.pinned.get(x)
        if k is not None:
            return _pinned(n, k)
        arcs = self.arcs
        ins: list = []
        read = False
        for w in ctx.net._children[x]:
            if (x, w) in arcs:
                ins.append(sent[w])
                read = True
            elif w in ctx:
                ins.append(n)
        if not read:
            return _vacuous_lambda(n) if ins else _uniform(n)
        if len(ins) == 1:
            return ins[0]
        return self._call(("lam_val", x), tuple(ins))

    def _call(self, key, args: tuple):
        """The value of a computed message for ``args``, its signature:
        the cached one when the signature is the recorded one, else its
        kernel's, counted as a visit and cached."""
        entry = self.cache.get(key)
        if entry is not None and entry[0] == args:
            return entry[1]
        value = self._compute(key, args)
        self.visits += 1
        self.cache[key] = (args, value)
        return value

    def _compute(self, key, args: tuple):
        """Call the message's kernel; its scale (a float pair) is the product
        of the input scales and the mass the kernel's normalization
        discarded.  A computed message reads at least one message: one
        that reads none is a constant."""
        net = self.ctx.net
        kind, x = key[0], key[1]
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
        vec, z = out
        return vec, (scale[0] * z[0], scale[1] * z[1])

    def belief(self, x: str) -> IntervalVector:
        """Belief bounds at x; at a pinned node, the indicator of its state."""
        (lam, _), (pvec, _) = self._root(x)
        k = self.pinned.get(x)
        if k is not None:
            if pvec.hi[k] <= 0.0:
                raise ConflictingEvidenceError(
                    f"observed state {k} of {x!r} has zero probability"
                )
            return IntervalVector.indicator(len(pvec), k)
        return _normalized_product(lam, [pvec])[0]

    def mass(self, x: str) -> tuple[float, float]:
        """Evidence mass of the piece of the working graph holding x, as a
        float pair; every unpinned member of a singly connected piece
        gives the same total."""
        (lam, ls), (pvec, ps) = self._root(x)
        k = self.pinned.get(x)
        if k is not None:
            return ps[0] * pvec.lo[k], ps[1] * pvec.hi[k]
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
        width = self.target_width
        if width is not None and (isinstance(width, bool) or not 0.0 <= width <= 1.0):
            raise ValueError("target width must lie in [0, 1]")
        if self.threshold is not None:
            state, direction, p = self.threshold
            if isinstance(state, bool) or not isinstance(state, int):
                raise ValueError(f"threshold state must be an int, not {state!r}")
            if direction not in (">", "<"):
                raise ValueError("threshold direction must be '>' or '<'")
            if isinstance(p, bool) or not 0.0 <= p <= 1.0:
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
    message reused from the cache is not a visit, and neither is an
    alias, which a sweep takes as its source's value, or a constant,
    which it reads as its value; neither is ever computed (see the
    module docstring).
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
    breadth-first growth: every found arc enters at once, unsorted.

    The active set is one piece: growth starts from a connected set (as
    ``ActiveSet.validate`` requires) and each new node joins through an
    arc.  So an arc between active nodes always closes a loop, and only
    the nodes the last round added (``fresh``) can have relevant
    neighbors outside.  A round reads the arcs of the nodes it adds (the
    first round of a growth also its start set's) and the arcs still
    ``waiting``: an arc between two older nodes was found when the later
    of them joined, and entered, waited or was refused then.  So a round
    costs what it adds, not the size of the active set.

    One ``step`` call runs as many rounds as the pacing between two
    evaluations needs, on mutable node and arc sets, and builds one
    ``ActiveSet`` at the end.  An object serves one growth; a set that
    ``step`` did not last return starts a new one from all its nodes.
    ``answer_query`` builds one per query from ``LOOP_DELAYS``, so no
    waiting round outlives its query.
    """

    def __init__(self, delay: int | None):
        if delay is not None and delay < 0:
            raise ValueError(f"loop delay must be nonnegative or None, not {delay}")
        self.delay = delay
        self.round, self.fresh, self.waiting, self.last = 0, frozenset(), {}, None

    def step(self, net: BeliefNetwork, active: ActiveSet, relevant: set[str], size: int) -> ActiveSet | None:
        """The active set after the rounds that change it and grow it to
        at least ``size`` nodes, or to the fixed point of growth; None
        when ``active`` is already at the fixed point.  A ``size`` the set
        already holds gives the next different set."""
        start = ()  # nodes whose arcs the first round reads beside its new ones
        if active is not self.last:
            self.round, self.fresh, self.waiting, start = 0, active.nodes, {}, active.nodes
        by_id, children, order = net._by_id, net._children, net._order
        nodes, arcs, waiting = set(active.nodes), set(active.arcs), self.waiting
        changed = False
        while True:
            self.round += 1
            new = {w for v in self.fresh for w in net.skeleton_neighbors(v)
                   if w in relevant and w not in nodes}
            nodes |= new
            touched, self.fresh, start = new.union(start), new, ()
            found = {(p, c) for c in touched for p in by_id[c].parents if p in nodes}
            found.update([(p, c) for p in touched for c in children[p] if c in nodes])
            count = len(arcs)
            if self.delay == 0:
                arcs |= found
            else:
                candidates = sorted({a for a in found if a not in arcs} | waiting.keys(),
                                    key=lambda a: (order[a[0]], order[a[1]]))
                sets = UnionFind()  # this round's new nodes; None is the set before it
                for p, c in candidates:
                    if sets.union(p if p in new else None, c if c in new else None):
                        arcs.add((p, c))
                    elif self.delay is not None:
                        if self.round - waiting.setdefault((p, c), self.round) >= self.delay:
                            del waiting[(p, c)]
                            arcs.add((p, c))
            if new or len(arcs) > count:
                changed = True
                if len(nodes) >= size:
                    break
            elif not waiting:
                if not changed:
                    return None
                break
        self.last = ActiveSet(frozenset(nodes), frozenset(arcs))
        return self.last


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
    alone; each later one follows one growth call, ``DelayedLoops.step``
    with a size of ``PACING_FACTOR`` (g) times the nodes of the last
    evaluated set, which grows the active set to that size or to its
    fixed point.  The fixed point is always evaluated before the status
    becomes saturated, when the next call finds nothing to add (the
    module docstring gives the cost bound).  The stop criterion and the
    budget are tested after each evaluation.

    ``budget_ms`` is also tested before each cutset instance of a
    conditioned evaluation, so such an evaluation runs past it by at
    most one instance's run.  One that runs out of budget is dropped:
    the result keeps the evaluations already finished, with status
    budget.  The first evaluation covers the query alone, a tree that
    is never conditioned, so a result always holds at least one bound.

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
    if budget_ms is not None:
        ctx.deadline = time.perf_counter() + budget_ms / 1000.0
    while True:
        t0 = time.perf_counter()
        try:
            bel, v = evaluate(net, active, ctx, cache)
        except _BudgetSpent:
            status = BUDGET
            break
        timings.append(time.perf_counter() - t0)
        bels.append(bel)
        sizes.append(len(active.nodes))
        visits += v
        if stop.met(bel):
            status = SATISFIED
            break
        if ctx.deadline is not None and time.perf_counter() >= ctx.deadline:
            status = BUDGET
            break
        grown = growth.step(net, active, relevant, PACING_FACTOR * len(active.nodes))
        if grown is None:
            status = SATURATED
            break
        active = grown
    return QueryResult(
        query=query,
        status=status,
        bels=bels,
        active_nodes=sizes,
        elapsed=timings,
        node_visits=visits,
        threshold_answer=stop.verdict(bel),
    )

"""Multiply connected inference over the active set.

Cycles wholly inside the active set that evidence leaves open are
handled by clamping a loop cutset: every joint cutset instance is
evaluated as an ordinary singly connected propagation, and the
per-instance answers are mixed with the constrained dot product under
interval instance weights.  A set whose loops evidence already cuts (an
empty cut) is one plain run.  Cycles only partially inside the active
set need no special handling, because the absent arcs already
contribute vacuous messages.

The loopy part of a connected active set is one loop cluster, its
skeleton's 2-core (``find_loop_clusters``).  A conditioned evaluation
costs one run per instance, the product of the cut nodes' state counts,
so the cut is chosen for that product (``select_loop_cutset``): a greedy
over the 2-core of the arcs not yet cut picks the tail with the fewest
states per core arc it cuts, and picks that later ones made redundant
are dropped.

Instance weights come from the evidence masses the runs track (the
product of every normalization they discard), multiplied as float
pairs; no ``Interval`` is built here.  The weight vector is normalized
jointly, which makes it coherent by construction and keeps the true
instance distribution inside it, so by total probability the mixture
bounds the belief as it stands.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from typing import Mapping

from .engine import ActiveSet, _BudgetSpent, _Context, _Run, _column_bounds
from .intervals import (
    ConflictingEvidenceError,
    IntervalVector,
    _dot_table,
    _indicator,
    _normalized,
    _orders,
    _spare,
    _vacuous,
)
from .network import BeliefNetwork, LoopCluster, UnionFind, _two_core, find_loop_clusters, skeleton_acyclic

# Most joint cutset instances one conditioned evaluation may run.
INSTANCE_CAP = 65536


class CutsetOverflowError(RuntimeError):
    """The joint cutset instance space exceeds ``INSTANCE_CAP``."""


def select_loop_cutset(
    net: BeliefNetwork,
    cluster: LoopCluster,
    exclude: frozenset[str] = frozenset(),
    presplit: frozenset[str] = frozenset(),
) -> tuple[str, ...]:
    """Pick nodes whose clamping makes the cluster singly connected, with
    few joint instances (the product of their state counts).

    A weighted 2-core greedy (Becker & Geiger, UAI 1994).  Clamping a
    node silences its out-arcs, so ``presplit`` nodes (already
    observed) cut for free.  Repeat: prune the skeleton of the arcs whose
    tail is not yet split to its 2-core, and stop once it is empty; else
    split the tail ``v`` in the core, outside ``exclude``, with the least
    ``(log2(states) / d(v), states, network order)``.  ``d(v)`` counts
    all of v's core arcs when v has at most one in-arc in the core, and
    only its core out-arcs otherwise: clamping v cuts every core cycle
    through v except those that enter v twice.  Then drop each pick whose
    removal still leaves the cluster cut, the most states first and,
    among equal counts, the latest in network order first.

    Every skeleton cycle of a DAG has at least two distinct arc tails,
    so the result cuts the cluster whenever ``exclude`` holds at most
    one node; otherwise the picks made until no candidate is left are
    returned.
    """
    split = set(presplit)
    chosen: list[str] = []
    while True:
        core = _two_core([(p, c) for p, c in cluster.arcs if p not in split])
        ins, outs = Counter(c for _, c in core), Counter(p for p, _ in core)
        ranked = []
        for v in outs.keys() - exclude:
            d = outs[v] + ins[v] if ins[v] <= 1 else outs[v]
            k = net.state_count(v)
            ranked.append((math.log2(k) / d, k, net.order(v), v))
        if not ranked:
            break
        v = min(ranked)[-1]
        split.add(v)
        chosen.append(v)
    for v in sorted(chosen, key=lambda v: (-net.state_count(v), -net.order(v))):
        if skeleton_acyclic(cluster.arcs, split - {v}):
            split.remove(v)
    return tuple(v for v in chosen if v in split)


def _pinned_column_factor(
    net: BeliefNetwork, active: ActiveSet, node: str, pinned: Mapping[str, int]
) -> tuple[float, float]:
    # Table mass of a clamped node whose parents are all pinned or outside
    # the active set: sum of its column under indicator or vacuous weights.
    msgs = []
    for p in net.parents(node):
        if (p, node) in active.arcs and p in pinned:
            msgs.append(_indicator(net.state_count(p), pinned[p]))
        else:
            msgs.append(_vacuous(net.state_count(p)))
    lows, highs = _column_bounds(net, node, msgs)
    return lows[pinned[node]], highs[pinned[node]]


def _mass_plan(ctx: _Context, active: ActiveSet, cut: list[str], observed: Mapping[str, int]):
    """Where each instance's mass is accounted for.

    Clamping silences a node's outgoing arcs, which can split the
    working graph into several pieces.  Every piece the clamps touch,
    from above through a clamped table or from below through a clamped
    indicator, carries instance-dependent mass and must be weighed; its
    total is read at one representative member.  Pinned nodes left with
    no unpinned anchor contribute their table column directly.  Pieces
    the clamps never touch contribute the same factor to every
    instance, which the joint weight normalization cancels.
    """
    net = ctx.net
    split = set(cut).union(observed)
    sets = UnionFind()
    # A pinned node's table still ties it to its unpinned parents, so
    # only arcs leaving a pinned node break connectivity.
    for p, c in active.arcs:
        if p not in split:
            sets.union(p, c)
    query_root = sets.find(ctx.query)
    touched: set[str] = set()
    for c in cut:
        touched.add(sets.find(c))
        for w in net.children(c):
            if (c, w) in active.arcs:
                touched.add(sets.find(w))
    representatives: list[str] = []
    direct_factors: list[str] = []
    members: dict[str, list[str]] = {}
    for v in active.nodes:
        members.setdefault(sets.find(v), []).append(v)
    for root in touched:
        if root == query_root:
            continue
        free = [v for v in members[root] if v not in split]
        if free:
            representatives.append(min(free, key=net.order))
        else:
            # Piece of pinned nodes only; each contributes its own column.
            direct_factors.extend(members[root])
    return sorted(representatives, key=net.order), sorted(direct_factors, key=net.order)


def _conditioned_bel(
    ctx: _Context, active: ActiveSet, cut: list[str], observed: Mapping[str, int], cache: dict
) -> tuple[IntervalVector, int]:
    net, query = ctx.net, ctx.query
    total = math.prod(map(net.state_count, cut))
    if total > INSTANCE_CAP:
        raise CutsetOverflowError(f"{total} cutset instances exceed the cap of {INSTANCE_CAP}")
    representatives, direct_factors = _mass_plan(ctx, active, cut, observed)
    # A clamped node's indicator suppresses its own boundary: evidence
    # hanging off its absent arcs would have scaled each instance by an
    # unknown likelihood, so the instance weights must absorb a [0, 1]
    # factor until those arcs join the active set.
    boundary_unknown = any(
        (c, w) not in active.arcs and w in ctx
        for c in cut
        for w in net.children(c)
    )
    bels: list[IntervalVector] = []
    masses: list[tuple[float, float]] = []
    visits = 0
    for inst in itertools.product(*[range(net.state_count(c)) for c in cut]):
        if ctx.deadline is not None and time.perf_counter() >= ctx.deadline:
            raise _BudgetSpent
        pinned = {**observed, **dict(zip(cut, inst))}
        run = _Run(ctx, active, pinned, cache)
        try:
            vec, (lo, hi) = run.belief(query), run.mass(query)
            factors = [run.mass(r) for r in representatives]
            factors += [_pinned_column_factor(net, active, c, pinned) for c in direct_factors]
            for f_lo, f_hi in factors:
                lo, hi = lo * f_lo, hi * f_hi
            if boundary_unknown:
                lo = 0.0
        except ConflictingEvidenceError:
            vec, lo, hi = _vacuous(net.state_count(query)), 0.0, 0.0
        bels.append(vec)
        masses.append((lo, hi))
        visits += run.visits
    weights, _ = _normalized(*zip(*masses))
    los, his = list(zip(*[b.lo for b in bels])), list(zip(*[b.hi for b in bels]))
    lows, highs = _dot_table(los, his, list(map(_orders, los, his)), weights, _spare(weights, len(bels)))
    # Not normalized again: by total probability the mixture is a bound, and
    # on netgen loopy sweeps a second normalization widened it by up to 0.92.
    lo, hi = zip(*[(min(max(a, 0.0), 1.0), min(max(b, 0.0), 1.0)) for a, b in zip(lows, highs)])
    return IntervalVector._of(lo, hi), visits


def evaluate(
    net: BeliefNetwork, active: ActiveSet, ctx: _Context, cache: dict
) -> tuple[IntervalVector, int]:
    """Belief bounds at ``ctx.query`` over a connected active set, plus
    work count.

    The active set must be connected, as ``propagate`` validates and
    growth keeps it; then one with an arc fewer than its nodes is a tree
    and is evaluated without a search for loop clusters.  Otherwise its
    one cluster, the 2-core, holds every cycle, so cutting it cuts the
    set.  ``cache`` carries messages between evaluations (see ``engine``).
    """
    query = ctx.query
    if len(active.arcs) >= len(active.nodes):
        observed = {v: ctx.evidence[v] for v in active.nodes if v in ctx.evidence}
        exclude, presplit = frozenset({query}), frozenset(observed)
        clusters = find_loop_clusters(active.arcs)
        cut = [c for cl in clusters for c in select_loop_cutset(net, cl, exclude, presplit)]
        if cut:
            return _conditioned_bel(ctx, active, sorted(cut, key=net.order), observed, cache)
    run = _Run(ctx, active, ctx.evidence, cache)
    return run.belief(query), run.visits


def propagate(
    net: BeliefNetwork,
    active: ActiveSet,
    evidence: Mapping[str, int],
    query: str,
) -> IntervalVector:
    """Belief bounds at the query from one evaluation over any active set,
    under ``evidence`` laid over the evidence stored on the network.

    Loops wholly inside the active set that evidence leaves open are
    conditioned away; loops the active set only grazes are already singly
    connected there and propagate with vacuous messages on every absent arc.
    """
    active.validate(net, query)
    bel, _ = evaluate(net, active, _Context(net, evidence, query), {})
    return bel

"""Multiply connected inference over the active set.

Cycles wholly inside the active set are handled by clamping a loop
cutset: every joint cutset instance is evaluated as an ordinary
singly connected propagation, and the per-instance answers are mixed
with the constrained dot product under interval instance weights.
Cycles only partially inside the active set need no special handling,
because the absent arcs already contribute vacuous messages.

Instance weights come from the evidence masses the runs track (the
product of every normalization they discard), multiplied as float
pairs; no ``Interval`` is built here.  The weight vector is normalized
jointly, which makes it coherent by construction and keeps the true
instance distribution inside it.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Mapping

from .engine import DEFAULT_INSTANCE_CAP, ActiveSet, _Context, _Run, _joint_weights
from .intervals import (
    ConflictingEvidenceError,
    IntervalVector,
    _dot_bounds,
    _orders,
    _spare,
    normalize,
    vacuous,
)
from .network import BeliefNetwork, LoopCluster, UnionFind, find_loop_clusters, skeleton_acyclic


class CutsetOverflowError(RuntimeError):
    """The joint cutset instance space exceeds the configured cap."""


def select_loop_cutset(
    net: BeliefNetwork,
    cluster: LoopCluster,
    exclude: frozenset[str] = frozenset(),
    presplit: frozenset[str] = frozenset(),
) -> tuple[str, ...]:
    """Pick nodes whose clamping makes the cluster singly connected.

    Greedy by descending skeleton degree inside the cluster, ties by
    network order.  Only nodes with an outgoing arc on some cycle can
    cut it, so pure sinks are never candidates.  ``presplit`` nodes
    (already observed) cut for free and are not selected again.
    """
    arcs = sorted(cluster.arcs, key=lambda a: (net.order(a[0]), net.order(a[1])))
    degree = Counter(v for arc in arcs for v in arc)
    tails = {p for p, _ in arcs if p not in exclude and p not in presplit}
    candidates = sorted(tails, key=lambda v: (-degree[v], net.order(v)))
    chosen: list[str] = []
    split = set(presplit)
    for v in candidates:
        if skeleton_acyclic(arcs, split):
            break
        split.add(v)
        chosen.append(v)
    if not skeleton_acyclic(arcs, split):
        raise RuntimeError(f"could not cut all loops in cluster {sorted(cluster.nodes)}")
    return tuple(chosen)


def _pinned_column_factor(
    net: BeliefNetwork, active: ActiveSet, node: str, pinned: Mapping[str, int]
) -> tuple[float, float]:
    # Table mass of a clamped node whose parents are all pinned or outside
    # the active set: sum of its column under indicator or vacuous weights.
    msgs = []
    for p in net.parents(node):
        if (p, node) in active.arcs and p in pinned:
            msgs.append(IntervalVector.indicator(net.state_count(p), pinned[p]))
        else:
            msgs.append(vacuous(net.state_count(p)))
    columns, orders, _ = net._kernel_tables(node)
    column, order = columns[pinned[node]], orders[pinned[node]]
    weights = _joint_weights(msgs)
    return _dot_bounds(column, column, weights, _spare(weights, len(column)), order)


def _mass_plan(ctx: _Context, active: ActiveSet, cut: list[str]):
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
    split = set(cut) | {v for v in ctx.evidence if v in active.nodes}
    nodes = sorted(active.nodes, key=net.order)
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
    for v in nodes:
        members.setdefault(sets.find(v), []).append(v)
    for root in touched:
        if root == query_root:
            continue
        free = [v for v in members[root] if v not in split]
        if free:
            representatives.append(free[0])
        else:
            # Piece of pinned nodes only; each contributes its own column.
            direct_factors.extend(members[root])
    return sorted(representatives, key=net.order), sorted(set(direct_factors), key=net.order)


def _conditioned_bel(
    ctx: _Context,
    active: ActiveSet,
    cut: list[str],
    instance_cap: int,
    cache: dict | None,
) -> tuple[IntervalVector, int]:
    net, query = ctx.net, ctx.query
    n_q = net.state_count(query)
    total = math.prod(map(net.state_count, cut))
    if total > instance_cap:
        raise CutsetOverflowError(
            f"{total} cutset instances exceed the cap of {instance_cap}"
        )
    representatives, direct_factors = _mass_plan(ctx, active, cut)
    observed = {v: s for v, s in ctx.evidence.items() if v in active.nodes}
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
        clamps = dict(zip(cut, inst))
        pinned = {**observed, **clamps}
        run = _Run(ctx, active, clamps, cache)
        try:
            vec, (lo, hi) = run.belief(query), run.mass(query)
            factors = [run.mass(r) for r in representatives]
            factors += [_pinned_column_factor(net, active, c, pinned) for c in direct_factors]
            for f_lo, f_hi in factors:
                lo, hi = lo * f_lo, hi * f_hi
            if boundary_unknown:
                lo = 0.0
        except ConflictingEvidenceError:
            vec, lo, hi = vacuous(n_q), 0.0, 0.0
        bels.append(vec)
        masses.append((lo, hi))
        visits += run.visits
    weights = normalize(IntervalVector.from_bounds(*zip(*masses)))
    spare = _spare(weights, len(bels))
    columns = zip(zip(*[b.lo for b in bels]), zip(*[b.hi for b in bels]))
    out = [_dot_bounds(lo, hi, weights, spare, _orders(lo, hi)) for lo, hi in columns]
    return normalize(IntervalVector.from_bounds(*zip(*out))), visits


def evaluate(
    net: BeliefNetwork,
    active: ActiveSet,
    ctx: _Context,
    instance_cap: int,
    cache: dict | None = None,
) -> tuple[IntervalVector, int]:
    """Belief bounds at ``ctx.query`` over any active set, plus work count."""
    query = ctx.query
    nodes = sorted(active.nodes, key=net.order)
    arcs = sorted(active.arcs, key=lambda a: (net.order(a[0]), net.order(a[1])))
    clusters = find_loop_clusters(nodes, arcs)
    if not clusters:
        run = _Run(ctx, active, {}, cache)
        return run.belief(query), run.visits
    observed = frozenset(v for v in ctx.evidence if v in active.nodes)
    cut: list[str] = []
    for cl in clusters:
        cut.extend(
            select_loop_cutset(net, cl, exclude=frozenset({query}), presplit=observed)
        )
    cut = sorted(set(cut), key=net.order)
    if not skeleton_acyclic(arcs, set(cut) | set(observed)):
        raise RuntimeError("cutset failed to cut the active set")
    return _conditioned_bel(ctx, active, cut, instance_cap, cache)


def propagate(
    net: BeliefNetwork,
    active: ActiveSet,
    evidence: Mapping[str, int],
    query: str,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> IntervalVector:
    """Belief bounds at the query from one evaluation over any active set,
    under ``evidence`` laid over the evidence stored on the network.

    Loops wholly inside the active set are conditioned away; loops the
    active set only grazes are already singly connected there and
    propagate with vacuous messages on every absent arc.
    """
    active.validate(net, query)
    bel, _ = evaluate(net, active, _Context(net, evidence, query), instance_cap=instance_cap)
    return bel

"""Multiply connected inference over the active set.

Cycles wholly inside the active set are handled by clamping a loop
cutset: every joint cutset instance is evaluated as an ordinary
singly connected propagation, and the per-instance answers are mixed
with the constrained dot product under interval instance weights.
Cycles only partially inside the active set need no special handling,
because the absent arcs already contribute vacuous messages.

Instance weights come from the evidence-mass intervals the runs track
(the product of every normalization they discard).  The weight vector
is normalized jointly, which makes it coherent by construction and
keeps the true instance distribution inside it.
"""

from __future__ import annotations

import itertools
from typing import Mapping

from .engine import DEFAULT_INSTANCE_CAP, ActiveSet, _Context, _Run, _column_mass, _joint_weights
from .intervals import (
    ZERO,
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    iv_mul,
    normalize,
    simplex_dot,
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
    nodes = sorted(cluster.nodes, key=net.order)
    arcs = sorted(cluster.arcs, key=lambda a: (net.order(a[0]), net.order(a[1])))
    degree = {v: 0 for v in nodes}
    for p, c in arcs:
        degree[p] += 1
        degree[c] += 1
    candidates = [
        v
        for v in nodes
        if v not in exclude
        and v not in presplit
        and any(p == v for (p, _) in arcs)
    ]
    candidates.sort(key=lambda v: (-degree[v], net.order(v)))
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
    net: BeliefNetwork,
    active: ActiveSet,
    node: str,
    state: int,
    pinned: Mapping[str, int],
) -> Interval:
    # Table mass of a clamped node whose parents are all pinned or outside
    # the active set: sum of its column under indicator or vacuous weights.
    msgs = []
    for p in net.parents(node):
        if (p, node) in active.arcs and p in pinned:
            msgs.append(IntervalVector.indicator(net.state_count(p), pinned[p]))
        else:
            msgs.append(vacuous(net.state_count(p)))
    return _column_mass(net.node(node), state, _joint_weights(msgs))


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
    total = 1
    for c in cut:
        total *= net.state_count(c)
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
        (c, w) not in active.arcs and w in ctx.ancestral
        for c in cut
        for w in net.children(c)
    )
    bels: list[IntervalVector] = []
    masses: list[Interval] = []
    visits = 0
    for inst in itertools.product(*[range(net.state_count(c)) for c in cut]):
        clamps = dict(zip(cut, inst))
        pinned = {**observed, **clamps}
        run = _Run(ctx, active, clamps, cache)
        try:
            vec, mass = run.belief(query)
            for r in representatives:
                mass = iv_mul(mass, run.component_mass(r))
            for c in direct_factors:
                mass = iv_mul(mass, _pinned_column_factor(net, active, c, pinned[c], pinned))
            if boundary_unknown:
                mass = Interval(0.0, mass.hi)
        except ConflictingEvidenceError:
            vec, mass = vacuous(n_q), ZERO
        bels.append(vec)
        masses.append(mass)
        visits += run.visits
    weights = normalize(IntervalVector(masses))
    columns = zip(zip(*[b.lo for b in bels]), zip(*[b.hi for b in bels]))
    out = [simplex_dot(IntervalVector.from_bounds(lo, hi), weights) for lo, hi in columns]
    return normalize(IntervalVector(out)), visits


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
        vec, _ = run.belief(query)
        return vec, run.visits
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
    """Belief bounds at the query from one evaluation over any active set.

    Loops wholly inside the active set are conditioned away; loops the
    active set only grazes are already singly connected there and
    propagate with vacuous messages on every absent arc.
    """
    active.validate(net, query)
    bel, _ = evaluate(net, active, _Context(net, evidence, query), instance_cap=instance_cap)
    return bel

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
from dataclasses import dataclass
from typing import Mapping

from .engine import ActiveSet, MessageCache, _Context, _Run, _column_mass, _joint_weights
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

DEFAULT_INSTANCE_CAP = 65536


class CutsetOverflowError(RuntimeError):
    """The joint cutset instance space exceeds the configured cap."""


@dataclass(frozen=True)
class CutsetAssignment:
    cutset: tuple[str, ...]
    instance: tuple[int, ...]
    weight: Interval


@dataclass(frozen=True)
class ConditioningTable:
    """Per-instance conditional bounds and mixing weights."""

    cutset: tuple[str, ...]
    assignments: tuple[CutsetAssignment, ...]
    conditionals: tuple[IntervalVector, ...]

    def weight_vector(self) -> IntervalVector:
        return IntervalVector(a.weight for a in self.assignments)


def clusters_by_coverage(
    clusters: tuple[LoopCluster, ...], active: ActiveSet
) -> tuple[tuple[LoopCluster, ...], tuple[LoopCluster, ...]]:
    """Split loop clusters into wholly contained and partially contained.

    A cluster counts as whole only when all of its nodes and all of its
    arcs are in the active set; clusters the active set does not touch
    at all appear in neither list.
    """
    whole = []
    partial = []
    for cl in clusters:
        if cl.nodes <= active.nodes and cl.arcs <= active.arcs:
            whole.append(cl)
        elif cl.nodes & active.nodes:
            partial.append(cl)
    return tuple(whole), tuple(partial)


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
    ctx: _Context,
    node: str,
    state: int,
    pinned: Mapping[str, int],
) -> Interval:
    # Table mass of a clamped node whose parents are all pinned or outside
    # the active set: sum of its column under indicator or vacuous weights.
    msgs = []
    for p in net.parents(node):
        if (p, node) in ctx.arcs and p in pinned:
            msgs.append(IntervalVector.indicator(net.state_count(p), pinned[p]))
        else:
            msgs.append(vacuous(net.state_count(p)))
    return _column_mass(net.node(node), state, _joint_weights(msgs))


def _mass_plan(net: BeliefNetwork, ctx: _Context, cut: list[str], query: str):
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
    active_nodes = ctx.active.nodes
    split = set(cut) | {v for v in ctx.evidence if v in active_nodes}
    nodes = sorted(active_nodes, key=net.order)
    sets = UnionFind()
    # A pinned node's table still ties it to its unpinned parents, so
    # only arcs leaving a pinned node break connectivity.
    for p, c in ctx.arcs:
        if p not in split:
            sets.union(p, c)
    query_root = sets.find(query)
    touched: set[str] = set()
    for c in cut:
        touched.add(sets.find(c))
        for w in net.children(c):
            if (c, w) in ctx.arcs:
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
    net: BeliefNetwork,
    ctx: _Context,
    cut: list[str],
    query: str,
    instance_cap: int,
    cache: MessageCache | None,
):
    n_q = net.state_count(query)
    total = 1
    for c in cut:
        total *= net.state_count(c)
    if total > instance_cap:
        raise CutsetOverflowError(
            f"{total} cutset instances exceed the cap of {instance_cap}"
        )
    representatives, direct_factors = _mass_plan(net, ctx, cut, query)
    observed = {v: s for v, s in ctx.evidence.items() if v in ctx.active.nodes}
    # A clamped node's indicator suppresses its own boundary: evidence
    # hanging off its absent arcs would have scaled each instance by an
    # unknown likelihood, so the instance weights must absorb a [0, 1]
    # factor until those arcs join the active set.
    boundary_unknown = any(
        (c, w) not in ctx.arcs and w in ctx.ancestral
        for c in cut
        for w in net.children(c)
    )
    bels: list[IntervalVector] = []
    masses: list[Interval] = []
    visits = 0
    instances = list(itertools.product(*[range(net.state_count(c)) for c in cut]))
    for inst in instances:
        clamps = dict(zip(cut, inst))
        pinned = {**observed, **clamps}
        run = _Run(ctx, clamps, cache if not clamps else None)
        try:
            vec, mass = run.belief(query)
            for r in representatives:
                mass = iv_mul(mass, run.component_mass(r))
            for c in direct_factors:
                mass = iv_mul(mass, _pinned_column_factor(net, ctx, c, pinned[c], pinned))
            if boundary_unknown:
                mass = Interval(0.0, mass.hi)
        except ConflictingEvidenceError:
            vec, mass = vacuous(n_q), ZERO
        bels.append(vec)
        masses.append(mass)
        visits += run.visits
    weights = normalize(IntervalVector(masses))
    assert weights.is_coherent()  # joint normalization guarantees this
    out = []
    for i in range(n_q):
        column = IntervalVector(b[i] for b in bels)
        out.append(simplex_dot(column, weights))
    bel = normalize(IntervalVector(out))
    table = ConditioningTable(
        cutset=tuple(cut),
        assignments=tuple(
            CutsetAssignment(tuple(cut), inst, w)
            for inst, w in zip(instances, weights)
        ),
        conditionals=tuple(bels),
    )
    return bel, visits, table


def evaluate(
    net: BeliefNetwork,
    active: ActiveSet,
    evidence: Mapping[str, int],
    query: str,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    cache: MessageCache | None = None,
) -> tuple[IntervalVector, int]:
    """Belief bounds at the query over any active set, plus work count."""
    ctx = _Context(net, active, evidence, query)
    nodes = sorted(active.nodes, key=net.order)
    arcs = sorted(active.arcs, key=lambda a: (net.order(a[0]), net.order(a[1])))
    clusters = find_loop_clusters(nodes, arcs)
    if not clusters:
        run = _Run(ctx, {}, cache)
        vec, _ = run.belief(query)
        return vec, run.visits
    observed = frozenset(v for v in evidence if v in active.nodes)
    cut: list[str] = []
    for cl in clusters:
        cut.extend(
            select_loop_cutset(net, cl, exclude=frozenset({query}), presplit=observed)
        )
    cut = sorted(set(cut), key=net.order)
    if not skeleton_acyclic(arcs, set(cut) | set(observed)):
        raise RuntimeError("cutset failed to cut the active set")
    bel, visits, _ = _conditioned_bel(net, ctx, cut, query, instance_cap, cache)
    return bel, visits


def propagate_mixed(
    net: BeliefNetwork,
    active: ActiveSet,
    evidence: Mapping[str, int],
    query: str,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
) -> IntervalVector:
    """Belief bounds over an active set that may contain loops.

    Loops wholly inside the active set are conditioned away; loops the
    active set only grazes are already singly connected there and
    propagate with vacuous messages on every absent arc.  On a loop-free
    active set this coincides with ``engine.propagate``.
    """
    active.validate(net, query)
    bel, _ = evaluate(net, active, evidence, query, instance_cap=instance_cap)
    return bel


def condition_cluster(
    net: BeliefNetwork,
    cluster: LoopCluster,
    active: ActiveSet,
    evidence: Mapping[str, int],
    target: str,
    instance_cap: int = DEFAULT_INSTANCE_CAP,
    return_table: bool = False,
):
    """Evaluate a wholly contained loop cluster toward a target node.

    Per cutset instance, the whole active set is propagated as usual:
    messages arriving from the surrounding tree sections act as found
    evidence on the cluster boundary, and arcs outside the active set
    stay vacuous.  The per-instance results are then mixed under the
    normalized instance-mass weights.
    """
    active.validate(net, target)
    if not (cluster.nodes <= active.nodes and cluster.arcs <= active.arcs):
        raise ValueError("cluster is not wholly contained in the active set")
    ctx = _Context(net, active, evidence, target)
    observed = frozenset(v for v in evidence if v in active.nodes)
    cut = list(
        select_loop_cutset(net, cluster, exclude=frozenset({target}), presplit=observed)
    )
    if not skeleton_acyclic(active.arcs, set(cut) | set(observed)):
        raise ValueError("active set has loops outside this cluster; use propagate_mixed")
    bel, _, table = _conditioned_bel(net, ctx, cut, target, instance_cap, None)
    if return_table:
        return bel, table
    return bel

"""Exact references and the soundness gate, computed off the clock.

Polytrees and chains are answered by ``oracle.polytree_exact``.  Loopy
networks are answered by variable elimination: the conditional
probability tables of the ancestral closure of the query and the
evidence, sliced at the evidence, are contracted by ``numpy.einsum``
down to the query axis.

Both rest on one fact: nodes outside an ancestral set that holds the
query and the evidence are barren and sum out to one, so dropping them
leaves the posterior exactly as it was.
"""

from __future__ import annotations

import sys
from typing import Mapping, Sequence

import numpy as np

from boundprop.intervals import ConflictingEvidenceError, IntervalVector
from boundprop.network import BeliefNetwork
from boundprop.oracle import polytree_exact

# The acceptance suite's containment slack.
SLACK = 1e-9

# numpy.einsum accepts at most 52 distinct axis labels.
EINSUM_LABELS = 52

# polytree_exact recurses once per node along the longest path from the
# query; the limit is raised only around reference calls.
REFERENCE_RECURSION_LIMIT = 200_000


class NoReference(Exception):
    """The reference cannot answer this query."""


def ancestral_subnetwork(net: BeliefNetwork, seed) -> BeliefNetwork:
    """The network cut down to ``net.ancestral_closure(seed)``.

    Every query whose node and evidence lie in ``seed`` has the same
    posterior here, and ``polytree_exact`` walks only this part.
    """
    keep = net.ancestral_closure(seed)
    return BeliefNetwork(net.name, [n for n in net.nodes if n.id in keep])


def ve_marginal(net: BeliefNetwork, evidence: Mapping[str, int], node: str) -> tuple[float, ...]:
    """Exact posterior of ``node`` by variable elimination with einsum."""
    n = net.state_count(node)
    if node in evidence:
        return tuple(1.0 if i == evidence[node] else 0.0 for i in range(n))
    closure = sorted(net.ancestral_closure({node, *evidence}), key=net.order)
    free = [v for v in closure if v not in evidence]
    if len(free) > EINSUM_LABELS:
        raise NoReference(f"{len(free)} unobserved variables exceed einsum's labels")
    label = {v: i for i, v in enumerate(free)}
    operands: list = []
    for v in closure:
        axes = (*net.parents(v), v)
        table = np.asarray(net.node(v).cpt, dtype=np.float64).reshape(
            [net.state_count(a) for a in axes]
        )
        index = tuple(evidence[a] if a in evidence else slice(None) for a in axes)
        operands += [table[index], [label[a] for a in axes if a not in evidence]]
    vec = np.einsum(*operands, [label[node]], optimize="greedy")
    total = float(vec.sum())
    if not total > 0.0:
        raise ConflictingEvidenceError("evidence has zero probability")
    return tuple(float(x) for x in vec / total)


def exact(
    net: BeliefNetwork, evidence: Mapping[str, int], node: str, polytree: bool
) -> tuple[float, ...]:
    """The reference posterior of ``node``; raises NoReference if there is none.

    ``polytree`` is ``is_polytree(net)``, passed in because it walks the
    whole network.
    """
    if not polytree:
        return ve_marginal(net, evidence, node)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, REFERENCE_RECURSION_LIMIT))
    try:
        return polytree_exact(net, evidence, node)
    except RecursionError as exc:
        raise NoReference("polytree_exact ran out of recursion depth") from exc
    finally:
        sys.setrecursionlimit(limit)


def misses(bels: Sequence[IntervalVector], want: Sequence[float]) -> int:
    """Iterations whose bounds fail to contain the reference."""
    return sum(1 for bel in bels if not bel.contains_point(want, SLACK))

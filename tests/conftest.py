import random

import pytest

from boundprop import parse_network
from boundprop.intervals import COHERENCE_TOL, ConflictingEvidenceError
from boundprop.netgen import sample_skewed_row
from boundprop.oracle import enumerate_marginal


def build_net(name, spec, seed=None, state_counts=None):
    """Assemble a network from {node: parents}, with seeded random rows.

    Node order follows the dict order.  With no seed, every row is
    uniform over the node's states.
    """
    rng = random.Random(seed) if seed is not None else None
    counts = state_counts or {}
    lines = [f"network {name}"]
    for node in spec:
        k = counts.get(node, 2)
        lines.append(f"node {node} states " + " ".join(f"s{i}" for i in range(k)))
    for node, parents in spec.items():
        lines.append(f"parents {node}" + ("" if not parents else " " + " ".join(parents)))
    for node, parents in spec.items():
        k = counts.get(node, 2)
        rows = 1
        for p in parents:
            rows *= counts.get(p, 2)
        lines.append(f"cpt {node}")
        for _ in range(rows):
            if rng is None:
                lines.append(" ".join(f"{1.0 / k:.17g}" for _ in range(k)))
            else:
                lines.append(" ".join(f"{v:.17g}" for v in sample_skewed_row(k, rng)))
    return parse_network("\n".join(lines))


def grid_spec(n):
    """An n x n grid, each node a child of its upper and left neighbours."""
    return {
        f"g{r}_{c}": [f"g{r - 1}_{c}"] * (r > 0) + [f"g{r}_{c - 1}"] * (c > 0)
        for r in range(n) for c in range(n)
    }


CHAIN_AB = """
network chain
node A states t f
node B states t f
parents A
parents B A
cpt A
0.3 0.7
cpt B
0.9 0.1
0.2 0.8
"""


@pytest.fixture
def chain_ab():
    return parse_network(CHAIN_AB)


@pytest.fixture
def diamond():
    # A -> B, A -> C, B -> D, C -> D
    return build_net(
        "diamond",
        {"A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"]},
        seed=11,
    )


@pytest.fixture
def double_diamond():
    # Two diamonds A-B-D-C and E-F-H-G joined by the arc D -> E.
    return build_net(
        "double",
        {
            "A": [], "B": ["A"], "C": ["A"], "D": ["B", "C"],
            "E": ["D"], "F": ["E"], "G": ["E"], "H": ["F", "G"],
        },
        seed=7,
    )


@pytest.fixture
def figure_net():
    # Y -> A -> {B, C}, {B, C} -> D -> X: one loop A-B-D-C plus stems.
    return build_net(
        "figure",
        {"Y": [], "A": ["Y"], "B": ["A"], "C": ["A"], "D": ["B", "C"], "X": ["D"]},
        seed=23,
    )


class NoCache(dict):
    """A message cache that keeps nothing: every lookup misses, so an
    evaluation given one computes every message it needs afresh."""

    def __setitem__(self, key, value):
        pass


def is_coherent(v):
    """True when the box of the interval vector ``v`` still holds a
    distribution: sum(lo) <= 1 <= sum(hi), up to ``COHERENCE_TOL``."""
    return sum(v.lo) <= 1.0 + COHERENCE_TOL and sum(v.hi) >= 1.0 - COHERENCE_TOL


def midpoints(v):
    return tuple(0.5 * (a + b) for a, b in zip(v.lo, v.hi))


def clamped_state_range(net, evidence, query, clamp):
    """Per-state min and max of the query conditional over clamp states.

    For each state b of ``clamp``, the query conditional is formed with
    b observed beside the evidence, and the pointwise envelope over the
    b of nonzero probability is returned.  This is the reference
    envelope a propagation that severed the clamp node's outgoing
    influence must still contain.
    """
    if query in evidence or clamp in evidence or clamp == query:
        raise ValueError("query and clamp must be distinct unobserved nodes")
    conditionals = []
    for b in range(net.state_count(clamp)):
        try:
            conditionals.append(enumerate_marginal(net, {**evidence, clamp: b}, query))
        except ConflictingEvidenceError:
            continue
    if not conditionals:
        raise ConflictingEvidenceError("evidence has zero probability")
    return tuple((min(c), max(c)) for c in zip(*conditionals))

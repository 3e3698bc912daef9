"""Random network generation for benchmarks.

All randomness flows through ``random.Random`` (Mersenne Twister), so a
seed fully determines the output on every platform.  Probability rows
are skewed toward extreme values: each entry is m * 10^-e with m drawn
from 1..10 and e from 1..5, then the row is normalized, which spreads
entries over roughly two orders of magnitude.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass

from .network import BeliefNetwork, Evidence, Node

CPT_VALUE_CAP = 1000


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenSpec:
    node_count: int
    topology: str = "polytree"  # or "loopy"
    arc_ratio: float = 1.1
    state_min: int = 2
    state_max: int = 4
    cpt_cap: int = CPT_VALUE_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise ValueError("need at least one node")
        if self.topology not in ("polytree", "loopy"):
            raise ValueError("topology must be 'polytree' or 'loopy'")
        if self.topology == "loopy" and self.arc_ratio < 1.0:
            raise ValueError("arc ratio must be at least 1.0")


def sample_skewed_row(k: int, rng: random.Random) -> tuple[float, ...]:
    """One normalized probability row of length k, skewed toward extremes."""
    if k < 2:
        raise ValueError("rows need at least two entries")
    raw = [rng.randint(1, 10) * 10.0 ** -rng.randint(1, 5) for _ in range(k)]
    total = sum(raw)
    row = [v / total for v in raw]
    # Guard against rounding drift; the final entry absorbs it.
    row[-1] = 1.0 - sum(row[:-1])
    return tuple(row)


def _random_tree_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """Uniform random labeled tree from a random code sequence."""
    if n == 1:
        return []
    if n == 2:
        return [(0, 1)]
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u = heapq.heappop(leaves)
    w = heapq.heappop(leaves)
    edges.append((u, w))
    return edges


def _cpt_size(states: list[int], parents: dict[int, list[int]], v: int) -> int:
    return states[v] * math.prod(states[p] for p in parents[v])


def _build_nodes(
    ids: list[str],
    states: list[int],
    parents: dict[int, list[int]],
    rng: random.Random,
) -> list[Node]:
    nodes = []
    for i, name in enumerate(ids):
        rows = math.prod(states[p] for p in parents[i])
        cpt = tuple(sample_skewed_row(states[i], rng) for _ in range(rows))
        nodes.append(
            Node(
                id=name,
                states=tuple(f"s{j}" for j in range(states[i])),
                parents=tuple(ids[p] for p in parents[i]),
                cpt=cpt,
            )
        )
    return nodes


def _oriented_tree(spec: GenSpec, rng: random.Random):
    """State counts and parent lists of a random tree skeleton with random
    arc orientations, each arc turned around where it would overflow the
    child's table."""
    n = spec.node_count
    states = [rng.randint(spec.state_min, spec.state_max) for _ in range(n)]
    parents: dict[int, list[int]] = {i: [] for i in range(n)}
    for a, b in _random_tree_edges(n, rng):
        if rng.random() < 0.5:
            a, b = b, a
        parents[b].append(a)
        if _cpt_size(states, parents, b) > spec.cpt_cap:
            parents[b].pop()
            parents[a].append(b)
            if _cpt_size(states, parents, a) > spec.cpt_cap:
                raise GenerationError("cannot orient edge within the table cap")
    return states, parents


def gen_polytree(spec: GenSpec) -> BeliefNetwork:
    """Random polytree: random tree skeleton, random arc orientations."""
    rng = random.Random(spec.seed)
    n = spec.node_count
    states, parents = _oriented_tree(spec, rng)
    ids = [f"n{i}" for i in range(n)]
    return BeliefNetwork(f"polytree-{n}-s{spec.seed}", _build_nodes(ids, states, parents, rng))


def gen_loopy(spec: GenSpec) -> BeliefNetwork:
    """Polytree plus random extra arcs up to ceil(ratio * n) arcs total.

    Arcs are added one at a time with the child's table resampled, so
    for a fixed seed the arc set at a higher ratio is a superset of the
    arc set at a lower ratio.
    """
    rng = random.Random(spec.seed)
    n = spec.node_count
    states, parents = _oriented_tree(spec, rng)
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for c, ps in parents.items():
        for p in ps:
            children[p].append(c)

    def descendants(v: int) -> set[int]:
        out = set()
        stack = [v]
        while stack:
            u = stack.pop()
            if u in out:
                continue
            out.add(u)
            stack.extend(children[u])
        return out

    target = math.ceil(spec.arc_ratio * n)
    arc_count = n - 1
    attempts = 0
    max_attempts = 200 * n
    while arc_count < target:
        attempts += 1
        if attempts > max_attempts:
            raise GenerationError(
                f"table cap prevents reaching {target} arcs (stuck at {arc_count})"
            )
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or u in parents[v] or v in parents[u]:
            continue
        if u in descendants(v):
            continue  # would create a directed cycle
        parents[v].append(u)
        if _cpt_size(states, parents, v) > spec.cpt_cap:
            parents[v].pop()
            continue
        children[u].append(v)
        arc_count += 1
    ids = [f"n{i}" for i in range(n)]
    return BeliefNetwork(
        f"loopy-{n}-r{spec.arc_ratio}-s{spec.seed}", _build_nodes(ids, states, parents, rng)
    )


def generate(spec: GenSpec) -> BeliefNetwork:
    if spec.topology == "polytree":
        return gen_polytree(spec)
    return gen_loopy(spec)


def sample_evidence(net: BeliefNetwork, rng: random.Random, fraction_max: float = 0.25) -> Evidence:
    """Observed states for a uniform number of nodes, at most a quarter."""
    n = len(net.nodes)
    count = rng.randint(0, int(n * fraction_max))
    chosen = rng.sample(net.node_ids(), count) if count else []
    return {v: rng.randrange(net.state_count(v)) for v in chosen}

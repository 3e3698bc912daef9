"""Seeded workload generators for the benchmark.

A workload is a list of network texts plus a list of queries against
them.  Everything here is drawn from ``random.Random`` seeded with the
``--seed`` argument, so one seed always gives the same inputs, and all
of it runs before any clock starts.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from boundprop import netgen
from boundprop.network import BeliefNetwork, Node, serialize_network


@dataclass(frozen=True)
class Query:
    net: int  # index into Workload.texts
    node: str
    evidence: dict[str, int]
    strategy: str
    width: float


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    texts: tuple[str, ...]
    queries: tuple[Query, ...]


def _free_nodes(net: BeliefNetwork, evidence: dict[str, int]) -> list[str]:
    return [v for v in net.node_ids() if v not in evidence]


# Polytree queries are drawn from a pool this many times the query count.
POLYTREE_POOL = 4

# How many of every hundred polytree queries have a relevant part of each
# radius, 0, 1, 2, ...: near the radii of random free nodes up to radius
# 3 (a quarter 0, a fifth 1, a seventh 2, a ninth 3), but with the 50th
# and the 90th query well inside a class, radius 1 holding the 31st to
# the 60th and radius 3 the 80th to the 95th, and only five past it.
# Queries of radius 3 and more stop an iteration or more early about a
# third of the time, so at the edge of a class, or in the long tail that
# random nodes have, those stops would move p90 by whole iterations.
POLYTREE_RADII = (30, 30, 19, 16, 3, 1, 1)


def polytree_40k(seed: int, queries: int = 100, nodes: int = 40_000) -> Workload:
    # The whole-network work of every iteration grows with the evidence
    # count.  sample_evidence draws that count uniformly from 0 to 3.3% of
    # the nodes; draws under 3% are redrawn, so every seed sees the same
    # per-iteration cost.  Nine queries in ten take one iteration more
    # than the radius of their relevant part, and the latencies cluster at
    # whole iterations, 20 ms and more apart.  Random
    # queries, or queries matched only on part size, gave one seed 22
    # two-iteration queries and another 32, and moved the median latency
    # by a third.  So every seed queries the same radii (POLYTREE_RADII),
    # taking for each the first node of a random pool with that radius.
    rng = random.Random(seed)
    net = netgen.gen_polytree(netgen.GenSpec(node_count=nodes, seed=rng.getrandbits(32)))
    while len(ev := netgen.sample_evidence(net, rng, 0.033)) < 0.03 * nodes:
        pass
    pool = rng.sample(_free_nodes(net, ev), POLYTREE_POOL * queries)
    below = net.ancestral_closure(ev)
    rad = {v: radius(net, v, relevant(net, v, ev, below)) for v in pool}
    upto = list(itertools.accumulate(POLYTREE_RADII))
    picks = []
    for j in range(queries):
        want = next(r for r, c in enumerate(upto) if (j + 0.5) * upto[-1] < c * queries)
        picks.append(min(pool, key=lambda v: abs(rad[v] - want)))
        pool.remove(picks[-1])
    rng.shuffle(picks)
    return Workload(
        "polytree-40k",
        WHY["polytree-40k"],
        (serialize_network(net),),
        tuple(Query(0, q, ev, "bfs", 0.05) for q in picks),
    )


def gen_chain(n: int, rng: random.Random) -> BeliefNetwork:
    """A Markov chain c0 -> c1 -> ... with 2-4 states per node.

    The state counts come in runs of three, each run 2, 3 and 4 in a
    seeded order, so that every stretch of the chain carries the same mix
    and the cost of a stretch does not hang on a few random draws.
    """
    states = [k for _ in range(0, n, 3) for k in rng.sample((2, 3, 4), 3)][:n]
    nodes = []
    for i, k in enumerate(states):
        nodes.append(
            Node(
                id=f"c{i}",
                states=tuple(f"s{j}" for j in range(k)),
                parents=() if i == 0 else (f"c{i - 1}",),
                cpt=tuple(
                    netgen.sample_skewed_row(k, rng) for _ in range(1 if i == 0 else states[i - 1])
                ),
            )
        )
    return BeliefNetwork(f"chain-{n}", nodes)


def chain_gaps(free: int, count: int, p: float) -> list[int]:
    """``count`` gap lengths summing to ``free``, at the quantiles of a
    geometric distribution with success probability ``p``."""
    raw = [math.log(1.0 - (j + 0.5) / count) / math.log(1.0 - p) for j in range(count)]
    scale = free / sum(raw)
    gaps = [int(g * scale) for g in raw]
    for j in range(free - sum(gaps)):
        gaps[-1 - j % count] += 1
    return gaps


# Share of the chain's nodes that carry evidence.
CHAIN_OBSERVED = 0.08


def chain_500(seed: int, nodes: int = 500) -> Workload:
    # Evidence blocks the chain, so a query's cost is set by the gap of
    # unobserved nodes around it and by where in the gap it sits.  Random
    # evidence positions would let the two or three longest gaps of a seed
    # decide its p90, and random query nodes would move every query within
    # its gap; instead every seed gets the same gap lengths, the ones
    # evidence at random positions gives on average, and queries a third of
    # each gap's nodes, spread evenly over it.  The gaps come in a seeded
    # order, except the last one: queries there see only their ancestors,
    # so the gap at the end of the chain is always the median one.
    rng = random.Random(seed)
    net = gen_chain(nodes, rng)
    k = round(CHAIN_OBSERVED * nodes)
    gaps = sorted(chain_gaps(nodes - k, k + 1, CHAIN_OBSERVED))
    last = gaps.pop(len(gaps) // 2)
    rng.shuffle(gaps)
    gaps.append(last)
    ev: dict[str, int] = {}
    picks: list[str] = []
    pos = 0
    for j, g in enumerate(gaps):
        m = round(g / 3)
        picks += [f"c{pos + (2 * i + 1) * g // (2 * m)}" for i in range(m)]
        pos += g
        if j < len(gaps) - 1:
            ev[f"c{pos}"] = rng.randrange(net.state_count(f"c{pos}"))
            pos += 1
    rng.shuffle(picks)
    return Workload(
        "chain-500",
        WHY["chain-500"],
        (serialize_network(net),),
        tuple(Query(0, q, ev, "bfs", 0.0) for q in picks),
    )


# The polytree and loopy queries are chosen by the structure of their
# relevant part.  The benchmark works that out itself, so that its inputs
# stay the same whatever the package under test changes in its own
# relevance code.


def relevant(
    net: BeliefNetwork, query: str, evidence: dict[str, int], observed_below: set[str] | None = None
) -> set[str]:
    """The query plus the nodes of the ancestral set of the query and the
    evidence that a trail left open by the evidence joins to the query.

    ``observed_below`` is ``net.ancestral_closure(evidence)``; a caller
    asking about many queries under one evidence passes it in.
    """
    if observed_below is None:
        observed_below = net.ancestral_closure(evidence)
    closure = observed_below | net.ancestral_closure({query})
    seen: set[tuple[str, bool]] = set()
    stack = [(query, False)]  # (node, entered from a parent)
    while stack:
        v, down = stack.pop()
        # A trail that leaves the ancestral set never comes back to it.
        if (v, down) in seen or v not in closure:
            continue
        seen.add((v, down))
        if v in evidence and v != query:
            if down:
                stack += [(p, False) for p in net.parents(v)]
            continue
        stack += [(c, True) for c in net.children(v)]
        if not down:
            stack += [(p, False) for p in net.parents(v)]
        elif v in observed_below:
            stack += [(p, False) for p in net.parents(v)]
    return {v for v, _ in seen}


def radius(net: BeliefNetwork, query: str, part: set[str]) -> int:
    """The largest number of arcs, taken either way, from the query to a
    node of ``part``, moving inside ``part``."""
    depth = {query: 0}
    frontier = [query]
    while frontier:
        step = []
        for v in frontier:
            for u in (*net.parents(v), *net.children(v)):
                if u in part and u not in depth:
                    depth[u] = depth[v] + 1
                    step.append(u)
        frontier = step
    return max(depth.values())


def open_cycles(net: BeliefNetwork, nodes: set[str], evidence: dict[str, int]) -> int:
    """Independent cycles of the skeleton on ``nodes`` once the arcs out of
    observed nodes are dropped, as conditioning on them does."""
    root = {v: v for v in nodes}

    def find(v: str) -> str:
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    cycles = 0
    for c in nodes:
        for p in net.parents(c):
            if p in nodes and p not in evidence:
                rp, rc = find(p), find(c)
                if rp == rc:
                    cycles += 1
                else:
                    root[rp] = rc
    return cycles


def _one_open_cycle(net: BeliefNetwork, query: str, evidence: dict[str, int]) -> bool:
    part = relevant(net, query, evidence)
    return open_cycles(net, part, {}) == open_cycles(net, part, evidence) == 1


def loopy_cutset(seed: int, per_shape: int = 18) -> Workload:
    # Every query's relevant part holds exactly one cycle, which its
    # evidence leaves open, so that saturating the active set conditions on
    # a cutset of one node (2 to 4 instances).  With more cycles, of which
    # evidence breaks all but one, the package's greedy cutset choice can
    # still clamp seven nodes.  A free mix of queries spans two
    # orders of magnitude in cost, so a few networks decided each run; past
    # 16 instances a query runs for seconds, and past 65536 it raises
    # CutsetOverflowError.  For the same reason every seed builds the same
    # number of networks of each size and arc ratio, with 10-15% of their
    # nodes observed, and no table holds more than 100 entries: a single
    # node with three four-state parents took most of a run.  Each network
    # gets one query node: the cost of a query depends on its network as
    # much as on the query, and a seed's networks average out better when
    # there are more of them.
    rng = random.Random(seed)
    texts: list[str] = []
    qs: list[Query] = []
    for n, ratio in itertools.product((30, 40, 50), (1.1, 1.2, 1.3)):
        built = 0
        while built < per_shape:
            spec = netgen.GenSpec(
                node_count=n, topology="loopy", arc_ratio=ratio, cpt_cap=100, seed=rng.getrandbits(32)
            )
            try:
                net = netgen.gen_loopy(spec)
            except netgen.GenerationError:  # the cap left no way to place an arc
                continue
            while len(ev := netgen.sample_evidence(net, rng, 0.15)) < 0.10 * n:
                pass
            free = _free_nodes(net, ev)
            rng.shuffle(free)
            q = next((q for q in free if _one_open_cycle(net, q, ev)), None)
            if q is None:
                continue
            qs += [Query(len(texts), q, ev, s, 0.01) for s in ("bfs", "no-loops", "delayed")]
            texts.append(serialize_network(net))
            built += 1
    rng.shuffle(qs)
    return Workload("loopy-cutset", WHY["loopy-cutset"], tuple(texts), tuple(qs))


WHY = {
    "polytree-40k": "tiny active sets on a 40k-node polytree, so whole-network relevance and expansion work dominates",
    "chain-500": "a 500-node chain whose active set grows one node each way per iteration, so message evaluation dominates",
    "loopy-cutset": "small loopy networks whose active sets close loops, so cutset conditioning and the interval kernels dominate",
}

GENERATORS = {
    "polytree-40k": polytree_40k,
    "chain-500": chain_500,
    "loopy-cutset": loopy_cutset,
}

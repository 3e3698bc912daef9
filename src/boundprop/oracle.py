"""Ground-truth engines, independent of the interval machinery: variable
elimination (Zhang & Poole 1994) in plain Python, for any network up to
``STATE_SPACE_CAP`` entries per factor, and linear-time point message
passing on a polytree.  Both answer under the caller's evidence laid
over the evidence stored on the network, and check the asked node and
that evidence as the engine does: an unknown node raises ``KeyError``
and a state that is not an ``int`` in range raises ``ValueError``.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, Sequence

from .intervals import ConflictingEvidenceError
from .network import BeliefNetwork, _check_evidence, is_polytree

# The most entries one factor may hold.  A product of three factors at the
# cap takes 0.5-0.7 s (Python 3.11, 2-core x86) and 96 MiB (tracemalloc).
STATE_SPACE_CAP = 2 ** 20


class StateSpaceError(ValueError):
    """An exact answer needs a factor larger than ``STATE_SPACE_CAP``."""


def _plan(net: BeliefNetwork, scopes: list, size: Mapping[str, int], query: str) -> list:
    """Steps ``(x, ids, scope, new)`` that eliminate every variable of
    ``scopes`` but ``query``: multiply factors ``ids`` over ``scope + [x]``
    and sum ``x`` out into factor ``new``.  The smallest product goes
    first, ties in network order; one past the cap raises here."""
    holders: dict[str, set[int]] = {}
    for i, scope in enumerate(scopes):
        for v in scope:
            holders.setdefault(v, set()).add(i)

    def joined(v: str) -> set[str]:
        return set().union(*(scopes[i] for i in holders[v]))

    current = {v: math.prod(map(size.__getitem__, joined(v))) for v in holders if v != query}
    heap = [(w, net.order(v), v) for v, w in current.items()]
    heapq.heapify(heap)
    steps = []
    while heap:
        w, _, x = heapq.heappop(heap)
        if current.get(x) != w:
            continue
        if w > STATE_SPACE_CAP:
            raise StateSpaceError(f"an exact answer over {len(size)} nodes needs 2^{math.log2(w):.1f} entries"
                                  f" in one factor, which exceeds cap 2^{math.log2(STATE_SPACE_CAP):g}")
        del current[x]
        scope = sorted(joined(x) - {x}, key=net.order)
        ids = holders.pop(x)
        steps.append((x, sorted(ids), scope, len(scopes)))
        scopes.append(scope)
        for v in scope:
            holders[v] -= ids
            holders[v].add(len(scopes) - 1)
            if v in current:
                current[v] = math.prod(map(size.__getitem__, joined(v)))
                heapq.heappush(heap, (current[v], net.order(v), v))
    return steps


def _strides(scope: Sequence[str], size: Mapping[str, int]) -> dict[str, int]:
    """Each variable's stride in a flat table over ``scope``, the last fastest (CPT order)."""
    strides, stride = {}, 1
    for v in reversed(scope):
        strides[v] = stride
        stride *= size[v]
    return strides


def _product(factors, scope: Sequence[str], size: Mapping[str, int], fixed: Mapping[str, int]) -> list[float]:
    """The product of ``factors``, each ``(strides, table)``, as a flat
    table over ``scope``, with the variables of ``fixed`` at its states."""
    out: list[float] | None = None
    for strides, table in factors:
        # Where each entry of the product sits in this factor's table.
        index = [sum(fixed[v] * s for v, s in strides.items() if v in fixed)]
        for v in scope:
            steps = [strides.get(v, 0) * k for k in range(size[v])]
            index = [i + j for i in index for j in steps]
        if out is None:
            out = [table[i] for i in index]
        else:
            out = [a * table[i] for a, i in zip(out, index)]
    return out


def _normalized(vec: Sequence[float]) -> list[float]:
    """``vec`` scaled to sum to one; a zero sum means impossible evidence."""
    total = sum(vec)
    if total <= 0.0:
        raise ConflictingEvidenceError("evidence has zero probability")
    return [x / total for x in vec]


def enumerate_marginal(net: BeliefNetwork, evidence: Mapping[str, int], node: str) -> tuple[float, ...]:
    """Exact conditional marginal of ``node`` by variable elimination
    over the ancestral closure of ``node`` and the evidence; every other
    node is barren and sums out to one.  Each factor a sum leaves is
    scaled to sum to one, so that the probability of many observations,
    which the answer divides out, cannot underflow."""
    net.node(node)
    evidence = {**net.evidence, **evidence}
    _check_evidence(net, evidence)
    size = {v: net.state_count(v) for v in sorted(net.ancestral_closure({node, *evidence}), key=net.order)}
    # One factor (strides, table) per CPT with a variable left free, by
    # id; the factors multiplied into another leave.  A CPT with none
    # free is a constant, which matters only if it is zero.
    factors: dict[int, tuple] = {}
    scopes = []
    for v in size:
        strides = _strides(net.parents(v) + (v,), size)
        table = [p for row in net.node(v).cpt for p in row]
        scope = [u for u in strides if u not in evidence]
        if scope:
            factors[len(scopes)] = (strides, table)
            scopes.append(scope)
        else:
            _normalized(_product([(strides, table)], [], size, evidence))
    for x, ids, scope, new in _plan(net, scopes, size, node):
        table = _product([factors.pop(i) for i in ids], [*scope, x], size, evidence)
        # x varies fastest, so each run of its states sums to one entry.
        k = size[x]
        sums = [sum(table[i : i + k]) for i in range(0, len(table), k)]
        factors[new] = (_strides(scope, size), _normalized(sums))
    if node in evidence:
        return tuple(float(i == evidence[node]) for i in range(size[node]))
    return tuple(_normalized(_product(factors.values(), [node], size, evidence)))


def polytree_exact(
    net: BeliefNetwork, evidence: Mapping[str, int], node: str
) -> tuple[float, ...]:
    """Exact marginal on a polytree via point-valued message passing.

    Each message is computed once, after its inputs, from an explicit
    stack: a post-order walk of the message dependencies toward
    ``node``, so a long chain needs no deep call stack.  Keys are
    ``("pi_val", x)``, ``("lam_val", x)``, ``("pi_msg", u, x)`` and
    ``("lam_msg", x, u)``, sender second and receiver third.
    """
    if not is_polytree(net):
        raise ValueError("polytree_exact requires a singly connected network")
    net.node(node)
    evidence = {**net.evidence, **evidence}
    _check_evidence(net, evidence)

    def indicator(x: str) -> list[float]:
        return [1.0 if i == evidence[x] else 0.0 for i in range(net.state_count(x))]

    if node in evidence:
        return tuple(indicator(node))

    def _norm(v: Sequence[float]) -> list[float]:
        total = sum(v)
        if total <= 0.0:
            raise ConflictingEvidenceError("evidence has zero probability")
        return [x / total for x in v]

    def product(vecs: Sequence[Sequence[float]]) -> list[float]:
        out = list(vecs[0])
        for m in vecs[1:]:
            out = [a * b for a, b in zip(out, m)]
        return out

    def inputs(key) -> list:
        kind, x = key[0], key[1]
        if kind == "pi_val":
            return [("pi_msg", p, x) for p in net.parents(x)]
        if kind == "lam_val":
            return [("lam_msg", c, x) for c in net.children(x)]
        if kind == "pi_msg":
            if x in evidence:
                return []
            return [("pi_val", x)] + [("lam_msg", c, x) for c in net.children(x) if c != key[2]]
        return [("lam_val", x)] + [("pi_msg", p, x) for p in net.parents(x) if p != key[2]]

    def compute(key, ins: list[list[float]]) -> list[float]:
        kind, x = key[0], key[1]
        if kind == "pi_val":
            out = [0.0] * net.state_count(x)
            for config, row in zip(net.parent_configs(x), net.node(x).cpt):
                w = 1.0
                for m, s in zip(ins, config):
                    w *= m[s]
                if w == 0.0:
                    continue
                for i, v in enumerate(row):
                    out[i] += w * v
            return out
        if kind == "lam_val":
            start = indicator(x) if x in evidence else [1.0] * net.state_count(x)
            return product([start, *ins])
        if kind == "pi_msg":
            return indicator(x) if x in evidence else _norm(product(ins))
        lam, msgs = ins[0], ins[1:]
        j = net.parents(x).index(key[2])
        out = [0.0] * net.state_count(key[2])
        for config, row in zip(net.parent_configs(x), net.node(x).cpt):
            w = 1.0
            for m, s in zip(msgs, config[:j] + config[j + 1 :]):
                w *= m[s]
            if w != 0.0:
                out[config[j]] += w * sum(r * l for r, l in zip(row, lam))
        total = sum(out)
        return [v / total for v in out] if total > 0.0 else out

    values: dict = {}
    stack: list = [(("pi_val", node), None), (("lam_val", node), None)]
    while stack:
        key, ins = stack.pop()
        if key in values:
            continue
        if ins is None:
            ins = inputs(key)
            stack.append((key, ins))
            stack.extend((i, None) for i in ins if i not in values)
        else:
            values[key] = compute(key, [values[i] for i in ins])
    return tuple(_norm(product([values[("pi_val", node)], values[("lam_val", node)]])))

"""Ground-truth engines: joint enumeration and point message passing.

Both are deliberately independent of the interval machinery so they can
serve as oracles for it.  Enumeration works on any network up to a
state-space cap; the point polytree solver is linear-time but limited
to singly connected networks.  Both check the asked node and the
evidence as the engine does: an unknown node raises ``KeyError`` and a
state that is not an ``int`` in range raises ``ValueError``.

NumPy is imported by the functions that enumerate, not by the module,
so importing the package does not pay for it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Mapping, Sequence

from .intervals import ConflictingEvidenceError
from .network import BeliefNetwork, _check_evidence, is_polytree

if TYPE_CHECKING:
    import numpy as np

STATE_SPACE_CAP = 2 ** 24


class StateSpaceError(ValueError):
    """Joint state space too large to enumerate."""


def joint_table(net: BeliefNetwork) -> np.ndarray:
    """Full joint distribution as an array with one axis per node."""
    import numpy as np

    shape = tuple(net.state_count(v) for v in net.node_ids())
    total = math.prod(shape)
    if total > STATE_SPACE_CAP:
        raise StateSpaceError(
            f"joint table of {len(shape)} nodes has 2^{math.log2(total):.1f} entries,"
            f" which exceeds cap 2^{math.log2(STATE_SPACE_CAP):g}"
        )
    axis = {v: i for i, v in enumerate(net.node_ids())}
    joint = np.ones(shape, dtype=np.float64)
    for n in net.nodes:
        involved = list(n.parents) + [n.id]
        table = np.asarray(n.cpt, dtype=np.float64).reshape(
            [net.state_count(p) for p in n.parents] + [len(n.states)]
        )
        # Move the factor's axes into global axis order, pad the rest with 1s.
        perm = sorted(range(len(involved)), key=lambda i: axis[involved[i]])
        table = np.transpose(table, perm)
        full_shape = [1] * len(shape)
        for i in perm:
            full_shape[axis[involved[i]]] = net.state_count(involved[i])
        joint *= table.reshape(full_shape)
    return joint


def _sliced_joint(net: BeliefNetwork, evidence: Mapping[str, int], *asked: str) -> np.ndarray:
    """The joint table at the observed states, one axis per unobserved
    node, once the ``asked`` nodes and the evidence pass the checks."""
    for v in asked:
        net.node(v)
    _check_evidence(net, evidence)
    return joint_table(net)[tuple(evidence[v] if v in evidence else slice(None) for v in net.node_ids())]


def enumerate_marginal(
    net: BeliefNetwork, evidence: Mapping[str, int], node: str
) -> tuple[float, ...]:
    """Exact conditional marginal of ``node`` by summing the joint."""
    import numpy as np

    sub = _sliced_joint(net, evidence, node)
    if node in evidence:
        total = float(np.sum(sub))
        if total <= 0.0:
            raise ConflictingEvidenceError("evidence has zero probability")
        out = [0.0] * net.state_count(node)
        out[evidence[node]] = 1.0
        return tuple(out)
    remaining = [v for v in net.node_ids() if v not in evidence]
    keep = remaining.index(node)
    other_axes = tuple(i for i in range(sub.ndim) if i != keep)
    vec = np.sum(sub, axis=other_axes)
    total = float(np.sum(vec))
    if total <= 0.0:
        raise ConflictingEvidenceError("evidence has zero probability")
    return tuple(float(x) for x in vec / total)


def clamped_state_range(
    net: BeliefNetwork, evidence: Mapping[str, int], query: str, clamp: str
) -> tuple[tuple[float, float], ...]:
    """Per-state min and max of the query conditional over clamp states.

    For each state b of ``clamp``, the joint is evaluated with b held
    fixed (not summed), the query conditional is formed, and the
    pointwise envelope over b is returned.  This is the reference
    envelope a propagation that severed the clamp node's outgoing
    influence must still contain.
    """
    import numpy as np

    if query in evidence or clamp in evidence or clamp == query:
        raise ValueError("query and clamp must be distinct unobserved nodes")
    sub = _sliced_joint(net, evidence, query, clamp)
    remaining = [v for v in net.node_ids() if v not in evidence]
    q_axis = remaining.index(query)
    b_axis = remaining.index(clamp)
    n_q = net.state_count(query)
    lo = [float("inf")] * n_q
    hi = [float("-inf")] * n_q
    for b in range(net.state_count(clamp)):
        plane = np.take(sub, b, axis=b_axis)
        axes = tuple(i for i in range(plane.ndim) if i != (q_axis if q_axis < b_axis else q_axis - 1))
        vec = np.sum(plane, axis=axes)
        total = float(np.sum(vec))
        if total <= 0.0:
            continue
        cond = vec / total
        for i in range(n_q):
            lo[i] = min(lo[i], float(cond[i]))
            hi[i] = max(hi[i], float(cond[i]))
    if lo[0] == float("inf"):
        raise ConflictingEvidenceError("evidence has zero probability")
    return tuple(zip(lo, hi))


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

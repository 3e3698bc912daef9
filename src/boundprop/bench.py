"""Benchmark harness: run seeded query suites and emit one record each."""

from __future__ import annotations

import csv
import io
import json
import random
import time
from typing import Iterator, Mapping

from . import netgen
from .engine import StopCriterion, answer_query
from .intervals import ConflictingEvidenceError
from .loops import CutsetOverflowError
from .network import BeliefNetwork, is_polytree, parse_network
from .oracle import StateSpaceError, enumerate_marginal, polytree_exact

DEFAULT_BUDGET_MS = 60_000.0

RECORD_FIELDS = [
    "network",
    "n_nodes",
    "n_arcs",
    "query",
    "evidence_count",
    "strategy",
    "target_width",
    "achieved_width",
    "iterations",
    "active_size",
    "node_visits",
    "status",
    "wall_ms",
    "baseline_ms",
]


def load_suite(text: str) -> dict:
    suite = json.loads(text)
    suite.setdefault("seed", 0)
    suite.setdefault("queries_per_network", 5)
    suite.setdefault("strategies", ["bfs"])
    suite.setdefault("target_widths", [0.5])
    suite.setdefault("budget_ms", DEFAULT_BUDGET_MS)
    if "networks" not in suite:
        raise ValueError("suite needs a 'networks' list")
    return suite


def _suite_network(entry: Mapping) -> BeliefNetwork:
    if "file" in entry:
        with open(entry["file"], encoding="utf-8") as fh:
            return parse_network(fh.read())
    spec = netgen.GenSpec(
        node_count=int(entry["nodes"]),
        topology=entry.get("topology", "polytree"),
        arc_ratio=float(entry.get("ratio", 1.1)),
        seed=int(entry.get("seed", 0)),
    )
    return netgen.generate(spec)


def _baseline_ms(net: BeliefNetwork, evidence, query) -> float | None:
    """Time for an exact answer: point propagation on polytrees, joint
    enumeration otherwise.  None when neither is feasible."""
    try:
        t0 = time.perf_counter()
        if is_polytree(net):
            polytree_exact(net, evidence, query)
        else:
            enumerate_marginal(net, evidence, query)
        return (time.perf_counter() - t0) * 1000.0
    except (StateSpaceError, ConflictingEvidenceError):
        return None


def run_bench(suite: dict, with_baseline: bool = True) -> Iterator[dict]:
    """Yield one record per (network, query, strategy, target width)."""
    rng = random.Random(suite["seed"])
    for entry in suite["networks"]:
        net = _suite_network(entry)
        # A network read from a file may carry its own evidence; the
        # sampled states are laid over it, as the engine would.
        evidence = {**net.evidence, **netgen.sample_evidence(net, rng)}
        free = [v for v in net.node_ids() if v not in evidence]
        count = min(int(suite["queries_per_network"]), len(free))
        queries = rng.sample(free, count)
        for query in queries:
            baseline = (
                _baseline_ms(net, evidence, query) if with_baseline else None
            )
            for strategy in suite["strategies"]:
                for target in suite["target_widths"]:
                    t0 = time.perf_counter()
                    try:
                        r = answer_query(
                            net,
                            query,
                            evidence,
                            strategy=strategy,
                            stop=StopCriterion.width(float(target)),
                            budget_ms=float(suite["budget_ms"]),
                        )
                        outcome = (r.status, r.achieved_width, r.iterations, r.active_nodes[-1], r.node_visits)
                    except (CutsetOverflowError, ConflictingEvidenceError) as exc:
                        outcome = (f"error:{type(exc).__name__}", None, 0, 0, 0)
                    status, achieved, iterations, active_size, visits = outcome
                    wall_ms = (time.perf_counter() - t0) * 1000.0
                    yield {
                        "network": net.name,
                        "n_nodes": len(net.nodes),
                        "n_arcs": len(net.arcs),
                        "query": query,
                        "evidence_count": len(evidence),
                        "strategy": strategy,
                        "target_width": float(target),
                        "achieved_width": achieved,
                        "iterations": iterations,
                        "active_size": active_size,
                        "node_visits": visits,
                        "status": status,
                        "wall_ms": wall_ms,
                        "baseline_ms": baseline,
                    }


def records_to_jsonl(records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=RECORD_FIELDS)
    writer.writeheader()
    for r in records:
        writer.writerow(r)
    return buf.getvalue()

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
from .network import BeliefNetwork, parse_network
from .oracle import StateSpaceError, enumerate_marginal

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
    if not isinstance(suite, dict):
        raise ValueError("a suite must be a JSON object")
    suite.setdefault("seed", 0)
    suite.setdefault("queries_per_network", 5)
    suite.setdefault("strategies", ["bfs"])
    suite.setdefault("target_widths", [0.5])
    suite.setdefault("budget_ms", DEFAULT_BUDGET_MS)
    for key in ("networks", "strategies", "target_widths"):
        if not isinstance(suite.get(key), list):
            raise ValueError(f"suite needs a {key!r} list")
    if not all(isinstance(entry, dict) for entry in suite["networks"]):
        raise ValueError("each of a suite's networks must be a JSON object")
    # Read by ``int`` or ``float``, which take a number or a numeric
    # string, so ``"3"`` and ``3`` are one seed; null, a list or an object
    # is rejected here, with the field that holds it.
    numbers = [(f"suite {key!r}", suite[key]) for key in ("seed", "queries_per_network", "budget_ms")]
    numbers += [("suite 'target_widths' entry", w) for w in suite["target_widths"]]
    numbers += [(f"suite network {key!r}", entry[key])
                for entry in suite["networks"] for key in ("nodes", "ratio", "seed") if key in entry]
    for where, value in numbers:
        if value is None or isinstance(value, (list, dict)):
            raise ValueError(f"{where} must be a number, not {json.dumps(value)}")
    for entry in suite["networks"]:
        if not isinstance(entry.get("file", ""), str):
            raise ValueError(f"suite network 'file' must be a path, not {json.dumps(entry['file'])}")
    return suite


def _suite_network(entry: Mapping) -> BeliefNetwork:
    if "file" in entry:
        with open(entry["file"], encoding="utf-8-sig") as fh:
            return parse_network(fh.read())
    spec = netgen.GenSpec(
        node_count=int(entry["nodes"]),
        topology=entry.get("topology", "polytree"),
        arc_ratio=float(entry.get("ratio", 1.1)),
        seed=int(entry.get("seed", 0)),
    )
    return netgen.generate(spec)


def _baseline_ms(net: BeliefNetwork, evidence, query) -> float | None:
    """Time for one exact answer; None past the factor cap or under impossible evidence."""
    try:
        t0 = time.perf_counter()
        enumerate_marginal(net, evidence, query)
        return (time.perf_counter() - t0) * 1000.0
    except (StateSpaceError, ConflictingEvidenceError):
        return None


def run_bench(suite: dict) -> Iterator[dict]:
    """Yield one record per (network, query, strategy, target width)."""
    rng = random.Random(int(suite["seed"]))
    for entry in suite["networks"]:
        net = _suite_network(entry)
        n_arcs = len(net.arcs)
        # A network read from a file may carry its own evidence; the
        # sampled states are laid over it, as the engine would.
        evidence = {**net.evidence, **netgen.sample_evidence(net, rng)}
        free = [v for v in net.node_ids() if v not in evidence]
        count = min(int(suite["queries_per_network"]), len(free))
        queries = rng.sample(free, count)
        for query in queries:
            baseline = _baseline_ms(net, evidence, query)
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
                        "n_arcs": n_arcs,
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

"""Benchmark of record for boundprop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-500 --seed 1 --seconds 20 --trace 0

One process, one thread, one closed-loop client: each query is sent
when the previous one has returned.  The inputs (network text, evidence
and queries) are generated from ``--seed`` before any clock starts.
``--trace 0`` times the end-to-end metrics, scaled to the nominal speed
of the machine by a speed probe between calls (see ``speed.py``);
``--trace 1`` answers the same queries once untraced and once with layer
spans installed (see ``spans.py``) and reports the per-layer metrics
and the tracing overhead.  Every answer, traced or not, is checked off
the clock against an exact reference (see ``reference.py``).

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True
SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "boundprop").is_dir():
    sys.exit(f"no boundprop package under {SRC}")
sys.path.insert(0, str(SRC))

import reference  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from boundprop import StopCriterion, answer_query, parse_network  # noqa: E402
from boundprop.intervals import ConflictingEvidenceError  # noqa: E402
from boundprop.loops import CutsetOverflowError  # noqa: E402
from boundprop.network import is_polytree  # noqa: E402

# Set-up is spread through the run: the networks are parsed once before
# the first pass and again after every pass, as many times as fit in
# SETUP_ROUND_S but at least once, and setup_s is the median parse.
SETUP_ROUND_S = 0.3

# The queries are asked in passes over the whole list, at least
# MIN_PASSES and more while the next pass, as long as the last one, still
# ends within --seconds.  A query's latency is the median of its repeats,
# each scaled to nominal machine speed (see speed.py); the median does not
# move with the number of repeats a run fits in.
MIN_PASSES = 3

# The exact-inference baseline is timed on this many of the run's
# queries, each answered on the whole parsed network as a caller would.
ORACLE_QUERIES = 10

# What a query may raise; each is counted as a failed query.
FAILURES = (CutsetOverflowError, ConflictingEvidenceError, RecursionError)


def hd_quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics with Beta(p(n+1), (1-p)(n+1))
    weights.  Query latencies cluster at whole numbers of iterations, so a
    single order statistic jumps a whole iteration when the share of
    queries at one iteration count moves by a sample; this estimate moves
    smoothly.  Order statistics whose weight underflows to zero are
    skipped, so a failed query (an infinite latency) counts only where it
    lies near the quantile.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_pdf = (a - 1.0) * np.log(grid) + (b - 1.0) * np.log1p(-grid)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(sum(w * x for w, x in zip(weights, xs) if w > 0.0))


def parse_all(texts):
    return [parse_network(t) for t in texts]


class Client:
    """The closed-loop client: answers queries and keeps the results."""

    def __init__(self, nets, queries):
        self.nets = nets
        self.queries = queries

    def ask(self, i: int):
        """Answer query i; None when it raised one of the counted failures."""
        q = self.queries[i]
        try:
            return answer_query(
                self.nets[q.net], q.node, q.evidence, strategy=q.strategy, stop=StopCriterion.width(q.width)
            )
        except FAILURES:
            return None

    def run(self, order, root=None):
        """Ask the queries in ``order``; (index, result, seconds) each."""
        out = []
        for i in order:
            t0 = time.perf_counter()
            if root is None:
                r = self.ask(i)
            else:
                with root():
                    r = self.ask(i)
            out.append((i, r, time.perf_counter() - t0))
        return out


def measure(texts, queries, seconds: float):
    """The timed part of a ``--trace 0`` run.

    Full passes over the queries (see MIN_PASSES), with set-up repeated
    after each (see SETUP_ROUND_S).  Every timed call, query or parse, is
    preceded by a speed probe (see ``speed.py``).  Returns the client,
    (seconds, speed factor) for every parse, and (index, result, seconds,
    speed factor) for every query.
    """
    probes: list[float] = []

    def timed(call):
        probes.append(speed.probe())
        t0 = time.perf_counter()
        out = call()
        return out, time.perf_counter() - t0

    setup: list[tuple[float, int]] = []  # (seconds, probe index)

    def parse():
        nets, dt = timed(lambda: parse_all(texts))
        setup.append((dt, len(probes) - 1))
        return nets

    client = Client(parse(), queries)
    gc.collect()
    answered = []
    started = time.perf_counter()
    last = 0.0
    passes = 0
    while passes < MIN_PASSES or time.perf_counter() - started + last <= seconds:
        t0 = time.perf_counter()
        for i in range(len(queries)):
            r, dt = timed(lambda: client.ask(i))
            answered.append((i, r, dt, len(probes) - 1))
        spent = 0.0
        while spent < SETUP_ROUND_S:
            parse()
            spent += setup[-1][0]
        last = time.perf_counter() - t0
        passes += 1
    factors = speed.scale(probes)
    return (
        client,
        [(dt, factors[k]) for dt, k in setup],
        [(i, r, dt, factors[k]) for i, r, dt, k in answered],
    )


class Gate:
    """Containment of every iteration's bounds around the reference."""

    def __init__(self, nets, queries):
        self.queries = queries
        self.polytree = [is_polytree(net) for net in nets]
        # polytree_exact walks the whole network it is given; cut each
        # polytree down to the part every query of the run depends on.
        self.nets = [
            reference.ancestral_subnetwork(
                net, {x for q in queries if q.net == k for x in (q.node, *q.evidence)}
            )
            if tree
            else net
            for k, (net, tree) in enumerate(zip(nets, self.polytree))
        ]
        self.refs: dict[int, tuple[float, ...] | None] = {}
        self.checked = self.unchecked = self.misses = 0

    def want(self, i: int):
        """The reference posterior of query i, or None if there is none."""
        if i not in self.refs:
            q = self.queries[i]
            try:
                self.refs[i] = reference.exact(
                    self.nets[q.net], q.evidence, q.node, self.polytree[q.net]
                )
            except (reference.NoReference, ConflictingEvidenceError):
                self.refs[i] = None
        return self.refs[i]

    def check(self, answered) -> None:
        for i, result, _ in answered:
            if result is None:
                continue
            want = self.want(i)
            if want is None:
                self.unchecked += 1
                continue
            self.checked += 1
            self.misses += reference.misses(result.bels, want)


def oracle_seconds(nets, queries) -> list[float]:
    """Time of the exact reference on the first ORACLE_QUERIES queries.

    Unlike the gate, which answers on a network cut down to what the
    run's queries depend on, this calls the reference on the whole
    network, as a caller holding it would.
    """
    polytree = [is_polytree(net) for net in nets]
    out = []
    for q in queries[:ORACLE_QUERIES]:
        t0 = time.perf_counter()
        try:
            reference.exact(nets[q.net], q.evidence, q.node, polytree[q.net])
        except (reference.NoReference, ConflictingEvidenceError):
            continue
        out.append(time.perf_counter() - t0)
    return out


def timing_metrics(setup, answered, scaled: bool) -> dict[str, tuple[float, str, int]]:
    """Set-up time, latency and throughput.

    ``setup_s`` is the median parse; a query's latency is the median of
    its repeats.  With ``scaled``, each parse and each repeat is first
    brought to nominal speed by its speed factor (see ``speed.py``).
    """
    setup_s = [dt * f if scaled else dt for dt, f in setup]
    times: dict[int, list[float]] = {}
    failed: set[int] = set()
    for i, r, dt, f in answered:
        times.setdefault(i, []).append(dt * f if scaled else dt)
        if r is None:
            failed.add(i)
    lat = {i: statistics.median(ts) for i, ts in times.items()}
    lat_ms = [math.inf if i in failed else dt * 1000.0 for i, dt in lat.items()]
    done = len(lat) - len(failed)
    n = len(lat)
    return {
        "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
        "query_p50_ms": (hd_quantile(lat_ms, 0.5), "ms", n),
        "query_p90_ms": (hd_quantile(lat_ms, 0.9), "ms", n),
        "queries_per_s": (done / sum(lat.values()), "1/s", n),
    }


def layer_metrics(tracer, answered, nets, queries) -> dict[str, tuple[float, str, int]]:
    layers = tracer.layers()
    out: dict[str, tuple[float, str, int]] = {}

    def both(name: str) -> None:
        entry = layers.get(name, {"calls": 0, "ms": 0.0})
        out[f"{name}.calls"] = (entry["calls"], "count", 1)
        out[f"{name}.ms"] = (entry["ms"], "ms", entry["calls"])

    for name in (
        "network.relevant_set",
        "network.ancestral_closure",
        "network.arcs",
        "network.find_loop_clusters",
        "engine.step",
    ):
        both(name)
    results = [r for _, r, _ in answered if r is not None]
    out["engine.answer_query.ms"] = (layers["engine.answer_query"]["ms"], "ms", len(answered))
    plain = layers.get("engine.evaluate", {"calls": 0, "ms": 0.0})
    out["engine.evaluate_self_ms"] = (plain["ms"], "ms", plain["calls"])
    out["engine.iterations"] = (sum(r.iterations for r in results), "count", len(results))
    out["engine.node_visits"] = (sum(r.node_visits for r in results), "count", len(results))
    shares = [
        r.active_nodes[-1] / len(nets[queries[i].net].nodes)
        for i, r, _ in answered
        if r is not None
    ]
    out["engine.active_share"] = (statistics.fmean(shares) if shares else 0.0, "ratio", len(shares))
    both("loops.evaluate")
    out["loops.conditioned_evals"] = (len(tracer.instances), "count", 1)
    out["loops.select_loop_cutset.calls"] = (tracer.counts["loops.select_loop_cutset"], "count", 1)
    out["loops.cutset_instances"] = (sum(tracer.instances.values()), "count", len(tracer.instances))
    both("intervals.simplex_dot")
    both("intervals.normalize_scaled")
    out["intervals.iv_mul.calls"] = (tracer.counts["intervals.iv_mul"], "count", 1)
    return out


def claims(workload: str, metrics, traced_ms: float) -> list[tuple[str, bool]]:
    """What each workload's reason says about where its time goes."""
    value = {k: v[0] for k, v in metrics.items()}
    network = sum(v for k, v in value.items() if k.startswith("network.") and k.endswith(".ms"))
    conditioning = value["loops.evaluate.ms"] - value["engine.evaluate_self_ms"]
    kernels = value["intervals.simplex_dot.ms"] + value["intervals.normalize_scaled.ms"]
    if workload == "loopy-cutset":
        return [("conditioning + intervals self time > half of traced time", conditioning + kernels > traced_ms / 2)]
    out = [("loops.conditioned_evals == 0", value["loops.conditioned_evals"] == 0)]
    if workload == "polytree-40k":
        out.append(
            ("network + engine.step self time > half of traced time", network + value["engine.step.ms"] > traced_ms / 2)
        )
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in workloads.GENERATORS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.GENERATORS)}", file=sys.stderr)
        return 2
    w = workloads.GENERATORS[args.workload](args.seed)
    queries = w.queries
    order = range(len(queries))
    metrics: dict[str, tuple[float, str, int]] = {}

    if args.trace == 0:
        client, setup, timed = measure(w.texts, queries, args.seconds)
        nets = client.nets
        answered = [a[:3] for a in timed]
        metrics = timing_metrics(setup, timed, scaled=True)
        wall = timing_metrics(setup, timed, scaled=False)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (rss_kib / 1024.0, "MB", 1)
    else:
        nets = parse_all(w.texts)
        client = Client(nets, queries)
        tracer = spans.Tracer()
        gc.collect()
        # Each query is asked untraced and traced back to back, in turns
        # which goes first, so that the overhead is not a drift in speed
        # or warm-up between two separate passes.
        plain, traced = [], []
        for i in order:
            for with_spans in (i % 2 == 1, i % 2 == 0):
                if with_spans:
                    with spans.install(tracer):
                        traced += client.run((i,), root=tracer.root)
                else:
                    plain += client.run((i,))
        metrics.update(layer_metrics(tracer, traced, nets, queries))
        answered = plain + traced

    gate = Gate(nets, queries)
    gate.check(answered)
    if args.trace == 1:
        plain_ms = sum(dt for _, _, dt in plain) * 1000.0
        traced_ms = sum(dt for _, _, dt in traced) * 1000.0
        oracle = oracle_seconds(nets, queries)
        metrics["oracle.exact_p50_ms"] = (
            statistics.median(oracle) * 1000.0 if oracle else 0.0,
            "ms",
            len(oracle),
        )
        metrics["trace.overhead_ms"] = (traced_ms - plain_ms, "ms", len(traced))

    attempted = len(answered)
    failed = sum(1 for _, r, _ in answered if r is None)
    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print(
        f"  {len(w.texts)} network(s), {len(queries)} distinct queries, {attempted} answered, "
        f"failed_share {failed / attempted:.4f} (share, n={attempted}), "
        f"containment misses {gate.misses} over {gate.checked} checked answers, unchecked {gate.unchecked}"
    )
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:32s} {value:16.6f} {unit:6s} n={n}")
    if args.trace == 0:
        print("  the same, unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u, _) in wall.items()))
    if args.trace == 1:
        for text, ok in claims(w.name, metrics, traced_ms):
            print(f"  claim {'holds' if ok else 'FAILS'}: {text}")
    print(
        json.dumps(
            {
                "correct": gate.misses == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

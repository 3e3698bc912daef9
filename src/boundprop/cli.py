"""Command line interface.

Exit codes for ``query``: 0 when the stop criterion was satisfied,
2 when the active set saturated first, 3 when the budget ran out,
1 on any error, a usage error included.
"""

from __future__ import annotations

import argparse
import sys

from . import loops, netgen
from .bench import load_suite, records_to_csv, records_to_jsonl, run_bench
from .engine import BUDGET, LOOP_DELAYS, SATISFIED, SATURATED, StopCriterion, answer_query
from .network import parse_network, serialize_network
from .oracle import enumerate_marginal


def _load_network(path: str):
    with open(path, encoding="utf-8-sig") as fh:
        return parse_network(fh.read())


def _write(text: str, path: str | None) -> int:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_evidence(net, pairs):
    out = {}
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"evidence must look like ID=STATE, got {item!r}")
        node, state = item.split("=", 1)
        if node in out:
            raise ValueError(f"duplicate evidence for {node!r}")
        out[node] = net.state_index(node, state)
    return out


def _parse_threshold(net, spec: str) -> tuple[str, StopCriterion]:
    # Format: ID:STATE>P or ID:STATE<P
    for direction in (">", "<"):
        if direction in spec:
            head, prob = spec.split(direction, 1)
            node, _, state = head.partition(":")
            if not state:
                raise ValueError("threshold must look like ID:STATE>P")
            return node, StopCriterion.prob_threshold(
                net.state_index(node, state), direction, float(prob)
            )
    raise ValueError("threshold must contain '>' or '<'")


def _cmd_gen(args) -> int:
    spec = netgen.GenSpec(
        node_count=args.nodes,
        topology=args.topology,
        arc_ratio=args.ratio,
        seed=args.seed,
    )
    return _write(serialize_network(netgen.generate(spec)), args.out)


def _cmd_query(args) -> int:
    net = _load_network(args.file)
    evidence = _parse_evidence(net, args.evidence)
    if args.threshold:
        query, stop = _parse_threshold(net, args.threshold)
        if args.node and args.node != query:
            raise ValueError("--node disagrees with the threshold's node")
    else:
        if not args.node:
            raise ValueError("--node is required without --threshold")
        query = args.node
        stop = StopCriterion.width(args.target_width)
    result = answer_query(
        net, query, evidence, strategy=args.strategy, stop=stop, budget_ms=args.budget_ms
    )
    states = net.states(query)
    for i, bel in enumerate(result.bels):
        cells = " ".join(
            f"{name}=[{e.lo:.6f},{e.hi:.6f}]" for name, e in zip(states, bel)
        )
        print(
            f"iter {i + 1} active={result.active_nodes[i]} "
            f"width={result.widths[i]:.6f} {cells}"
        )
    print(f"status {result.status}")
    if result.threshold_answer is not None:
        print(f"threshold {'holds' if result.threshold_answer else 'fails'}")
    return {SATISFIED: 0, SATURATED: 2, BUDGET: 3}[result.status]


def _cmd_exact(args) -> int:
    net = _load_network(args.file)
    evidence = _parse_evidence(net, args.evidence)
    marginal = zip(net.states(args.node), enumerate_marginal(net, evidence, args.node))
    print("exact " + " ".join(f"{s}={p:.9f}" for s, p in marginal))
    return 0


def _cmd_bench(args) -> int:
    with open(args.suite, encoding="utf-8-sig") as fh:
        suite = load_suite(fh.read())
    records = list(run_bench(suite))
    return _write(records_to_csv(records) if args.csv else records_to_jsonl(records), args.out)


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error, as on any other error; argparse's own 2
    means a saturated answer here.  Subparsers are built of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="boundprop",
        description="Anytime interval bounds on belief-network marginals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a random network")
    g.add_argument("--nodes", type=int, required=True)
    g.add_argument("--topology", choices=["polytree", "loopy"], default="polytree")
    g.add_argument("--ratio", type=float, default=1.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=_cmd_gen)

    q = sub.add_parser("query", help="answer a query with interval bounds")
    q.add_argument("file")
    q.add_argument("--node")
    q.add_argument("--evidence", action="append", metavar="ID=STATE")
    q.add_argument("--strategy", choices=list(LOOP_DELAYS), default="bfs")
    stop = q.add_mutually_exclusive_group()
    stop.add_argument("--target-width", type=float, default=0.0)
    stop.add_argument("--threshold", metavar="ID:STATE>P")
    q.add_argument("--budget-ms", type=float, default=None)
    q.set_defaults(func=_cmd_query)

    e = sub.add_parser("exact", help="exact marginal by variable elimination")
    e.add_argument("file")
    e.add_argument("--node", required=True)
    e.add_argument("--evidence", action="append", metavar="ID=STATE")
    e.set_defaults(func=_cmd_exact)

    b = sub.add_parser("bench", help="run a benchmark suite")
    b.add_argument("--suite", required=True)
    b.add_argument("--out")
    b.add_argument("--csv", action="store_true")
    b.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (loops.CutsetOverflowError, netgen.GenerationError, ValueError, KeyError, OSError) as exc:
        # str() of a KeyError is the repr of its message, quotes and all.
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Digest the bounds a checkout gives on the benchmark's queries, or
compare them with another checkout's.

Run from the root of a checkout, alone or naming another one, such as
the parent commit unpacked with ``git archive``:

    python3 tools/bounds_compare.py --seeds 1 2
    python3 tools/bounds_compare.py PARENT_CHECKOUT --seeds 1 2

For each seed, each workload of this checkout's ``perfbench/workloads.py``
is generated once.  Each checkout's package answers every query, as the
benchmark asks it, in a child process of its own.  A query that raises
one of the failures the benchmark counts is answered by the name of its
exception.

Each answer is digested as its status, iterations, node visits,
active-set sizes and the bounds of every iteration, written as float
hex, so two checkouts digest alike exactly when their answers are
bit-identical.  Alone, the tool prints one ``SEED WORKLOAD N SHA256``
line per seed and workload, so that a mismatch names the workload, and
last the total line, the number of queries and one sha256 over all of
them.  A change that alters one workload's bounds by design alters that
workload's lines and the total line; the other lines must still match.
``tools/bounds_digest.txt`` holds these lines for the current bounds.

Naming a parent, the tool compares iteration k of a query with
iteration k of the same query on the other side.  Growth does not read
the bounds, so both sides evaluated the same active set there, and the
count of queries whose active-set sizes differ checks that premise; an
iteration that only one side made counts in its totals alone.  An entry,
one state's interval at one iteration, is wider when one of its bounds
lies outside the parent's, and tighter when one lies inside it.  One
line is printed per seed and workload, in the form

    SEED WORKLOAD N queries: wider W (max DW), tighter T (max DT),
    iterations I0 -> I1, node_visits V0 -> V1, anytime area R0 -> R1,
    outcomes changed K, active sets changed A

on one line, and last the parent's total line, then this checkout's.
DW and DT are the largest differences of a bound, the totals and the
mean anytime areas read parent -> this checkout, and an outcome is a
query's status or the failure it raised.  A query's anytime area is
sum_i width_i * (n_i - n_(i-1)) / n_final, with width_i the widest
interval of iteration i, n_i its active-set size and n_0 = 0: the lower,
the sooner its bounds tightened as its active set grew.  A change that
should only tighten bounds must read ``wider 0``, or wider only by
rounding.  Nothing is written to disk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
# The failures the benchmark counts, by name: a checkout may lack one.
FAILURES = ("ConflictingEvidenceError", "CutsetOverflowError")


def answer(checkout: str) -> None:
    """Answer the workload read as JSON from stdin with the checkout's
    package: one JSON line per query, ``[outcome, node_visits,
    active_nodes, bels]`` with each belief as ``[lo, hi]``."""
    sys.path.insert(0, str(Path(checkout) / "src"))
    import boundprop

    failures = tuple(getattr(boundprop, name) for name in FAILURES if hasattr(boundprop, name))
    workload = json.load(sys.stdin)
    nets = [boundprop.parse_network(text) for text in workload["texts"]]
    for net, node, evidence, strategy, width in workload["queries"]:
        stop = boundprop.StopCriterion.width(width)
        try:
            r = boundprop.answer_query(nets[net], node, evidence, strategy=strategy, stop=stop)
        except failures as exc:
            print(json.dumps([type(exc).__name__, 0, [], []]))
            continue
        print(json.dumps([r.status, r.node_visits, r.active_nodes, [[b.lo, b.hi] for b in r.bels]]))


def answers(checkout: Path, workload) -> list:
    """The answers of one checkout's package to every query of the workload."""
    data = {
        "texts": list(workload.texts),
        "queries": [[q.net, q.node, q.evidence, q.strategy, q.width] for q in workload.queries],
    }
    # The child's errors go to this process's stderr.
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--answer", str(checkout)],
        input=json.dumps(data),
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout
    return [json.loads(line) for line in out.splitlines()]


def digest_lines(name: str, answers: list):
    """One text line per answer of the named workload, in query order.
    JSON carries each float exactly, so its hex is the engine's."""
    for i, (outcome, visits, sizes, bels) in enumerate(answers):
        if outcome in FAILURES:
            yield f"{name} {i} raised {outcome}"
            continue
        hexes = " ".join(",".join(x.hex() for x in (*lo, *hi)) for lo, hi in bels)
        yield f"{name} {i} {outcome} {len(bels)} {visits} {sizes} {hexes}"


def compare(parent: list, change: list) -> dict:
    """Entries wider and tighter in ``change`` than in ``parent``, each
    with its largest difference, the queries whose outcome or active-set
    sizes differ, and each side's totals."""
    out = dict(wider=0, max_wider=0.0, tighter=0, max_tighter=0.0, outcomes=0, active=0,
               iterations=[0, 0], visits=[0, 0])
    for a, b in zip(parent, change, strict=True):
        out["outcomes"] += a[0] != b[0]
        out["active"] += a[2] != b[2]
        for side, (_, visits, _, bels) in enumerate((a, b)):
            out["iterations"][side] += len(bels)
            out["visits"][side] += visits
        for (a_lo, a_hi), (b_lo, b_hi) in zip(a[3], b[3]):
            for lo, hi, new_lo, new_hi in zip(a_lo, a_hi, b_lo, b_hi):
                wider, tighter = max(lo - new_lo, new_hi - hi), max(new_lo - lo, hi - new_hi)
                if wider > 0.0:
                    out["wider"] += 1
                    out["max_wider"] = max(out["max_wider"], wider)
                if tighter > 0.0:
                    out["tighter"] += 1
                    out["max_tighter"] = max(out["max_tighter"], tighter)
    return out


def anytime_area(answers: list) -> float:
    """The mean anytime area (see above) of the answered queries: the
    widest interval of each iteration, weighed by the share of the final
    active set that iteration added."""
    areas = []
    for outcome, _, sizes, bels in answers:
        if outcome in FAILURES:
            continue
        area, last = 0.0, 0
        for n, (lo, hi) in zip(sizes, bels, strict=True):
            area += max(b - a for a, b in zip(lo, hi)) * (n - last)
            last = n
        areas.append(area / last)
    return sum(areas) / len(areas) if areas else math.nan


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="the checkout to compare this one against")
    ap.add_argument("--seeds", type=int, nargs="+")
    ap.add_argument("--answer", metavar="CHECKOUT", help="answer one workload given on stdin (each side's child)")
    args = ap.parse_args(argv)
    if args.answer is not None:
        answer(args.answer)
        return 0
    if args.seeds is None:
        ap.error("--seeds is required")
    # Else a child would import whatever other boundprop it finds.
    if args.parent is not None and not (Path(args.parent) / "src" / "boundprop" / "__init__.py").is_file():
        ap.error(f"{args.parent} holds no src/boundprop package")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    import workloads

    checkouts = (ROOT,) if args.parent is None else (Path(args.parent).resolve(), ROOT)
    count, totals = 0, [hashlib.sha256() for _ in checkouts]
    with ThreadPoolExecutor(len(checkouts)) as pool:
        for seed in args.seeds:
            for name, generate in sorted(workloads.GENERATORS.items()):
                w = generate(seed)
                sides = list(pool.map(answers, checkouts, [w] * len(checkouts)))
                parts = [hashlib.sha256() for _ in sides]
                for total, part, side in zip(totals, parts, sides):
                    for line in digest_lines(name, side):
                        data = f"{seed} {line}\n".encode()
                        total.update(data)
                        part.update(data)
                count += len(w.queries)
                if args.parent is None:
                    print(f"{seed} {name} {len(w.queries)} {parts[0].hexdigest()}", flush=True)
                    continue
                c = compare(*sides)
                print(
                    f"{seed} {name} {len(w.queries)} queries: "
                    f"wider {c['wider']} (max {c['max_wider']:.3g}), "
                    f"tighter {c['tighter']} (max {c['max_tighter']:.3g}), "
                    f"iterations {c['iterations'][0]} -> {c['iterations'][1]}, "
                    f"node_visits {c['visits'][0]} -> {c['visits'][1]}, "
                    f"anytime area {anytime_area(sides[0]):.4f} -> {anytime_area(sides[1]):.4f}, "
                    f"outcomes changed {c['outcomes']}, active sets changed {c['active']}",
                    flush=True,
                )
    for total in totals:
        print(f"{count} queries sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

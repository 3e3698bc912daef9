"""One digest of every bound the engine gives on the benchmark's workloads.

Run from the root of a checkout:

    python3 tools/bounds_digest.py --seeds 1 2

For each seed, each workload of ``perfbench/workloads.py`` is generated
and every one of its queries is answered once, as the benchmark asks it.
The tool digests each answer's status, iterations, node visits,
active-set sizes and the bounds of every iteration, written as float
hex, so that two checkouts print the same lines exactly when their
answers are bit-identical.  A query that raises one of the failures the
benchmark counts is digested as the name of its exception.  It prints
one ``seed workload count sha256`` line per seed and workload, so that
a mismatch names the workload, and last the total line, the number of
queries and one sha256 over all of them.  A change that alters the
bounds of one workload by design alters that workload's lines and the
total line; the other workloads' lines must still match.  Nothing is
written to disk.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.dont_write_bytecode = True
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from boundprop import (  # noqa: E402
    ConflictingEvidenceError,
    CutsetOverflowError,
    StopCriterion,
    answer_query,
    parse_network,
)


def answer_lines(workload):
    """One text line per query of the workload, in query order."""
    nets = [parse_network(text) for text in workload.texts]
    for i, q in enumerate(workload.queries):
        head = f"{workload.name} {i}"
        try:
            r = answer_query(
                nets[q.net], q.node, q.evidence, strategy=q.strategy, stop=StopCriterion.width(q.width)
            )
        except (ConflictingEvidenceError, CutsetOverflowError) as exc:
            yield f"{head} raised {type(exc).__name__}"
            continue
        bels = " ".join(",".join(x.hex() for x in (*b.lo, *b.hi)) for b in r.bels)
        yield f"{head} {r.status} {r.iterations} {r.node_visits} {r.active_nodes} {bels}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    args = ap.parse_args(argv)
    digest = hashlib.sha256()
    count = 0
    for seed in args.seeds:
        for name, generate in sorted(workloads.GENERATORS.items()):
            part = hashlib.sha256()
            part_count = 0
            for line in answer_lines(generate(seed)):
                data = f"{seed} {line}\n".encode()
                digest.update(data)
                part.update(data)
                part_count += 1
            print(f"{seed} {name} {part_count} {part.hexdigest()}", flush=True)
            count += part_count
    print(f"{count} queries sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

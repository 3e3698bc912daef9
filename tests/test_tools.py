"""The bounds digest must see every field it claims to cover."""

import hashlib
import random
import sys
import types
from pathlib import Path

from boundprop import StopCriterion, answer_query, serialize_network
from boundprop.netgen import GenSpec, gen_loopy, sample_evidence

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bounds_digest.py"


def _load_tool(monkeypatch):
    # Executed from its source text; the path and bytecode settings it
    # makes for a run of its own are put back after the test.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    module = types.ModuleType("bounds_digest")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), module.__dict__)
    return module


def test_digest_lines_carry_every_answer_field(monkeypatch):
    tool = _load_tool(monkeypatch)
    net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.3, seed=4))
    rng = random.Random(4)
    ev = sample_evidence(net, rng)
    free = [v for v in net.node_ids() if v not in ev][:3]
    queries = tuple(
        tool.workloads.Query(0, q, ev, strategy, 0.05) for q in free for strategy in ("bfs", "delayed")
    )
    w = tool.workloads.Workload("small", "", (serialize_network(net),), queries)
    lines = list(tool.answer_lines(w))
    assert lines == list(tool.answer_lines(w))
    assert len(lines) == len(queries)
    for i, (line, q) in enumerate(zip(lines, queries)):
        r = answer_query(net, q.node, ev, strategy=q.strategy, stop=StopCriterion.width(0.05))
        head = f"small {i} {r.status} {r.iterations} {r.node_visits} {r.active_nodes} "
        assert line.startswith(head)
        assert line.split(" ")[-r.iterations :] == [
            ",".join(x.hex() for x in (*b.lo, *b.hi)) for b in r.bels
        ]


def test_digest_prints_a_line_per_seed_and_workload_before_the_total(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    nets = [gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.2, seed=s)) for s in (5, 6)]

    def small(name, net):
        def generate(seed):
            free = net.node_ids()[seed : seed + 2]
            queries = tuple(tool.workloads.Query(0, q, {}, "bfs", 0.05) for q in free)
            return tool.workloads.Workload(name, "", (serialize_network(net),), queries)

        return generate

    generators = {"zeta": small("zeta", nets[0]), "alpha": small("alpha", nets[1])}
    monkeypatch.setattr(tool.workloads, "GENERATORS", generators)
    assert tool.main(["--seeds", "1", "2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    total, count, parts = hashlib.sha256(), 0, []
    for seed in (1, 2):
        for name in ("alpha", "zeta"):
            data = [f"{seed} {line}\n".encode() for line in tool.answer_lines(generators[name](seed))]
            parts.append(f"{seed} {name} {len(data)} {hashlib.sha256(b''.join(data)).hexdigest()}")
            total.update(b"".join(data))
            count += len(data)
    assert printed == parts + [f"{count} queries sha256 {total.hexdigest()}"]
    assert len(set(parts)) == 4

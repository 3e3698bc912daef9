"""The bounds tool must see every field it claims to cover."""

import hashlib
import math
import random
import sys
import types
from pathlib import Path

from boundprop import StopCriterion, answer_query, serialize_network
from boundprop.netgen import GenSpec, gen_loopy, sample_evidence

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(monkeypatch):
    # Executed from its source text; the path and bytecode settings it
    # makes for a run of its own are put back after the test.  A test's
    # ``import workloads`` finds perfbench's here, and so does the tool's.
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    monkeypatch.syspath_prepend(str(TOOLS.parent / "perfbench"))
    tool = TOOLS / "bounds_compare.py"
    module = types.ModuleType("bounds_compare")
    module.__file__ = str(tool)
    exec(compile(tool.read_text(encoding="utf-8"), str(tool), "exec"), module.__dict__)
    return module


def test_digest_lines_carry_every_answer_field(monkeypatch):
    tool = _load_tool(monkeypatch)
    import workloads

    net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.3, seed=4))
    rng = random.Random(4)
    ev = sample_evidence(net, rng)
    free = [v for v in net.node_ids() if v not in ev][:3]
    queries = tuple(
        workloads.Query(0, q, ev, strategy, 0.05) for q in free for strategy in ("bfs", "delayed")
    )
    w = workloads.Workload("small", "", (serialize_network(net),), queries)
    lines = list(tool.digest_lines("small", tool.answers(tool.ROOT, w)))
    assert lines == list(tool.digest_lines("small", tool.answers(tool.ROOT, w)))
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
    import workloads

    nets = [gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.2, seed=s)) for s in (5, 6)]

    def small(name, net):
        def generate(seed):
            free = net.node_ids()[seed : seed + 2]
            queries = tuple(workloads.Query(0, q, {}, "bfs", 0.05) for q in free)
            return workloads.Workload(name, "", (serialize_network(net),), queries)

        return generate

    generators = {"zeta": small("zeta", nets[0]), "alpha": small("alpha", nets[1])}
    monkeypatch.setattr(workloads, "GENERATORS", generators)
    assert tool.main(["--seeds", "1", "2"]) == 0
    printed = capsys.readouterr().out.splitlines()
    total, count, parts = hashlib.sha256(), 0, []
    for seed in (1, 2):
        for name in ("alpha", "zeta"):
            lines = tool.digest_lines(name, tool.answers(tool.ROOT, generators[name](seed)))
            data = [f"{seed} {line}\n".encode() for line in lines]
            parts.append(f"{seed} {name} {len(data)} {hashlib.sha256(b''.join(data)).hexdigest()}")
            total.update(b"".join(data))
            count += len(data)
    assert printed == parts + [f"{count} queries sha256 {total.hexdigest()}"]
    assert len(set(parts)) == 4


def test_compare_counts_each_entry_that_moves(monkeypatch):
    tool = _load_tool(monkeypatch)
    parent = [
        ["satisfied", 7, [1, 3], [[[0.25, 0.5], [0.5, 0.75]], [[0.5, 0.25], [0.5, 0.5]]]],
        ["ConflictingEvidenceError", 0, [], []],
    ]
    change = [
        ["saturated", 5, [1], [[[0.125, 0.5], [0.5, 0.5]]]],
        ["ConflictingEvidenceError", 0, [], []],
    ]
    # Entry 0 of iteration 0 is wider by 0.125; entry 1 is tighter by 0.25.
    assert tool.compare(parent, change) == dict(
        wider=1, max_wider=0.125, tighter=1, max_tighter=0.25, outcomes=1, active=1,
        iterations=[2, 1], visits=[7, 5],
    )


def test_compare_counts_a_query_whose_active_sets_differ(monkeypatch):
    tool = _load_tool(monkeypatch)
    bels = [[[0.5, 0.25], [0.75, 0.5]], [[0.5, 0.5], [0.5, 0.5]]]
    # Same bounds, outcome and totals, grown through other active sets.
    parent = [["satisfied", 6, [1, 3], bels]]
    change = [["satisfied", 6, [1, 4], bels]]
    assert tool.compare(parent, change) == dict(
        wider=0, max_wider=0.0, tighter=0, max_tighter=0.0, outcomes=0, active=1,
        iterations=[2, 2], visits=[6, 6],
    )


def test_anytime_area_weighs_each_width_by_the_nodes_its_iteration_added(monkeypatch):
    tool = _load_tool(monkeypatch)
    answers = [
        # Width 1 over the first node, then 0.25 over three more: 1.75 / 4.
        ["satisfied", 5, [1, 4], [[[0.0, 0.0], [1.0, 1.0]], [[0.25, 0.5], [0.5, 0.75]]]],
        ["ConflictingEvidenceError", 0, [], []],
        ["saturated", 1, [2], [[[0.5, 0.5], [0.5, 0.5]]]],
    ]
    assert tool.anytime_area(answers) == (0.4375 + 0.0) / 2
    assert math.isnan(tool.anytime_area(answers[1:2]))


def test_compare_against_this_checkout_reports_no_change(monkeypatch, capsys):
    tool = _load_tool(monkeypatch)
    import workloads

    net = gen_loopy(GenSpec(node_count=12, topology="loopy", arc_ratio=1.3, seed=4))
    ev = sample_evidence(net, random.Random(4))
    free = [v for v in net.node_ids() if v not in ev][:3]

    def generate(seed):
        queries = tuple(workloads.Query(0, q, ev, "bfs", 0.05) for q in free)
        return workloads.Workload("small", "", (serialize_network(net),), queries)

    monkeypatch.setattr(workloads, "GENERATORS", {"small": generate})
    assert tool.main([str(TOOLS.parent), "--seeds", "1"]) == 0
    line, parent_total, total = capsys.readouterr().out.splitlines()
    results = [answer_query(net, q, ev, stop=StopCriterion.width(0.05)) for q in free]
    visits = sum(r.node_visits for r in results)
    areas = [
        sum(w * (n - m) for w, n, m in zip(r.widths, r.active_nodes, [0, *r.active_nodes])) / r.active_nodes[-1]
        for r in results
    ]
    area = f"{sum(areas) / len(areas):.4f}"
    assert line.startswith("1 small 3 queries: wider 0 (max 0), tighter 0 (max 0), ")
    assert line.endswith(
        f"node_visits {visits} -> {visits}, anytime area {area} -> {area}, "
        "outcomes changed 0, active sets changed 0"
    )
    assert parent_total == total and total.startswith("3 queries sha256 ")

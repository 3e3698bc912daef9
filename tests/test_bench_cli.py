import json
import random

import pytest

from boundprop import bench, cli, loops
from boundprop.bench import load_suite, records_to_csv, records_to_jsonl, run_bench
from boundprop.cli import main
from boundprop.engine import LOOP_DELAYS
from boundprop.loops import CutsetOverflowError
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence
from boundprop.network import BeliefNetwork, serialize_network
from boundprop.oracle import StateSpaceError

from conftest import build_net

SUITE = {
    "seed": 3,
    "queries_per_network": 2,
    "strategies": ["bfs", "no-loops"],
    "target_widths": [0.5],
    "budget_ms": 30000,
    "networks": [
        {"nodes": 12, "topology": "polytree", "seed": 1},
        {"nodes": 10, "topology": "loopy", "ratio": 1.2, "seed": 2},
    ],
}


@pytest.fixture(scope="module")
def records():
    return list(run_bench(load_suite(json.dumps(SUITE))))


def test_bench_record_shape(records):
    assert len(records) == 2 * 2 * 2  # networks x queries x strategies
    for r in records:
        assert r["status"] in ("satisfied", "saturated", "budget") or r["status"].startswith("error")
        if r["status"] == "satisfied":
            assert r["achieved_width"] <= r["target_width"] + 1e-12
        assert r["iterations"] >= 1
        assert r["active_size"] >= 1


def test_bench_deterministic_apart_from_timing(records):
    again = list(run_bench(load_suite(json.dumps(SUITE))))
    strip = lambda r: {k: v for k, v in r.items() if not k.endswith("_ms")}
    assert [strip(r) for r in records] == [strip(r) for r in again]


def test_bench_serializations(records):
    jsonl = records_to_jsonl(records)
    assert len(jsonl.strip().splitlines()) == len(records)
    parsed = json.loads(jsonl.splitlines()[0])
    assert parsed["network"].startswith("polytree")
    csv_text = records_to_csv(records)
    header = csv_text.splitlines()[0]
    assert header.startswith("network,")
    assert len(csv_text.strip().splitlines()) == len(records) + 1


def test_suite_requires_networks():
    with pytest.raises(ValueError):
        load_suite("{}")


@pytest.mark.parametrize("suite", [
    [], None, {"networks": 3}, {"networks": [3]}, {**SUITE, "strategies": "bfs"},
    {**SUITE, "target_widths": 0.5},
])
def test_cli_bench_rejects_a_malformed_suite(tmp_path, capsys, suite):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["bench", "--suite", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "suite" in err


def test_bench_saturated_records_carry_width():
    suite = {
        "seed": 6,
        "queries_per_network": 4,
        "strategies": ["no-loops"],
        "target_widths": [0.0],
        "budget_ms": 30000,
        "networks": [{"nodes": 10, "topology": "loopy", "ratio": 1.3, "seed": 6}],
    }
    records = list(run_bench(load_suite(json.dumps(suite))))
    saturated = [r for r in records if r["status"] == "saturated"]
    assert saturated, "expected loop-free runs on a loopy net to saturate"
    for r in saturated:
        assert 0.0 < r["achieved_width"] <= 1.0


def test_cli_gen_query_exact_roundtrip(tmp_path, capsys):
    path = tmp_path / "net.txt"
    assert main(["gen", "--nodes", "10", "--seed", "4", "--out", str(path)]) == 0
    assert main(["query", str(path), "--node", "n3", "--target-width", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "status satisfied" in out
    assert "iter 1" in out
    assert main(["exact", str(path), "--node", "n3"]) == 0
    out = capsys.readouterr().out
    assert "enumeration" in out and "polytree" in out


def test_cli_exact_past_the_enumeration_cap(tmp_path, capsys):
    # A 60-node network's joint table exceeds the enumeration cap: a
    # polytree is still answered by message passing, a loopy one fails.
    path = tmp_path / "tree.txt"
    assert main(["gen", "--nodes", "60", "--seed", "1", "--out", str(path)]) == 0
    assert main(["exact", str(path), "--node", "n5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("polytree ")
    loopy = tmp_path / "loopy.txt"
    assert main(["gen", "--nodes", "60", "--topology", "loopy", "--seed", "1", "--out", str(loopy)]) == 0
    assert main(["exact", str(loopy), "--node", "n5"]) == 1
    assert "exceeds cap" in capsys.readouterr().err


def test_cli_exact_on_a_long_chain(tmp_path, capsys):
    n = 5000
    net = build_net("long", {f"n{i}": [f"n{i - 1}"] if i else [] for i in range(n)}, seed=2)
    path = tmp_path / "chain.txt"
    path.write_text(serialize_network(net))
    assert main(["exact", str(path), "--node", "n0", "--evidence", f"n{n - 1}=s1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("polytree ")


def test_cli_saturated_exit_code(tmp_path, capsys):
    net = gen_loopy(GenSpec(node_count=10, topology="loopy", arc_ratio=1.3, seed=5))
    path = tmp_path / "loopy.txt"
    path.write_text(serialize_network(net))
    code = main(
        ["query", str(path), "--node", "n2", "--strategy", "no-loops", "--target-width", "0"]
    )
    out = capsys.readouterr().out
    assert "status" in out
    assert code in (0, 2)
    # width zero on a loopy net without loop handling normally saturates
    if "status saturated" in out:
        assert code == 2


def test_cli_budget_exit_code(tmp_path, capsys):
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "40", "--seed", "9", "--out", str(path)])
    code = main(
        ["query", str(path), "--node", "n7", "--target-width", "0", "--budget-ms", "0"]
    )
    capsys.readouterr()
    assert code == 3
    for bad in ("nan", "-1"):
        args = ["query", str(path), "--node", "n7", "--budget-ms", bad]
        assert main(args) == 1
        assert "budget_ms" in capsys.readouterr().err


def test_cli_threshold(tmp_path, capsys):
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "8", "--seed", "11", "--out", str(path)])
    code = main(["query", str(path), "--threshold", "n1:s0>0.99"])
    out = capsys.readouterr().out
    assert code == 0
    assert "threshold" in out
    for spec in ("n1:s0>nan", "n1:s0>1.5", "n1:s0<-0.5"):
        assert main(["query", str(path), "--threshold", spec]) == 1
        assert "threshold probability" in capsys.readouterr().err


def test_cli_evidence_and_errors(tmp_path, capsys):
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "8", "--seed", "11", "--out", str(path)])
    assert main(["query", str(path), "--node", "n1", "--evidence", "n0=s0",
                 "--target-width", "1.0"]) == 0
    capsys.readouterr()
    assert main(["query", str(path), "--node", "bogus"]) == 1
    assert main(["query", str(path), "--node", "n1", "--evidence", "garbage"]) == 1
    assert main(["exact", str(tmp_path / "missing.txt"), "--node", "n1"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--threshold", "n1:s0=0.5"], "threshold must contain '>' or '<'"),
    (["--threshold", "n1>0.5"], "threshold must look like ID:STATE>P"),
    (["--threshold", "n1:<0.5"], "threshold must look like ID:STATE>P"),
    (["--node", "n2", "--threshold", "n1:s0>0.5"], "--node disagrees with the threshold's node"),
    ([], "--node is required without --threshold"),
    (["--target-width", "0.1"], "--node is required without --threshold"),
    (["--node", "zz"], "no node 'zz' in network 'polytree-8-s11'"),
    (["--threshold", "n1:zz>0.5"], "node 'n1' has no state 'zz'"),
])
def test_cli_query_rejects_a_malformed_question(tmp_path, capsys, flags, message):
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "8", "--seed", "11", "--out", str(path)])
    capsys.readouterr()
    assert main(["query", str(path), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_cli_has_no_loop_delay_option(tmp_path, capsys):
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "8", "--seed", "11", "--out", str(path)])
    for strategy in ("delayed", "bfs", "no-loops"):
        with pytest.raises(SystemExit) as exit_:
            main(["query", str(path), "--node", "n1", "--strategy", strategy, "--delay", "9"])
        assert exit_.value.code == 1
        assert "--delay" in capsys.readouterr().err


def test_cli_strategy_choices_are_the_loop_delay_names():
    query = cli.build_parser()._subparsers._group_actions[0].choices["query"]
    (action,) = [a for a in query._actions if a.dest == "strategy"]
    assert action.choices == list(LOOP_DELAYS)


def test_cli_threshold_and_target_width_exclude_each_other(tmp_path, capsys):
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "8", "--seed", "11", "--out", str(path)])
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["query", str(path), "--threshold", "n3:s0>0.5", "--target-width", "0.3"])
    assert exit_.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    [],
    ["frobnicate"],
    ["gen"],
    ["query", "net.txt", "--strategy", "dfs"],
    ["exact", "net.txt"],
    ["bench"],
])
def test_cli_usage_errors_exit_1(argv, capsys):
    # 2 means a saturated answer, so a rejected command line exits 1,
    # from the top-level parser and from every subcommand's alike.
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_generation_error_is_reported(capsys):
    assert main(["gen", "--nodes", "1", "--topology", "loopy"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_cutset_overflow_is_reported(tmp_path, capsys, monkeypatch):
    net = gen_loopy(GenSpec(node_count=40, topology="loopy", arc_ratio=1.3, seed=4))
    path = tmp_path / "loopy.txt"
    path.write_text(serialize_network(net))
    monkeypatch.setattr(loops, "INSTANCE_CAP", 1)
    assert main(["query", str(path), "--node", "n15"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_bench(tmp_path, capsys):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({
        "networks": [{"nodes": 8, "topology": "polytree", "seed": 0}],
        "queries_per_network": 1,
        "strategies": ["bfs"],
        "target_widths": [0.5],
    }))
    out_path = tmp_path / "results.jsonl"
    assert main(["bench", "--suite", str(suite_path), "--out", str(out_path)]) == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines and json.loads(lines[0])["strategy"] == "bfs"
    csv_path = tmp_path / "results.csv"
    assert main(["bench", "--suite", str(suite_path), "--out", str(csv_path), "--csv"]) == 0
    assert csv_path.read_text().startswith("network,")


def _fail_with(exc):
    def fail(*args, **kwargs):
        raise exc
    return fail


def test_baseline_on_loopy_nets_is_enumeration(monkeypatch):
    seen = []

    def enumerate_marginal(net, evidence, query):
        seen.append(query)
        return (0.5, 0.5)

    monkeypatch.setattr(bench, "enumerate_marginal", enumerate_marginal)
    suite = {**SUITE, "queries_per_network": 1, "strategies": ["bfs"],
             "networks": [{"nodes": 8, "topology": "loopy", "ratio": 1.3, "seed": 2}]}
    (record,) = run_bench(load_suite(json.dumps(suite)))
    assert record["baseline_ms"] is not None
    assert seen == [record["query"]]


def test_polytree_check_runs_once_per_network(monkeypatch):
    # The exact baseline's timed window holds only the oracle call.
    calls = []
    inner = bench.is_polytree

    def is_polytree(net):
        calls.append(net.name)
        return inner(net)

    monkeypatch.setattr(bench, "is_polytree", is_polytree)
    records = list(run_bench(load_suite(json.dumps(SUITE))))
    assert calls == list(dict.fromkeys(r["network"] for r in records))
    assert len(calls) == len(SUITE["networks"])


def test_baseline_state_space_error_is_recorded_as_none(monkeypatch):
    fail = _fail_with(StateSpaceError("joint table exceeds cap"))
    monkeypatch.setattr(bench, "polytree_exact", fail)
    monkeypatch.setattr(bench, "enumerate_marginal", fail)
    records = list(run_bench(load_suite(json.dumps(SUITE))))
    assert records and all(r["baseline_ms"] is None for r in records)
    assert all(not r["status"].startswith("error") for r in records)


def test_bench_answers_under_the_stored_evidence(tmp_path, monkeypatch):
    # A suite network read from a file keeps its evidence line: a stored
    # node is never a query, it is counted, and the oracle and the engine
    # both see it under the sampled evidence.
    net = gen_polytree(GenSpec(node_count=12, seed=4))
    stored = {"n3": 1, "n7": 0}
    path = tmp_path / "net.txt"
    path.write_text(serialize_network(BeliefNetwork(net.name, net.nodes, evidence=stored)))
    want = {**stored, **sample_evidence(net, random.Random(3))}
    seen = {"oracle": [], "engine": []}

    def spy(name, call):
        def wrapped(*args, **kwargs):
            seen[name].append(dict(args[1] if name == "oracle" else args[2]))
            return call(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(bench, "polytree_exact", spy("oracle", bench.polytree_exact))
    monkeypatch.setattr(bench, "answer_query", spy("engine", bench.answer_query))
    suite = {**SUITE, "queries_per_network": 12, "strategies": ["bfs"], "networks": [{"file": str(path)}]}
    records = list(run_bench(load_suite(json.dumps(suite))))
    assert sorted(r["query"] for r in records) == sorted(v for v in net.node_ids() if v not in want)
    assert all(r["evidence_count"] == len(want) for r in records)
    assert seen["oracle"] == seen["engine"] == [want] * len(records)


def test_bench_cutset_overflow_becomes_error_status(monkeypatch):
    monkeypatch.setattr(bench, "answer_query", _fail_with(CutsetOverflowError("too many instances")))
    records = list(run_bench(load_suite(json.dumps(SUITE))))
    assert records
    for r in records:
        assert r["status"] == "error:CutsetOverflowError"
        assert r["iterations"] == 0

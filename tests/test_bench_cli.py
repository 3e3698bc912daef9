import json
import math
import random

import pytest

from boundprop import bench, cli, loops
from boundprop.bench import load_suite, records_to_csv, records_to_jsonl, run_bench
from boundprop.cli import main
from boundprop.engine import LOOP_DELAYS
from boundprop.loops import CutsetOverflowError
from boundprop.netgen import GenSpec, gen_loopy, gen_polytree, sample_evidence
from boundprop.network import BeliefNetwork, serialize_network
from boundprop.oracle import STATE_SPACE_CAP, StateSpaceError, polytree_exact

from conftest import build_net, grid_spec

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


@pytest.mark.parametrize("bad", [None, [1], {"n": 1}, True, False])
@pytest.mark.parametrize("field", [
    "budget_ms", "target_widths", "queries_per_network", "seed",
    "nodes", "ratio", "network seed", "file",
])
def test_cli_bench_rejects_a_value_that_is_not_a_number_or_path(tmp_path, capsys, field, bad):
    suite = json.loads(json.dumps(SUITE))
    key = field.removeprefix("network ")
    if field == "target_widths":
        suite["target_widths"] = [0.5, bad]
    elif field in ("nodes", "ratio", "network seed", "file"):
        suite["networks"][0][key] = bad
    else:
        suite[key] = bad
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    assert main(["bench", "--suite", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: suite ") and repr(key) in err


@pytest.mark.parametrize("count", [-1, "-2"])
def test_cli_bench_rejects_a_negative_query_count(tmp_path, capsys, count):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({**SUITE, "queries_per_network": count}))
    assert main(["bench", "--suite", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: suite 'queries_per_network' must be nonnegative"), err


def test_bench_suite_reads_numbers_given_as_strings():
    suite = {**SUITE, "seed": "3", "queries_per_network": "1", "budget_ms": "30000",
             "target_widths": ["0.5"], "strategies": ["bfs"],
             "networks": [{"nodes": "8", "ratio": "1.2", "seed": "2", "topology": "loopy"}]}
    records = list(run_bench(load_suite(json.dumps(suite))))
    assert len(records) == 1 and records[0]["target_width"] == 0.5


def test_bench_seed_given_as_a_string_samples_the_same_queries():
    def sampled(seed):
        suite = {**SUITE, "seed": seed, "strategies": ["bfs"]}
        return [(r["network"], r["query"], r["evidence_count"]) for r in run_bench(load_suite(json.dumps(suite)))]

    assert sampled("3") == sampled(3)


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


@pytest.mark.parametrize("flag, number", [("inf", "1e400"), ("nan", "NaN")])
def test_cli_gen_and_bench_reject_a_ratio_that_is_not_finite(tmp_path, capsys, flag, number):
    # JSON reads 1e400 as inf.  Either ratio would reach math.ceil in the
    # generator, where inf is an OverflowError the command does not catch.
    assert main(["gen", "--nodes", "30", "--topology", "loopy", "--ratio", flag]) == 1
    assert capsys.readouterr().err.startswith("error: arc ratio must be finite")
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(SUITE).replace('"ratio": 1.2', f'"ratio": {number}'))
    assert main(["bench", "--suite", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: arc ratio must be finite")


def test_cli_gen_query_exact_roundtrip(tmp_path, capsys):
    path = tmp_path / "net.txt"
    assert main(["gen", "--nodes", "10", "--seed", "4", "--out", str(path)]) == 0
    assert main(["query", str(path), "--node", "n3", "--target-width", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "status satisfied" in out
    assert "iter 1" in out
    assert main(["exact", str(path), "--node", "n3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("exact s0=")


def printed_marginal(line):
    label, *cells = line.split()
    assert label == "exact"
    return [float(cell.split("=")[1]) for cell in cells]


def test_cli_exact_prints_one_line_on_a_polytree_and_a_loopy_network(tmp_path, capsys):
    # Both 60-node networks are far past a joint table's size; each is
    # answered by elimination in one line.
    path = tmp_path / "tree.txt"
    assert main(["gen", "--nodes", "60", "--seed", "1", "--out", str(path)]) == 0
    assert main(["exact", str(path), "--node", "n5"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    tree = gen_polytree(GenSpec(node_count=60, seed=1))
    assert printed_marginal(line) == pytest.approx(polytree_exact(tree, {}, "n5"), abs=1e-9)
    loopy = tmp_path / "loopy.txt"
    assert main(["gen", "--nodes", "60", "--topology", "loopy", "--seed", "1", "--out", str(loopy)]) == 0
    assert main(["exact", str(loopy), "--node", "n5", "--evidence", "n59=s0"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert sum(printed_marginal(line)) == pytest.approx(1.0, abs=1e-8)


def test_cli_exact_on_a_long_chain(tmp_path, capsys):
    n = 5000
    net = build_net("long", {f"n{i}": [f"n{i - 1}"] if i else [] for i in range(n)}, seed=2)
    path = tmp_path / "chain.txt"
    path.write_text(serialize_network(net))
    assert main(["exact", str(path), "--node", "n0", "--evidence", f"n{n - 1}=s1"]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert printed_marginal(line) == pytest.approx(polytree_exact(net, {f"n{n - 1}": 1}, "n0"), abs=1e-9)


def test_cli_exact_under_hundreds_of_observations(tmp_path, capsys):
    net = gen_polytree(GenSpec(node_count=4000, seed=2))
    rng = random.Random(2)
    ev = {v: rng.randrange(net.state_count(v)) for v in rng.sample(net.node_ids(), 800)}
    query = next(v for v in reversed(net.node_ids()) if v not in ev)
    path = tmp_path / "tree.txt"
    path.write_text(serialize_network(net))
    pairs = [f"--evidence={v}={net.states(v)[s]}" for v, s in ev.items()]
    assert main(["exact", str(path), "--node", query, *pairs]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    assert printed_marginal(line) == pytest.approx(polytree_exact(net, ev, query), abs=1e-9)


def test_cli_exact_past_the_factor_cap_exits_1(tmp_path, capsys):
    path = tmp_path / "grid.txt"
    path.write_text(serialize_network(build_net("grid", grid_spec(30), seed=3)))
    assert main(["exact", str(path), "--node", "g29_29"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"exceeds cap 2^{math.log2(STATE_SPACE_CAP):g}" in captured.err


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


# A network file as some editors save it: a UTF-8 byte-order mark first
# and CRLF line ends.
BOM_NET = b"\xef\xbb\xbfnetwork x\r\nnode A states t f\r\ncpt A\r\n0.5 0.5\r\n"


def test_cli_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path, capsys):
    path = tmp_path / "bom.net"
    path.write_bytes(BOM_NET)
    assert main(["query", str(path), "--node", "A"]) == 0
    assert "status satisfied" in capsys.readouterr().out


def test_bench_suite_reads_a_file_that_starts_with_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.net"
    path.write_bytes(BOM_NET)
    suite = {**SUITE, "queries_per_network": 1, "strategies": ["bfs"], "networks": [{"file": str(path)}]}
    records = list(run_bench(load_suite(json.dumps(suite))))
    assert [(r["network"], r["query"], r["status"]) for r in records] == [("x", "A", "satisfied")]


def test_cli_bench_reads_a_suite_that_starts_with_a_byte_order_mark(tmp_path):
    # The suite is read as its network files are: a byte-order mark first
    # is no error, and the records equal those of the plain suite.
    net = tmp_path / "bom.net"
    net.write_bytes(BOM_NET)
    suite = json.dumps({**SUITE, "queries_per_network": 1, "strategies": ["bfs"], "networks": [{"file": str(net)}]})
    answers = []
    for name, data in [("plain", suite.encode()), ("bom", b"\xef\xbb\xbf" + suite.encode())]:
        (tmp_path / f"{name}.json").write_bytes(data)
        out = tmp_path / f"{name}.jsonl"
        assert main(["bench", "--suite", str(tmp_path / f"{name}.json"), "--out", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        answers.append([(r["network"], r["query"], r["status"], r["achieved_width"]) for r in records])
    assert answers[0] == answers[1] == [("x", "A", "satisfied", 0.0)]


@pytest.mark.parametrize("command", ["query", "exact"])
@pytest.mark.parametrize("states", [("s0", "s1"), ("s0", "s0")])
def test_cli_rejects_a_node_observed_twice(tmp_path, capsys, command, states):
    # As a network file with a second evidence line for one node is refused.
    path = tmp_path / "net.txt"
    main(["gen", "--nodes", "6", "--seed", "1", "--out", str(path)])
    capsys.readouterr()
    evidence = [arg for s in states for arg in ("--evidence", f"n5={s}")]
    assert main([command, str(path), "--node", "n0", *evidence]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: duplicate evidence for 'n5'\n"
    assert captured.out == ""


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


def test_baseline_is_one_oracle_call_per_query(monkeypatch):
    seen = []

    def enumerate_marginal(net, evidence, query):
        seen.append(query)
        return (0.5, 0.5)

    monkeypatch.setattr(bench, "enumerate_marginal", enumerate_marginal)
    records = list(run_bench(load_suite(json.dumps(SUITE))))
    # On the polytree and the loopy network alike: one call per query,
    # not one per strategy.
    assert all(r["baseline_ms"] is not None for r in records)
    assert seen == [q for _, q in dict.fromkeys((r["network"], r["query"]) for r in records)]


def test_baseline_state_space_error_is_recorded_as_none(monkeypatch):
    monkeypatch.setattr(bench, "enumerate_marginal", _fail_with(StateSpaceError("factor exceeds cap")))
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

    monkeypatch.setattr(bench, "enumerate_marginal", spy("oracle", bench.enumerate_marginal))
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

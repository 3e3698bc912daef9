"""Smoke tests for the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import functools
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from boundprop import StopCriterion, answer_query, enumerate_marginal, relevant_set  # noqa: E402
from boundprop.netgen import GenSpec, gen_loopy, sample_evidence  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

TINY = {
    "polytree-40k": functools.partial(workloads.polytree_40k, queries=6, nodes=300),
    "chain-500": functools.partial(workloads.chain_500, nodes=40),
    "loopy-cutset": functools.partial(workloads.loopy_cutset, per_shape=1),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, gen in TINY.items():
        monkeypatch.setitem(workloads.GENERATORS, name, gen)


def bench(capsys, workload: str, trace: int, seed: int = 1) -> tuple[str, dict]:
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    out = capsys.readouterr().out
    return out, json.loads(out.strip().splitlines()[-1])


def test_workloads_match_the_record():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.GENERATORS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WHY[w["name"]]


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_prints_every_metric(tiny, capsys, workload, trace):
    text, result = bench(capsys, workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for m in declared:
        assert m["name"] in text and m["unit"] in text
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    if trace and workload != "loopy-cutset":
        assert result["metrics"]["loops.conditioned_evals"]["value"] == 0


def test_layer_counts_repeat_exactly(tiny, capsys):
    runs = [bench(capsys, "loopy-cutset", 1)[1]["metrics"] for _ in range(2)]
    counts = [
        {k: v["value"] for k, v in m.items() if v["unit"] == "count"} for m in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["loops.cutset_instances"] > 0


def test_gate_fails_against_a_wrong_reference(tiny, capsys, monkeypatch):
    exact = reference.exact

    def wrong(*args):
        return tuple(reversed(exact(*args)))  # skewed rows make this differ

    monkeypatch.setattr(reference, "exact", wrong)
    text, result = bench(capsys, "chain-500", 0)
    assert result["correct"] is False
    assert "containment misses 0 " not in text


def test_misses_counts_each_uncontained_iteration():
    net = gen_loopy(GenSpec(node_count=8, topology="loopy", arc_ratio=1.2, seed=3))
    res = answer_query(net, "n0", {}, strategy="bfs", stop=StopCriterion.width(0.0))
    want = enumerate_marginal(net, {}, "n0")
    assert reference.misses(res.bels, want) == 0
    off = tuple(x + 0.01 for x in want)
    assert 1 <= reference.misses(res.bels, off) <= len(res.bels)


@pytest.mark.parametrize("seed", range(20))
def test_variable_elimination_matches_enumeration(seed):
    rng = random.Random(seed)
    net = gen_loopy(
        GenSpec(
            node_count=rng.randint(5, 10),
            topology="loopy",
            arc_ratio=rng.choice((1.1, 1.2, 1.3)),
            seed=seed,
        )
    )
    ev = sample_evidence(net, rng, 0.4)
    for node in net.node_ids():
        want = enumerate_marginal(net, ev, node)
        got = reference.ve_marginal(net, ev, node)
        assert got == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_workload_relevance_is_d_separation(seed):
    rng = random.Random(seed)
    net = gen_loopy(GenSpec(node_count=30, topology="loopy", arc_ratio=1.2, seed=seed))
    ev = sample_evidence(net, rng)
    for node in net.node_ids():
        if node not in ev:
            assert workloads.relevant(net, node, ev) == relevant_set(net, node, ev)


def test_radius_counts_arcs_either_way_inside_the_part():
    net = workloads.gen_chain(6, random.Random(1))
    part = {f"c{i}" for i in range(1, 6)}
    assert workloads.radius(net, "c2", part) == 3
    assert workloads.radius(net, "c2", part - {"c4"}) == 1
    assert workloads.radius(net, "c2", {"c2"}) == 0


def test_hd_quantile_is_smooth_and_skips_far_failures():
    xs = [1.0] * 49 + [2.0] * 51
    mid = run.hd_quantile(xs, 0.5)
    assert 1.0 < mid < 2.0
    assert run.hd_quantile(xs + [float("inf")], 0.5) < 2.0
    assert run.hd_quantile([3.0], 0.9) == 3.0


def test_measure_repeats_setup_between_passes():
    w = TINY["chain-500"](1)
    client, setup, answered = run.measure(w.texts, w.queries, 0.0)
    assert len(answered) == run.MIN_PASSES * len(w.queries)
    assert [i for i, *_ in answered[: len(w.queries)]] == list(range(len(w.queries)))
    assert len(setup) > run.MIN_PASSES
    assert all(r is not None for _, r, _, _ in answered)
    assert all(f > 0.0 for _, f in setup) and all(f > 0.0 for *_, f in answered)


def test_speed_factor_is_the_window_median():
    fast, slow = speed.NOMINAL_S, 2.0 * speed.NOMINAL_S
    assert speed.scale([fast] * 6 + [slow] * 12)[::17] == [1.0, 0.5]
    assert speed.scale([fast] * 4 + [1.0] + [fast] * 4) == [1.0] * 9


def test_timing_metrics_scale_each_repeat_then_take_the_median():
    ok = object()
    answered = [(0, ok, 0.002, 0.5), (0, ok, 0.004, 0.5), (0, ok, 0.010, 0.1)]
    scaled = run.timing_metrics([(0.3, 0.5)], answered, scaled=True)
    wall = run.timing_metrics([(0.3, 0.5)], answered, scaled=False)
    assert scaled["query_p50_ms"][0] == pytest.approx(1.0)
    assert scaled["setup_s"][0] == pytest.approx(0.15)
    assert wall["query_p50_ms"][0] == pytest.approx(4.0)
    assert wall["queries_per_s"][0] == pytest.approx(250.0)

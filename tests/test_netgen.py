import hashlib
import math
import random
import time

import pytest

from boundprop import is_polytree, netgen, parse_network, serialize_network
from boundprop.cli import main
from boundprop.netgen import (
    GenerationError,
    GenSpec,
    gen_loopy,
    generate,
    gen_polytree,
    sample_evidence,
    sample_skewed_row,
)


def test_skewed_row_is_distribution():
    rng = random.Random(0)
    for _ in range(200):
        k = rng.randint(2, 4)
        row = sample_skewed_row(k, rng)
        assert len(row) == k
        assert all(v > 0.0 for v in row)
        assert sum(row) == pytest.approx(1.0, abs=1e-12)


def test_skewed_row_deterministic():
    assert sample_skewed_row(3, random.Random(9)) == sample_skewed_row(3, random.Random(9))


def test_skew_spans_two_orders_of_magnitude():
    rng = random.Random(42)
    ratios = []
    for _ in range(100000):
        row = sample_skewed_row(rng.randint(2, 4), rng)
        ratios.append(max(row) / min(row))
    ratios.sort()
    median = ratios[len(ratios) // 2]
    assert 100 / 3 <= median <= 100 * 3


def test_gen_polytree_shape():
    net = gen_polytree(GenSpec(node_count=50, seed=1))
    assert len(net.nodes) == 50
    assert len(net.arcs) == 49
    assert is_polytree(net)
    for n in net.nodes:
        assert 2 <= len(n.states) <= 4
        for row in n.cpt:
            assert sum(row) == pytest.approx(1.0, abs=1e-9)


def test_gen_polytree_respects_table_cap():
    net = gen_polytree(GenSpec(node_count=120, seed=7))
    for n in net.nodes:
        size = len(n.states)
        for p in n.parents:
            size *= net.state_count(p)
        assert size <= 1000


def test_gen_polytree_large_is_fast():
    t0 = time.perf_counter()
    gen_polytree(GenSpec(node_count=250, seed=2))
    assert time.perf_counter() - t0 < 1.0


def test_gen_polytree_deterministic():
    a = serialize_network(gen_polytree(GenSpec(node_count=30, seed=12)))
    b = serialize_network(gen_polytree(GenSpec(node_count=30, seed=12)))
    assert a == b


def test_gen_loopy_arc_count():
    net = gen_loopy(GenSpec(node_count=30, topology="loopy", arc_ratio=1.1, seed=4))
    assert len(net.arcs) == math.ceil(1.1 * 30)
    assert not is_polytree(net)


def test_gen_loopy_ratio_superset():
    lo = gen_loopy(GenSpec(node_count=30, topology="loopy", arc_ratio=1.1, seed=8))
    hi = gen_loopy(GenSpec(node_count=30, topology="loopy", arc_ratio=1.3, seed=8))
    assert set(lo.arcs) <= set(hi.arcs)
    assert len(hi.arcs) == math.ceil(1.3 * 30)


def test_gen_loopy_rejects_more_arcs_than_a_dag_holds_before_drawing(monkeypatch):
    # Four nodes hold at most 6 arcs: a ratio of 1.5 asks for exactly 6,
    # 1.6 for 7, which no table cap is to blame for.
    assert len(gen_loopy(GenSpec(node_count=4, topology="loopy", arc_ratio=1.5, seed=0)).arcs) == 6

    def draw(*args):
        raise AssertionError("drew a tree for an infeasible spec")

    monkeypatch.setattr(netgen, "_oriented_tree", draw)
    for n, ratio, want in ((4, 1.6, "arc count 7 exceeds the DAG limit n(n-1)/2 = 6 for n = 4"),
                           (2, 1.0, "arc count 2 exceeds the DAG limit n(n-1)/2 = 1 for n = 2"),
                           (1, 1.0, "arc count 1 exceeds the DAG limit n(n-1)/2 = 0 for n = 1")):
        with pytest.raises(GenerationError) as exc:
            gen_loopy(GenSpec(node_count=n, topology="loopy", arc_ratio=ratio, seed=0))
        assert str(exc.value) == want


def test_cli_gen_names_the_dag_limit(capsys):
    assert main(["gen", "--nodes", "4", "--topology", "loopy", "--ratio", "1.6"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arc count 7 exceeds the DAG limit n(n-1)/2 = 6 for n = 4\n"


def test_cli_gen_without_out_writes_the_network_to_stdout(capsys):
    assert main(["gen", "--nodes", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert len(parse_network(captured.out).nodes) == 3
    assert captured.out == serialize_network(generate(GenSpec(node_count=3, seed=1)))


def test_an_edge_no_table_cap_admits_either_way_is_a_generation_error():
    # A table with one parent holds at least 2 x 2 values, over a cap of 3.
    with pytest.raises(GenerationError, match="cannot orient edge within the table cap"):
        generate(GenSpec(node_count=3, cpt_cap=3))


def test_a_skewed_row_needs_two_entries():
    with pytest.raises(ValueError, match="at least two entries"):
        sample_skewed_row(1, random.Random(0))


def test_gen_loopy_is_dag():
    # construction already validates acyclicity; reparse to double-check
    net = gen_loopy(GenSpec(node_count=25, topology="loopy", arc_ratio=1.3, seed=3))
    order = {v: i for i, v in enumerate(net.node_ids())}
    seen = set()
    for n in net.nodes:
        seen.add(n.id)
    assert len(seen) == 25


def test_sample_evidence_bounds():
    net = gen_polytree(GenSpec(node_count=40, seed=6))
    for seed in range(30):
        ev = sample_evidence(net, random.Random(seed))
        assert len(ev) <= 10
        for v, s in ev.items():
            assert 0 <= s < net.state_count(v)
    assert sample_evidence(net, random.Random(0)) == sample_evidence(net, random.Random(0))
    counts = {len(sample_evidence(net, random.Random(s))) for s in range(200)}
    assert 0 in counts  # empty evidence does occur


def test_genspec_validation():
    with pytest.raises(ValueError):
        GenSpec(node_count=0)
    with pytest.raises(ValueError):
        GenSpec(node_count=5, topology="ring")
    with pytest.raises(ValueError):
        GenSpec(node_count=5, topology="loopy", arc_ratio=0.9)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            GenSpec(node_count=5, topology="loopy", arc_ratio=bad)


def test_generated_networks_and_evidence_are_pinned():
    # The perfbench inputs come from netgen, so its output must not drift:
    # this digest of networks, evidence and generation failures over 180
    # seeded specs (tables capped at 100 included) is pinned bit for bit.
    digest = hashlib.sha256()
    for seed in range(60):
        for spec in (
            GenSpec(node_count=1 + (seed * 7) % 40, seed=seed),
            GenSpec(node_count=2 + (seed * 5) % 30, topology="loopy", arc_ratio=(1.0, 1.2, 1.5)[seed % 3], seed=seed),
            GenSpec(node_count=2 + (seed * 3) % 25, topology="loopy", arc_ratio=1.3, cpt_cap=100, seed=seed),
        ):
            try:
                net = generate(spec)
            except GenerationError as exc:
                digest.update(f"error {exc}\n".encode())
                continue
            digest.update(serialize_network(net).encode())
            digest.update(repr(sample_evidence(net, random.Random(spec.seed))).encode())
    assert digest.hexdigest() == "cd2c40be5ed5599096bd902c0ac0643d4b4cfd0957148c38da42ed1bfb37991d"

"""The benchmark's per-layer spans must still find the names they patch.

``perfbench/spans.py`` wraps package functions by "module:attribute"
site and silently skips a site that no longer exists, which would
zero that layer's metrics.  This guard fails instead when a rename
leaves some span with no site at all, or moves growth off the site
that the ``engine.step`` span wraps.
"""

import random
import types
from pathlib import Path

import pytest

from boundprop import StopCriterion, answer_query, engine
from boundprop.netgen import GenSpec, gen_loopy, sample_evidence

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    # Executed from its source text, so nothing is written next to it.
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


spans = _load_spans()
SITES = {**spans.TIMED, **spans.COUNTED}


@pytest.mark.parametrize("name", sorted(SITES))
def test_every_span_resolves_at_some_site(name):
    assert any(spans._resolve(site) is not None for site in SITES[name]), (name, SITES[name])


def test_growth_between_evaluations_passes_the_step_site(monkeypatch):
    # Every evaluation after the first follows at least one growth call,
    # and the ``engine.step`` span can only see calls to this method.
    calls = 0
    step = engine.DelayedLoops.step

    def counted(self, *args):
        nonlocal calls
        calls += 1
        return step(self, *args)

    monkeypatch.setattr(engine.DelayedLoops, "step", counted)
    assert "boundprop.engine:DelayedLoops.step" in SITES["engine.step"]
    iterations = 0
    for seed in range(4):
        net = gen_loopy(GenSpec(node_count=14, topology="loopy", arc_ratio=1.3, seed=seed))
        rng = random.Random(seed)
        ev = sample_evidence(net, rng)
        q = rng.choice([v for v in net.node_ids() if v not in ev])
        calls = 0
        res = answer_query(net, q, ev, strategy="delayed", stop=StopCriterion.width(0.0))
        assert calls >= res.iterations - 1
        iterations += res.iterations
    assert iterations > 4

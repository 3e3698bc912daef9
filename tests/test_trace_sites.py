"""The benchmark's per-layer spans must still find the names they patch.

``perfbench/spans.py`` wraps package functions by "module:attribute"
site and silently skips a site that no longer exists, which would
zero that layer's metrics.  This guard fails instead when a rename
leaves some span with no site at all.
"""

import types
from pathlib import Path

import pytest

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

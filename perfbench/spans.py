"""Layer spans recorded from outside the package.

``install`` replaces public names of ``boundprop`` with wrappers, at
every module attribute through which the package calls them, and puts
the originals back on exit.  Each timed wrapper records one span: its
name, start, end and the span that was open when it started.  A span's
self time is its length minus the lengths of its direct children.

``iv_mul`` is only counted: it is called far too often, for far too
little work, for a span per call to say anything but the tracing cost.
``select_loop_cutset`` is only counted too, so that no time metric reads
a structural zero on the loop-free workloads; its time stays in the
self time of the evaluation that called it.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from array import array
from collections import defaultdict
from typing import Callable, Iterator

# span name -> the "module:attribute" sites the package calls it through.
# A site the package no longer has is skipped, and its metrics read zero.
TIMED: dict[str, tuple[str, ...]] = {
    "network.relevant_set": ("boundprop.engine:relevant_set",),
    "network.ancestral_closure": ("boundprop.network:BeliefNetwork.ancestral_closure",),
    "network.arcs": ("boundprop.network:BeliefNetwork.arcs",),
    "network.find_loop_clusters": ("boundprop.loops:find_loop_clusters",),
    "engine.step": (
        "boundprop.engine:BreadthFirst.step",
        "boundprop.engine:NoLoops.step",
        "boundprop.engine:DelayedLoops.step",
    ),
    "loops.evaluate": ("boundprop.loops:evaluate",),
    "intervals.simplex_dot": ("boundprop.engine:simplex_dot", "boundprop.loops:simplex_dot"),
    "intervals.normalize_scaled": (
        "boundprop.engine:normalize_scaled",
        "boundprop.intervals:normalize_scaled",
    ),
}
COUNTED: dict[str, tuple[str, ...]] = {
    "intervals.iv_mul": (
        "boundprop.engine:iv_mul",
        "boundprop.loops:iv_mul",
        "boundprop.intervals:iv_mul",
    ),
    "loops.select_loop_cutset": ("boundprop.loops:select_loop_cutset",),
}
ROOT = "engine.answer_query"


class Tracer:
    """Spans of one traced run, kept in flat arrays until ``layers``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [-1]
        self.counts: dict[str, int] = defaultdict(int)
        # evaluate span -> cutset instances, for evaluations that conditioned
        self.instances: dict[int, int] = {}
        self._cut: list[str] | None = None

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._open[-1])
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    def timed(self, name: str, fn: Callable) -> Callable:
        name_id = self.name_id(name)

        def wrapper(*args, **kwargs):
            i = self.open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def cutset_recorder(self, fn: Callable) -> Callable:
        """Wrap select_loop_cutset to collect the cut of the open evaluation."""

        def wrapper(*args, **kwargs):
            cut = fn(*args, **kwargs)
            if self._cut is not None:
                self._cut.extend(cut)
            return cut

        return wrapper

    def evaluation_recorder(self, fn: Callable) -> Callable:
        """Wrap loops.evaluate to note the instances each evaluation needs.

        The instance count is the product of the state counts of the union
        of the cluster cutsets, as ``loops.evaluate`` forms it.
        """

        def wrapper(net, *args, **kwargs):
            outer, self._cut = self._cut, []
            span = len(self.start) - 1  # the timed wrapper inside opened it
            try:
                return fn(net, *args, **kwargs)
            finally:
                if self._cut:
                    total = 1
                    for v in set(self._cut):
                        total *= net.state_count(v)
                    self.instances[span] = total
                self._cut = outer

        return wrapper

    def root(self) -> contextlib.AbstractContextManager:
        """A span around one client call."""
        name_id = self.name_id(ROOT)

        @contextlib.contextmanager
        def span() -> Iterator[None]:
            i = self.open(name_id)
            try:
                yield
            finally:
                self.close(i)

        return span()

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and self time in ms.

        ``engine.evaluate`` holds the self time of the ``loops.evaluate``
        spans that did not condition on a cutset: one plain propagation
        each.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0})
        evaluate = self._ids.get("loops.evaluate", -1)
        for i in range(n):
            name = self.names[self.name[i]]
            self_ms = (self.end[i] - self.start[i] - child[i]) * 1000.0
            out[name]["calls"] += 1
            out[name]["ms"] += self_ms
            if self.name[i] == evaluate and i not in self.instances:
                out["engine.evaluate"]["calls"] += 1
                out["engine.evaluate"]["ms"] += self_ms
        return dict(out)


def _resolve(site: str) -> tuple[object, str] | None:
    """The object holding a site's attribute, and the attribute's name."""
    module, _, path = site.partition(":")
    *outer, attr = path.split(".")
    owner: object = importlib.import_module(module)
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


@contextlib.contextmanager
def install(tracer: Tracer) -> Iterator[Tracer]:
    """Patch the traced names for the duration of the block."""
    saved: list[tuple[object, str, object]] = []

    def patch(site: str, make: Callable[[Callable], Callable]) -> None:
        found = _resolve(site)
        if found is None:
            return
        owner, attr = found
        original = vars(owner)[attr]
        saved.append((owner, attr, original))
        if isinstance(original, property):
            setattr(owner, attr, property(make(original.fget)))
        else:
            setattr(owner, attr, make(original))

    try:
        for name, sites in TIMED.items():
            for site in sites:
                if name == "loops.evaluate":
                    patch(site, lambda f, n=name: tracer.timed(n, tracer.evaluation_recorder(f)))
                else:
                    patch(site, lambda f, n=name: tracer.timed(n, f))
        for name, sites in COUNTED.items():
            for site in sites:
                if name == "loops.select_loop_cutset":
                    patch(site, lambda f, n=name: tracer.counted(n, tracer.cutset_recorder(f)))
                else:
                    patch(site, lambda f, n=name: tracer.counted(n, f))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

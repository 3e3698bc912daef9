"""The speed of the machine, probed between queries.

On a shared host the processor's speed for interpreter-bound code drifts:
on the two-core machine this benchmark was tuned on, the same Python code
ran 1.7 to 1.8 times slower for stretches of seconds to minutes, while
code bound by memory latency barely moved.  Stretches that long decide
whole runs, so no choice of repeats inside one run filters them out.

``probe`` times a fixed piece of interpreter-bound work that belongs to
the benchmark, not to the package under test, so that no change to the
package moves it.  ``scale`` turns the probes taken around each timed
call into factors that bring the call's wall time to what it takes when
the probe runs at ``NOMINAL_S``: the probe's time on that machine at full
speed.
"""

from __future__ import annotations

import statistics
import time

# The probe's time at full speed on the machine the benchmark was tuned on
# (a two-core x86 virtual machine, Python 3.11), asked between queries:
# the low one of the two modes of its times, 0.24-0.25 ms against
# 0.42-0.50 ms.  Scaled times read as wall times there at full speed.
NOMINAL_S = 0.00025

# A call's speed is the median of the probes of the calls this far on
# either side of it: a few hundred milliseconds, short beside the
# stretches of one speed, long beside one probe's jitter.
WINDOW = 4


def _work() -> float:
    # Short float tuples through min, max, sum and a dict, the kind of
    # work the interval kernels do.
    lo = [0.1 * (i % 7 + 1) for i in range(8)]
    hi = [x + 0.05 for x in lo]
    memo: dict[tuple[int, int], float] = {}
    acc = 0.0
    for i in range(40):
        a = tuple(min(x * y, x * 0.9) for x, y in zip(lo, hi))
        b = tuple(max(x * y, x * 1.1) for x, y in zip(lo, hi))
        memo[(i % 13, i % 5)] = sum(a) + sum(b)
        acc += memo.get((i % 11, i % 5), 0.0)
    return acc


def probe() -> float:
    """Seconds one run of the probe's work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(probes: list[float]) -> list[float]:
    """Per call, NOMINAL_S over the median probe of its window."""
    n = len(probes)
    return [
        NOMINAL_S / statistics.median(probes[max(0, k - WINDOW) : k + WINDOW + 1])
        for k in range(n)
    ]

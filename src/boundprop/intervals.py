"""Interval arithmetic for probability bounds.

All quantities are closed intervals [lo, hi] of binary64 floats with
lo <= hi.  Probability-typed results are clamped into [0, 1].  When
rounding makes a computed lower bound cross above the upper bound, the
pair is widened outward (never inward), so containment survives float
error at the cost of at most one ulp of width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

COHERENCE_TOL = 1e-9


class ConflictingEvidenceError(ValueError):
    """A distribution degenerated to all-zero mass.

    Normalizing an all-zero vector has no answer; under evidence
    semantics it means the observations are mutually contradictory.
    """


class CoherenceError(ValueError):
    """The constrained vector cannot contain any distribution."""


def _outward(lo: float, hi: float) -> tuple[float, float]:
    # Rounding may cross the bounds by an ulp or two; widen, never clip.
    if lo > hi:
        if lo - hi > 1e-12 * max(1.0, abs(lo), abs(hi)):
            raise ValueError(f"interval bounds out of order: [{lo}, {hi}]")
        lo, hi = hi, lo
    return lo, hi


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("NaN interval bound")
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float, slack: float = 0.0) -> bool:
        return self.lo - slack <= x <= self.hi + slack

    def __repr__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


UNIT = Interval(0.0, 1.0)
ONE = Interval(1.0, 1.0)
ZERO = Interval(0.0, 0.0)


def make_interval(lo: float, hi: float) -> Interval:
    lo, hi = _outward(lo, hi)
    return Interval(lo, hi)


def prob_interval(lo: float, hi: float) -> Interval:
    """Interval clamped into [0, 1], with outward repair of rounding."""
    lo, hi = _outward(lo, hi)
    return Interval(min(max(lo, 0.0), 1.0), min(max(hi, 0.0), 1.0))


def iv_mul(x: Interval, y: Interval) -> Interval:
    # Valid only for nonnegative factors, which is all this package needs.
    if x.lo < 0.0 or y.lo < 0.0:
        raise ValueError("iv_mul requires nonnegative bounds")
    return Interval(x.lo * y.lo, x.hi * y.hi)


class IntervalVector:
    """Immutable vector of intervals, one entry per state.

    A vector is *coherent* when sum(lo) <= 1 <= sum(hi), i.e. its box
    still contains at least one exact probability distribution.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Interval]):
        object.__setattr__(self, "entries", tuple(entries))
        if not self.entries:
            raise ValueError("empty interval vector")

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntervalVector is immutable")

    @staticmethod
    def vacuous(n: int) -> "IntervalVector":
        if n < 1:
            raise ValueError("vacuous vector needs at least one state")
        return IntervalVector(UNIT for _ in range(n))

    @staticmethod
    def ones(n: int) -> "IntervalVector":
        return IntervalVector(ONE for _ in range(n))

    @staticmethod
    def point(values: Sequence[float]) -> "IntervalVector":
        return IntervalVector(Interval.point(v) for v in values)

    @staticmethod
    def indicator(n: int, k: int) -> "IntervalVector":
        return IntervalVector(ONE if i == k else ZERO for i in range(n))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self.entries)

    def __getitem__(self, i: int) -> Interval:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(e) for e in self.entries) + ")"

    @property
    def lo_sum(self) -> float:
        return sum(e.lo for e in self.entries)

    @property
    def hi_sum(self) -> float:
        return sum(e.hi for e in self.entries)

    @property
    def max_width(self) -> float:
        return max(e.width for e in self.entries)

    def is_coherent(self, tol: float = COHERENCE_TOL) -> bool:
        return self.lo_sum <= 1.0 + tol and self.hi_sum >= 1.0 - tol

    def contains_point(self, values: Sequence[float], slack: float = 0.0) -> bool:
        if len(values) != len(self.entries):
            return False
        return all(e.contains(v, slack) for e, v in zip(self.entries, values))

    def product(self, other: "IntervalVector") -> "IntervalVector":
        if len(other) != len(self.entries):
            raise ValueError("length mismatch in entrywise product")
        return IntervalVector(iv_mul(a, b) for a, b in zip(self.entries, other))

    def midpoints(self) -> tuple[float, ...]:
        return tuple(e.midpoint for e in self.entries)


def vacuous(n: int) -> IntervalVector:
    """Vector of [0, 1] intervals standing in for an uncomputed message."""
    return IntervalVector.vacuous(n)


def _check_simplex_args(a: IntervalVector, b: IntervalVector) -> None:
    if len(a) != len(b):
        raise ValueError("simplex_dot requires equal-length vectors")
    for e in a:
        if e.lo < 0.0:
            raise ValueError("simplex_dot requires nonnegative entries")
    if b.lo_sum > 1.0 + COHERENCE_TOL or b.hi_sum < 1.0 - COHERENCE_TOL:
        raise CoherenceError(
            f"weight vector admits no distribution: sum lo={b.lo_sum}, sum hi={b.hi_sum}"
        )


def simplex_dot(a: IntervalVector, b: IntervalVector) -> Interval:
    """Tight bounds on sum_i a_i * b_i when b must be a distribution.

    The naive interval dot product evaluates b at its raw bounds, which
    over-counts because the true b entries must sum to exactly 1.  The
    lower bound here starts every weight at b_i.lo and spends the
    remaining mass (up to each b_i.hi) on the smallest a_i.lo first; the
    upper bound mirrors this with descending a_i.hi.  Both greedy
    assignments are exact optima of the underlying linear program.
    Tied keys are visited in ascending index order.

    Against a fully vacuous b this reduces to [min_i a_i.lo, max_i a_i.hi].
    """
    _check_simplex_args(a, b)
    n = len(a)

    def extreme(weights: list[float], order_keys: list[float]) -> float:
        bstar = [e.lo for e in b]
        remaining = 1.0 - sum(bstar)
        if remaining > 0.0:
            for i in sorted(range(n), key=order_keys.__getitem__):
                room = b[i].hi - b[i].lo
                if room <= 0.0:
                    continue
                take = room if room < remaining else remaining
                bstar[i] += take
                remaining -= take
                if remaining <= 0.0:
                    break
        return sum(w * m for w, m in zip(weights, bstar) if m != 0.0)

    lower = extreme([e.lo for e in a], [e.lo for e in a])
    upper = extreme([e.hi for e in a], [-e.hi for e in a])
    return make_interval(lower, upper)


def normalize_scaled(v: IntervalVector) -> tuple[IntervalVector, Interval]:
    """Normalize an interval vector; also return the discarded mass.

    Entry i maps to lo_i / (lo_i + sum of the other highs) on the low
    side and hi_i / (hi_i + sum of the other lows) on the high side.
    Dividing a bound by the most adverse total the other entries allow
    keeps every pointwise normalization inside the result, where the
    naive extension (dividing both bounds by the same total) would not.

    The returned scale interval brackets the total mass of any point
    selection from ``v``; callers that track unnormalized magnitudes
    multiply it back in.
    """
    his = [e.hi for e in v]
    los = [e.lo for e in v]
    hi_sum = sum(his)
    lo_sum = sum(los)
    if hi_sum <= 0.0:
        raise ConflictingEvidenceError("cannot normalize an all-zero vector")
    out = []
    for lo, hi in zip(los, his):
        denom_lo = lo + (hi_sum - hi)
        denom_hi = hi + (lo_sum - lo)
        new_lo = lo / denom_lo if lo > 0.0 else 0.0
        new_hi = hi / denom_hi if hi > 0.0 else 0.0
        out.append(prob_interval(new_lo, new_hi))
    return IntervalVector(out), Interval(max(lo_sum, 0.0), hi_sum)


def normalize(v: IntervalVector) -> IntervalVector:
    """Normalize an interval vector; result is coherent and in [0, 1]."""
    vec, _ = normalize_scaled(v)
    return vec

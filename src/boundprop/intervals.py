"""Interval arithmetic for probability bounds.

All quantities are closed intervals [lo, hi] of binary64 floats with
lo <= hi.  A vector stores its bounds flat, as the float tuples ``lo``
and ``hi``, which the kernels here read and write; ``Interval`` objects
are built only at the boundary.  Probability-typed results are clamped
into [0, 1].  When rounding makes a computed lower bound cross above
the upper bound, the pair is widened outward (never inward), so
containment survives float error at the cost of at most one ulp of width.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import le, mul
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

    def __repr__(self) -> str:
        return f"[{self.lo:.6g}, {self.hi:.6g}]"


def iv_mul(x: Interval, y: Interval) -> Interval:
    # Valid only for nonnegative factors, which is all this package needs.
    if x.lo < 0.0 or y.lo < 0.0:
        raise ValueError("iv_mul requires nonnegative bounds")
    return Interval(x.lo * y.lo, x.hi * y.hi)


class IntervalVector:
    """Immutable vector of intervals, one entry per state.

    The bounds are the float tuples ``lo`` and ``hi``.  Indexing,
    iteration, ``entries`` and ``repr`` build ``Interval`` objects.
    A vector is *coherent* when sum(lo) <= 1 <= sum(hi), i.e. its box
    still contains at least one exact probability distribution.
    """

    __slots__ = ("lo", "hi")

    def __new__(cls, entries: Iterable[Interval]):
        entries = tuple(entries)
        return cls.from_bounds([e.lo for e in entries], [e.hi for e in entries])

    @classmethod
    def from_bounds(cls, lo: Iterable[float], hi: Iterable[float]) -> "IntervalVector":
        """The vector of [lo_i, hi_i]; crossed or NaN bounds raise ValueError."""
        lo, hi = tuple(lo), tuple(hi)
        if not lo or len(lo) != len(hi):
            raise ValueError(f"bounds must be nonempty and of equal length: {len(lo)}, {len(hi)}")
        _check_order(lo, hi)
        return cls._of(lo, hi)

    @classmethod
    def _of(cls, lo: tuple, hi: tuple) -> "IntervalVector":
        # For bounds already checked as ``from_bounds`` checks them.
        vec = object.__new__(cls)
        object.__setattr__(vec, "lo", lo)
        object.__setattr__(vec, "hi", hi)
        return vec

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("IntervalVector is immutable")

    @staticmethod
    def vacuous(n: int) -> "IntervalVector":
        """Vector of [0, 1] intervals standing in for an uncomputed message,
        one shared instance per length; n must be an int (a bool is not)."""
        if type(n) is not int or n < 1:
            raise ValueError(f"vacuous vector needs a positive int length, not {n!r}")
        return _vacuous(n)

    @staticmethod
    def ones(n: int) -> "IntervalVector":
        return IntervalVector.from_bounds((1.0,) * n, (1.0,) * n)

    @staticmethod
    def point(values: Iterable[float]) -> "IntervalVector":
        values = tuple(values)
        return IntervalVector.from_bounds(values, values)

    @staticmethod
    def indicator(n: int, k: int) -> "IntervalVector":
        """The point vector of state k of n, one shared instance per (n, k);
        n and k must be ints (a bool is not), k in range(n)."""
        if type(n) is not int or type(k) is not int or not 0 <= k < n:
            raise ValueError(f"indicator state {k!r} out of range for {n!r} states")
        return _indicator(n, k)

    @property
    def entries(self) -> tuple[Interval, ...]:
        return tuple(map(Interval, self.lo, self.hi))

    def __len__(self) -> int:
        return len(self.lo)

    def __iter__(self) -> Iterator[Interval]:
        return map(Interval, self.lo, self.hi)

    def __getitem__(self, i: int) -> Interval:
        return Interval(self.lo[i], self.hi[i])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntervalVector) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return "(" + ", ".join(repr(e) for e in self) + ")"

    @property
    def lo_sum(self) -> float:
        return sum(self.lo)

    @property
    def hi_sum(self) -> float:
        return sum(self.hi)

    @property
    def max_width(self) -> float:
        return max(b - a for a, b in zip(self.lo, self.hi))

    def is_coherent(self) -> bool:
        return self.lo_sum <= 1.0 + COHERENCE_TOL and self.hi_sum >= 1.0 - COHERENCE_TOL

    def contains_point(self, values: Sequence[float], slack: float = 0.0) -> bool:
        if len(values) != len(self.lo):
            return False
        return all(a - slack <= v <= b + slack for a, b, v in zip(self.lo, self.hi, values))

    def midpoints(self) -> tuple[float, ...]:
        return tuple(0.5 * (a + b) for a, b in zip(self.lo, self.hi))


vacuous = IntervalVector.vacuous


def _check_order(lo: Sequence[float], hi: Sequence[float]) -> None:
    if not all(map(le, lo, hi)):
        for a, b in zip(lo, hi):
            Interval(a, b)  # raises at the first crossed or NaN entry


# The constant vectors the kernels use, built once per shape for the
# process; the public constructors check their arguments first, so a
# memo key never stands for an argument the check would refuse.
@functools.lru_cache(maxsize=256)
def _vacuous(n: int) -> IntervalVector:
    return IntervalVector.from_bounds((0.0,) * n, (1.0,) * n)


@functools.lru_cache(maxsize=256)
def _indicator(n: int, k: int) -> IntervalVector:
    return IntervalVector.point(1.0 if i == k else 0.0 for i in range(n))


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
    if min(a.lo) < 0.0:
        raise ValueError("simplex_dot requires nonnegative entries")
    return Interval(*_dot_bounds(a.lo, a.hi, b, _spare(b, len(a.lo)), _orders(a.lo, a.hi)))


def _spare(b: IntervalVector, n: int) -> float:
    """1 - sum(b.lo), the mass the greedy pass may move onto b (0 when b is
    a point); raises unless b has n entries and admits a distribution."""
    b_lo, b_hi = b.lo, b.hi
    if len(b_lo) != n:
        raise ValueError("simplex_dot requires equal-length vectors")
    lo_sum, hi_sum = sum(b_lo), sum(b_hi)
    if lo_sum > 1.0 + COHERENCE_TOL or hi_sum < 1.0 - COHERENCE_TOL:
        raise CoherenceError(f"weights admit no distribution: sum lo={lo_sum}, sum hi={hi_sum}")
    return 1.0 - lo_sum if b_lo != b_hi else 0.0


def _orders(a_lo: Sequence[float], a_hi: Sequence[float]) -> tuple[tuple[int, ...], ...]:
    """The greedy visiting orders of a: ascending lo and descending hi,
    tied entries in ascending index order."""
    n = range(len(a_lo))
    return tuple(sorted(n, key=a_lo.__getitem__)), tuple(sorted(n, key=a_hi.__getitem__, reverse=True))


def _dot_bounds(a_lo, a_hi, b: IntervalVector, spare: float, orders) -> tuple[float, float]:
    """``simplex_dot`` as a float pair, for b already checked by ``_spare``."""
    lower = _extreme(a_lo, b.lo, b.hi, spare, orders[0])
    if a_lo is a_hi and spare <= 0.0:
        return lower, lower  # both passes are the one sum over b.lo
    upper = _extreme(a_hi, b.lo, b.hi, spare, orders[1])
    if lower > upper:
        lower, upper = _outward(lower, upper)
    return lower, upper


def _extreme(weights, b_lo: tuple, b_hi: tuple, spare: float, order) -> float:
    bstar = b_lo
    if spare > 0.0:
        bstar = list(b_lo)
        for i in order:
            room = b_hi[i] - b_lo[i]
            if room <= 0.0:
                continue
            take = room if room < spare else spare
            bstar[i] += take
            spare -= take
            if spare <= 0.0:
                break
    # A zero entry of bstar adds a signed zero to a sum that is never
    # -0.0, which leaves it unchanged, unless its weight is infinite (only
    # the public ``simplex_dot`` takes those): then the product is NaN and
    # the sum is taken again without the zero entries.
    total = sum(map(mul, weights, bstar))
    if total != total:
        total = sum([w * m for w, m in zip(weights, bstar) if m != 0.0])
    return total


def _normalized(los: Sequence[float], his: Sequence[float]) -> tuple[IntervalVector, tuple[float, float]]:
    """``normalize_scaled`` of the bounds ``los`` and ``his``, of one
    nonzero length, with the scale as a float pair."""
    _check_order(los, his)
    hi_sum = sum(his)
    lo_sum = sum(los)
    if hi_sum <= 0.0:
        raise ConflictingEvidenceError("cannot normalize an all-zero vector")
    out_lo, out_hi = [], []
    for lo, hi in zip(los, his):
        new_lo = lo / (lo + (hi_sum - hi)) if lo > 0.0 else 0.0
        new_hi = hi / (hi + (lo_sum - lo)) if hi > 0.0 else 0.0
        if new_lo > new_hi:
            new_lo, new_hi = _outward(new_lo, new_hi)
        # Clamped into [0, 1]; a NaN passes, for from_bounds to reject.
        out_lo.append(0.0 if new_lo < 0.0 else 1.0 if new_lo > 1.0 else new_lo)
        out_hi.append(0.0 if new_hi < 0.0 else 1.0 if new_hi > 1.0 else new_hi)
    scale = (max(lo_sum, 0.0), hi_sum)
    # Ordered finite bounds give ordered output bounds in [0, 1]; only an
    # infinite bound, which makes a sum infinite or NaN, can give a NaN.
    if -math.inf < lo_sum and hi_sum < math.inf:
        return IntervalVector._of(tuple(out_lo), tuple(out_hi)), scale
    return IntervalVector.from_bounds(out_lo, out_hi), scale


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
    vec, scale = _normalized(v.lo, v.hi)
    return vec, Interval(*scale)


def normalize(v: IntervalVector) -> IntervalVector:
    """Normalize an interval vector; result is coherent and in [0, 1]."""
    vec, _ = normalize_scaled(v)
    return vec

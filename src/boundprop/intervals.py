"""Interval arithmetic for probability bounds.

All quantities are closed intervals [lo, hi] of binary64 floats with
lo <= hi.  A vector stores its bounds flat, as the float tuples ``lo``
and ``hi``, which the kernels here read and write; ``Interval`` objects
are built only at the boundary.  Probability-typed results are clamped
into [0, 1].  When rounding makes a computed lower bound cross above
the upper bound, the pair is widened outward (never inward), so
containment survives float error at the cost of at most one ulp of width.

Every dot product against a vector that must be a distribution, in the
kernels, the cutset mixture and the public ``simplex_dot``, is one pass
over the rows of a table in ``_dot_table``.  A kernel that normalizes
those bounds at once calls ``_table_message``, which takes that pass
itself for a point table against point weights and normalizes in the
same frame, with the same floats and the same errors.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import repeat
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
    def max_width(self) -> float:
        return max(b - a for a, b in zip(self.lo, self.hi))

    def contains_point(self, values: Sequence[float], slack: float = 0.0) -> bool:
        if len(values) != len(self.lo):
            return False
        return all(a - slack <= v <= b + slack for a, b, v in zip(self.lo, self.hi, values))


vacuous = IntervalVector.vacuous


def _check_order(lo: Sequence[float], hi: Sequence[float]) -> None:
    if not all(map(le, lo, hi)):
        for a, b in zip(lo, hi):
            Interval(a, b)  # raises at the first crossed or NaN entry


# The constant vectors the kernels use, built once per shape for the
# process; the public constructors check their arguments first, so a
# memo key never stands for an argument the check would refuse.
@functools.cache
def _vacuous(n: int) -> IntervalVector:
    return IntervalVector.from_bounds((0.0,) * n, (1.0,) * n)


@functools.cache
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
    lows, highs = _dot_table((a.lo,), (a.hi,), (_orders(a.lo, a.hi),), b, _spare(b, len(a.lo)))
    return Interval(lows[0], highs[0])


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


def _fill(b_lo: tuple, b_hi: tuple, spare: float, order) -> Sequence[float]:
    """The greedy weights: b_lo with the spare mass moved onto the entries
    of ``order`` in turn, each up to its upper bound."""
    if spare <= 0.0:
        return b_lo
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
    return bstar


def _weighted_sum(weights, bstar) -> float:
    # A zero entry of bstar adds a signed zero to a sum that is never
    # -0.0, which leaves it unchanged, unless its weight is infinite (only
    # the public ``simplex_dot`` takes those): then the product is NaN and
    # the sum is taken again without the zero entries.
    total = sum(map(mul, weights, bstar))
    if total != total:
        total = sum([w * m for w, m in zip(weights, bstar) if m != 0.0])
    return total


def _dot_table(los, his, orders, b: IntervalVector, spare: float) -> tuple[list[float], list[float]]:
    """The constrained dot (``simplex_dot``) of each row of a table against
    b, already checked by ``_spare``, as the list of lower and the list of
    upper bounds.

    Row k has the lower bounds ``los[k]``, the upper bounds ``his[k]`` and
    the greedy orders ``orders[k]``; a point table passes ``his is los``.
    A greedy fill depends on b, the spare mass and the order alone, so
    each distinct order is filled once per call.  With no spare mass
    every fill is b.lo, so ``orders`` is read only when b leaves some; a
    caller may pass None for it otherwise.  Against point weights both
    bounds of a point row are the one sum over b.lo, and a point table's
    two lists are one list.
    """
    b_lo, b_hi = b.lo, b.hi
    fills: dict = {}
    if spare <= 0.0:
        if his is los:
            lows = [sum(map(mul, v, b_lo)) for v in los]
            total = sum(lows)
            if total != total:
                lows = [_weighted_sum(v, b_lo) for v in los]
            return lows, lows
        # Every row reads the one fill b.lo, under the one key None.
        orders = repeat((None, None))
        fills[None] = b_lo
    lows, highs = [], []
    for lo_v, hi_v, (lo_order, hi_order) in zip(los, his, orders):
        fill = fills.get(lo_order)
        if fill is None:
            fill = fills[lo_order] = _fill(b_lo, b_hi, spare, lo_order)
        lower = sum(map(mul, lo_v, fill))
        if lower != lower:
            lower = _weighted_sum(lo_v, fill)
        fill = fills.get(hi_order)
        if fill is None:
            fill = fills[hi_order] = _fill(b_lo, b_hi, spare, hi_order)
        upper = sum(map(mul, hi_v, fill))
        if upper != upper:
            upper = _weighted_sum(hi_v, fill)
        if lower > upper:
            lower, upper = _outward(lower, upper)
        lows.append(lower)
        highs.append(upper)
    return lows, highs


def _table_message(los, his, orders, b: IntervalVector) -> tuple[IntervalVector, tuple[float, float]]:
    """``_normalized(*_dot_table(los, his, orders, b, _spare(b, n)))``, n
    the length of a row: the message of a kernel that dots one table
    against one weight vector.

    Against point weights a point table's two bounds are one float per
    row, which this normalizes in the same frame, with the same floats
    and the same errors: a bound list holds a NaN exactly when its sum
    is NaN, so the order check of ``_normalized`` runs only then.
    """
    spare = _spare(b, len(los[0]))
    if spare > 0.0 or his is not los:
        return _normalized(*_dot_table(los, his, orders, b, spare))
    b_lo = b.lo
    lows = [sum(map(mul, v, b_lo)) for v in los]
    total = sum(lows)
    if total != total:
        lows = [_weighted_sum(v, b_lo) for v in los]
        total = sum(lows)
        if total != total:
            _check_order(lows, lows)
    if total <= 0.0:
        raise ConflictingEvidenceError("cannot normalize an all-zero vector")
    out = []
    for v in lows:
        v = v / (v + (total - v)) if v > 0.0 else 0.0
        out.append(0.0 if v < 0.0 else 1.0 if v > 1.0 else v)
    if -math.inf < total < math.inf:
        out = tuple(out)
        return IntervalVector._of(out, out), (max(total, 0.0), total)
    return IntervalVector.from_bounds(out, out), (max(total, 0.0), total)


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

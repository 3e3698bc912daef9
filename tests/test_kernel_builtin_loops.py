"""The kernel loops that run in builtins against the bodies they replaced.

The bodies below are the earlier per-element forms: ``_extreme`` summing
a filtered comprehension, normalization of a vector built and checked
first, and the vacuous and indicator vectors built afresh on each call.
On any input the current code must give the same floats, compared by
``float.hex``, or raise the same error.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundprop.intervals import (
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    _dot_bounds,
    _extreme,
    _normalized,
    _orders,
    _outward,
    _spare,
    simplex_dot,
    vacuous,
)

# -- the earlier bodies ---------------------------------------------------------


def _filtered_extreme(weights, b_lo, b_hi, spare, order):
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
    return sum([w * m for w, m in zip(weights, bstar) if m != 0.0])


def _filtered_dot_bounds(a_lo, a_hi, b, spare, orders):
    lower = _filtered_extreme(a_lo, b.lo, b.hi, spare, orders[0])
    if a_lo is a_hi and spare <= 0.0:
        return lower, lower
    upper = _filtered_extreme(a_hi, b.lo, b.hi, spare, orders[1])
    if lower > upper:
        lower, upper = _outward(lower, upper)
    return lower, upper


def _filtered_simplex_dot(a, b):
    if min(a.lo) < 0.0:
        raise ValueError("simplex_dot requires nonnegative entries")
    return Interval(*_filtered_dot_bounds(a.lo, a.hi, b, _spare(b, len(a.lo)), _orders(a.lo, a.hi)))


def _vector_normalized(los, his):
    v = IntervalVector.from_bounds(los, his)
    los, his = v.lo, v.hi
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
        out_lo.append(0.0 if new_lo < 0.0 else 1.0 if new_lo > 1.0 else new_lo)
        out_hi.append(0.0 if new_hi < 0.0 else 1.0 if new_hi > 1.0 else new_hi)
    return IntervalVector.from_bounds(out_lo, out_hi), (max(lo_sum, 0.0), hi_sum)


def _outcome(call, *args):
    """The floats a call returns as hex, or the error it raises."""
    try:
        got = call(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    if isinstance(got, Interval):
        return [got.lo.hex(), got.hi.hex()]
    if isinstance(got, float):
        return got.hex()
    if isinstance(got[0], float):
        return [x.hex() for x in got]
    vec, scale = got
    assert type(vec.lo) is tuple and type(vec.hi) is tuple
    return [x.hex() for x in (*vec.lo, *vec.hi, *scale)]


# -- inputs -------------------------------------------------------------------

# Zeros of either sign, ties and small values, so that filtered and
# unfiltered sums meet every signed-zero case.
_entry = st.one_of(
    st.sampled_from((0.0, -0.0, 0.25, 0.5, 1.0, 5e-324)),
    st.floats(0.0, 1.0),
)


@st.composite
def _weights(draw, k):
    """A point distribution (no spare) or a box around one (spare > 0),
    its zero entries 0.0 or -0.0."""
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    zero = draw(st.sampled_from((0.0, -0.0)))
    p = tuple(v / sum(raw) if v else zero for v in raw)
    if draw(st.booleans()):
        return IntervalVector.point(p)
    r = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k))
    lo = [v * f if f else zero for v, f in zip(p, r)]
    return IntervalVector.from_bounds(lo, [v + (1.0 - v) * f for v, f in zip(p, r[k:])])


@st.composite
def _dot_case(draw, infinite=False):
    k = draw(st.integers(1, 6))
    a_lo = draw(st.lists(_entry, min_size=k, max_size=k))
    a_hi = [lo + draw(_entry) for lo in a_lo]
    if infinite:
        a_hi[draw(st.integers(0, k - 1))] = math.inf
    elif draw(st.booleans()):
        a_hi = a_lo
    return tuple(a_lo), tuple(a_hi), draw(_weights(k))


# -- the dot ------------------------------------------------------------------


@given(_dot_case())
@settings(max_examples=400, deadline=None)
def test_extreme_and_dot_bounds_equal_the_filtered_sums(case):
    a_lo, a_hi, b = case
    spare = _spare(b, len(a_lo))
    orders = _orders(a_lo, a_hi)
    for weights, order in ((a_lo, orders[0]), (a_hi, orders[1])):
        assert _outcome(_extreme, weights, b.lo, b.hi, spare, order) == _outcome(
            _filtered_extreme, weights, b.lo, b.hi, spare, order
        )
    assert _outcome(_dot_bounds, a_lo, a_hi, b, spare, orders) == _outcome(
        _filtered_dot_bounds, a_lo, a_hi, b, spare, orders
    )


@given(_dot_case(infinite=True))
@settings(max_examples=200, deadline=None)
def test_simplex_dot_with_an_infinite_entry_equals_the_filtered_sums(case):
    a_lo, a_hi, b = case
    a = IntervalVector.from_bounds(a_lo, a_hi)
    assert _outcome(simplex_dot, a, b) == _outcome(_filtered_simplex_dot, a, b)


@pytest.mark.parametrize("zero", [0.0, -0.0])
def test_an_infinite_entry_against_a_zero_weight_is_skipped(zero):
    a = IntervalVector.from_bounds((0.5, 0.2), (0.7, math.inf))
    got = simplex_dot(a, IntervalVector.point((1.0, zero)))
    assert (got.lo.hex(), got.hi.hex()) == ((0.5).hex(), (0.7).hex())
    assert simplex_dot(a, IntervalVector.point((0.5, 0.5))).hi == math.inf


# -- normalization on raw bounds ------------------------------------------------


@st.composite
def _raw_bounds(draw):
    """Ordered bounds, then perhaps one entry crossed, NaN or infinite,
    or every bound zero."""
    k = draw(st.integers(1, 6))
    lo = draw(st.lists(_entry, min_size=k, max_size=k))
    hi = [v + draw(_entry) for v in lo]
    i = draw(st.integers(0, k - 1))
    kind = draw(st.sampled_from(("ordered", "crossed", "ulp", "nan_lo", "nan_hi", "inf", "neg_inf", "zero")))
    if kind == "crossed":
        lo[i], hi[i] = hi[i] + 0.5, lo[i]
    elif kind == "ulp":
        lo[i] = math.nextafter(hi[i], math.inf)
    elif kind == "nan_lo":
        lo[i] = math.nan
    elif kind == "nan_hi":
        hi[i] = math.nan
    elif kind == "inf":
        hi[i] = math.inf
    elif kind == "neg_inf":
        lo[i] = -math.inf
    elif kind == "zero":
        lo, hi = [0.0] * k, [draw(st.sampled_from((0.0, -0.0))) for _ in range(k)]
    return lo, hi


@given(_raw_bounds())
@settings(max_examples=600, deadline=None)
def test_normalization_on_raw_bounds_equals_the_vector_body(bounds):
    lo, hi = bounds
    assert _outcome(_normalized, lo, hi) == _outcome(_vector_normalized, lo, hi)
    assert _outcome(_normalized, tuple(lo), tuple(hi)) == _outcome(_vector_normalized, lo, hi)


@pytest.mark.parametrize(
    "lo, hi, error, message",
    [
        ([0.2, 0.9], [0.3, 0.4], ValueError, "interval bounds out of order: [0.9, 0.4]"),
        ([0.2, math.nan], [0.3, 0.4], ValueError, "NaN interval bound"),
        ([0.0, 0.1], [0.5, math.inf], ValueError, "NaN interval bound"),
        ([0.0, 0.0], [0.0, -0.0], ConflictingEvidenceError, "cannot normalize an all-zero vector"),
    ],
)
def test_normalization_raises_the_vector_errors(lo, hi, error, message):
    with pytest.raises(error) as raised:
        _normalized(lo, hi)
    assert type(raised.value) is error and str(raised.value) == message
    assert _outcome(_normalized, lo, hi) == _outcome(_vector_normalized, lo, hi)


# -- the shared constant vectors ------------------------------------------------


@given(st.integers(1, 12), st.data())
@settings(max_examples=100, deadline=None)
def test_shared_vacuous_and_indicator_vectors_equal_fresh_ones(n, data):
    k = data.draw(st.integers(0, n - 1))
    fresh_vacuous = IntervalVector.from_bounds((0.0,) * n, (1.0,) * n)
    fresh_indicator = IntervalVector.point(1.0 if i == k else 0.0 for i in range(n))
    for shared, fresh in ((vacuous(n), fresh_vacuous), (IntervalVector.indicator(n, k), fresh_indicator)):
        assert shared == fresh
        assert [x.hex() for x in (*shared.lo, *shared.hi)] == [x.hex() for x in (*fresh.lo, *fresh.hi)]
        assert type(shared.lo) is tuple and type(shared.hi) is tuple
    assert vacuous(n) is IntervalVector.vacuous(n)
    assert IntervalVector.indicator(n, k) is IntervalVector.indicator(n, k)

import itertools
import math
import random
from operator import le, mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from boundprop.engine import _joint_weights
from boundprop.intervals import (
    CoherenceError,
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    _dot_table,
    _fill,
    _orders,
    _outward,
    _spare,
    _weighted_sum,
    iv_mul,
    normalize_scaled,
    simplex_dot,
    vacuous,
)

from conftest import is_coherent


def iv(lo, hi):
    return Interval(lo, hi)


def test_mul_basic():
    assert iv_mul(iv(1.0, 1.0), iv(0.25, 0.6)) == iv(0.25, 0.6)
    assert iv_mul(iv(0.0, 1.0), iv(0.3, 0.6)) == iv(0.0, 0.6)
    assert iv_mul(iv(0.2, 0.4), iv(0.5, 0.5)) == iv(0.1, 0.2)


def test_mul_rejects_negative():
    with pytest.raises(ValueError):
        iv_mul(iv(-0.1, 0.2), iv(0.0, 1.0))


def test_interval_order_enforced():
    with pytest.raises(ValueError):
        Interval(0.5, 0.4)


def test_vacuous():
    assert vacuous(2).entries == (iv(0.0, 1.0), iv(0.0, 1.0))
    assert len(vacuous(1)) == 1
    assert all(e == iv(0.0, 1.0) for e in vacuous(4))
    assert is_coherent(vacuous(3))
    with pytest.raises(ValueError):
        vacuous(0)


def test_simplex_dot_point_inputs():
    a = IntervalVector.point([0.2, 0.8])
    b = IntervalVector.point([0.5, 0.5])
    got = simplex_dot(a, b)
    assert got.lo == pytest.approx(0.5, abs=1e-15)
    assert got.hi == pytest.approx(0.5, abs=1e-15)


def test_simplex_dot_vacuous_spans_entries():
    a = IntervalVector([iv(0.1, 0.2), iv(0.6, 0.7)])
    assert simplex_dot(a, vacuous(2)) == iv(0.1, 0.7)


def test_simplex_dot_worked_example():
    a = IntervalVector([iv(0.1, 0.3), iv(0.5, 0.9)])
    b = IntervalVector([iv(0.2, 0.6), iv(0.5, 0.8)])
    got = simplex_dot(a, b)
    assert got.lo == pytest.approx(0.30, abs=1e-12)
    assert got.hi == pytest.approx(0.78, abs=1e-12)


def test_simplex_dot_rejects_incoherent():
    a = IntervalVector([iv(0.5, 0.5), iv(0.5, 0.5)])
    with pytest.raises(CoherenceError):
        simplex_dot(a, IntervalVector([iv(0.0, 0.3), iv(0.0, 0.4)]))
    with pytest.raises(CoherenceError):
        simplex_dot(a, IntervalVector([iv(0.7, 0.8), iv(0.6, 0.9)]))
    with pytest.raises(ValueError):
        simplex_dot(a, vacuous(3))


def _random_coherent_pair(rng, n):
    a = []
    for _ in range(n):
        lo = rng.random()
        a.append(iv(lo, lo + rng.random() * (1.0 - lo)))
    p = [rng.random() + 1e-9 for _ in range(n)]
    s = sum(p)
    p = [x / s for x in p]
    b = []
    for x in p:
        b.append(iv(max(0.0, x - rng.random() * x), min(1.0, x + rng.random() * (1.0 - x))))
    return IntervalVector(a), IntervalVector(b), p


def _brute_extrema(a, b):
    """Exact optimum over the box-simplex polytope via its vertices."""
    n = len(a)
    lo_best, hi_best = math.inf, -math.inf
    for free in range(n):
        bounds = [(b[i].lo, b[i].hi) for i in range(n) if i != free]
        for corners in itertools.product(*bounds):
            rest = 1.0 - sum(corners)
            if rest < b[free].lo - 1e-12 or rest > b[free].hi + 1e-12:
                continue
            w = list(corners[:free]) + [rest] + list(corners[free:])
            lo_best = min(lo_best, sum(x.lo * v for x, v in zip(a, w)))
            hi_best = max(hi_best, sum(x.hi * v for x, v in zip(a, w)))
    return lo_best, hi_best


def test_simplex_dot_matches_vertex_enumeration():
    rng = random.Random(101)
    for _ in range(2000):
        n = rng.randint(1, 4)
        a, b, _ = _random_coherent_pair(rng, n)
        got = simplex_dot(a, b)
        lo, hi = _brute_extrema(a, b)
        assert abs(got.lo - lo) <= 1e-9
        assert abs(got.hi - hi) <= 1e-9


def test_simplex_dot_containment_sampled():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(2, 4)
        a, b, _ = _random_coherent_pair(rng, n)
        got = simplex_dot(a, b)
        for _ in range(1000):
            w = [b[i].lo + rng.random() * (b[i].hi - b[i].lo) for i in range(n)]
            s = sum(w)
            if s <= 0:
                continue
            w = [x / s for x in w]
            if not all(b[i].lo - 1e-12 <= w[i] <= b[i].hi + 1e-12 for i in range(n)):
                continue  # rescaling can leave the box; only box points count
            x = [a[i].lo + rng.random() * (a[i].hi - a[i].lo) for i in range(n)]
            val = sum(u * v for u, v in zip(x, w))
            assert got.lo - 1e-9 <= val <= got.hi + 1e-9


def test_simplex_dot_monotone_narrowing():
    rng = random.Random(99)
    for _ in range(500):
        n = rng.randint(2, 4)
        a, b, p = _random_coherent_pair(rng, n)
        # Shrink both toward an inner point; b shrinks toward a distribution
        # it contains, so it stays coherent.
        a2 = IntervalVector(
            iv(e.lo + 0.5 * rng.random() * e.width, e.hi - 0.5 * rng.random() * e.width)
            for e in a
        )
        b2 = IntervalVector(
            iv(e.lo + rng.random() * (x - e.lo), e.hi - rng.random() * (e.hi - x))
            for e, x in zip(b, p)
        )
        outer = simplex_dot(a, b)
        inner = simplex_dot(a2, b2)
        assert outer.lo <= inner.lo + 1e-12
        assert inner.hi <= outer.hi + 1e-12


def test_mm_identity_exact():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 6)
        entries = []
        for _ in range(n):
            lo = rng.random()
            entries.append(iv(lo, lo + rng.random() * (1 - lo)))
        a = IntervalVector(entries)
        got = simplex_dot(a, vacuous(n))
        assert got.lo == min(e.lo for e in a)
        assert got.hi == max(e.hi for e in a)


def test_normalize_worked_example():
    v = IntervalVector([iv(0.2, 0.4), iv(0.3, 0.5)])
    out, _ = normalize_scaled(v)
    assert out[0].lo == pytest.approx(0.2 / 0.7, abs=1e-12)
    assert out[0].hi == pytest.approx(0.4 / 0.7, abs=1e-12)
    assert out[1].lo == pytest.approx(0.3 / 0.7, abs=1e-12)
    assert out[1].hi == pytest.approx(0.5 / 0.7, abs=1e-12)


def test_normalize_fixed_points():
    point = IntervalVector.point([0.3, 0.7])
    assert normalize_scaled(point)[0] == point
    assert normalize_scaled(vacuous(2))[0] == vacuous(2)


def test_normalize_all_zero_raises():
    with pytest.raises(ConflictingEvidenceError):
        normalize_scaled(IntervalVector.point([0.0, 0.0, 0.0]))


def test_normalize_output_coherent_and_contains_selections():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(2, 5)
        entries = []
        for _ in range(n):
            lo = rng.random() * 0.9
            entries.append(iv(lo, lo + rng.random() * (1 - lo)))
        v = IntervalVector(entries)
        out, scale = normalize_scaled(v)
        assert is_coherent(out)
        assert scale.lo <= scale.hi
        for _ in range(200):
            p = [e.lo + rng.random() * e.width for e in v]
            s = sum(p)
            if s <= 0.0:
                continue
            assert out.contains_point([x / s for x in p], 1e-12)
            assert scale.lo - 1e-12 <= s <= scale.hi + 1e-12


def test_joint_product_of_coherent_factors_is_coherent():
    rng = random.Random(29)
    for _ in range(200):
        factors = []
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(2, 3)
            _, b, _ = _random_coherent_pair(rng, n)
            factors.append(b)
        joint = []
        for combo in itertools.product(*[range(len(f)) for f in factors]):
            e = Interval(1.0, 1.0)
            for f, i in zip(factors, combo):
                e = iv_mul(e, f[i])
            joint.append(e)
        assert is_coherent(IntervalVector(joint))


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.floats(min_value=0.0, max_value=1.0),
        ),
        min_size=1,
        max_size=5,
    ),
    st.randoms(use_true_random=False),
)
@settings(max_examples=200, deadline=None)
def test_simplex_dot_contains_true_mixtures(raw, rnd):
    a = IntervalVector(iv(min(x, y), max(x, y)) for x, y in raw)
    n = len(a)
    got = simplex_dot(a, vacuous(n))
    weights = [rnd.random() for _ in range(n)]
    s = sum(weights)
    weights = [w / s for w in weights] if s > 0 else [1.0 / n] * n
    point = [e.lo + rnd.random() * e.width for e in a]
    val = sum(x * w for x, w in zip(point, weights))
    assert got.lo - 1e-9 <= val <= got.hi + 1e-9


# -- the flat kernels against the per-entry bodies they replaced ---------------
#
# The references below are the kernels as they were when a vector held one
# ``Interval`` per entry: every entry an object, every product an ``iv_mul``.
# They take lists of ``Interval``; the flat kernels must give the same floats.


def _ref_simplex_dot(a, b):
    n = len(a)

    def extreme(weights, order_keys):
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
    return Interval(*_outward(lower, upper))


def _ref_normalize_scaled(v):
    his = [e.hi for e in v]
    los = [e.lo for e in v]
    hi_sum = sum(his)
    lo_sum = sum(los)
    out = []
    for lo, hi in zip(los, his):
        denom_lo = lo + (hi_sum - hi)
        denom_hi = hi + (lo_sum - lo)
        new_lo = lo / denom_lo if lo > 0.0 else 0.0
        new_hi = hi / denom_hi if hi > 0.0 else 0.0
        new_lo, new_hi = _outward(new_lo, new_hi)
        out.append(Interval(min(max(new_lo, 0.0), 1.0), min(max(new_hi, 0.0), 1.0)))
    return out, Interval(max(lo_sum, 0.0), hi_sum)


def _ref_joint_weights(msgs):
    entries = []
    for config in itertools.product(*[range(len(m)) for m in msgs]):
        e = Interval(1.0, 1.0)
        for m, s in zip(msgs, config):
            e = iv_mul(e, m[s])
        entries.append(e)
    return entries


def _hex(entries):
    return [(e.lo.hex(), e.hi.hex()) for e in entries]


def _random_values(rng, n):
    """Nonnegative intervals with frequent zeros, ties and points."""
    pool = [0.0, 0.125, 0.25, 0.5, 1.0]
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            out.append(iv(0.0, 0.0))
        elif kind < 0.45:
            x, y = sorted(rng.sample(pool, 2))
            out.append(iv(x, y) if rng.random() < 0.5 else iv(y, y))
        elif kind < 0.6:
            x = rng.random()
            out.append(iv(x, x))
        else:
            lo = rng.random()
            out.append(iv(lo, lo + rng.random() * (1.0 - lo)))
    return out


def _random_weights(rng, n):
    """Coherent weights: vacuous, indicator, point, or a box around a point."""
    kind = rng.randrange(4)
    if kind == 0:
        return [iv(0.0, 1.0)] * n
    if kind == 1:
        k = rng.randrange(n)
        return [iv(1.0, 1.0) if i == k else iv(0.0, 0.0) for i in range(n)]
    p = [0.0 if rng.random() < 0.2 else rng.random() for _ in range(n)]
    p[rng.randrange(n)] += 1e-3
    s = sum(p)
    p = [x / s for x in p]
    if kind == 2:
        return [iv(x, x) for x in p]
    out = []
    for x in p:
        if rng.random() < 0.3:
            out.append(iv(x, x))
        else:
            out.append(iv(x * rng.random(), x + (1.0 - x) * rng.random()))
    return out


def test_flat_kernels_bit_identical_to_per_entry_bodies():
    rng = random.Random(8)
    for _ in range(10_000):
        n = rng.randint(2, 64) if rng.random() < 0.25 else rng.randint(2, 8)
        a = _random_values(rng, n)
        b = _random_weights(rng, n)
        got = simplex_dot(IntervalVector(a), IntervalVector(b))
        assert _hex([got]) == _hex([_ref_simplex_dot(a, b)])
        if sum(e.hi for e in a) > 0.0:
            vec, scale = normalize_scaled(IntervalVector(a))
            want, want_scale = _ref_normalize_scaled(a)
            assert _hex(vec) == _hex(want)
            assert _hex([scale]) == _hex([want_scale])
        else:
            with pytest.raises(ConflictingEvidenceError):
                normalize_scaled(IntervalVector(a))
        sizes = []
        while not sizes or math.prod(sizes) * 2 <= 64 and rng.random() < 0.6:
            sizes.append(rng.randint(2, min(4, 64 // math.prod(sizes))))
        msgs = [_random_values(rng, k) if rng.random() < 0.5 else _random_weights(rng, k) for k in sizes]
        got = _joint_weights([IntervalVector(m) for m in msgs])
        assert _hex(got) == _hex(_ref_joint_weights(msgs))


# -- a table dotted against one weight vector ---------------------------------
#
# ``_dot_table`` fills each distinct greedy order once per call, and sums
# a point row once against point weights; each of its bounds must be the
# floats, or the error, of both greedy passes run on that row alone.


def _pass(weights, b, spare, order):
    return _weighted_sum(weights, _fill(b.lo, b.hi, spare, order))


def _per_row(los, his, orders, b, spare):
    lows, highs = [], []
    for a_lo, a_hi, (lo_order, hi_order) in zip(los, his, orders):
        lower, upper = _pass(a_lo, b, spare, lo_order), _pass(a_hi, b, spare, hi_order)
        lower, upper = _outward(lower, upper) if lower > upper else (lower, upper)
        lows.append(lower)
        highs.append(upper)
    return lows, highs


def _table_outcome(dot, los, his, orders, b, spare):
    try:
        lows, highs = dot(los, his, orders, b, spare)
    except ValueError as exc:
        return type(exc), str(exc)
    return [v.hex() for v in lows], [v.hex() for v in highs]


def _check_table(los, his, orders, b):
    spare = _spare(b, len(los[0]))
    got = _table_outcome(_dot_table, los, his, orders, b, spare)
    assert got == _table_outcome(_per_row, los, his, orders, b, spare)
    if his is los and spare <= 0.0:
        lows, highs = _dot_table(los, his, orders, b, spare)
        assert lows is highs


# Ties, zeros of both signs and an infinite entry are common.
_ENTRY = st.sampled_from((0.0, -0.0, 0.1, 0.125, 0.25, 1 / 3, 0.5, 1.0, math.inf)) | st.floats(0.0, 1.0)


@st.composite
def _weights(draw, k):
    """A point (spare 0), a vacuous vector or a coherent box around a point."""
    raw = draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))
    p = [v / sum(raw) for v in raw]
    kind = draw(st.sampled_from(("point", "vacuous", "box")))
    if kind == "point":
        return IntervalVector.point(p)
    if kind == "vacuous":
        return vacuous(k)
    r = draw(st.lists(st.floats(0.0, 1.0), min_size=2 * k, max_size=2 * k))
    return IntervalVector.from_bounds([v * f for v, f in zip(p, r)], [v + (1.0 - v) * f for v, f in zip(p, r[k:])])


@st.composite
def _table(draw):
    """Point vectors with their greedy orders, equal orders one object as
    on a network, or with orders drawn from a few shared permutations."""
    k = draw(st.integers(2, 4))
    vectors = draw(st.lists(st.tuples(*[_ENTRY] * k), min_size=1, max_size=6))
    if draw(st.booleans()):
        shared: dict = {}
        orders = [tuple(shared.setdefault(o, o) for o in _orders(v, v)) for v in vectors]
    else:
        pool = draw(st.lists(st.permutations(range(k)).map(tuple), min_size=1, max_size=3))
        orders = [(draw(st.sampled_from(pool)), draw(st.sampled_from(pool))) for _ in vectors]
    return vectors, orders


@settings(max_examples=300, deadline=None)
@given(_table(), st.data())
def test_dot_table_equals_a_dot_per_vector(table, data):
    vectors, orders = table
    _check_table(vectors, vectors, orders, data.draw(_weights(len(vectors[0]))))


# The two fills give sums of this row an ulp apart in the wrong order.
_CROSSED = (0.1, 0.10000000000000002, 0.1)
_CROSSING_WEIGHTS = IntervalVector.from_bounds((0.3, 0.1, 0.1), (1.0, 0.2, 0.2))
# Against weights (0, 1) this row's plain sum is NaN (inf * 0.0).
_INFINITE = (math.inf, 0.5)


def test_dot_table_keeps_a_crossing_widened_outward():
    v, b = _CROSSED, _CROSSING_WEIGHTS
    orders = _orders(v, v)
    spare = _spare(b, 3)
    assert _pass(v, b, spare, orders[0]) > _pass(v, b, spare, orders[1])
    table = [v, v[::-1], v]
    _check_table(table, table, [orders, _orders(v[::-1], v[::-1]), orders], b)
    rows = [v]
    for his in (rows, [v]):  # a point table, then the same row as bounds
        lows, highs = _dot_table(rows, his, [orders], b, spare)
        assert lows[0] < highs[0]


@st.composite
def _bound_rows(draw):
    """A table of lower and upper rows (``his is not los``), each upper
    row its lower row widened by drawn amounts, often zero, with the
    rows' greedy orders and the weights."""
    k = draw(st.integers(2, 4))
    los = draw(st.lists(st.tuples(*[_ENTRY] * k), min_size=1, max_size=6))
    width = st.sampled_from((0.0, 0.25)) | st.floats(0.0, 1.0)
    his = [tuple(lo + draw(width) for lo in row) for row in los]
    return los, his, list(map(_orders, los, his)), draw(_weights(k))


@example(([_CROSSED], [_CROSSED], [_orders(_CROSSED, _CROSSED)], _CROSSING_WEIGHTS))
@example(([_INFINITE], [_INFINITE], [_orders(*[_INFINITE] * 2)], IntervalVector.point((0.0, 1.0))))
@settings(max_examples=300, deadline=None)
@given(_bound_rows())
def test_dot_table_of_bound_rows_equals_a_dot_per_row(case):
    # The examples: a crossed pair widened outward, and an infinite
    # weight whose zero mass the NaN fallback drops.
    los, his, orders, b = case
    _check_table(los, his, orders, b)
    lows, highs = _dot_table(los, his, orders, b, _spare(b, len(los[0])))
    assert lows is not highs and all(map(le, lows, highs))


@pytest.mark.parametrize("b", [
    IntervalVector.point((0.0, 1.0)),
    IntervalVector.from_bounds((0.0, 0.5), (0.25, 1.0)),
])
def test_dot_table_sums_an_infinite_weight_again_without_zero_mass(b):
    # inf * 0.0 is NaN; the entry the fill leaves at zero drops out.
    v = (math.inf, 0.5)
    orders = _orders(v, v)
    assert math.isnan(sum(map(mul, v, _fill(b.lo, b.hi, _spare(b, 2), orders[0]))))
    table = [v, (0.25, 0.75), v]
    _check_table(table, table, [orders, _orders((0.25, 0.75), (0.25, 0.75)), orders], b)
    lows, highs = _dot_table([v], [v], [orders], b, _spare(b, 2))
    assert not math.isnan(lows[0]) and not math.isnan(highs[0])


# -- the flat vector at its boundary -------------------------------------------


@pytest.mark.parametrize(
    "lo, hi",
    [
        ([0.1, math.nan], [0.2, 0.3]),
        ([0.1, 0.2], [0.2, math.nan]),
        ([0.1, 0.4], [0.2, 0.3]),
    ],
)
def test_from_bounds_rejects_what_interval_rejects(lo, hi):
    with pytest.raises(ValueError) as built:
        IntervalVector.from_bounds(lo, hi)
    with pytest.raises(ValueError) as entry:
        Interval(lo[1], hi[1])
    assert str(built.value) == str(entry.value)


def test_from_bounds_rejects_empty_and_ragged_bounds():
    for lo, hi in (([], []), ([0.1], [0.2, 0.3])):
        with pytest.raises(ValueError):
            IntervalVector.from_bounds(lo, hi)
    with pytest.raises(ValueError):
        IntervalVector([])


def test_entries_and_bounds_construction_agree():
    rng = random.Random(12)
    for _ in range(200):
        entries = _random_values(rng, rng.randint(1, 8))
        a = IntervalVector(entries)
        b = IntervalVector.from_bounds([e.lo for e in entries], [e.hi for e in entries])
        assert a == b and hash(a) == hash(b)
        assert a.lo == b.lo == tuple(e.lo for e in entries)
        assert a.hi == b.hi == tuple(e.hi for e in entries)
        assert a.entries == b.entries == tuple(entries)
        assert [a[i] for i in range(len(a))] == list(b) == entries
        assert a[-1] == entries[-1]
        assert a.max_width == b.max_width == max(e.width for e in entries)
        x = [e.lo + rng.random() * e.width for e in entries]
        assert a.contains_point(x) and b.contains_point(x)
        assert not a.contains_point(x + [0.5])
        assert repr(a) == repr(b) == "(" + ", ".join(repr(e) for e in entries) + ")"
    assert IntervalVector([iv(0.0, 1.0)]) != IntervalVector([iv(0.0, 0.5)])
    assert IntervalVector([iv(0.0, 1.0)]) != (iv(0.0, 1.0),)


def test_constructors_equal_their_per_entry_definitions():
    for n in (1, 2, 5):
        assert IntervalVector.vacuous(n) == IntervalVector([iv(0.0, 1.0)] * n)
        assert IntervalVector.ones(n) == IntervalVector([iv(1.0, 1.0)] * n)
        for k in range(n):
            want = [iv(1.0, 1.0) if i == k else iv(0.0, 0.0) for i in range(n)]
            assert IntervalVector.indicator(n, k) == IntervalVector(want)
    values = [0.0, 0.3, 0.7, 1.0]
    assert IntervalVector.point(values) == IntervalVector([iv(v, v) for v in values])
    assert IntervalVector.point(iter(values)) == IntervalVector.point(values)
    with pytest.raises(ValueError):
        IntervalVector.point([0.2, math.nan])
    for build in (IntervalVector.ones, lambda n: IntervalVector.indicator(n, 0)):
        with pytest.raises(ValueError):
            build(0)


def test_indicator_and_vacuous_are_one_instance_per_shape_however_many_are_asked():
    # Asking for more shapes than any fixed memo size keeps in between
    # never builds a shape's vector again.
    indicator, vac = IntervalVector.indicator(30, 0), vacuous(3)
    for n in range(2, 40):
        for k in range(n):
            IntervalVector.indicator(n, k)
    for n in range(1, 400):
        vacuous(n)
    assert IntervalVector.indicator(30, 0) is indicator
    assert vacuous(3) is vac


def test_indicator_and_vacuous_reject_a_bad_state_even_when_memoized():
    # The shared vectors are memoized on their arguments, where True is 1
    # and 2.0 is 2; each argument is checked before the memo is asked.
    IntervalVector.indicator(2, 1), IntervalVector.indicator(2, 0), vacuous(2), vacuous(1)
    for k in (2, 5, -1, True, False, 1.0):
        with pytest.raises(ValueError, match="out of range"):
            IntervalVector.indicator(2, k)
    with pytest.raises(ValueError, match="out of range"):
        IntervalVector.indicator(2.0, 1)
    for n in (0, -1, True, 2.0):
        with pytest.raises(ValueError, match="positive int length"):
            vacuous(n)

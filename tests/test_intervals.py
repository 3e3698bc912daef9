import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundprop.intervals import (
    CoherenceError,
    ConflictingEvidenceError,
    Interval,
    IntervalVector,
    iv_mul,
    normalize,
    normalize_scaled,
    simplex_dot,
    vacuous,
)


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
    assert vacuous(3).is_coherent()
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
    out = normalize(v)
    assert out[0].lo == pytest.approx(0.2 / 0.7, abs=1e-12)
    assert out[0].hi == pytest.approx(0.4 / 0.7, abs=1e-12)
    assert out[1].lo == pytest.approx(0.3 / 0.7, abs=1e-12)
    assert out[1].hi == pytest.approx(0.5 / 0.7, abs=1e-12)


def test_normalize_fixed_points():
    point = IntervalVector.point([0.3, 0.7])
    assert normalize(point) == point
    assert normalize(vacuous(2)) == vacuous(2)


def test_normalize_all_zero_raises():
    with pytest.raises(ConflictingEvidenceError):
        normalize(IntervalVector.point([0.0, 0.0, 0.0]))


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
        assert out.is_coherent()
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
            e = Interval.point(1.0)
            for f, i in zip(factors, combo):
                e = iv_mul(e, f[i])
            joint.append(e)
        assert IntervalVector(joint).is_coherent()


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

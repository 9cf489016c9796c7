"""Tests for exact two-sided p-values and their attainable-value supports."""

from fractions import Fraction

import numpy as np
import pytest

from stepfdr import pvalue
from stepfdr.dist import binomial_null, hypergeometric_null
from stepfdr.errors import DataError
from stepfdr.pvalue import (
    PValueFlavor,
    PValueSupport,
    bt_outcome_pvalues,
    bt_pvalues,
    bt_support,
    fet_outcome_pvalues,
    fet_pvalues,
    fet_support,
    null_support,
    two_sided,
)

CONV = PValueFlavor.CONVENTIONAL
MID = PValueFlavor.MID


def oracle_classes(dist):
    """Independent tie-class computation on exact rationals.

    Returns a list of (outcomes, l, e) per class in ascending mass order,
    where l and e are Fractions: mass strictly below the class and the
    class mass itself.
    """
    pairs = sorted(zip(dist.numerators, dist.support), key=lambda t: t[0])
    classes = []
    for num, x in pairs:
        if classes and classes[-1][0] == num:
            classes[-1][1].append(x)
        else:
            classes.append([num, [x]])
    out = []
    below = Fraction(0)
    for num, xs in classes:
        e = Fraction(num * len(xs), dist.denominator)
        out.append((xs, below, e))
        below += e
    return out


@pytest.mark.parametrize("dist", [
    binomial_null(2),
    binomial_null(7),
    binomial_null(12),
    hypergeometric_null(4, 4, 5),
    hypergeometric_null(6, 3, 4),
    hypergeometric_null(10, 10, 9),
])
def test_two_sided_matches_fraction_oracle(dist):
    for xs, l, e in oracle_classes(dist):
        p_exact = l + e
        q_exact = l + e / 2
        for x in xs:
            got = two_sided(dist, int(x))
            assert got.p_conventional == float(p_exact)
            assert got.p_mid == float(q_exact)
            assert got.l == float(l)
            assert got.e == float(e)


@pytest.mark.parametrize("n", [1075, 1076, 2000])
def test_two_sided_at_large_totals_is_correctly_rounded(n):
    """Exact p-values of at most 2**-1075 round to 0.0 and are accepted.

    The smallest tie class {0, n} has mass 2 / 2**n, so its mid p-value
    rounds to 0.0 from n = 1075 on and its conventional one from n = 1076.
    """
    dist = binomial_null(n)
    conv = null_support(dist, CONV)
    mid = null_support(dist, MID)
    classes = oracle_classes(dist)
    for xs, l, e in (classes[0], classes[len(classes) // 2], classes[-1]):
        got = two_sided(dist, int(xs[0]))
        assert got.l == float(l)
        assert got.e == float(e)
        assert got.p_conventional == float(l + e)
        assert got.p_mid == float(l + e / 2)
        assert got.p_conventional in conv.points
        assert got.p_mid in mid.points
    smallest = two_sided(dist, 0)
    assert smallest.p_mid == 0.0 and mid.points[0] == 0.0
    assert (smallest.p_conventional == 0.0) == (n >= 1076)


def test_two_sided_binomial2_frozen_values():
    d = binomial_null(2)
    r0 = two_sided(d, 0)
    assert (r0.l, r0.e, r0.p_conventional, r0.p_mid) == (0.0, 0.5, 0.5, 0.25)
    r1 = two_sided(d, 1)
    assert (r1.l, r1.e, r1.p_conventional, r1.p_mid) == (0.5, 0.5, 1.0, 0.75)


def test_two_sided_hypergeometric_frozen_values():
    d = hypergeometric_null(2, 2, 2)
    r = two_sided(d, 0)
    assert r.l == 0.0
    assert r.e == pytest.approx(1 / 3)
    assert r.p_conventional == pytest.approx(1 / 3)
    assert r.p_mid == pytest.approx(1 / 6)


def test_two_sided_rejects_off_support():
    with pytest.raises(ValueError):
        two_sided(binomial_null(2), 3)


def test_null_support_binomial2():
    conv = null_support(binomial_null(2), CONV)
    assert np.array_equal(conv.points, [0.5, 1.0])
    assert np.array_equal(conv.cdf_values, [0.5, 1.0])
    mid = null_support(binomial_null(2), MID)
    assert np.array_equal(mid.points, [0.25, 0.75])
    assert np.array_equal(mid.cdf_values, [0.5, 1.0])


def test_null_support_point_mass():
    conv = null_support(binomial_null(0), CONV)
    assert np.array_equal(conv.points, [1.0])
    assert np.array_equal(conv.cdf_values, [1.0])
    mid = null_support(binomial_null(0), MID)
    assert np.array_equal(mid.points, [0.5])
    assert np.array_equal(mid.cdf_values, [1.0])


def test_mid_cdf_equals_matching_conventional_points():
    """The mid support's CDF values are the conventional p-values."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        conv = bt_support(n, CONV)
        mid = bt_support(n, MID)
        assert np.array_equal(mid.cdf_values, conv.points)


def test_conventional_super_uniform_everywhere():
    """Step CDF of a conventional support never exceeds the identity."""
    rng = np.random.default_rng(4)
    sup = bt_support(17, CONV)
    ts = rng.uniform(0.0, 1.0, 500)
    idx = np.searchsorted(sup.points, ts, side="right") - 1
    cdf_at_t = np.where(idx >= 0, sup.cdf_values[np.maximum(idx, 0)], 0.0)
    assert np.all(cdf_at_t <= ts + 1e-15)


def test_mid_sub_uniform_at_support_points():
    """At its own support points the mid CDF sits above the identity.

    Between support points a step CDF drops below the identity, so the
    comparison is only meaningful at the points themselves.
    """
    rng = np.random.default_rng(6)
    for _ in range(40):
        n1 = int(rng.integers(1, 12))
        n2 = int(rng.integers(1, 12))
        total = int(rng.integers(0, n1 + n2 + 1))
        sup = fet_support(n1, n2, total, MID)
        assert np.all(sup.cdf_values >= sup.points)


def test_support_points_strictly_increasing_and_final_one():
    rng = np.random.default_rng(8)
    for _ in range(60):
        n = int(rng.integers(0, 60))
        for flavor in (CONV, MID):
            sup = bt_support(n, flavor)
            assert np.all(np.diff(sup.points) > 0)
            assert sup.cdf_values[-1] == 1.0


def test_bt_pvalues_frozen_examples():
    p, sup = bt_pvalues(0, 2, CONV)
    assert p == 0.5
    assert np.array_equal(sup.points, [0.5, 1.0])
    p, _ = bt_pvalues(1, 1, MID)
    assert p == 0.75
    p, sup = bt_pvalues(0, 0, CONV)
    assert p == 1.0
    assert len(sup) == 1


def test_bt_outcome_pvalues_consistent_with_bt_pvalues():
    rng = np.random.default_rng(9)
    for _ in range(60):
        c1 = int(rng.integers(0, 20))
        c2 = int(rng.integers(0, 20))
        for flavor in (CONV, MID):
            direct, _ = bt_pvalues(c1, c2, flavor)
            table = bt_outcome_pvalues(c1 + c2, flavor)
            assert table[c1] == direct


def test_fet_pvalues_and_outcome_table_agree():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n1 = int(rng.integers(1, 15))
        n2 = int(rng.integers(1, 15))
        c1 = int(rng.integers(0, n1 + 1))
        c2 = int(rng.integers(0, n2 + 1))
        total = c1 + c2
        lo = max(0, total - n2)
        for flavor in (CONV, MID):
            direct, _ = fet_pvalues(c1, c2, n1, n2, flavor)
            table = fet_outcome_pvalues(n1, n2, total, flavor)
            assert table[c1 - lo] == direct


def test_fet_pvalues_validates_counts():
    with pytest.raises((ValueError, DataError)):
        fet_pvalues(6, 0, 5, 5, CONV)
    with pytest.raises((ValueError, DataError)):
        fet_pvalues(0, 6, 5, 5, CONV)


def test_support_caching_returns_same_object():
    a = bt_support(14, CONV)
    b = bt_support(14, CONV)
    assert a is b
    c = fet_support(7, 9, 6, MID)
    d = fet_support(7, 9, 6, MID)
    assert c is d


def test_fresh_tables_grow_no_cache():
    """Tie classes of tables built outside the margin caches are not kept."""
    caches = [f for f in vars(pvalue).values() if hasattr(f, "cache_info")]
    before = [f.cache_info().currsize for f in caches]
    for _ in range(200):
        null_support(binomial_null(5), CONV)
        two_sided(hypergeometric_null(4, 6, 5), 2)
    assert [f.cache_info().currsize for f in caches] == before


def test_support_constructor_validation():
    with pytest.raises(ValueError):
        PValueSupport(flavor=CONV, points=np.array([-0.0625, 1.0]),
                      cdf_values=np.array([-0.0625, 1.0]))
    with pytest.raises(ValueError):
        PValueSupport(flavor=CONV, points=np.array([0.5, 0.4]),
                      cdf_values=np.array([0.5, 1.0]))
    with pytest.raises(ValueError):
        PValueSupport(flavor=CONV, points=np.array([0.5, 1.0]),
                      cdf_values=np.array([0.5, 0.9]))
    with pytest.raises(ValueError):
        PValueSupport(flavor=CONV, points=np.array([0.3, 1.0]),
                      cdf_values=np.array([0.4, 1.0]))


def test_mid_always_below_conventional():
    rng = np.random.default_rng(12)
    for _ in range(40):
        c1 = int(rng.integers(0, 25))
        c2 = int(rng.integers(0, 25))
        conv, _ = bt_pvalues(c1, c2, CONV)
        mid, _ = bt_pvalues(c1, c2, MID)
        assert mid < conv


def test_exact_mid_probability_statement():
    """Pr(Q <= Q(x)) equals P(x), checked by exact enumeration."""
    for dist in (binomial_null(9), hypergeometric_null(5, 7, 6)):
        for xs, l, e in oracle_classes(dist):
            x0 = xs[0]
            got = two_sided(dist, int(x0))
            mass_at_or_below = Fraction(0)
            for ys, l2, e2 in oracle_classes(dist):
                q2 = l2 + e2 / 2
                if q2 <= l + e / 2:
                    mass_at_or_below += e2
            assert float(mass_at_or_below) == got.p_conventional

"""Tests for exact two-sided p-values and their attainable-value supports."""

from fractions import Fraction

import numpy as np
import pytest

from conftest import assert_registry_consistent
from exact_oracle import exact_pvalues, null_of, tie_classes
from stepfdr.dist import binomial_null
from stepfdr.errors import DataError
from stepfdr import pvalue
from stepfdr.pvalue import (
    PValueFlavor,
    PValueSupport,
    bt_outcome_pvalues,
    bt_support,
    fet_outcome_pvalues,
    fet_support,
    pvalue_table,
    step_cdf,
)

CONV = PValueFlavor.CONVENTIONAL
MID = PValueFlavor.MID


def outcome_tables(margin, outcomes):
    """Both flavors' p-value tables with one test per first count in `outcomes`."""
    c1 = np.asarray(outcomes, dtype=np.int64)
    if len(margin) == 1:
        return pvalue_table(c1, margin[0] - c1)
    n1, n2, total = margin
    return pvalue_table(c1, total - c1, n1, n2)


@pytest.mark.parametrize("dist", [
    (2,),
    (7,),
    (12,),
    (4, 4, 5),
    (6, 3, 4),
    (10, 10, 9),
])
def test_two_sided_matches_fraction_oracle(dist):
    """`dist` is a margin: every outcome's table p-value is the oracle's."""
    support = null_of(dist).support
    oracle = exact_pvalues(null_of(dist))
    conv, mid = outcome_tables(dist, support)
    for i, x in enumerate(list(support)):
        p_exact, q_exact = oracle[x]
        assert conv.p[i] == float(p_exact)
        assert mid.p[i] == float(q_exact)


@pytest.mark.parametrize("n", [1075, 1076, 2000])
def test_two_sided_at_large_totals_is_correctly_rounded(n):
    """Exact p-values of at most 2**-1075 round to 0.0 and are accepted.

    The smallest tie class {0, n} has mass 2 / 2**n, so its mid p-value
    rounds to 0.0 from n = 1075 on and its conventional one from n = 1076.
    """
    classes = tie_classes(binomial_null(n))
    for xs, l, e in (classes[0], classes[len(classes) // 2], classes[-1]):
        tables = pvalue_table([xs[0]], [n - xs[0]])
        for table, exact in zip(tables, (l + e, l + e / 2)):
            assert table.p[0] == float(exact)
            assert table.supports[0].points[table.point_index[0]] == table.p[0]
    conv, mid = pvalue_table([0], [n])
    assert mid.p[0] == 0.0 and mid.supports[0].points[0] == 0.0
    assert (conv.p[0] == 0.0) == (n >= 1076)


def test_two_sided_binomial2_frozen_values():
    conv, mid = pvalue_table([0, 1], [2, 1])
    assert conv.p.tolist() == [0.5, 1.0]
    assert mid.p.tolist() == [0.25, 0.75]


def test_two_sided_hypergeometric_frozen_values():
    conv, mid = pvalue_table([0], [2], 2, 2)
    assert conv.p[0] == pytest.approx(1 / 3)
    assert mid.p[0] == pytest.approx(1 / 6)


def test_two_sided_rejects_off_support():
    """An outcome outside its null's support is rejected when the table is built."""
    with pytest.raises(ValueError):
        pvalue_table([3], [-1])
    with pytest.raises(ValueError):
        pvalue_table([3], [0], 2, 2)


def test_total_past_int64_is_named_not_wrapped():
    """c1 + c2 of 2**63 once wrapped to a negative total in the null build."""
    with pytest.raises(ValueError, match=r"below 2\*\*63, got 9223372036854775808"):
        pvalue_table([2**62], [2**62])


def test_null_support_binomial2():
    conv = bt_support(2, CONV)
    assert np.array_equal(conv.points, [0.5, 1.0])
    assert np.array_equal(conv.cdf_values, [0.5, 1.0])
    mid = bt_support(2, MID)
    assert np.array_equal(mid.points, [0.25, 0.75])
    assert np.array_equal(mid.cdf_values, [0.5, 1.0])


def test_null_support_point_mass():
    conv = bt_support(0, CONV)
    assert np.array_equal(conv.points, [1.0])
    assert np.array_equal(conv.cdf_values, [1.0])
    mid = bt_support(0, MID)
    assert np.array_equal(mid.points, [0.5])
    assert np.array_equal(mid.cdf_values, [1.0])


# Margins small enough (n1 + n2 <= 800, totals <= 1074) that no two of a
# margin's classes round to one float, so each mid support has one point per
# conventional point: untied Fisher margins (the certified walk builds them),
# tied ones (n1 = n2) and binomial totals.
UNTIED_FET = [*((7, 30, t) for t in range(38)), (97, 89, 53), (400, 50, 300), (400, 399, 400)]
TIED_FET = [(n, n, t) for n in (1, 5, 25, 60) for t in range(2 * n + 1)]
BT_TOTALS = [(t,) for t in (*range(30), 100, 500, 1074)]


def margin_tables(margins):
    """Both flavors' tables with one test per margin, at its first outcome."""
    margins = np.array(margins)
    if margins.shape[1] == 1:
        return pvalue_table(np.zeros(len(margins), dtype=np.int64), margins[:, 0])
    n1, n2, t = margins.T
    c1 = np.maximum(0, t - n2)
    return pvalue_table(c1, t - c1, n1, n2)


def assert_mid_cdf_is_conventional_points(conv, mid):
    for conventional, midp in zip(conv.supports, mid.supports, strict=True):
        assert midp.cdf_values.tobytes() == conventional.points.tobytes()
        assert not midp.cdf_values.flags.writeable and not conventional.points.flags.writeable


def test_mid_cdf_equals_matching_conventional_points(monkeypatch, empty_registry):
    """The mid support's CDF values are the conventional p-values, byte for
    byte and read-only, for every margin of a chunk: built many to a call,
    in one batch or two, and merged from a run of one-margin calls."""
    for margins in (UNTIED_FET, TIED_FET, UNTIED_FET + TIED_FET, BT_TOTALS):
        assert_mid_cdf_is_conventional_points(*margin_tables(margins))
    assert_registry_consistent()
    fisher = UNTIED_FET + TIED_FET
    empty_registry()
    monkeypatch.setattr(pvalue, "_BATCH", len(fisher) // 2 + 1)
    tables = margin_tables(fisher)
    assert len(pvalue._chunks) == 2
    assert_mid_cdf_is_conventional_points(*tables)
    assert_registry_consistent()
    empty_registry()
    for margin in fisher:   # supports are read only once their chunks have merged
        margin_tables([margin])
    assert len(pvalue._chunks) < len(fisher) and pvalue._chunks[0].level > 0
    assert_mid_cdf_is_conventional_points(*margin_tables(fisher))
    assert_registry_consistent()


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
    table, _ = pvalue_table([0, 0], [2, 0])
    assert table.p.tolist() == [0.5, 1.0]
    sup_2, sup_0 = (table.supports[j] for j in table.support_index)
    assert np.array_equal(sup_2.points, [0.5, 1.0])
    assert len(sup_0) == 1
    assert pvalue_table([1], [1])[1].p[0] == 0.75


def test_bt_outcome_pvalues_consistent_with_bt_pvalues():
    rng = np.random.default_rng(9)
    for _ in range(60):
        c1 = int(rng.integers(0, 20))
        c2 = int(rng.integers(0, 20))
        for flavor, direct in zip((CONV, MID), pvalue_table([c1], [c2])):
            table = bt_outcome_pvalues(c1 + c2, flavor)
            assert table[c1] == direct.p[0]


def test_fet_pvalues_and_outcome_table_agree():
    rng = np.random.default_rng(10)
    for _ in range(60):
        n1 = int(rng.integers(1, 15))
        n2 = int(rng.integers(1, 15))
        c1 = int(rng.integers(0, n1 + 1))
        c2 = int(rng.integers(0, n2 + 1))
        total = c1 + c2
        lo = max(0, total - n2)
        for flavor, direct in zip((CONV, MID), pvalue_table([c1], [c2], n1, n2)):
            table = fet_outcome_pvalues(n1, n2, total, flavor)
            assert table[c1 - lo] == direct.p[0]


def test_fet_pvalues_validates_counts():
    with pytest.raises((ValueError, DataError)):
        pvalue_table([6], [0], 5, 5)
    with pytest.raises((ValueError, DataError)):
        pvalue_table([0], [6], 5, 5)


@pytest.mark.parametrize("high", [4, 2**21, 2**21 + 3, 2**62])
def test_fisher_margins_group_like_np_unique(high):
    """Rows sharing prefixes, with values up to and past 2**21."""
    rng = np.random.default_rng(high % 1000)
    values = np.append(rng.integers(0, high, size=7), high - 1)
    for size in (1, 2, 200, 5000):
        cols = rng.choice(values, size=(3, size))
        margins, group = pvalue._group_rows(*cols)
        want, inverse = np.unique(cols.T, axis=0, return_inverse=True)
        np.testing.assert_array_equal(margins, want)
        np.testing.assert_array_equal(group, inverse.reshape(-1))


def test_support_caching_returns_same_object():
    a = bt_support(14, CONV)
    b = bt_support(14, CONV)
    assert a is b
    c = fet_support(7, 9, 6, MID)
    d = fet_support(7, 9, 6, MID)
    assert c is d


@pytest.mark.parametrize("call, message", [
    (lambda: bt_support(2.5, CONV), "column c2 must hold integers below 2\\*\\*63"),
    (lambda: bt_outcome_pvalues(2.5, MID), "column c2 must hold integers below 2\\*\\*63"),
    (lambda: fet_support(3, 3, 7, CONV), "count exceeds its trial total"),
    (lambda: fet_outcome_pvalues(3, 3, 7, MID), "count exceeds its trial total"),
    (lambda: bt_support(-1, CONV), "column 'c2' must hold counts >= 0"),
], ids=["bt-fractional-total", "bt-outcomes-fractional-total", "fet-infeasible",
        "fet-outcomes-infeasible", "bt-negative-total"])
def test_helpers_check_their_counts_like_pvalue_table(call, message):
    """The helpers are `pvalue_table` calls, so a fractional total is
    refused, not truncated, and an infeasible margin breaks a count rule."""
    with pytest.raises(ValueError, match=message):
        call()


def test_outcome_helpers_return_read_only_columns():
    for pvalues in (bt_outcome_pvalues(9, CONV), fet_outcome_pvalues(4, 6, 5, MID)):
        assert not pvalues.flags.writeable


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


@pytest.mark.parametrize("flavor, points, cdf", [
    (CONV, [0.5, 0.5, 1.0], [0.5, 0.5, 1.0]),
    (MID, [0.2, 0.6, 0.9], [0.5, 0.4, 1.0]),
    (MID, [0.2, 0.6], [0.5, 0.9]),
    (CONV, [-0.0625, 1.0], [-0.0625, 1.0]),
    (MID, [0.5, np.nan], [0.7, 1.0]),
    (CONV, [0.3, 1.0], [0.4, 1.0]),
    (MID, [0.3, 0.6], [0.2, 1.0]),
    (CONV, [], []),
], ids=["points-repeat", "cdf-falls", "cdf-ends-below-one", "point-below-zero",
        "point-nan", "conventional-cdf-off-points", "mid-cdf-below-points",
        "empty"])
def test_segmented_check_names_a_bad_middle_segment_like_one_support(
        flavor, points, cdf):
    """One `step_cdf` call checks a whole batch of supports cut at `ends`;
    a corrupted middle segment fails with the message of that support
    checked alone.  Across a seam, points may fall and the CDF restart."""
    with pytest.raises(ValueError) as alone:
        PValueSupport(flavor, np.array(points, dtype=float), np.array(cdf, dtype=float))
    good = bt_support(6, flavor)
    flat_points = np.concatenate([good.points, points, good.points])
    flat_cdf = np.concatenate([good.cdf_values, cdf, good.cdf_values])
    ends = np.cumsum([len(good), len(points), len(good)])
    with pytest.raises(ValueError) as batched:
        step_cdf(flat_points, flat_cdf, ends=ends, flavor=flavor)
    assert str(batched.value) == str(alone.value)
    three = np.concatenate([good.points] * 3), np.concatenate([good.cdf_values] * 3)
    checked = step_cdf(*three, ends=np.cumsum([len(good)] * 3), flavor=flavor)
    assert [a.tobytes() for a in checked] == [a.tobytes() for a in three]


def test_mid_always_below_conventional():
    rng = np.random.default_rng(12)
    for _ in range(40):
        c1 = int(rng.integers(0, 25))
        c2 = int(rng.integers(0, 25))
        conv, mid = pvalue_table([c1], [c2])
        assert mid.p[0] < conv.p[0]


def test_exact_mid_probability_statement():
    """Pr(Q <= Q(x)) equals P(x), checked by exact enumeration."""
    for margin in ((9,), (5, 7, 6)):
        classes = tie_classes(null_of(margin))
        for xs, l, e in classes:
            got = outcome_tables(margin, xs[:1])[0].p[0]
            mass_at_or_below = Fraction(0)
            for ys, l2, e2 in classes:
                q2 = l2 + e2 / 2
                if q2 <= l + e / 2:
                    mass_at_or_below += e2
            assert float(mass_at_or_below) == got

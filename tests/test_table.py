"""Property tests of the columnar p-value table and the step-ups that read it.

Each property runs on random binomial-test totals (zero included) and
Fisher-exact margins (empty groups included), drawn by hypothesis.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from exact_oracle import exact_pvalues
from stepfdr import pvalue
from stepfdr.dist import binomial_null, hypergeometric_null
from stepfdr.ingest import CountTable
from stepfdr.pvalue import (
    PValueFlavor,
    PValueTable,
    bt_support,
    fet_support,
    pvalue_table,
)
from stepfdr.stepup import bh, bh_plus, mid_vs_conventional

CONV = PValueFlavor.CONVENTIONAL
MID = PValueFlavor.MID
FLAVORS = st.sampled_from([CONV, MID])
ALPHAS = st.floats(0.01, 0.5)

PROPERTY = settings(max_examples=60, deadline=None, database=None)

PAIRS = st.tuples(st.integers(0, 40), st.integers(0, 40))
BT_ROWS = st.lists(PAIRS, min_size=1, max_size=40)


@st.composite
def fet_row(draw):
    n1, n2 = draw(st.integers(0, 25)), draw(st.integers(0, 25))
    return draw(st.integers(0, n1)), draw(st.integers(0, n2)), n1, n2


FET_ROWS = st.lists(fet_row(), min_size=1, max_size=40)
INSTANCES = st.one_of(BT_ROWS, FET_ROWS)


def tables_of(rows):
    """The (conventional, mid) pair of tables from one call."""
    cols = np.array(rows, dtype=np.int64).T
    return pvalue_table(*cols)


def table_of(rows, flavor):
    conv, mid = tables_of(rows)
    return mid if flavor is MID else conv


def exact(flavor, dist, x):
    """The oracle's float p-value of outcome x under `dist`."""
    p, q = exact_pvalues(dist)[x]
    return float(p if flavor is CONV else q)


@PROPERTY
@given(rows=BT_ROWS, flavor=FLAVORS)
def test_bt_table_matches_per_record_pvalues(rows, flavor):
    table = table_of(rows, flavor)
    for i, (c1, c2) in enumerate(rows):
        support = table.supports[table.support_index[i]]
        assert table.p[i] == exact(flavor, binomial_null(c1 + c2), c1)
        assert support is bt_support(c1 + c2, flavor)
        assert support.points[table.point_index[i]] == table.p[i]


@PROPERTY
@given(rows=FET_ROWS, flavor=FLAVORS)
def test_fet_table_matches_per_record_pvalues(rows, flavor):
    table = table_of(rows, flavor)
    for i, (c1, c2, n1, n2) in enumerate(rows):
        support = table.supports[table.support_index[i]]
        assert table.p[i] == exact(flavor, hypergeometric_null(n1, n2, c1 + c2), c1)
        assert support is fet_support(n1, n2, c1 + c2, flavor)
        assert support.points[table.point_index[i]] == table.p[i]


def test_each_margin_null_is_built_once_for_both_flavors(monkeypatch):
    built = []

    def counting_null(*margin):
        built.append(margin)
        return hypergeometric_null(*margin)

    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    rows = [(10, 43, 97, 89), (20, 33, 97, 89), (1, 52, 97, 89)]
    conv, mid = tables_of(rows)
    assert conv.supports == (fet_support(97, 89, 53, CONV),)
    assert mid.supports == (fet_support(97, 89, 53, MID),)
    assert built == [(97, 89, 53)]


@PROPERTY
@given(rows=INSTANCES)
def test_one_call_builds_both_flavors_on_shared_slots(rows):
    """Both tables of one call share support_index; slot j of each holds the
    same margin's conventional and mid support, and both p columns are the
    oracle's."""
    conv, mid = tables_of(rows)
    assert np.array_equal(conv.support_index, mid.support_index)
    assert len(conv.supports) == len(mid.supports)
    for i, row in enumerate(rows):
        if len(row) == 2:
            margin, dist = (row[0] + row[1],), binomial_null(row[0] + row[1])
            support = bt_support
        else:
            c1, c2, n1, n2 = row
            margin = (n1, n2, c1 + c2)
            dist, support = hypergeometric_null(*margin), fet_support
        j = conv.support_index[i]
        assert conv.supports[j] is support(*margin, CONV)
        assert mid.supports[j] is support(*margin, MID)
        assert conv.p[i] == exact(CONV, dist, row[0])
        assert mid.p[i] == exact(MID, dist, row[0])


@PROPERTY
@given(rows=INSTANCES, flavor=FLAVORS, alpha=ALPHAS)
def test_bh_plus_same_on_table_and_per_test_supports(rows, flavor, alpha):
    """A hand-built table with one support slot per test gives the same run."""
    table = table_of(rows, flavor)
    per_test = PValueTable([table.supports[j] for j in table.support_index],
                           np.arange(len(rows)), table.point_index)
    assert np.array_equal(per_test.p, table.p)
    on_table = bh_plus(table, alpha)
    on_list = bh_plus(per_test, alpha)
    assert on_table.critical_values.tobytes() == on_list.critical_values.tobytes()
    assert on_table.rejection_count == on_list.rejection_count
    assert on_table.threshold == on_list.threshold
    assert np.array_equal(on_table.rejected, on_list.rejected)


@PROPERTY
@given(rows=INSTANCES, alpha=ALPHAS)
def test_bh_plus_is_bh_and_contains_mid_run(rows, alpha):
    conv, mid = tables_of(rows)
    res_bh = bh(conv.p, alpha)
    res_plus = bh_plus(conv, alpha)
    assert np.array_equal(res_bh.rejected, res_plus.rejected)
    res_mid = mid_vs_conventional(res_plus, mid, alpha).mid_result
    assert np.isin(res_mid.rejected, res_plus.rejected).all()


@pytest.mark.parametrize("support_index, point_index", [
    ([-1, 0], [0, 0]),
    ([0, 2], [0, 0]),
    ([0, 1], [-1, 0]),
    ([0, 1], [0, 2]),
    ([0, 1], [1, 1]),
], ids=["support-negative", "support-past-end", "point-negative",
        "point-past-end", "point-past-own-support"])
def test_table_rejects_index_off_its_supports(support_index, point_index):
    """The constructor is what keeps every test on a point of its own support.

    Support 0 has two points and support 1 one point, so point 1 exists only
    on support 0.
    """
    supports = (bt_support(2, CONV), bt_support(0, CONV))
    assert [len(s) for s in supports] == [2, 1]
    with pytest.raises(ValueError, match="index a point"):
        PValueTable(supports, support_index, point_index)


@pytest.mark.parametrize("c1, c2", [
    ([], []),
    ([1, 2], [3]),
    ([[1, 2]], [[3, 4]]),
    (1, 2),
], ids=["empty", "unequal", "2-d", "scalar"])
def test_pvalue_table_rejects_malformed_count_columns(c1, c2):
    """Its own message for empty columns (numpy's concatenate error before),
    and no broadcasting: a short c2 once made the tests (1, 3), (2, 3)."""
    with pytest.raises(ValueError, match="matching non-empty 1-D columns"):
        pvalue_table(c1, c2)


@pytest.mark.parametrize("columns, name", [
    (([2.7], [1.0]), "c1"),
    (([2.0], [1.2]), "c2"),
    (([2.0], [1.0], [3.5], [4.0]), "n1"),
    (([2.0], [1.0], [3.0], [np.nan]), "n2"),
    (([1e30], [1]), "c1"),
    (([1], [2**70]), "c2"),
], ids=["c1", "c2", "n1", "n2-nan", "c1-float-past-int64", "c2-int-past-int64"])
def test_fractional_counts_are_rejected_not_truncated(columns, name):
    """Both int64 casts of count columns refuse a value that is not an
    int64 integer, instead of truncating or wrapping it."""
    with pytest.raises(ValueError, match=rf"column {name} must hold integers"):
        pvalue_table(*columns)
    with pytest.raises(ValueError, match=rf"column {name} must hold integers"):
        CountTable(("a",), *columns)
    for from_float, from_int in zip(pvalue_table([2.0], [1.0]),
                                    pvalue_table([2], [1])):
        assert from_float.p[0] == from_int.p[0]

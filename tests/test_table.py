"""Property tests of the columnar p-value table and the step-ups that read it.

Each property runs on random binomial-test totals (zero included) and
Fisher-exact margins (empty groups included), drawn by hypothesis.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stepfdr import pvalue
from stepfdr.dist import hypergeometric_null
from stepfdr.pvalue import (
    PValueFlavor,
    bt_pvalues,
    bt_support,
    fet_pvalues,
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


def table_of(rows, flavor):
    cols = np.array(rows, dtype=np.int64).T
    return pvalue_table(flavor, *cols)


def per_test(rows, flavor):
    """(p, support) of every row from the per-record functions."""
    if len(rows[0]) == 2:
        return [bt_pvalues(c1, c2, flavor) for c1, c2 in rows]
    return [fet_pvalues(*row, flavor) for row in rows]


@PROPERTY
@given(rows=BT_ROWS, flavor=FLAVORS)
def test_bt_table_matches_per_record_pvalues(rows, flavor):
    table = table_of(rows, flavor)
    for i, (c1, c2) in enumerate(rows):
        p, support = bt_pvalues(c1, c2, flavor)
        assert table.p[i] == p
        assert table.supports[table.support_index[i]] is support
        assert support is bt_support(c1 + c2, flavor)
        assert support.points[table.point_index[i]] == p


@PROPERTY
@given(rows=FET_ROWS, flavor=FLAVORS)
def test_fet_table_matches_per_record_pvalues(rows, flavor):
    table = table_of(rows, flavor)
    for i, (c1, c2, n1, n2) in enumerate(rows):
        p, support = fet_pvalues(c1, c2, n1, n2, flavor)
        assert table.p[i] == p
        assert table.supports[table.support_index[i]] is support
        assert support is fet_support(n1, n2, c1 + c2, flavor)
        assert support.points[table.point_index[i]] == p


def test_each_margin_null_is_built_once_for_both_flavors(monkeypatch):
    built = []

    def counting_null(*margin):
        built.append(margin)
        return hypergeometric_null(*margin)

    monkeypatch.setattr(pvalue, "hypergeometric_null", counting_null)
    rows = [(10, 43, 97, 89), (20, 33, 97, 89), (1, 52, 97, 89)]
    for flavor in (CONV, MID):
        table = table_of(rows, flavor)
        assert table.supports == (fet_support(97, 89, 53, flavor),)
    assert built == [(97, 89, 53)]


@PROPERTY
@given(rows=INSTANCES, flavor=FLAVORS, alpha=ALPHAS)
def test_bh_plus_same_on_table_and_per_test_supports(rows, flavor, alpha):
    table = table_of(rows, flavor)
    pairs = per_test(rows, flavor)
    p = np.array([p for p, _ in pairs])
    supports = [support for _, support in pairs]
    on_table = bh_plus(p, table, alpha)
    on_list = bh_plus(p, supports, alpha)
    assert on_table.critical_values.tobytes() == on_list.critical_values.tobytes()
    assert on_table.rejection_count == on_list.rejection_count
    assert on_table.threshold == on_list.threshold
    assert np.array_equal(on_table.rejected, on_list.rejected)


@PROPERTY
@given(rows=INSTANCES, flavor=FLAVORS, data=st.data())
def test_off_support_pvalue_names_its_test(rows, flavor, data):
    table = table_of(rows, flavor)
    supports = [table.supports[j] for j in table.support_index]
    i = data.draw(st.integers(0, len(rows) - 1))
    p = table.p.copy()
    p[i] = np.nextafter(p[i], 0.0)
    assume(p[i] not in supports[i].points)
    for given_supports in (table, supports):
        with pytest.raises(ValueError, match=rf"\bof test {i}\b"):
            bh_plus(p, given_supports, 0.1)


@PROPERTY
@given(rows=INSTANCES, alpha=ALPHAS)
def test_bh_plus_is_bh_and_contains_mid_run(rows, alpha):
    conv, mid = table_of(rows, CONV), table_of(rows, MID)
    res_bh = bh(conv.p, alpha)
    res_plus = bh_plus(conv.p, conv, alpha)
    assert np.array_equal(res_bh.rejected, res_plus.rejected)
    res_mid = mid_vs_conventional(res_plus, mid, mid.p, alpha).mid_result
    assert np.isin(res_mid.rejected, res_plus.rejected).all()

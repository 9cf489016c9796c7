"""Each count range rule, the trial-totals rule and the alpha rule are
written once in the package: the text that `pvalue.checked_total` writes
for a count rule or for n1 without n2, and the text of
`stepup._check_alpha`, occur in exactly one place in the package's source,
so no second copy of a rule can drift from it."""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stepfdr
from stepfdr.ingest import CountTable
from stepfdr.pvalue import PValueFlavor, PValueTable, bt_support, pvalue_table
from stepfdr.sim import SimConfig
from stepfdr.stepup import bh, build_max_cdf, critical_values, run_procedures

SOURCES = sorted(Path(stepfdr.__file__).parent.glob("*.py"))


def places(rule):
    return [f"{path.name}:{lineno}" for path in SOURCES
            for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if rule in line]


@pytest.mark.parametrize("columns, rule", [
    (([1, -2], [3, 4]), "must hold counts >= 0"),
    (([1, 2**62], [3, 2**62]), "total c1 + c2 must be below 2**63"),
    (([1, 6], [3, 0], [5, 5], [5, 5]), "count exceeds its trial total"),
], ids=["negative", "wrapping-total", "above-trial-total"])
def test_each_range_rule_is_written_once(columns, rule):
    with pytest.raises(ValueError) as error:
        pvalue_table(*columns)
    assert str(error.value).startswith("row 1: ") and rule in str(error.value)
    found = places(rule)
    assert len(found) == 1, found


@pytest.mark.parametrize("call", [
    lambda: CountTable(("x",), [1], [2], n1=[5]),
    lambda: CountTable(("x",), [1], [2], n2=[5]),
    lambda: pvalue_table([1], [2], 5, None),
    lambda: pvalue_table([1], [2], None, 5),
], ids=["CountTable-n1", "CountTable-n2", "pvalue_table-n1", "pvalue_table-n2"])
def test_the_trial_totals_rule_is_written_once(call):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == "trial totals n1 and n2 must be given together"
    found = places("n1 and n2 must be given together")
    assert len(found) == 1, found


@pytest.mark.parametrize("call", [
    lambda: critical_values(build_max_cdf(pvalue_table([1], [2])[0]), 2.0, 0),
    lambda: bh([0.5], 2.0),
    # alpha first, before the mismatched table sizes
    lambda: run_procedures(pvalue_table([1], [2])[0], pvalue_table([1, 2], [2, 3])[1],
                           (0.05, 2.0)),
    lambda: SimConfig(test="bt", pi0=0.5, alpha=2.0, eta=3.0, dependence="neither"),
], ids=["critical_values", "bh", "run_procedures", "SimConfig"])
def test_the_alpha_rule_is_written_once(call):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == "alpha must lie in (0, 1), got 2.0"
    found = places("alpha must lie in (0, 1)")
    assert len(found) == 1, found


@pytest.mark.parametrize("values", [
    ["+1", " 2"],
    [b"1", b"2"],
    ["x", "1"],
    [True, False],
    [1 + 0j, 2 + 0j],
    [None, 1],
    [Fraction(3, 2), 1],
], ids=["signed-str", "bytes", "not-a-number", "bool", "complex", "None", "Fraction"])
def test_count_columns_are_numbers_not_parsed_text(values):
    """`int()` is the one count parser, so a count column holds int, uint or
    float values only: numpy's str -> int64 cast once read ["+1", " 2"] as
    counts 1 and 2, bools became 1 and 0, a complex passed with a warning, a
    Fraction was truncated, and None and "x" failed without naming the
    column.  PValueTable's index columns follow the same rule."""
    message = r"^column {} must hold integers below 2\*\*63$"
    with pytest.raises(ValueError, match=message.format("c1")):
        CountTable(("a", "b"), values, [3, 4])
    with pytest.raises(ValueError, match=message.format("c2")):
        pvalue_table([3, 4], values)
    with pytest.raises(ValueError, match=message.format("n1")):
        pvalue_table([0, 0], [0, 0], values, [5, 5])
    support = bt_support(2, PValueFlavor.CONVENTIONAL)
    with pytest.raises(ValueError, match=message.format("support_index")):
        PValueTable([support, support], values, [0, 0])
    with pytest.raises(ValueError, match=message.format("point_index")):
        PValueTable([support], [0, 0], values)


@pytest.mark.parametrize("values", [
    [1, 2],
    np.array([1, 2], dtype=np.uint8),
    np.array([1, 2], dtype=np.int16),
    np.array([1.0, 2.0], dtype=np.float32),
    [1.0, 2],
    [np.int64(1), 2],
], ids=["python-ints", "uint8", "int16", "float32", "integral-floats", "numpy-scalars"])
def test_integer_valued_numeric_columns_still_load(values):
    assert CountTable(("a", "b"), values, [3, 4]).c1.tolist() == [1, 2]
    assert pvalue_table(values, [3, 4])[0].p.tolist() == pvalue_table([1, 2], [3, 4])[0].p.tolist()

"""Each count range rule is written once in the package: the text that
`pvalue.checked_total` writes for it occurs in exactly one place in the
package's source, so no second copy of the rule can drift from it."""

from pathlib import Path

import pytest

import stepfdr
from stepfdr.pvalue import pvalue_table

SOURCES = sorted(Path(stepfdr.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("columns, rule", [
    (([1, -2], [3, 4]), "must hold counts >= 0"),
    (([1, 2**62], [3, 2**62]), "total c1 + c2 must be below 2**63"),
    (([1, 6], [3, 0], [5, 5], [5, 5]), "count exceeds its trial total"),
], ids=["negative", "wrapping-total", "above-trial-total"])
def test_each_range_rule_is_written_once(columns, rule):
    with pytest.raises(ValueError) as error:
        pvalue_table(*columns)
    assert str(error.value).startswith("row 1: ") and rule in str(error.value)
    places = [f"{path.name}:{lineno}" for path in SOURCES
              for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
              if rule in line]
    assert len(places) == 1, places

"""Exact two-sided p-values for discrete statistics and their null supports.

For an observed outcome x0 with null pmf f, the conventional two-sided
p-value is P(x0) = l(x0) + e(x0) where l is the total mass of outcomes with
f(x) < f(x0) and e is the total mass of the tie class f(x) = f(x0).  The mid
p-value is Q(x0) = l(x0) + e(x0) / 2.  Both are computed on big-integer mass
numerators over the table's common denominator and converted to float once,
so equal rationals always produce bit-identical floats.  `pvalue_table`
turns count columns into one `PValueTable` per flavor, the adaptive
step-ups' input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .dist import DiscreteDistribution, binomial_null, hypergeometric_null

__all__ = [
    "PValueFlavor",
    "PValueSupport",
    "PValueTable",
    "pvalue_table",
    "bt_support",
    "fet_support",
    "bt_outcome_pvalues",
    "fet_outcome_pvalues",
]


class PValueFlavor(str, enum.Enum):
    CONVENTIONAL = "conventional"
    MID = "mid"


def step_cdf(x, cdf, x_name: str, cdf_name: str) -> tuple[np.ndarray, np.ndarray]:
    """`x` and `cdf` as read-only float arrays, or a ValueError naming them
    unless they tabulate a step CDF: matching non-empty 1-D arrays, `x`
    strictly increasing, `cdf` nondecreasing and ending at exactly 1.0."""
    x = np.asarray(x, dtype=np.float64)
    cdf = np.asarray(cdf, dtype=np.float64)
    if x.ndim != 1 or x.size == 0 or cdf.shape != x.shape:
        raise ValueError(f"{x_name} and {cdf_name} must be matching 1-D arrays")
    if x.size > 1 and not np.all(np.diff(x) > 0.0):
        raise ValueError(f"{x_name} must be strictly increasing")
    if x.size > 1 and not np.all(np.diff(cdf) >= 0.0):
        raise ValueError(f"{cdf_name} must be nondecreasing")
    if cdf[-1] != 1.0:
        raise ValueError(f"the last of {cdf_name} must equal 1.0 exactly")
    x.flags.writeable = False
    cdf.flags.writeable = False
    return x, cdf


@dataclass(frozen=True, eq=False)
class PValueSupport:
    """Attainable p-values of one test together with their null CDF.

    points are the distinct attainable p-values in increasing order and
    cdf_values[j] = Pr(p <= points[j]) under the null.  For the conventional
    flavor the CDF is the identity on its support; for the mid flavor
    cdf_values[j] is the conventional p-value of the same tie class, which
    always weakly exceeds points[j].  The smallest point may be 0.0, the
    correctly rounded float of every exact p-value of at most 2**-1075; the
    tie classes that round to it share that point.
    """

    flavor: PValueFlavor
    points: np.ndarray
    cdf_values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "flavor", PValueFlavor(self.flavor))
        points, cdf = step_cdf(self.points, self.cdf_values,
                               "support points", "cdf_values")
        if not (np.all(points >= 0.0) and np.all(points <= 1.0)):
            raise ValueError("support points must lie in [0, 1]")
        if self.flavor is PValueFlavor.CONVENTIONAL and not np.array_equal(points, cdf):
            raise ValueError("conventional supports must satisfy cdf_values == points")
        if self.flavor is PValueFlavor.MID and not np.all(cdf >= points):
            raise ValueError("mid supports must satisfy cdf_values >= points")
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "cdf_values", cdf)

    def __len__(self) -> int:
        return int(self.points.size)


@dataclass(frozen=True, eq=False)
class _TieTable:
    """Per-tie-class exact quantities of one null table, in ascending mass order."""

    class_of: np.ndarray   # tie-class index for each outcome, support-aligned
    p_conv: np.ndarray     # float P per class, strictly increasing
    p_mid: np.ndarray      # float Q per class, strictly increasing


def _tie_table(dist: DiscreteDistribution) -> _TieTable:
    nums = dist.numerators
    den = dist.denominator
    order = sorted(range(len(nums)), key=nums.__getitem__)
    class_of = np.empty(len(nums), dtype=np.int64)
    l_num: list[int] = []
    e_num: list[int] = []
    acc = 0
    prev = None
    for idx in order:
        n = nums[idx]
        if n != prev:
            l_num.append(acc)
            e_num.append(0)
            prev = n
        class_of[idx] = len(l_num) - 1
        e_num[-1] += n
        acc += n
    two_den = 2 * den
    p_conv = np.array([(ln + en) / den for ln, en in zip(l_num, e_num)])
    p_mid = np.array([(2 * ln + en) / two_den for ln, en in zip(l_num, e_num)])
    return _TieTable(class_of=class_of, p_conv=p_conv, p_mid=p_mid)


def _support_with_map(table: _TieTable,
                      flavor: PValueFlavor) -> tuple[PValueSupport, np.ndarray]:
    """Build one flavor's support plus the outcome -> point-index map.

    Distinct tie classes have distinct rational p-values, but two of them can
    collapse to the same float; collapsed classes are merged onto one support
    point, keeping the largest (right-continuous) CDF value.
    """
    points = table.p_conv if flavor is PValueFlavor.CONVENTIONAL else table.p_mid
    cdf = table.p_conv
    keep = np.ones(points.size, dtype=bool)
    keep[1:] = points[1:] > points[:-1]
    point_index = np.cumsum(keep) - 1
    n_points = int(point_index[-1]) + 1
    # Right-continuous step CDF: a merged point carries its last class's mass.
    last_class = np.searchsorted(point_index, np.arange(n_points), side="right") - 1
    support = PValueSupport(flavor=flavor, points=points[keep],
                            cdf_values=cdf[last_class])
    outcome_to_point = point_index[table.class_of]
    outcome_to_point.flags.writeable = False
    return support, outcome_to_point


# One entry per margin -- (total,) for bt, (n1, n2, total) for fet -- holds
# both flavors' (support, outcome -> point map), so each margin's null table
# is built and tie-classified once per process.
@lru_cache(maxsize=None)
def _margin(*key: int) -> dict:
    dist = binomial_null(*key) if len(key) == 1 else hypergeometric_null(*key)
    table = _tie_table(dist)
    return {flavor: _support_with_map(table, flavor) for flavor in PValueFlavor}


def bt_support(total: int, flavor) -> PValueSupport:
    """Cached binomial-test support for a fixed total count; interned per margin."""
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    return _margin(int(total))[PValueFlavor(flavor)][0]


def fet_support(n1: int, n2: int, total: int, flavor) -> PValueSupport:
    """Cached Fisher-exact support for fixed margins; interned per margin triple."""
    return _margin(int(n1), int(n2), int(total))[PValueFlavor(flavor)][0]


def bt_outcome_pvalues(total: int, flavor) -> np.ndarray:
    """p-value of every outcome c1 = 0..total, as floats taken from the support."""
    support, outcome_to_point = _margin(int(total))[PValueFlavor(flavor)]
    return support.points[outcome_to_point]


def fet_outcome_pvalues(n1: int, n2: int, total: int, flavor) -> np.ndarray:
    """p-value of every feasible outcome c1, aligned with the hypergeometric support."""
    support, outcome_to_point = _margin(int(n1), int(n2),
                                        int(total))[PValueFlavor(flavor)]
    return support.points[outcome_to_point]


@dataclass(frozen=True, eq=False)
class PValueTable:
    """p-values of m tests in columns, each distinct support held once.

    Test i lives on supports[support_index[i]], and its p-value p[i] is that
    support's point_index[i]-th point, so every p-value is a point of its own
    support by construction.
    """

    supports: tuple[PValueSupport, ...]
    support_index: np.ndarray
    point_index: np.ndarray
    p: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        supports = tuple(self.supports)
        support_index = np.asarray(self.support_index, dtype=np.int64)
        point_index = np.asarray(self.point_index, dtype=np.int64)
        if (support_index.ndim != 1 or support_index.size == 0
                or point_index.shape != support_index.shape):
            raise ValueError(
                "support_index and point_index must be matching non-empty 1-D arrays")
        sizes = np.array([len(s) for s in supports], dtype=np.int64)
        if (support_index.min() < 0 or support_index.max() >= sizes.size
                or point_index.min() < 0
                or np.any(point_index >= sizes[support_index])):
            raise ValueError("every test must index a point of one of the supports")
        starts = np.cumsum(sizes) - sizes
        p = np.concatenate([s.points for s in supports])[
            starts[support_index] + point_index]
        object.__setattr__(self, "supports", supports)
        for name, arr in (("support_index", support_index),
                          ("point_index", point_index), ("p", p)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def count_column(name: str, values) -> np.ndarray:
    """`values` as int64, or a ValueError naming column `name` if a value is
    not an integer below 2**63 (a cast would truncate or wrap it)."""
    raw = np.asarray(values)
    if raw.dtype.kind != "f" or np.all((raw == np.trunc(raw))
                                       & (np.abs(raw) < 2.0**63)):
        try:
            return raw.astype(np.int64, copy=False)
        except OverflowError:
            pass
    raise ValueError(f"column {name} must hold integers below 2**63")


def pvalue_table(c1, c2, n1=None, n2=None) -> tuple[PValueTable, PValueTable]:
    """Conventional and mid p-values of m count pairs, with their supports.

    Without n1 and n2 each pair gets the binomial test given its total; with
    them (arrays, or scalars shared by every test) it gets Fisher's exact
    test given (n1, n2, total).  The counts are checked and grouped by margin
    once, each margin is looked up once, and each flavor's p-values are
    gathered from its margins' outcome -> point maps into its own table.
    """
    c1, c2 = count_column("c1", c1), count_column("c2", c2)
    if c1.ndim != 1 or c1.size == 0 or c2.shape != c1.shape:
        raise ValueError("c1 and c2 must be matching non-empty 1-D columns")
    if np.any(c1 < 0) or np.any(c2 < 0):
        raise ValueError("counts must be >= 0")
    total = c1 + c2
    if np.any(total < 0):   # wrapped past the int64 range
        i = int(np.argmax(total < 0))
        raise ValueError(
            f"total c1 + c2 must be below 2**63, got {int(c1[i]) + int(c2[i])}")
    if n1 is None:
        margins, group = np.unique(total, return_inverse=True)
        margins, outcome = margins[:, None], c1
    else:
        n1, n2, total = np.broadcast_arrays(count_column("n1", n1),
                                            count_column("n2", n2), total)
        if np.any(c1 > n1) or np.any(c2 > n2):
            raise ValueError("impossible table: a count exceeds its trial total")
        margins, group = np.unique(np.stack([n1, n2, total], axis=1), axis=0,
                                   return_inverse=True)
        outcome = c1 - np.maximum(0, total - n2)
    entries = [_margin(*key) for key in margins.tolist()]
    group = group.reshape(-1)
    # Both flavors' outcome maps of a margin have one entry per outcome.
    sizes = np.array([entry[PValueFlavor.MID][1].size for entry in entries],
                     dtype=np.int64)
    at = (np.cumsum(sizes) - sizes)[group] + outcome
    tables = []
    for flavor in PValueFlavor:   # conventional, then mid
        supports, maps = zip(*(entry[flavor] for entry in entries))
        tables.append(PValueTable(supports, group, np.concatenate(maps)[at]))
    return tuple(tables)

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
import functools
from array import array
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress, count, repeat
from operator import add, ne, truediv

import numpy as np

from .dist import binomial_null, hypergeometric_null
from .errors import InvariantViolation

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


def step_cdf(x, cdf, ends=None, *,
             flavor: PValueFlavor) -> tuple[np.ndarray, np.ndarray]:
    """`x` and `cdf` as read-only float arrays, or a ValueError unless they
    tabulate p-value supports of `flavor`: matching 1-D arrays cut at `ends`
    (each segment's exclusive end; one segment when None) into non-empty
    segments, each with `x` strictly increasing in [0, 1] and `cdf`
    nondecreasing to exactly 1.0, and `cdf` equal to `x` (conventional) or at
    least `x` (mid)."""
    x = np.asarray(x, dtype=np.float64)
    cdf = np.asarray(cdf, dtype=np.float64)
    last = np.asarray([x.size] if ends is None else ends, dtype=np.intp) - 1
    if (x.ndim != 1 or cdf.shape != x.shape or last.ndim != 1 or last.size == 0
            or last[0] < 0 or last[-1] != x.size - 1 or (last[1:] <= last[:-1]).any()):
        raise ValueError("support points and cdf_values must be matching 1-D arrays")
    seams = last[:-1]   # the steps from one segment into the next
    steps = np.subtract(x[1:], x[:-1])
    steps[seams] = 1.0
    if not (steps > 0.0).all():
        raise ValueError("support points must be strictly increasing")
    np.subtract(cdf[1:], cdf[:-1], out=steps)
    steps[seams] = 0.0
    if not (steps >= 0.0).all():
        raise ValueError("cdf_values must be nondecreasing")
    if not (cdf[last] == 1.0).all():
        raise ValueError("the last of cdf_values must equal 1.0 exactly")
    if not ((x >= 0.0).all() and (x <= 1.0).all()):
        raise ValueError("support points must lie in [0, 1]")
    if flavor is PValueFlavor.CONVENTIONAL and not (cdf == x).all():
        raise ValueError("conventional supports must satisfy cdf_values == points")
    if flavor is PValueFlavor.MID and not (cdf >= x).all():
        raise ValueError("mid supports must satisfy cdf_values >= points")
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
        flavor = PValueFlavor(self.flavor)
        self._set(flavor, *step_cdf(self.points, self.cdf_values, flavor=flavor))

    def _set(self, *fields) -> PValueSupport:
        """Set flavor, points and cdf_values, which `step_cdf` has checked."""
        for name, value in zip(("flavor", "points", "cdf_values"), fields):
            object.__setattr__(self, name, value)
        return self

    def __len__(self) -> int:
        return int(self.points.size)


# (first outcome, {flavor: (support, outcome -> point map)}) per margin key
_margins: dict[tuple[int, ...], tuple[int, dict]] = {}
_BATCH = 512   # margins built together, which bounds a batch's buffers


def _build(keys: list[tuple[int, ...]]) -> None:
    """Build and cache the margins `keys`, none cached yet, as read-only
    views into flat arrays made (and their buffers freed) per batch."""
    for start in range(0, len(keys), _BATCH):
        batch = keys[start:start + _BATCH]
        sizes, firsts, flats = _flatten(batch)
        entries = [{} for _ in batch]
        outcomes = list(accumulate(sizes, initial=0))
        for flavor, points, cdf, ends, maps in flats:
            for entry, a, b, o, n in zip(entries, [0, *ends], ends, outcomes, sizes):
                view = object.__new__(PValueSupport)._set(flavor, points[a:b], cdf[a:b])
                entry[flavor] = (view, maps[o:o + n])
        _margins.update(zip(batch, zip(firsts, entries)))


def _flatten(keys):
    """Outcomes and first outcome per margin, and per flavor (flavor, points,
    cdf, ends, maps): the supports, cut at `ends`, and outcome -> point maps.

    Per margin, the masses are sorted once (both null pmfs are unimodal, so
    that merges two monotone runs) and summed once, and the null's exactness
    is checked there.  Then, for the whole batch at once, classes whose
    p-values round to one float merge onto one point, keeping the largest
    (right-continuous) CDF value, and the maps are made and checked.
    """
    class_of = array("i")   # per outcome: its tie class, numbered across the batch
    conv = array("d")       # per class: P = cum / den
    mid = array("d")        # per class: Q = (cum_prev + cum) / (2 den)
    sizes, firsts, counts = [], [], []  # per margin: outcomes, first one, classes
    for key in keys:
        xs, nums, den = binomial_null(*key) if len(key) == 1 else hypergeometric_null(*key)
        masses = sorted(nums)
        closes = [*map(ne, masses, masses[1:]), True]   # does a class end here?
        rank = dict(zip(compress(masses, closes), count(len(conv))))
        class_of.extend(map(rank.__getitem__, nums))
        cum = list(compress(accumulate(masses), closes))   # mass up to each class
        if not (masses[0] > 0 and cum[-1] == den and len(nums) == len(xs)):
            raise InvariantViolation(f"margin {key}: the exact null needs one positive "
                                     "mass per outcome, summing to its denominator")
        conv.extend(map(truediv, cum, repeat(den)))
        mid.extend(map(truediv, map(add, chain((0,), cum), cum), repeat(2 * den)))
        sizes.append(len(nums))
        firsts.append(xs.start)
        counts.append(len(cum))
    class_of = np.frombuffer(class_of, dtype=np.intc)
    conv, mid = np.frombuffer(conv), np.frombuffer(mid)
    opening = np.cumsum(counts) - counts              # each margin's first class
    flats = []
    for flavor, p in zip(PValueFlavor, (conv, mid)):  # conventional, then mid
        keep = np.append(True, p[1:] > p[:-1])        # does a new point start?
        keep[opening] = True
        point_of = np.cumsum(keep) - 1
        points = p[keep]
        # A merged point's classes share one float, so the conventional CDF
        # is its points; the mid CDF is P of each point's last class.
        cdf = points if p is conv else conv[np.append(keep[1:], True)]
        starts = point_of[opening]
        ends = np.append(starts[1:], points.size)
        points, cdf = step_cdf(points, cdf, ends=ends, flavor=flavor)
        point_of -= np.repeat(starts, counts)         # now within its margin
        maps = point_of[class_of]
        maps.flags.writeable = False
        flats.append((flavor, points, cdf, ends.tolist(), maps))
    return sizes, firsts, flats


def _entry(key: tuple[int, ...], flavor) -> tuple[PValueSupport, np.ndarray]:
    """One flavor's (support, outcome -> point map) of one margin."""
    if key not in _margins:
        _build([key])
    return _margins[key][1][PValueFlavor(flavor)]


def bt_support(total: int, flavor) -> PValueSupport:
    """Cached binomial-test support for a fixed total count; interned per margin."""
    return _entry((int(total),), flavor)[0]


def fet_support(n1: int, n2: int, total: int, flavor) -> PValueSupport:
    """Cached Fisher-exact support for fixed margins; interned per margin triple."""
    return _entry((int(n1), int(n2), int(total)), flavor)[0]


def bt_outcome_pvalues(total: int, flavor) -> np.ndarray:
    """p-value of every outcome c1 = 0..total, as floats taken from the support."""
    support, outcome_to_point = _entry((int(total),), flavor)
    return support.points[outcome_to_point]


def fet_outcome_pvalues(n1: int, n2: int, total: int, flavor) -> np.ndarray:
    """p-value of every feasible outcome c1, aligned with the hypergeometric support."""
    support, outcome_to_point = _entry((int(n1), int(n2), int(total)), flavor)
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
        support_index = count_column("support_index", self.support_index)
        point_index = count_column("point_index", self.point_index)
        if (support_index.ndim != 1 or support_index.size == 0
                or point_index.shape != support_index.shape):
            raise ValueError(
                "support_index and point_index must be matching non-empty 1-D arrays")
        points = [s.points for s in supports]
        sizes = np.fromiter(map(len, points), dtype=np.int64, count=len(points))
        if (support_index.min() < 0 or support_index.max() >= sizes.size
                or point_index.min() < 0
                or np.any(point_index >= sizes[support_index])):
            raise ValueError("every test must index a point of one of the supports")
        self._set(supports, support_index, point_index)

    def _set(self, supports: tuple[PValueSupport, ...], support_index: np.ndarray,
             point_index: np.ndarray) -> PValueTable:
        """Set the columns, which index points of `supports`, read-only, and
        gather `p` from them."""
        points = [s.points for s in supports]
        sizes = np.fromiter(map(len, points), dtype=np.int64, count=len(points))
        starts = np.cumsum(sizes) - sizes
        p = np.concatenate(points)[starts[support_index] + point_index]
        object.__setattr__(self, "supports", supports)
        for name, arr in (("support_index", support_index),
                          ("point_index", point_index), ("p", p)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        return self

    @functools.cached_property
    def order(self) -> np.ndarray:
        """Indices that sort `p` ascending (stable), computed once per table
        and shared by every step-up scan on it."""
        order = np.argsort(self.p, kind="stable")
        order.flags.writeable = False
        return order


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


def count_total(c1: np.ndarray, c2: np.ndarray, ids) -> np.ndarray:
    """c1 + c2 of int64 columns, or a ValueError naming, by its entry in
    `ids`, the first row whose total wraps past 2**63."""
    total = c1 + c2
    wrapped = (c1 ^ total) & (c2 ^ total) < 0   # sign unlike both terms'
    if wrapped.any():
        i = int(np.argmax(wrapped))
        raise ValueError(f"row {ids[i]!r}: total c1 + c2 must be below 2**63, "
                         f"got {int(c1[i]) + int(c2[i])}")
    return total


def _group_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `columns`, sorted lexicographically, and each
    row's index among them: np.unique(np.stack(columns, axis=1), axis=0,
    return_inverse=True) from one lexsort."""
    order = np.lexsort(columns[::-1])
    rows = np.stack(columns)[:, order]
    new = np.ones(order.size, dtype=bool)   # does a distinct row start here?
    np.any(rows[:, 1:] != rows[:, :-1], axis=0, out=new[1:])
    group = np.empty(order.size, dtype=np.intp)
    group[order] = np.cumsum(new) - 1
    return rows[:, new].T, group


def pvalue_table(c1, c2, n1=None, n2=None) -> tuple[PValueTable, PValueTable]:
    """Conventional and mid p-values of m count pairs, with their supports.

    Without n1 and n2 each pair gets the binomial test given its total; with
    them (arrays, or scalars shared by every test) it gets Fisher's exact
    test given (n1, n2, total).  The counts are checked and grouped by margin
    once, the margins not cached yet are built together, and each flavor's
    p-values are gathered from its margins' outcome -> point maps.
    """
    c1, c2 = count_column("c1", c1), count_column("c2", c2)
    if c1.ndim != 1 or c1.size == 0 or c2.shape != c1.shape:
        raise ValueError("c1 and c2 must be matching non-empty 1-D columns")
    if np.any(c1 < 0) or np.any(c2 < 0):
        raise ValueError("counts must be >= 0")
    total = count_total(c1, c2, range(c1.size))
    if n1 is None:
        margins, group = np.unique(total, return_inverse=True)
    else:
        n1, n2, total = np.broadcast_arrays(count_column("n1", n1),
                                            count_column("n2", n2), total)
        if np.any(c1 > n1) or np.any(c2 > n2):
            raise ValueError("impossible table: a count exceeds its trial total")
        margins, group = _group_rows(n1, n2, total)
    keys = list(map(tuple, margins.reshape(len(margins), -1).tolist()))
    _build([key for key in keys if key not in _margins])
    firsts, entries = zip(*map(_margins.__getitem__, keys))
    group = group.reshape(-1)
    outcome = c1 - np.array(firsts)[group]   # each test's index into its null
    tables = []
    for flavor in PValueFlavor:   # conventional, then mid
        supports, maps = zip(*(entry[flavor] for entry in entries))
        offsets = np.cumsum([0, *map(len, maps)])
        # Valid by construction: each map sends an outcome to a point of its
        # margin's support, so the public constructor's checks are skipped.
        tables.append(object.__new__(PValueTable)._set(
            supports, group, np.concatenate(maps)[offsets[group] + outcome]))
    return tuple(tables)

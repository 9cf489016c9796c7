"""Exact two-sided p-values for discrete statistics and their null supports.

For an observed outcome x0 with null pmf f, the conventional two-sided
p-value is P(x0) = l(x0) + e(x0) where l is the total mass of outcomes with
f(x) < f(x0) and e is the total mass of the tie class f(x) = f(x0).  The mid
p-value is Q(x0) = l(x0) + e(x0) / 2.  Each is the correctly rounded float
of its exact rational: `_walk` computes a Fisher margin's in double-double
and keeps them only where it proves that rounding; every other margin's come
from big-integer numerators (`_exact`).  `pvalue_table` turns count columns
into one `PValueTable` per flavor, the adaptive step-ups' input.
"""

from __future__ import annotations

import enum
import math
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


# key -> (first outcome, conv support, conv map, mid support, mid map)
_margins: dict[tuple[int, ...], tuple] = {}
_BATCH = 512   # margins built together, which bounds a batch's buffers


def _build(keys: list[tuple[int, ...]]) -> None:
    """Build and cache the margins `keys`, none cached yet, as read-only
    views into flat arrays made (and their buffers freed) per batch, with
    one class slot per outcome for its classes in ascending mass order.
    `_walk` fills those of the untied Fisher margins (n1 = n2 is symmetric:
    tied), batched apart, that it certifies; `_exact` the rest, in key order."""
    for walk in (True, False):
        group = [key for key in keys if (len(key) == 3 and key[0] != key[1] and min(key) >= 0
                                         and key[2] <= key[0] + key[1] < _WALKED) is walk]
        for start in range(0, len(group), _BATCH):
            batch = group[start:start + _BATCH]
            firsts = [max(0, key[2] - key[1]) if len(key) == 3 else 0 for key in batch]
            cuts = [0, *accumulate(max(0, min(key[0], key[-1]) - first + 1)
                                   for key, first in zip(batch, firsts))]
            classes = np.empty(cuts[-1]), np.empty(cuts[-1]), np.empty(cuts[-1], dtype=np.intc)
            for k in (np.flatnonzero(~_walk(batch, firsts, cuts, *classes)).tolist() if walk
                      else range(len(batch))):
                _exact(batch[k], slice(cuts[k], cuts[k + 1]), *classes)
            fields, flats = [firsts], _flatten(cuts, *classes)
            del classes
            for flavor, points, cdf, ends, maps in flats:
                fields.append([object.__new__(PValueSupport)._set(flavor, points[a:b], cdf[a:b])
                               for a, b in zip([0, *ends], ends)])
                fields.append([maps[a:b] for a, b in zip(cuts, cuts[1:])])
            _margins.update(zip(batch, zip(*fields)))


def _flatten(cuts, conv, mid, class_of):
    """Per flavor (flavor, points, cdf, ends, maps) of a batch whose class
    slots are filled, margin k's at cuts[k]:cuts[k + 1]: the supports, cut
    at `ends`, and the outcome -> point maps, cut at `cuts`.  For the whole
    batch at once, classes whose p-values round to one float merge onto one
    point, keeping the largest (right-continuous) CDF value."""
    opening = np.array(cuts[:-1], dtype=np.intp)      # each margin's first class
    flats = []
    for flavor, p in zip(PValueFlavor, (conv, mid)):  # conventional, then mid
        keep = np.append(True, p[1:] > p[:-1])        # does a new point start?
        keep[opening] = True
        point_of = np.cumsum(keep) - 1
        points = p[keep]
        # A merged point's classes share one float, so the conventional CDF
        # is its points; the mid CDF is P of each point's last class.
        cdf = points if p is conv else conv[np.append(keep[1:], True)]
        del keep
        starts = point_of[opening]
        ends = np.append(starts[1:], points.size)
        points, cdf = step_cdf(points, cdf, ends=ends, flavor=flavor)
        point_of -= np.repeat(starts, np.diff(cuts))  # now within its margin
        maps = point_of[class_of]
        maps.flags.writeable = False
        flats.append((flavor, points, cdf, ends.tolist(), maps))
    return flats


def _exact(key, slots, conv, mid, class_of):
    """Fill margin `key`'s `slots` from its exact null, its masses sorted
    (merging the pmf's two monotone runs), summed and checked once; a
    margin with ties repeats its last class, which merges onto its point."""
    xs, nums, den = binomial_null(*key) if len(key) == 1 else hypergeometric_null(*key)
    masses = sorted(nums)
    closes = [*map(ne, masses, masses[1:]), True]   # does a class end here?
    cum = list(compress(accumulate(masses), closes))   # mass up to each class
    if not (masses[0] > 0 and cum[-1] == den and len(nums) == len(xs) == len(conv[slots])):
        raise InvariantViolation(f"margin {key}: the exact null needs one positive "
                                 "mass per outcome, summing to its denominator")
    rank = dict(zip(compress(masses, closes), count(slots.start)))
    class_of[slots] = list(map(rank.__getitem__, nums))
    last = slots.start + len(cum)
    conv[slots.start:last] = list(map(truediv, cum, repeat(den)))
    mid[slots.start:last] = list(map(truediv, map(add, chain((0,), cum), cum), repeat(2 * den)))
    conv[last:slots.stop], mid[last:slots.stop] = conv[last - 1], mid[last - 1]


# The certified walk (`_walk`); u = 2**-53 is float64's unit roundoff.
_U = 2.0**-53
_REL = 64 * _U * _U   # times n**2 (n outcomes): the relative bound of every walked value
_TINY = 2.0**-900     # the least mass walked, relative to f(lo), and the inverse of the most
_WALKED = 2**13       # n1 + n2 below this keeps every ratio term's factors below 2**13
_SLICE = 4096         # about this many outcomes per block of margins walked together


def _ratio(n1, n2, t, x):
    """f(x + 1) / f(x) of the hypergeometric null of (n1, n2, t), as integers."""
    return (n1 - x) * (t - x), (x + 1) * (n2 - t + x + 1)


def _product_error(a, b, p):
    """a b - p exactly, for p = fl(a b): Dekker's split and TwoProduct."""
    ah, bh = a * (2.0**27 + 1), b * (2.0**27 + 1)
    ah, bh = ah - (ah - a), bh - (bh - b)
    al, bl = a - ah, b - bh
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sum_error(a, b, s):
    """a + b - s exactly, for s = fl(a + b): Knuth's TwoSum."""
    bb = s - a
    return (a - (s - bb)) + (b - bb)


def _rounds(high, low, err):
    """Does every real within err of high + low round to high, barring ties?"""
    half = (high.view(np.int64) & 0x7FF0000000000000).view(np.float64) * _U   # an ulp / 2
    half[(low < 0) & (high == 2**53 * half)] *= 0.5   # below a power of two
    return np.abs(low) + err < half


@np.errstate(divide="ignore", invalid="ignore", over="ignore")   # in cells never kept
def _walk(keys, lo, cuts, conv, mid, class_of):
    """Fill the class slots of the Fisher margins `keys`, margin k's
    outcomes running up from lo[k] into cuts[k]:cuts[k + 1], and return
    which it certifies: their slots hold P, Q and classes, correctly rounded.

    Margins go in blocks of similar width, one row each, along which masses
    relative to f(lo) are walked in double-double, sorted, summed and
    divided into P and Q.  A margin is certified if its masses and their
    sum lie in [2**-900, 2**900], no two sorted neighbours' error intervals
    overlap (a possible tie), and every P's and Q's error interval rounds
    to one float, which is then the correctly rounded one.

    The bound, for n outcomes: a ratio term num / den (integers below
    2**26) is q (1 + d), num - q den is exact, so d is known to 2 u**2.
    p_k = fl(p_(k-1) q_k) is p_(k-1) q_k / (1 + e_k), e_k exact by TwoProduct
    and known to u**2.  The mass k terms up is p_k prod (1 + d)(1 + e), and
    p_k (1 + c_k), c_k the float running sum of the d and e, is within
    (2ku)**2 (dropped products) + 3ku**2 (known d, e) + (2ku)**2 (summing)
    + 2ku**2 (rounding p_k c_k) <= 16 n**2 u**2 of it, relatively.  The
    sorted masses' running sums (TwoSum on the high parts, the rest in
    float) add 4 n**2 u**2, relative to each sum as all terms are positive.
    P = cum / total adds 22 u**2 (Dekker's division) to twice that, and
    Q = (P_prev + P) / 2 another 3 u**2: rel = `_REL` n**2 bounds them all.

    The masses are within rel / 4, so sorted neighbours a, b are apart if
    b - a > rel b / 2.  Their double-double difference (high parts exact by
    Sterbenz unless b > 2 a; low parts below u b) tops rel times b's high
    part only if b - a > (rel - 3 u**2) b, which no tie reaches.
    """
    n1, n2, t = np.array(keys, dtype=np.int64).T
    lo, local, w = np.array(lo), np.array(cuts[:-1]), np.diff(cuts)
    certified, walked = np.empty(w.size, dtype=bool), np.empty((2, w.size))
    rel = _REL * w.astype(np.float64) ** 2          # the bound of each margin's values
    by_width = np.argsort(w, kind="stable")
    for rows in np.split(by_width, np.flatnonzero(np.diff(np.cumsum(w[by_width]) // _SLICE)) + 1):
        ix, width, first = np.arange(rows.size)[:, None], w[rows, None], local[rows, None]
        columns = np.arange(w[rows].max())
        num, den = _ratio(*(c[rows, None].astype(np.float64) for c in (n1, n2, t)),
                          lo[rows, None] + columns[:-1])
        q = num / den
        high = q * (2.0**27 + 1)
        high -= high - q                            # Dekker's high half of q
        d = ((num - high * den) - (q - high) * den) / num   # exact numerator: den < 2**26
        p = np.multiply.accumulate(q, axis=1)
        d[:, 1:] += _product_error(p[:, :-1], q[:, 1:], p[:, 1:]) / p[:, 1:]
        d = np.cumsum(d, axis=1) * p
        mass = np.concatenate([np.ones((ix.size, 1)), p + d], axis=1)
        mass_low = np.concatenate([np.zeros((ix.size, 1)), (p - mass[:, 1:]) + d], axis=1)
        del num, den, q, d, p
        inside = columns < width
        # Padding and nan (an overflowed walk) sort after a row's own outcomes.
        mass[~inside | np.isnan(mass)] = np.inf
        walked[0, rows] = mass[ix, width - 1][:, 0]
        order = np.argsort(mass, axis=1, kind="stable")
        slots = (first + columns)[inside]
        class_of[(first + order)[inside]] = slots   # the outcome in sorted place j is in class j
        high, low = mass[ix, order], mass_low[ix, order]
        del mass, mass_low, order
        apart = (((high[:, 1:] - high[:, :-1]) + (low[:, 1:] - low[:, :-1])
                  > rel[rows, None] * high[:, 1:]) | ~inside[:, 1:])
        # Running sums along the rows, then P and Q.
        cum = np.cumsum(high, axis=1)
        low[:, 1:] += _sum_error(cum[:, :-1], high[:, 1:], cum[:, 1:])
        low = np.cumsum(low, axis=1)
        high = cum + low
        low += cum - high
        th, tl = high[ix, width - 1], low[ix, width - 1]
        ph = high / th                              # Dekker's division of cum by total
        pl = (((high - ph * th) - _product_error(ph, th, ph * th)) + (low - ph * tl)) / th
        ph, pl = ph + pl, (ph - (ph + pl)) + pl
        qh, ql = (np.concatenate([np.zeros((ix.size, 1)), v[:, :-1]], axis=1) for v in (ph, pl))
        both = qh + ph
        ql += pl + _sum_error(qh, ph, both)
        qh = both + ql
        ql += both - qh
        good = (_rounds(ph, pl, rel[rows, None] * ph) & _rounds(qh, ql, rel[rows, None] * qh))
        certified[rows] = (apart.all(1) & (good | ~inside).all(1) & (high[:, 0] >= _TINY)
                           & (th[:, 0] <= 1 / _TINY))
        walked[1, rows] = th[:, 0]
        conv[slots], mid[slots] = ph[inside], qh[inside] * 0.5
        del high, low, cum, ph, pl, qh, ql, both, good
    _bracket(*(column[certified] for column in (n1, n2, t, lo, lo + w - 1, *walked, rel)))
    return certified


def _bracket(n1, n2, t, lo, hi, at_hi, total, rel):
    """Raise unless each walked f(hi)/f(lo) and sum of f/f(lo) (f(lo) walks
    as 1) is within the bound plus one ulp of one `math.comb` int / int."""
    comb, exact = math.comb, []
    for a, b, c, x, y in zip(*(column.tolist() for column in (n1, n2, t, lo, hi))):
        f_lo = comb(a, x) * comb(b, c - x)   # at an end one factor is 1
        exact += [comb(a, y) * comb(b, c - y) / f_lo, comb(a + b, c) / f_lo]
    exact, walked = np.array(exact).reshape(-1, 2).T, np.stack([at_hi, total])
    larger = np.maximum(walked, exact)
    off = ~(np.abs(walked - exact) <= rel * larger + np.spacing(larger)).all(axis=0)
    if off.any():
        j = np.argmax(off)
        raise InvariantViolation(f"margin {(int(n1[j]), int(n2[j]), int(t[j]))}: the walked "
                                 "null's masses and sum must match its exact ones")


def _entry(key: tuple[int, ...], flavor) -> tuple[PValueSupport, np.ndarray]:
    """One flavor's (support, outcome -> point map) of one margin."""
    if key not in _margins:
        _build([key])
    at = 3 if PValueFlavor(flavor) is PValueFlavor.MID else 1
    return _margins[key][at:at + 2]


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


def count_column(name: str, values) -> np.ndarray:
    """`values` as int64, or a ValueError naming column `name` if a value is
    not an integer below 2**63 (a cast would truncate or wrap it)."""
    raw = np.asarray(values)
    if raw.dtype.kind != "f" or np.all((raw == np.trunc(raw))
                                       & (np.abs(raw) < 2.0**63)):
        try:
            column = raw.astype(np.int64, copy=False)
        except OverflowError:
            column = None
        if column is not None and (raw.dtype.kind != "u" or (column >= 0).all()):
            return column   # no unsigned value of 2**63 or more wrapped
    raise ValueError(f"column {name} must hold integers below 2**63")


def checked_total(c1: np.ndarray, c2: np.ndarray, n1: np.ndarray | None = None,
                  n2: np.ndarray | None = None, ids=None) -> np.ndarray:
    """c1 + c2 of int64 count columns, with trial totals n1 and n2 or neither,
    or a ValueError for the first row i that breaks a range rule: each count
    is >= 0, c1 + c2 is below 2**63, and no count is above its trial total.
    The error names the row by ids[i] (by i when ids is None); its `row` and
    `rule` attributes are i and the rule's text."""
    columns = {"c1": c1, "c2": c2} if n1 is None else {"c1": c1, "c2": c2, "n1": n1, "n2": n2}
    total = c1 + c2
    wrapped = (c1 ^ total) & (c2 ^ total) < 0   # sign unlike both terms'
    bad = np.logical_or.reduce([column < 0 for column in columns.values()]) | wrapped
    if n1 is not None:
        bad |= (c1 > n1) | (c2 > n2)
    if bad.any():
        i = int(np.argmax(bad))
        negative = [name for name, column in columns.items() if column[i] < 0]
        if negative:
            rule = f"column {negative[0]!r} must hold counts >= 0, got {columns[negative[0]][i]}"
        elif wrapped[i]:
            rule = f"total c1 + c2 must be below 2**63, got {int(c1[i]) + int(c2[i])}"
        else:
            rule = "count exceeds its trial total"
        error = ValueError(f"row {i if ids is None else repr(ids[i])}: {rule}")
        error.row, error.rule = i, rule
        raise error
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
    test given (n1, n2, total).  The counts are cast and range-checked
    (`checked_total`) once, and `_tables` builds the tables.
    """
    c1, c2 = count_column("c1", c1), count_column("c2", c2)
    if c1.ndim != 1 or c1.size == 0 or c2.shape != c1.shape:
        raise ValueError("c1 and c2 must be matching non-empty 1-D columns")
    if n1 is not None:
        n1, n2 = (np.broadcast_to(count_column(name, n), c1.shape)
                  for name, n in (("n1", n1), ("n2", n2)))
    return _tables(c1, checked_total(c1, c2, n1, n2), n1, n2)


def _tables(c1, total, n1=None, n2=None) -> tuple[PValueTable, PValueTable]:
    """`pvalue_table` of columns that `checked_total` has checked, with the
    `total` it returned: the tests are grouped by margin once, the margins
    not cached yet are built together, and one index per test into its
    margin's outcome -> point maps gathers both flavors."""
    if n1 is None:
        margins, group = np.unique(total, return_inverse=True)
    else:
        margins, group = _group_rows(n1, n2, total)
    keys = list(map(tuple, margins.reshape(len(margins), -1).tolist()))
    _build([key for key in keys if key not in _margins])
    firsts, conv, conv_maps, mid, mid_maps = zip(*map(_margins.__getitem__, keys))
    sizes = np.fromiter(map(len, conv_maps), dtype=np.int64, count=len(keys))
    # One index per test serves both flavors, as a margin's two maps have one
    # entry per outcome; each map sends an outcome to a point of its margin's
    # support, so the public constructor's checks are skipped.
    at = (np.cumsum(sizes) - sizes - np.array(firsts))[group] + c1
    return tuple(object.__new__(PValueTable)._set(supports, group, np.concatenate(maps)[at])
                 for supports, maps in ((conv, conv_maps), (mid, mid_maps)))

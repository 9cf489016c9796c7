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
from dataclasses import dataclass
from typing import NamedTuple
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
    cdf = x if cdf is None else np.asarray(cdf, dtype=np.float64)
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


class _Flat(NamedTuple):
    """One flavor's supports of a run of margins, flat.  Margin k's points
    are points[starts[k]:starts[k + 1]], and their CDF values the same
    slice of `cdf`, or the points themselves when `cdf` is None.  A
    registry mid flat's CDF values are P of each point's last class, a
    point of its margin's conventional support.  made[base + k] keeps
    margin k's support once made (None before), in a list that every flat
    of the registry since its last reset shares."""

    flavor: PValueFlavor | None
    points: np.ndarray
    starts: np.ndarray
    cdf: np.ndarray | None
    made: list
    base: int

    def support(self, k: int) -> PValueSupport:
        """Margin k's support, made on first request and kept."""
        support = self.made[self.base + k]
        if support is None:
            window = slice(self.starts[k], self.starts[k + 1])
            points = self.points[window]
            cdf = points if self.cdf is None else self.cdf[window]
            support = object.__new__(PValueSupport)._set(self.flavor, points, cdf)
            self.made[self.base + k] = support
        return support


def _flat_of(supports) -> _Flat:
    """`supports` flat, already made, with a CDF column unless every one is
    the identity on its points (conventional)."""
    sizes = np.fromiter(map(len, supports), dtype=np.int64, count=len(supports))
    cdf = None
    if not all(s.flavor is PValueFlavor.CONVENTIONAL for s in supports):
        cdf = np.concatenate([s.cdf_values for s in supports])
    return _Flat(None, np.concatenate([s.points for s in supports]),
                 np.append(0, np.cumsum(sizes)), cdf, list(supports), 0)


class _Chunk(NamedTuple):
    """One build batch of margins, or several merged, immutable: margin k
    has registry id _live + flats[0].base + k, and its outcomes run up from
    its first (0 for a binomial margin, max(0, total - n2) for a Fisher
    one), mapped to points of its supports by the int32 (int64 from 2**31
    class slots a batch) maps[flavor][cuts[k]:cuts[k + 1]], so an outcome
    costs 32 B with its points and mid CDF value.  `level` counts merges,
    and is None for a chunk that never merges."""

    cuts: np.ndarray
    flats: tuple[_Flat, _Flat]         # conventional, mid
    maps: tuple[np.ndarray, np.ndarray]
    level: int | None


def _merged(a: _Chunk, b: _Chunk) -> _Chunk:
    """Chunk b, whose ids follow a's, appended to chunk a; both share the
    registry's made supports."""
    def shifted(x, y):   # offsets of y's margins follow x's
        return np.append(x, y[1:] + x[-1])

    conv, mid = (f._replace(points=np.append(f.points, g.points),
                            starts=shifted(f.starts, g.starts),
                            cdf=None if f.cdf is None else np.append(f.cdf, g.cdf))
                 for f, g in zip(a.flats, b.flats))
    maps = tuple(np.append(x, y) for x, y in zip(a.maps, b.maps))
    for column in (*conv[1:3], *mid[1:4], *maps):
        column.flags.writeable = False
    return _Chunk(shifted(a.cuts, b.cuts), (conv, mid), maps, a.level + 1)


# The registry: margin key -> id, the chunks in id order, and per flavor
# each margin's support once made, made[flavor][id - _live] (None before).
# Ids are never reused, so an id below _live (from before the last reset)
# counts as not registered, and the next id is _live + len(made[0]).
_margins: dict[tuple[int, ...], int] = {}
_chunks: list[_Chunk] = []
_made: tuple[list, list] = ([], [])   # conventional, mid
_live = 0
_CAP = 2**20      # a build that would store more outcomes first resets the registry
_BATCH = 512      # margins built together, which bounds a batch's buffers
_MERGED = 2**16   # the most outcomes of a merged chunk
_MOST = 2**60     # outcomes no float64 buffer holds; sums of fewer stay below 2**63


def _out_of_memory(margin: tuple, outcomes: int) -> MemoryError:
    return MemoryError(f"margin {margin}: out of memory building its batch's "
                       f"{outcomes} outcomes")


def _spans(margins: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each margin's first outcome and number of outcomes (0 if invalid).
    Margins of `_MOST` outcomes or more in all raise the MemoryError of the
    widest one's batch first, so no count or sum of counts wraps."""
    t = margins[:, -1]
    if margins.shape[1] == 1:
        first, last = np.zeros_like(t), t
    else:
        first, last = np.maximum(t - margins[:, 1], 0), np.minimum(margins[:, 0], t)
    span = np.maximum(last - first, -1)   # outcomes - 1, which cannot wrap
    if sum(span.tolist()) + span.size >= _MOST:
        j = int(np.argmax(span))
        batch = span[j - j % _BATCH:][:_BATCH].tolist()
        raise _out_of_memory(tuple(margins[j].tolist()), sum(batch) + len(batch))
    return first, span + 1


def _reset() -> None:
    """Empty the registry; tables made before keep their own chunks and supports."""
    global _made, _live
    _margins.clear()
    _chunks.clear()
    _made, _live = ([], []), _live + len(_made[0])


def _stored() -> int:
    """Outcomes registered since the last reset."""
    return sum(int(chunk.cuts[-1]) for chunk in _chunks)


def _register(margins: np.ndarray) -> np.ndarray:
    """The registry id of each margin, a row of `margins` ((total,) or
    (n1, n2, total), one width), building the ones not registered.  If they
    would take the registry past `_CAP` outcomes, it is reset first, and
    every margin is built; tables made before keep their own chunks."""
    keys = list(map(tuple, margins.tolist()))
    ids = np.fromiter(map(_margins.get, keys, repeat(-1)), dtype=np.int64, count=len(keys))
    fresh = ids < _live
    if fresh.any():
        stored = _stored()
        spans = _spans(margins[fresh]) if stored else None
        if stored and stored + spans[1].sum() > _CAP:
            _reset()
            fresh[:], spans = True, None
        ids[fresh] = _build(margins[fresh], list(compress(keys, fresh)), spans)
    return ids


def _build(margins: np.ndarray, keys: list | None = None, spans=None) -> np.ndarray:
    """Register the margins, rows of one width, none registered yet, as
    `keys` (their tuples), and return their ids: one chunk per batch, with
    one class slot per outcome for its classes in ascending mass order.
    `spans` is their `_spans`, if the caller has it.
    `_walk` fills those of the untied Fisher margins (n1 = n2 is symmetric:
    tied) that it certifies, and `_exact` the rest, in row order.  A call
    of one batch merges its chunk into the last ones (`_compact`).  A batch
    that runs out of memory raises a MemoryError naming its widest margin."""
    keys = list(map(tuple, margins.tolist())) if keys is None else keys
    firsts, widths = _spans(margins) if spans is None else spans
    walk = np.zeros(len(keys), dtype=bool)
    if margins.shape[1] == 3:
        n1, n2, t = margins.T
        walk = (n1 != n2) & (margins >= 0).all(axis=1) & (t <= n1 + n2) & (n1 + n2 < _WALKED)
    ids = np.arange(len(keys)) + (_live + len(_made[0]))
    for start in range(0, len(keys), _BATCH):
        batch = slice(start, start + _BATCH)
        cuts = np.append(0, np.cumsum(widths[batch]))
        try:
            classes = [np.empty(cuts[-1]), np.empty(cuts[-1]), np.empty(cuts[-1], dtype=np.intc)]
            exact = ~walk[batch]
            walked = np.flatnonzero(walk[batch])
            if walked.size:
                exact[walked] = ~_walk(margins[batch][walked], firsts[batch][walked],
                                       cuts[walked], widths[batch][walked], *classes)
            for k in np.flatnonzero(exact).tolist():
                _exact(keys[start + k], slice(cuts[k], cuts[k + 1]), *classes)
            flats, maps = _flatten(cuts, classes)
        except MemoryError as error:
            widest = keys[start + int(np.argmax(widths[batch]))]
            raise _out_of_memory(widest, int(cuts[-1])) from error
        _chunks.append(_Chunk(cuts, flats, maps, 0 if len(keys) <= _BATCH else None))
        for made in _made:
            made += repeat(None, len(cuts) - 1)
        _margins.update(zip(keys[batch], ids[batch].tolist()))
    _compact()
    return ids


def _compact() -> None:
    """Merge the last two chunks while they have merged equally often and
    fit `_MERGED` outcomes together, like a binary counter: a run of small
    builds leaves a few chunks, not one each, and each outcome is copied
    once per merge level.  Their ids follow on, as ids are handed out in
    order and a reset empties `_chunks`."""
    while (len(_chunks) > 1 and _chunks[-1].level is not None
           and _chunks[-2].level == _chunks[-1].level
           and _chunks[-2].cuts[-1] + _chunks[-1].cuts[-1] <= _MERGED):
        last = _chunks.pop()
        _chunks[-1] = _merged(_chunks[-1], last)


def _flatten(cuts, classes: list) -> tuple[tuple[_Flat, _Flat], tuple[np.ndarray, np.ndarray]]:
    """Per flavor, the flat supports, whose margins follow those in
    `_made`, and the outcome -> point maps (cut at `cuts`) of a batch whose
    class slots, classes = [conv, mid, class_of], are filled, margin k's
    at cuts[k]:cuts[k + 1].  For the whole batch at
    once, classes whose p-values round to one float merge onto one point,
    keeping the largest (right-continuous) CDF value.  The maps are int32
    below 2**31 class slots.  Each buffer (`classes` emptied) is freed once
    read for the last time, the maps made first, which bounds the peak."""
    conv, mid, class_of = classes
    classes.clear()
    opening = cuts[:-1]                                # each margin's first class

    def new_points(p):
        """Does a new point start at each class?"""
        keep = np.append(True, p[1:] > p[:-1])
        keep[opening] = True
        return keep

    def points_at(keep):
        """Each margin's first point (and the end), and each class's point
        within its margin: a running count of `keep` restarting per margin,
        made in place."""
        at = keep.astype(np.int32 if keep.size < 2**31 else np.int64)
        np.cumsum(at, out=at)
        starts = np.append(0, at[cuts[1:] - 1].astype(np.int64))
        at[...] = keep
        at[opening[1:]] -= np.diff(starts)[:-1]
        np.cumsum(at, out=at)
        at -= 1
        return starts, at

    # A merged point's classes share one float, so the conventional CDF is
    # its points, and the mid CDF is P of each mid point's last class.
    keep = new_points(mid)
    last = np.append(keep[1:], True)                   # does a mid point end here?
    mid_starts, point_of = points_at(keep)
    maps = [point_of[class_of]]
    del point_of
    mid_points = mid[keep]
    del mid, keep
    kept = new_points(conv)
    starts, point_of = points_at(kept)
    maps.insert(0, point_of[class_of])
    del point_of, class_of
    cdf = conv[last]
    del last
    points = conv[kept]
    del conv, kept
    mid_points, cdf = step_cdf(mid_points, cdf, ends=mid_starts[1:], flavor=PValueFlavor.MID)
    points, _ = step_cdf(points, None, ends=starts[1:], flavor=PValueFlavor.CONVENTIONAL)
    for column in maps:
        column.flags.writeable = False
    base = len(_made[0])
    return (_Flat(PValueFlavor.CONVENTIONAL, points, starts, None, _made[0], base),
            _Flat(PValueFlavor.MID, mid_points, mid_starts, cdf, _made[1], base)), tuple(maps)


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
    """a b - p exactly, for p = fl(a b) shaped like a: TwoProduct, in place."""
    ah, bh = a * (2.0**27 + 1), b * (2.0**27 + 1)
    ah, bh = ah - (ah - a), bh - (bh - b)          # Dekker's split
    err = ah * bh - p
    al, bl = a - ah, b - bh
    err += np.multiply(ah, bl, out=ah)
    err += np.multiply(al, bh, out=ah)
    err += np.multiply(al, bl, out=al)
    return err


def _sum_error(a, b, s):
    """a + b - s exactly, for s = fl(a + b): Knuth's TwoSum."""
    bb = s - a
    err = np.subtract(a, s - bb)
    err += np.subtract(b, bb, out=bb)
    return err


def _rounds(high, low, err):
    """Does every real within err of high + low round to high, barring ties?"""
    half = (high.view(np.int64) & 0x7FF0000000000000).view(np.float64) * _U   # an ulp / 2
    half[(low < 0) & (high == 2**53 * half)] *= 0.5   # below a power of two
    return np.abs(low) + err < half


@np.errstate(divide="ignore", invalid="ignore", over="ignore")   # in cells never kept
def _walk(keys, lo, local, w, conv, mid, class_of):
    """Fill the class slots of the Fisher margins `keys`, margin k's w[k]
    outcomes running up from lo[k] into local[k]:local[k] + w[k], and
    return which it certifies: their slots hold P, Q and classes, correctly
    rounded.

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
        del num, den, high
        p = np.multiply.accumulate(q, axis=1)
        d[:, 1:] += _product_error(p[:, :-1], q[:, 1:], p[:, 1:]) / p[:, 1:]
        del q
        d = np.cumsum(d, axis=1) * p
        mass = np.concatenate([np.ones((ix.size, 1)), p + d], axis=1)
        mass_low = np.concatenate([np.zeros((ix.size, 1)), (p - mass[:, 1:]) + d], axis=1)
        del d, p
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
        # Running sums along the rows, then P and Q, freeing each buffer once read.
        cum = np.cumsum(high, axis=1)
        low[:, 1:] += _sum_error(cum[:, :-1], high[:, 1:], cum[:, 1:])
        low = np.cumsum(low, axis=1)
        high = cum + low
        low += cum - high
        del cum
        th, tl = high[ix, width - 1], low[ix, width - 1]
        certified[rows] = apart.all(1) & (high[:, 0] >= _TINY) & (th[:, 0] <= 1 / _TINY)
        walked[1, rows] = th[:, 0]
        ph = high / th                              # Dekker's division of cum by total
        pl = np.subtract(high, ph * th, out=high) - _product_error(ph, th, ph * th)
        pl = (pl + (low - ph * tl)) / th
        del high, low
        ph, pl = ph + pl, (ph - (ph + pl)) + pl
        good = _rounds(ph, pl, rel[rows, None] * ph)
        conv[slots] = ph[inside]
        qh, ql = (np.concatenate([np.zeros((ix.size, 1)), v[:, :-1]], axis=1) for v in (ph, pl))
        both = qh + ph
        ql += pl + _sum_error(qh, ph, both)
        del ph, pl
        qh = both + ql
        ql += both - qh
        good &= _rounds(qh, ql, rel[rows, None] * qh)
        certified[rows] &= (good | ~inside).all(1)
        mid[slots] = qh[inside] * 0.5
        del qh, ql, both, good
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


def _of_flavor(flavor, *columns) -> PValueTable:
    """The `flavor` table of `pvalue_table(*columns)`."""
    conv, mid = pvalue_table(*columns)
    return mid if PValueFlavor(flavor) is PValueFlavor.MID else conv


def bt_support(total: int, flavor) -> PValueSupport:
    """Binomial-test support for a fixed total count; interned per margin."""
    return _of_flavor(flavor, [0], [total]).supports[0]


def fet_support(n1: int, n2: int, total: int, flavor) -> PValueSupport:
    """Fisher-exact support for fixed margins; interned per margin triple."""
    c1 = max(0, total - n2)   # the first outcome, or an infeasible margin's bad row
    return _of_flavor(flavor, [c1], [total - c1], [n1], [n2]).supports[0]


def bt_outcome_pvalues(total: int, flavor) -> np.ndarray:
    """p-value of every outcome c1 = 0..total, read-only."""
    c1 = np.arange(max(total, 0) + 1)
    return _of_flavor(flavor, c1, total - c1).p


def fet_outcome_pvalues(n1: int, n2: int, total: int, flavor) -> np.ndarray:
    """p-value of every feasible outcome c1, ascending, read-only."""
    first = max(0, total - n2)   # an infeasible margin's one row breaks a count rule
    c1 = np.arange(first, max(first, min(n1, total)) + 1)
    return _of_flavor(flavor, c1, total - c1, n1, n2).p


class _Pool(NamedTuple):
    """The supports of a table's slots, flat, slot after slot: their points,
    each slot's number of points and, unless every CDF is the identity on
    its points, each point's CDF value (`levels`)."""

    points: np.ndarray
    sizes: np.ndarray
    levels: np.ndarray | None


def _segments(starts: np.ndarray, ks: np.ndarray):
    """An index of the segments starts[k]:starts[k + 1], for k in the
    ascending `ks`, one after another (a slice when they are adjacent), and
    their sizes."""
    sizes = starts[ks + 1] - starts[ks]
    if ks[-1] - ks[0] + 1 == ks.size:
        return slice(starts[ks[0]], starts[ks[-1] + 1]), sizes
    ends = np.cumsum(sizes)
    return np.arange(ends[-1]) + np.repeat(starts[ks] - (ends - sizes), sizes), sizes


class PValueTable:
    """p-values of m tests in columns, each distinct support held once.

    Test i lives on supports[support_index[i]], and its p-value p[i] is that
    support's point_index[i]-th point, so every p-value is a point of its own
    support by construction.  A table from `pvalue_table` reads its supports
    from the registry's flat columns, which it keeps alive without copying,
    and makes the `PValueSupport` objects only when `supports` is read; a
    hand-made table indexes its given supports in the same layout.
    """

    __slots__ = ("support_index", "point_index", "p", "_parts")

    def __init__(self, supports, support_index, point_index) -> None:
        supports = tuple(supports)
        # Copies, so that the caller's arrays stay writeable.
        support_index = count_column("support_index", support_index).copy()
        point_index = count_column("point_index", point_index).copy()
        if (support_index.ndim != 1 or support_index.size == 0
                or point_index.shape != support_index.shape):
            raise ValueError(
                "support_index and point_index must be matching non-empty 1-D arrays")
        flat = _flat_of(supports) if supports else None
        sizes = np.diff(flat.starts) if supports else np.zeros(0, dtype=np.int64)
        if (support_index.min() < 0 or support_index.max() >= sizes.size
                or point_index.min() < 0
                or np.any(point_index >= sizes[support_index])):
            raise ValueError("every test must index a point of one of the supports")
        self._set(((flat, np.arange(len(supports))),), support_index, point_index,
                  flat.points[flat.starts[support_index] + point_index])

    def _set(self, parts, support_index: np.ndarray, point_index: np.ndarray,
             p: np.ndarray) -> PValueTable:
        """Set the columns read-only; `parts` lists (flat supports, margin
        indices there), the slots numbered part after part."""
        for arr in (support_index, point_index, p):
            arr.flags.writeable = False
        for name, value in zip(self.__slots__, (support_index, point_index, p, parts)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError(f"PValueTable is read-only: cannot set {name!r}")

    @property
    def supports(self) -> tuple[PValueSupport, ...]:
        """The support of each slot, made on first request and kept in its
        flat's made list."""
        return tuple(chain.from_iterable(map(flat.support, ks.tolist())
                                         for flat, ks in self._parts))


def _pool(parts) -> _Pool:
    """The supports of `parts`, (flat supports, margin indices there) in
    slot order, flat, in new columns: one gather per part and column (a
    slice for a run of adjacent margins of one part)."""
    segments = [_segments(flat.starts, ks) for flat, ks in parts]
    points = np.concatenate([flat.points[index]
                             for (flat, _), (index, _) in zip(parts, segments)])
    sizes = np.concatenate([n for _, n in segments])
    levels = None
    if parts[0][0].cdf is not None:
        levels = np.concatenate([flat.cdf[index]
                                 for (flat, _), (index, _) in zip(parts, segments)])
    return _Pool(points, sizes, levels)


def count_column(name: str, values) -> np.ndarray:
    """`values` as int64, or a ValueError naming column `name` if a value is
    not an integer below 2**63 held as an int, uint or float (a cast would
    truncate or wrap it, or parse a string, bool or complex as a count)."""
    raw = np.asarray(values)
    kind = raw.dtype.kind
    if kind in "iu" or kind == "f" and np.all((raw == np.trunc(raw)) & (np.abs(raw) < 2.0**63)):
        column = raw.astype(np.int64, copy=False)
        if kind != "u" or (column >= 0).all():
            return column   # no unsigned value of 2**63 or more wrapped
    raise ValueError(f"column {name} must hold integers below 2**63")


def checked_total(c1: np.ndarray, c2: np.ndarray, n1: np.ndarray | None = None,
                  n2: np.ndarray | None = None, ids=None) -> np.ndarray:
    """c1 + c2 of int64 count columns, with trial totals n1 and n2 or neither
    (a ValueError if only one is given), or a ValueError for the first row i
    that breaks a range rule: each count is >= 0, c1 + c2 is below 2**63,
    and no count is above its trial total.
    The error names the row by ids[i] (by i when ids is None); its `row` and
    `rule` attributes are i and the rule's text."""
    if (n1 is None) != (n2 is None):
        raise ValueError("trial totals n1 and n2 must be given together")
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
    them (columns of c1's shape, or scalars shared by every test) it gets
    Fisher's exact test given (n1, n2, total).  The counts are cast and
    range-checked (`checked_total`) once, and `_tables` builds the tables.
    """
    c1, c2 = count_column("c1", c1), count_column("c2", c2)
    if c1.ndim != 1 or c1.size == 0 or c2.shape != c1.shape:
        raise ValueError("c1 and c2 must be matching non-empty 1-D columns")
    n1, n2 = (None if n is None else count_column(name, n) for name, n in (("n1", n1), ("n2", n2)))
    for name, n in (("n1", n1), ("n2", n2)):
        if n is not None and n.shape not in ((), c1.shape):
            raise ValueError(f"column {name} must hold one value or one entry per test")
    n1, n2 = (None if n is None else np.broadcast_to(n, c1.shape) for n in (n1, n2))
    return _tables(c1, checked_total(c1, c2, n1, n2), n1, n2)


def _tables(c1, total, n1=None, n2=None) -> tuple[PValueTable, PValueTable]:
    """`pvalue_table` of columns that `checked_total` has checked, with the
    `total` it returned: the tests are grouped by margin once, the margins
    not registered yet are built together, and one index per test into its
    margin's outcome -> point maps gathers both flavors, chunk by chunk."""
    if n1 is None:
        margins, group = np.unique(total, return_inverse=True)
        margins = margins[:, None]
        outcome = c1   # each test's outcome counted from its margin's first
    else:
        margins, group = _group_rows(n1, n2, total)
        outcome = c1 - np.maximum(total - n2, 0)
    ids = _register(margins) - _live   # indices into the made lists
    order = np.argsort(ids)   # slots by id: grouped by chunk, ascending within
    ids = ids[order]
    slot = np.empty_like(order)
    slot[order] = np.arange(order.size)
    support_index = slot[group]
    bases = [chunk.flats[0].base for chunk in _chunks]
    chunk_of = np.searchsorted(bases, ids, side="right") - 1
    bounds = [0, *(np.flatnonzero(np.diff(chunk_of)) + 1).tolist(), ids.size]
    point_index, p = np.empty((2, c1.size), dtype=np.int64), np.empty((2, c1.size))
    parts = []
    for a, b in zip(bounds, bounds[1:]):
        chunk = _chunks[chunk_of[a]]
        ks = ids[a:b] - bases[chunk_of[a]]
        rows = (slice(None) if b - a == ids.size
                else np.flatnonzero((support_index >= a) & (support_index < b)))
        k = ks[support_index[rows] - a]
        # One index per test serves both flavors, as a margin's two maps
        # have one entry per outcome.
        at = chunk.cuts[k] + outcome[rows]
        for f, (flat, maps) in enumerate(zip(chunk.flats, chunk.maps)):
            point_index[f, rows] = maps[at]
            p[f, rows] = flat.points[flat.starts[k] + point_index[f, rows]]
        parts.append((chunk, ks))
    # Each map sends an outcome to a point of its margin's support, so the
    # public constructor's checks are skipped.
    return tuple(object.__new__(PValueTable)._set(
        tuple((chunk.flats[f], ks) for chunk, ks in parts), support_index, point_index[f], p[f])
        for f in range(2))

"""Step-up multiple testing procedures driven by step-function null CDFs.

The adaptive procedure takes the pointwise maximum F* of the per-test null
CDFs of the p-values, then uses critical values
``gamma_k = max{t in grid : F*(t) <= alpha * k / m}`` over the sorted union
of all support points, and rejects the R smallest p-values, R = max{k :
p_(k) <= gamma_k}.  As every p-value is a grid point and F* never falls,
that is max{k : F*(p_(k)) <= alpha * k / m}, which the scan reads.  With
uniform p-values F* is the identity and the procedure reduces to the
classical step-up of Benjamini and Hochberg, which `bh` implements directly.

Every step runs on a batch: a block of replications, each at every alpha
level, and the single-run functions run it on a batch of one.  A batch of
several sweeps its F* whole, on int64 rank keys.  A batch of one reads F*
group by group (`_f_star`), only at its p-values and, for gamma, at R, and
tabulates it only if the supports it uses fit in one group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .dist import _check_float, _check_int
from .errors import InvariantViolation
from .pvalue import PValueFlavor, PValueTable, _pool

__all__ = [
    "MaxCdf",
    "StepUpResult",
    "MidComparison",
    "build_max_cdf",
    "critical_values",
    "bh_plus",
    "bh",
    "mid_vs_conventional",
    "PROCEDURE_FLAVORS",
    "PROCEDURES",
    "run_procedures",
]

# The p-value flavor each procedure reads, in the procedures' order.
PROCEDURE_FLAVORS = {
    "BH": PValueFlavor.CONVENTIONAL,
    "BH+": PValueFlavor.CONVENTIONAL,
    "MidPBH+": PValueFlavor.MID,
}
PROCEDURES = tuple(PROCEDURE_FLAVORS)
_GROUP = 2**14   # a batch of one reads F* in groups of about max(_GROUP, m) pooled points


def _check_alpha(alpha: float) -> None:
    """Raise a ValueError unless `alpha` lies in (0, 1): the rule's one statement."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


class MaxCdf(NamedTuple):
    """Pointwise maximum of several step CDFs, tabulated on their union grid:
    a plain record that only `build_max_cdf` makes, valid by construction."""

    grid: np.ndarray
    values: np.ndarray

    def evaluate(self, t):
        """Right-continuous step evaluation; 0 below the first grid point."""
        t_arr = _check_float(t, "t")
        if np.isnan(t_arr).any():
            raise ValueError("t must not be NaN")
        idx = np.searchsorted(self.grid, t_arr, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


class _Steps(NamedTuple):
    """F* of each replication of a batch, flat, in (replication, point)
    order.  Replication r's steps have keys r n_points <= run < (r + 1)
    n_points and r n_levels <= top < (r + 1) n_levels, and each lies at
    points[run - r n_points] with the value levels[top - r n_levels], where
    n_points and n_levels are the sizes of the ascending arrays `points` and
    `levels`.  `run` strictly ascends, and `top` ascends.  Where every CDF
    is the identity, `levels` is `points` and `top` is `run`."""

    points: np.ndarray
    run: np.ndarray
    levels: np.ndarray
    top: np.ndarray
    reps: int


def _sweep(parts, slots: np.ndarray | None = None, reps: int = 1) -> _Steps:
    """F* of `reps` replications of a table whose supports `parts` hold
    (`pvalue._pool`), where slots[r m + i] is the slot of test i of
    replication r.  Each replication of several pools the slots its own
    tests use; one pools every slot.

    Each test's running CDF is the largest of its values at the points
    passed so far, so F* at an event, taken in point order, is the running
    maximum of the values.  Each run of equal points keeps its last event,
    which carries the run's largest value, so the grid strictly increases
    and the values never fall.  A batch of one (`build_max_cdf`'s pool, or
    one of `_f_star`'s groups) sorts its points once and takes the running
    maximum of their float values, gathered in that order (the sort alone,
    if every CDF is the identity).  A batch of several ranks its pooled
    points and levels with np.unique and keys each event by the int64
    (point rank + replication offset) n_levels + level rank; where every
    CDF is the identity, it keys its steps by point alone.
    """
    points, sizes, levels = _pool(parts)
    identity = levels is None   # is every CDF its points?
    if reps == 1:
        if not identity:   # the values in point order, 2**14 at a time into the order's buffer
            order = np.argsort(points)
            ordered = order.view(np.float64)
            for i in range(0, order.size, 2**14):
                ordered[i:i + 2**14] = levels[order[i:i + 2**14]]
            levels = np.maximum.accumulate(ordered, out=ordered)
            del order, ordered   # so that compacting the values frees the buffer
        points.sort()
        last = np.append(points[1:] != points[:-1], True)   # does a run end here?
        points = points[last]
        levels = points if identity else levels[last]
        return _steps_of(MaxCdf(points, levels))
    pairs = np.sort(np.arange(reps).repeat(slots.size // reps) * sizes.size + slots)
    pairs = pairs[np.append(True, pairs[1:] != pairs[:-1])]   # a plain np.unique loads numpy.ma
    rep, which = np.divmod(pairs, sizes.size)   # gather each (replication, slot) pair's events
    lengths = sizes[which]
    ends = np.cumsum(lengths)
    shift = (np.cumsum(sizes) - sizes)[which] - (ends - lengths)   # pool index - event index
    points, point_rank = np.unique(points, return_inverse=True)
    n_points, n_levels, level_rank = points.size, 1, 0
    if not identity:
        levels, level_rank = np.unique(levels, return_inverse=True)
        n_levels = levels.size
    if reps * n_points * n_levels >= 2**63:
        raise ValueError(f"{reps} replications of {n_points} support points "
                         "are too many for one batch")
    # Each event's key; its pool index stays a temporary (kept, it doubles the page faults)
    key = ((point_rank * n_levels + level_rank)[np.arange(ends[-1]) + np.repeat(shift, lengths)]
           + np.repeat(rep * (n_points * n_levels), lengths))
    key.sort()
    if identity:
        run = key[np.append(key[1:] != key[:-1], True)]
        return _Steps(points, run, points, run, reps)
    run = key // n_levels   # replication * n_points + point
    last = np.append(run[1:] != run[:-1], True)   # does a run end here?
    run = run[last]
    top = key[last] % n_levels + run // n_points * n_levels   # level rank, offset per replication
    return _Steps(points, run, levels, np.maximum.accumulate(top), reps)


def _steps_of(max_cdf: MaxCdf) -> _Steps:
    """One MaxCdf as a batch of one, laid out as `_sweep` gives one."""
    at = np.arange(max_cdf.grid.size)
    return _Steps(max_cdf.grid, at, max_cdf.values, at, 1)


def _last_at_most(keys: np.ndarray, levels: np.ndarray, reps: int,
                  queries: np.ndarray) -> np.ndarray:
    """For each replication r and each query q of queries[r], the index of
    the last step of r whose level, levels[keys - r levels.size], is at most
    q, or -1 if none is.  `keys` ascend, and `queries` has one row per
    replication or one row for all of them.

    As each replication's keys are offset past the last one's, one
    searchsorted serves the whole batch.
    """
    if reps == 1:   # a batch of one's keys are 0, 1, ... (`_steps_of`)
        return np.searchsorted(levels, queries, side="right") - 1
    base = np.arange(reps).reshape((reps,) + (1,) * (np.ndim(queries) - 1)) * levels.size
    idx = np.searchsorted(keys, base + np.searchsorted(levels, queries, side="right"))
    idx -= 1
    idx[keys[idx] < base] = -1   # before r's first step (keys[-1] is never below base)
    return idx


def _cdf_at(steps: _Steps | list, values: np.ndarray) -> np.ndarray:
    """F* of each replication at each value of its row of `values`, 0 below
    its first step; on a batch of one's `_groups`, the largest of their F*,
    swept one at a time.  Where every CDF is its points (identity steps or
    groups), F* gives back the values, which must be grid points."""
    if isinstance(steps, list) and steps[0][0][0].cdf is not None:
        f = np.zeros_like(values)
        for group in steps:
            np.maximum(f, _cdf_at(_sweep(group), values), out=f)
        return f
    if isinstance(steps, list) or steps.levels is steps.points:
        return values
    idx = _last_at_most(steps.run, steps.points, steps.reps, values)
    none = idx < 0
    idx = steps.top[idx]
    idx %= steps.levels.size
    f = steps.levels[idx]
    f[none] = 0.0
    return f


def _gammas(steps: _Steps | list, thresholds: np.ndarray) -> np.ndarray:
    """Per replication, the largest grid point whose F* value is at most each
    threshold, or NaN if none is."""
    if isinstance(steps, list):
        return _gammas_of(steps, thresholds)
    idx = _last_at_most(steps.top, steps.levels, steps.reps, thresholds)
    none = idx < 0
    idx = steps.run[idx]
    idx %= steps.points.size
    gamma = steps.points[idx]
    gamma[none] = np.nan
    return gamma


def _used(parts, slots: np.ndarray) -> list:
    """The slots of `parts` that `slots` names, each once, as `pvalue._pool`
    parts."""
    used = np.bincount(slots, minlength=sum(ks.size for _, ks in parts)) > 0
    out, start = [], 0
    for flat, ks in parts:
        ks, start = ks[used[start:start + ks.size]], start + ks.size
        if ks.size:
            out.append((flat, ks))
    return out


def _groups(parts, slots: np.ndarray, bound: int) -> list[list]:
    """`_used` parts in groups of whole slots: group g takes the slots whose
    points start from g `bound` to (g + 1) `bound` in the pool of them all."""
    groups, filled = {}, 0
    for flat, ks in _used(parts, slots):
        sizes = flat.starts[ks + 1] - flat.starts[ks]
        label = (filled + np.cumsum(sizes) - sizes) // bound
        filled += sizes.sum()
        for key in dict.fromkeys(label.tolist()):
            groups.setdefault(key, []).append((flat, ks[label == key]))
    return list(groups.values())


def _gammas_of(groups: list[list], cutoffs: np.ndarray) -> np.ndarray:
    """`_gammas` on the F* of one replication's `groups`, in two masked
    passes: gamma is the largest pooled point below x_min, the smallest
    one whose CDF value is above the cutoff, or NaN if none is."""
    identity = groups[0][0][0].cdf is None   # then x_min is the next float up
    x_min, gamma = np.nextafter(cutoffs, np.inf) if identity else np.inf, -np.inf
    for points, _, levels in map(_pool, [] if identity else groups):
        x_min = np.minimum(x_min, np.where(levels > cutoffs[..., None], points, np.inf).min(-1))
    for points, *_ in map(_pool, groups):
        gamma = np.maximum(gamma, np.where(points < x_min[..., None], points, -np.inf).max(-1))
    return np.where(gamma > -np.inf, gamma, np.nan)


def _f_star(table: PValueTable, max_cdf: MaxCdf | None = None) -> _Steps | list:
    """F* of a batch of one of `table`, for `_cdf_at` and `_gammas`: its
    `_groups` of about max(_GROUP, m) pooled points each, read one at a
    time, or the steps of its one group, or of `max_cdf` if one is passed.
    The scan reads F* only at the p-values, so a `max_cdf` whose grid misses
    one is refused; one built on other supports that hold every p-value is
    not detected."""
    if max_cdf is not None:
        grid = max_cdf.grid
        at = np.searchsorted(grid, table.p)
        if (at >= grid.size).any() or not np.array_equal(grid[at], table.p):
            raise ValueError("max_cdf must be built on the supports of the table's "
                             "tests, but a p-value is not on its grid")
        return _steps_of(max_cdf)
    groups = _groups(table._parts, table.support_index, max(_GROUP, table.p.size))
    return _sweep(groups[0]) if len(groups) == 1 else groups


def _thresholds(alphas: np.ndarray, m: int) -> np.ndarray:
    """alpha * k / m for each alpha (rows) and k = 1..m (columns)."""
    return alphas[:, None] * np.arange(1, m + 1, dtype=np.float64) / m


def build_max_cdf(table: PValueTable) -> MaxCdf:
    """Tabulate max_i F_i over the sorted union of the points of the
    supports that `table`'s tests use, in one sweep of a batch of one."""
    steps = _sweep(_used(table._parts, table.support_index))
    grid, values = steps.points[steps.run], steps.levels[steps.top]
    grid.flags.writeable = values.flags.writeable = False
    return MaxCdf(grid, values)


def critical_values(max_cdf: MaxCdf, alpha: float, m: int) -> np.ndarray:
    """gamma_k for k = 1..m; NaN marks ranks with no feasible grid point.

    gamma_k is the largest grid point whose F* value is <= alpha * k / m.
    NaN (rather than 0) is the none-feasible marker, so a literal p-value of
    0 can never pass a comparison against an infeasible rank.
    """
    _check_alpha(alpha)
    _check_int(m, "m", 1)
    return _gammas(_steps_of(max_cdf), _thresholds(np.array([alpha]), m)[None])[0, 0]


@dataclass(frozen=True, eq=False)
class StepUpResult:
    """Outcome of one step-up run on m p-values.

    threshold is gamma_R (None when R = 0), and rejected lists the original
    indices of all p-values <= threshold, in increasing index order.  The
    per-rank critical values are `critical_values` of a `build_max_cdf`.
    """

    m: int
    rejection_count: int
    threshold: float | None
    rejected: np.ndarray


def _validate_pvalues(pvalues) -> np.ndarray:
    p = _check_float(pvalues, "pvalues")
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty 1-D sequence")
    if not (p.min() >= 0.0 and p.max() <= 1.0):   # NaN fails both
        raise ValueError("pvalues must lie in [0, 1]")
    return p


def _scan(p: np.ndarray, f: np.ndarray, thresholds: np.ndarray, steps=None):
    """The step-up scan of every (replication, alpha) pair: R = max{k :
    f_(k) <= alpha k / m}, the threshold (NaN when R = 0), and how many
    p-values lie at or below it.

    p is (replications, m), f the CDF at each row's sorted values (F*, or
    the sorted p-values for BH), and thresholds is `_thresholds`' (alphas,
    m).  The threshold is alpha R / m, or gamma_R on the F* `steps`.
    """
    m = p.shape[1]
    hits = f[:, None, :] <= thresholds
    r = np.where(hits.any(axis=-1), m - np.argmax(hits[..., ::-1], axis=-1), 0)
    cutoff = thresholds[np.arange(thresholds.shape[0]), r - 1]
    if steps is not None:
        cutoff = _gammas(steps, cutoff)
    threshold = np.where(r > 0, cutoff, np.nan)
    rejected = (p[:, None, :] <= threshold[..., None]).sum(axis=-1)
    return r, threshold, rejected


def _count_check(r: np.ndarray, rejected: np.ndarray):
    return rejected != r, lambda i: f"step-up rejected {rejected[i]} p-values but R = {r[i]}"


def _order_check(condition: np.ndarray, r_cp: np.ndarray, r_mp: np.ndarray):
    return condition != (r_mp >= r_cp), lambda i: (
        "count-ordering condition disagrees with the realized counts: "
        f"condition={bool(condition[i])}, r_cp={r_cp[i]}, r_mp={r_mp[i]}")


def _raise_first(checks) -> None:
    """Raise an InvariantViolation for the first (replication, alpha) pair,
    in that order, that fails one of `checks`, each a (failed per pair,
    message of a pair) tuple, with the message of its first failed check.
    The error's `pair` attribute is that (replication, alpha index) pair."""
    failed = np.logical_or.reduce([bad for bad, _ in checks])
    if failed.any():
        pair = np.unravel_index(np.argmax(failed), failed.shape)
        error = InvariantViolation(next(text(pair) for bad, text in checks if bad[pair]))
        error.pair = tuple(map(int, pair))
        raise error


def _result(p: np.ndarray, r, threshold) -> StepUpResult:
    """The StepUpResult of one scanned row on the p-values `p`."""
    if r == 0:
        return StepUpResult(p.size, 0, None, np.empty(0, dtype=np.int64))
    return StepUpResult(p.size, int(r), float(threshold), np.flatnonzero(p <= threshold))


def _step_up(p: np.ndarray, alpha: float, steps=None):
    """One step-up run of `p` at `alpha` on the F* `steps` (None for BH),
    and the CDF at the sorted p-values, one row."""
    _check_alpha(alpha)
    thresholds = _thresholds(np.array([alpha]), p.size)
    f = np.sort(p)[None]
    f = f if steps is None else _cdf_at(steps, f)
    r, threshold, rejected = _scan(p[None], f, thresholds, steps)
    _raise_first([_count_check(r, rejected)])
    return _result(p, r[0, 0], threshold[0, 0]), f


def bh_plus(table: PValueTable, alpha: float, *,
            max_cdf: MaxCdf | None = None) -> StepUpResult:
    """Step-up run on `table.p` against critical values adapted to its supports.

    Every p-value of a PValueTable is a point of its own support by
    construction, so nothing is re-checked here.  F* pools the supports the
    tests use; a `max_cdf` built from them may be passed to reuse work across
    alpha levels.
    """
    return _step_up(table.p, alpha, _f_star(table, max_cdf))[0]


def bh(pvalues, alpha: float) -> StepUpResult:
    """Classical step-up with critical values alpha * k / m."""
    return _step_up(_validate_pvalues(pvalues), alpha)[0]


@dataclass(frozen=True, eq=False)
class MidComparison:
    """Mid-p versus conventional rejection counts and the crossing condition.

    condition_holds reports whether the mid max-CDF at the r_cp-th smallest
    mid p-value stays within alpha * r_cp / m (vacuously true when r_cp = 0),
    which is equivalent to r_mp >= r_cp.
    """

    condition_holds: bool
    r_cp: int
    r_mp: int
    mid_result: StepUpResult


def _condition(f_mid: np.ndarray, r_cp: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Per (replication, alpha): whether the mid F* at the r_cp-th smallest
    mid p-value, f_mid's column r_cp - 1, is <= alpha * r_cp / m
    (vacuously, when r_cp = 0)."""
    f = np.take_along_axis(f_mid, np.maximum(r_cp - 1, 0), axis=1)
    return (r_cp == 0) | (f <= alphas * r_cp / f_mid.shape[1])


def mid_vs_conventional(conv_result: StepUpResult, mid_table: PValueTable,
                        alpha: float, *,
                        max_cdf: MaxCdf | None = None) -> MidComparison:
    """Run the step-up on mid p-values and test the count-ordering condition.

    `conv_result` must come from a run on the conventional p-values of the
    same m tests at the same alpha.  The equivalence between the condition
    and r_mp >= r_cp is asserted on every call.
    """
    m = mid_table.p.size
    if conv_result.m != m:
        raise ValueError(f"conventional run had m = {conv_result.m}, but got {m} mid p-values")
    mid_result, f_mid = _step_up(mid_table.p, alpha, _f_star(mid_table, max_cdf))
    r_cp = np.array([[conv_result.rejection_count]])
    r_mp = np.array([[mid_result.rejection_count]])
    condition = _condition(f_mid, r_cp, np.array([alpha]))
    _raise_first([_order_check(condition, r_cp, r_mp)])
    return MidComparison(condition_holds=bool(condition[0, 0]), r_cp=int(r_cp[0, 0]),
                         r_mp=int(r_mp[0, 0]), mid_result=mid_result)


class _Runs(NamedTuple):
    """`run_procedures` results, per procedure (in `PROCEDURES` order),
    replication and alpha: R and gamma_R, and no per-rank critical values."""

    rejection_count: np.ndarray               # (procedures, replications, alphas)
    threshold: np.ndarray                     # the same, NaN where R = 0
    condition_holds: np.ndarray               # (replications, alphas)

    def results(self, conv: PValueTable, mid: PValueTable
                ) -> tuple[dict[str, StepUpResult], MidComparison]:
        """The results keyed by `PROCEDURES`, and the mid comparison, of a
        batch of one replication at one alpha."""
        tables = {PValueFlavor.CONVENTIONAL: conv, PValueFlavor.MID: mid}
        results = {name: _result(tables[flavor].p, r[0, 0], threshold[0, 0])
                   for (name, flavor), r, threshold in zip(
                       PROCEDURE_FLAVORS.items(), self.rejection_count, self.threshold)}
        comparison = MidComparison(
            condition_holds=bool(self.condition_holds[0, 0]),
            r_cp=results["BH+"].rejection_count, r_mp=results["MidPBH+"].rejection_count,
            mid_result=results["MidPBH+"])
        return results, comparison


def run_procedures(conv: PValueTable, mid: PValueTable, alphas: Sequence[float],
                   reps: int = 1) -> _Runs:
    """BH and BH+ on `conv` and MidPBH+ on `mid`, one `pvalue_table` call's
    two tables, at every level of `alphas`, for each of `reps` replications:
    replication r holds tests r m .. r m + m - 1 of both tables.

    Each replication's F* pools the supports its own tests use (a batch of
    one, group by group: `_f_star`), and each scan reads it at the sorted
    p-values and gamma only at R.  Every check runs for every (replication,
    alpha) pair: each step-up's R against the p-values at or below its
    threshold, BH's set inside BH+'s, and the count-ordering condition
    against r_mp >= r_cp.  The first failing pair, in (replication, alpha)
    order, raises an InvariantViolation naming alpha, whose `pair`
    attribute is (replication, alpha index).
    """
    for alpha in alphas:
        _check_alpha(alpha)
    size = conv.p.size
    if len(alphas) == 0 or _check_int(reps, "reps") < 1 or size % reps or mid.p.size != size:
        raise ValueError("run_procedures needs alphas, and two tables of `reps` "
                         "replications of m tests each")
    levels = np.asarray(alphas, dtype=np.float64)
    thresholds = _thresholds(levels, size // reps)
    steps = _f_star(conv) if reps == 1 else _sweep(conv._parts, conv.support_index, reps)
    p = conv.p.reshape(reps, -1)
    sorted_p = np.sort(p)   # once a batch's sweep, which peaks higher, is done
    bh = _scan(p, sorted_p, thresholds)
    plus = _scan(p, _cdf_at(steps, sorted_p), thresholds, steps)
    del steps, sorted_p
    steps = _f_star(mid) if reps == 1 else _sweep(mid._parts, mid.support_index, reps)
    q = mid.p.reshape(reps, -1)
    f_mid = _cdf_at(steps, np.sort(q))
    (r_bh, r_cp, r_mp), cutoffs, rejected = zip(bh, plus, _scan(q, f_mid, thresholds, steps))
    condition = _condition(f_mid, r_cp, levels)
    del f_mid, steps
    # Both sets are {i : p_i <= threshold} on the same p-values, so the
    # classical set lies inside the adaptive one iff it is no larger.
    _raise_first([
        _count_check(r_bh, rejected[0]),
        _count_check(r_cp, rejected[1]),
        (r_bh > r_cp, lambda i: (
            "adaptive step-up did not contain the classical rejection set at "
            f"alpha={alphas[i[1]]}: BH rejected {r_bh[i]}, BH+ {r_cp[i]}")),
        _count_check(r_mp, rejected[2]),
        _order_check(condition, r_cp, r_mp)])
    return _Runs(np.stack((r_bh, r_cp, r_mp)), np.stack(cutoffs), condition)

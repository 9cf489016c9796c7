"""Step-up multiple testing procedures driven by step-function null CDFs.

The adaptive procedure takes the pointwise maximum F* of the per-test null
CDFs of the p-values, then uses critical values
``gamma_k = max{t in grid : F*(t) <= alpha * k / m}`` over the sorted union
of all support points.  Rejections follow the usual step-up scan.  With
uniform p-values F* is the identity and the procedure reduces to the
classical step-up of Benjamini and Hochberg, which `bh` implements directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvariantViolation
from .pvalue import PValueFlavor, PValueSupport, PValueTable

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


class MaxCdf(NamedTuple):
    """Pointwise maximum of several step CDFs, tabulated on their union grid:
    a plain record that only `build_max_cdf` makes, valid by construction."""

    grid: np.ndarray
    values: np.ndarray

    def evaluate(self, t):
        """Right-continuous step evaluation; 0 below the first grid point."""
        t_arr = np.asarray(t, dtype=np.float64)
        idx = np.searchsorted(self.grid, t_arr, side="right") - 1
        out = np.where(idx >= 0, self.values[np.maximum(idx, 0)], 0.0)
        return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def build_max_cdf(supports: Sequence[PValueSupport]) -> MaxCdf:
    """Tabulate max_i F_i over the sorted union of all support points.

    Once all (point, CDF value) events are in point order, each test's
    running CDF is the largest of its processed values, so F* is one running
    maximum (and a support listed twice changes nothing).  Each run of equal
    points keeps its last event: the grid strictly increases, and the values
    never fall and end at 1.0, where every support ends.
    """
    if len(supports) == 0:
        raise ValueError("at least one support is required")
    points = np.concatenate([s.points for s in supports])
    order = np.argsort(points, kind="stable")
    points = points[order]
    cdfs = np.concatenate([s.cdf_values for s in supports])[order]
    last = np.append(points[1:] != points[:-1], True)   # does a run end here?
    grid, values = points[last], np.maximum.accumulate(cdfs)[last]
    grid.flags.writeable = values.flags.writeable = False
    return MaxCdf(grid, values)


def critical_values(max_cdf: MaxCdf, alpha: float, m: int) -> np.ndarray:
    """gamma_k for k = 1..m; NaN marks ranks with no feasible grid point.

    gamma_k is the largest grid point whose F* value is <= alpha * k / m.
    NaN (rather than 0) is the none-feasible marker, so a literal p-value of
    0 can never pass a comparison against an infeasible rank.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    thresholds = alpha * np.arange(1, m + 1, dtype=np.float64) / m
    idx = np.searchsorted(max_cdf.values, thresholds, side="right") - 1
    return np.where(idx >= 0, max_cdf.grid[np.maximum(idx, 0)], np.nan)


@dataclass(frozen=True, eq=False)
class StepUpResult:
    """Outcome of one step-up run.

    critical_values holds gamma_k per rank (NaN = none feasible), threshold
    is gamma_R (None when R = 0), and rejected lists the original indices of
    all p-values <= threshold, in increasing index order.
    """

    critical_values: np.ndarray
    rejection_count: int
    threshold: float | None
    rejected: np.ndarray


def _validate_pvalues(pvalues) -> np.ndarray:
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("pvalues must be a non-empty 1-D sequence")
    if not (p.min() >= 0.0 and p.max() <= 1.0):   # NaN fails both
        raise ValueError("pvalues must lie in [0, 1]")
    return p


def _scan(p: np.ndarray, gamma: np.ndarray, order: np.ndarray) -> StepUpResult:
    """Shared step-up scan: R = max{k : p_(k) <= gamma_k}, reject p <= gamma_R.

    `order` sorts `p` ascending.
    """
    hits = np.flatnonzero(p[order] <= gamma)
    if hits.size == 0:
        return StepUpResult(gamma, 0, None, np.empty(0, dtype=np.int64))
    r = int(hits[-1]) + 1
    threshold = float(gamma[r - 1])
    rejected = np.flatnonzero(p <= threshold)
    if rejected.size != r:
        raise InvariantViolation(
            f"step-up rejected {rejected.size} p-values but R = {r}")
    return StepUpResult(gamma, r, threshold, rejected)


def bh_plus(table: PValueTable, alpha: float, *,
            max_cdf: MaxCdf | None = None) -> StepUpResult:
    """Step-up run on `table.p` against critical values adapted to its supports.

    Every p-value of a PValueTable is a point of its own support by
    construction, so nothing is re-checked here.  A `max_cdf` built from
    `table.supports` may be passed to reuse work across alpha levels; the
    table sorts its p-values once, for every alpha.
    """
    if max_cdf is None:
        max_cdf = build_max_cdf(table.supports)
    return _scan(table.p, critical_values(max_cdf, alpha, table.p.size),
                 table.order)


def bh(pvalues, alpha: float) -> StepUpResult:
    """Classical step-up with critical values alpha * k / m."""
    p = _validate_pvalues(pvalues)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    m = p.size
    return _scan(p, alpha * np.arange(1, m + 1, dtype=np.float64) / m,
                 np.argsort(p, kind="stable"))


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


def mid_vs_conventional(conv_result: StepUpResult, mid_table: PValueTable,
                        alpha: float, *,
                        max_cdf: MaxCdf | None = None) -> MidComparison:
    """Run the step-up on mid p-values and test the count-ordering condition.

    `conv_result` must come from a run on the conventional p-values of the
    same m tests at the same alpha.  The equivalence between the condition
    and r_mp >= r_cp is asserted on every call.
    """
    p_mid = mid_table.p
    m = p_mid.size
    if conv_result.critical_values.size != m:
        raise ValueError(
            f"conventional run had m = {conv_result.critical_values.size}, "
            f"but got {m} mid p-values")
    if max_cdf is None:
        max_cdf = build_max_cdf(mid_table.supports)
    mid_result = bh_plus(mid_table, alpha, max_cdf=max_cdf)
    r_cp = conv_result.rejection_count
    if r_cp == 0:
        condition = True
    else:
        q_rcp = float(p_mid[mid_table.order[r_cp - 1]])
        condition = max_cdf.evaluate(q_rcp) <= alpha * r_cp / m
    if condition != (mid_result.rejection_count >= r_cp):
        raise InvariantViolation(
            "count-ordering condition disagrees with the realized counts: "
            f"condition={condition}, r_cp={r_cp}, r_mp={mid_result.rejection_count}")
    return MidComparison(condition_holds=condition, r_cp=r_cp,
                         r_mp=mid_result.rejection_count, mid_result=mid_result)


def run_procedures(conv: PValueTable, mid: PValueTable, alpha: float, *,
                   max_cdfs: tuple[MaxCdf | None, MaxCdf | None] = (None, None)
                   ) -> tuple[dict[str, StepUpResult], MidComparison]:
    """BH and BH+ on `conv` and MidPBH+ on `mid`, one `pvalue_table` call's
    two tables: the results keyed by `PROCEDURES`, and the mid comparison.

    Both invariants are checked on every call: BH's set lies inside BH+'s,
    and `mid_vs_conventional` checks the count-ordering condition.  Given
    `max_cdfs` are reused; a missing one is built, and dropped after use.
    """
    res_bh = bh(conv.p, alpha)
    res_bhp = bh_plus(conv, alpha, max_cdf=max_cdfs[0])
    # Both sets are {i : p_i <= threshold} on the same p-values, so the
    # classical set lies inside the adaptive one iff it is no larger.
    if res_bh.rejection_count > res_bhp.rejection_count:
        raise InvariantViolation(
            f"adaptive step-up did not contain the classical rejection set at "
            f"alpha={alpha}: BH rejected {res_bh.rejection_count}, "
            f"BH+ {res_bhp.rejection_count}")
    comparison = mid_vs_conventional(res_bhp, mid, alpha, max_cdf=max_cdfs[1])
    return dict(zip(PROCEDURES, (res_bh, res_bhp, comparison.mid_result))), comparison

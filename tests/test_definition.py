"""The batched step-ups against the paper's definitions, per replication.

The oracle here shares no code with `stepup`.  It reads each replication's
own supports, `table.supports[table.support_index[i]]` for its tests i, and
works in plain Python floats:

- F*(t) = max_j F_j(t), over the supports the replication's tests use;
- gamma_k = max{t in grid : F*(t) <= alpha k / m}, where the grid is the
  union of those supports' points (None when no point qualifies);
- R = max{k : p_(k) <= gamma_k}, and the threshold gamma_R;
- the count-ordering condition at r_cp: F*_mid(q_(r_cp)) <= alpha r_cp / m,
  where q_(k) is the k-th smallest mid p-value (true when r_cp = 0).

Batches of 1 to 5 replications come in four kinds: independent draws,
replications that share no support, replications that share every support,
and replications whose supports share points at different CDF values.
Counts stay small enough that no p-value reaches 1e-12, so at alpha = 1e-12
no gamma is feasible.  A batch of one reads its F* in groups of whole
supports of max(`stepup._GROUP`, m) pooled points; the tests run again on
single replications with that bound patched down to 2, so that their
tables span several groups and a shared point may fall in two of them.
"""

from bisect import bisect_right
from unittest.mock import patch

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stepfdr import pvalue, sim, stepup
from stepfdr.pvalue import PValueFlavor, PValueTable
from stepfdr.stepup import run_procedures

NONE_FEASIBLE = 1e-12
# Margins whose mid supports share a point at two CDF values: bt totals 3
# and 6 both have the mid p-value 1/8, at 1/4 and 7/32; Fisher margins
# (n1, n2, total) (1, 7, 6) and (9, 3, 5) both have 1/8, at 1/4 and 9/44.
COINCIDENT = {"bt": [(3,), (6,), (10,), (14,)], "fet": [(1, 7, 6), (9, 3, 5), (2, 8, 8), (8, 2, 2)]}


def cdf_at(support, t: float) -> float:
    """F_j(t): the CDF value at the support's last point <= t, 0 below it."""
    j = bisect_right(support.points.tolist(), t)
    return support.cdf_values.tolist()[j - 1] if j else 0.0


class Replication:
    """One replication's tests of one table: its p-values, in test order,
    and F* on its grid, from the supports its own tests use."""

    def __init__(self, table, tests: range) -> None:
        supports = table.supports
        used = [supports[k] for k in sorted(set(table.support_index[tests].tolist()))]
        self.p = table.p[tests].tolist()
        self.grid = sorted({t for s in used for t in s.points.tolist()})
        self.f_star = [max(cdf_at(s, t) for s in used) for t in self.grid]

    def f_star_at(self, t: float) -> float:
        j = bisect_right(self.grid, t)
        return self.f_star[j - 1] if j else 0.0

    def gamma(self, level: float):
        """The largest grid point whose F* is at most `level`, or None."""
        feasible = [t for t, f in zip(self.grid, self.f_star) if f <= level]
        return max(feasible) if feasible else None


def step_up(p: list, gammas: list) -> tuple[int, float | None]:
    """R = max{k : p_(k) <= gamma_k} (0 if none) and gamma_R (None if R = 0)."""
    ordered = sorted(p)
    r = max([k for k in range(1, len(p) + 1)
             if gammas[k - 1] is not None and ordered[k - 1] <= gammas[k - 1]], default=0)
    return r, gammas[r - 1] if r else None


def oracle(conv, mid, alphas, reps: int):
    """Per (replication, alpha): the three procedures' (R, threshold), in
    `PROCEDURES` order, and the condition at r_cp."""
    m = conv.p.size // reps
    out = []
    for r in range(reps):
        tests = range(r * m, (r + 1) * m)
        c, q = Replication(conv, tests), Replication(mid, tests)
        row = []
        for alpha in alphas:
            levels = [alpha * k / m for k in range(1, m + 1)]
            bh = step_up(c.p, levels)
            plus = step_up(c.p, [c.gamma(level) for level in levels])
            midp = step_up(q.p, [q.gamma(level) for level in levels])
            r_cp = plus[0]
            condition = r_cp == 0 or q.f_star_at(sorted(q.p)[r_cp - 1]) <= alpha * r_cp / m
            if alpha == NONE_FEASIBLE:
                assert all(x.gamma(level) is None for x in (c, q) for level in levels)
            row.append(((bh, plus, midp), condition))
        out.append(row)
    return out


@st.composite
def batches(draw, most_reps: int = 5):
    """bt or Fisher tables of 1 to `most_reps` replications of 1 to 12 tests, whose
    replications draw their margins independently, share none, share every
    one (each a permutation of the first replication's), or draw them from
    `COINCIDENT`."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    test = draw(st.sampled_from(["bt", "fet"]))
    kind = draw(st.sampled_from(["independent", "disjoint", "shared", "coincident"]))
    reps, m = draw(st.integers(1, most_reps)), draw(st.integers(1, 12))
    rep = np.arange(reps).repeat(m)
    if kind == "coincident":
        margins = np.array(COINCIDENT[test])[rng.integers(0, 4, size=reps * m)]
        n, total = margins[:, :-1], margins[:, -1]
    elif test == "bt":   # a margin is a total
        total = rng.integers(0, 25, size=reps * m)
        if kind == "disjoint":
            total = total // reps * reps + rep
    else:                # a margin is (n1, n2, total)
        n = rng.integers(0, 13, size=(reps * m, 2))
        if kind == "disjoint":
            n[:, 0] = n[:, 0] // reps * reps + rep
        total = rng.integers(0, n.sum(axis=1) + 1)
    if kind == "shared":
        pick = np.concatenate([rng.permutation(m) for _ in range(reps)])
        total = total[pick]
        if test == "fet":
            n = n[pick]
    if test == "bt":
        c1 = rng.integers(0, total + 1)
        tables = pvalue.pvalue_table(c1, total - c1)
    else:
        low, high = np.maximum(0, total - n[:, 1]), np.minimum(n[:, 0], total)
        c1 = rng.integers(low, high + 1)
        tables = pvalue.pvalue_table(c1, total - c1, n[:, 0], n[:, 1])
    alphas = [NONE_FEASIBLE] + draw(st.lists(st.floats(0.001, 0.99), min_size=1, max_size=3))
    return tables, alphas, reps


DEFINITION = settings(max_examples=50, deadline=None, database=None)


def grouped():
    """Read a batch of one's F* in groups of max(2, m) pooled points."""
    return patch.object(stepup, "_GROUP", 2)


@DEFINITION
@given(batch=batches())
def test_run_procedures_follows_the_definitions_per_replication(batch):
    """Each (procedure, replication, alpha) count and threshold, and each
    condition, of one `run_procedures` call on the batch equals the
    oracle's on that replication alone."""
    follows_the_definitions(batch)


@DEFINITION
@given(batch=batches(most_reps=1))
def test_f_star_read_in_groups_follows_the_definitions(batch):
    """The same for one replication read in groups of a few points: F* at
    the p-values is the largest of the groups' F*, and gamma at R is the
    largest pooled point below the smallest one whose CDF value is above
    alpha R / m, whichever groups hold them."""
    with grouped():
        follows_the_definitions(batch)


def follows_the_definitions(batch):
    (conv, mid), alphas, reps = batch
    runs = run_procedures(conv, mid, alphas, reps)
    for r, row in enumerate(oracle(conv, mid, alphas, reps)):
        for a, (procedures, condition) in enumerate(row):
            for j, (count, threshold) in enumerate(procedures):
                assert runs.rejection_count[j, r, a] == count
                got = runs.threshold[j, r, a]
                assert np.isnan(got) if threshold is None else got == threshold
            assert bool(runs.condition_holds[r, a]) is condition


@DEFINITION
@given(batch=batches(), null_share=st.floats(0.0, 1.0))
def test_fdp_and_tdp_count_each_replications_rejections(batch, null_share):
    """`sim._fdp_tdp` gives, per (procedure, replication, alpha), the
    oracle's false rejections over max(R, 1) and its true rejections over
    m1, where a rejection is a test of the replication whose p-value is at
    most the oracle's threshold and the first m0 tests are the true nulls."""
    counts_rejections(batch, null_share)


@DEFINITION
@given(batch=batches(most_reps=1), null_share=st.floats(0.0, 1.0))
def test_fdp_and_tdp_of_f_star_read_in_groups(batch, null_share):
    """The same for one replication read in groups of a few points."""
    with grouped():
        counts_rejections(batch, null_share)


def counts_rejections(batch, null_share):
    (conv, mid), alphas, reps = batch
    m = conv.p.size // reps
    m0 = round(null_share * m)
    tables = {PValueFlavor.CONVENTIONAL: conv, PValueFlavor.MID: mid}
    fdp, tdp = sim._fdp_tdp(run_procedures(conv, mid, alphas, reps), tables, m0, m - m0)
    for r, row in enumerate(oracle(conv, mid, alphas, reps)):
        for a, (procedures, _) in enumerate(row):
            for j, ((count, threshold), table) in enumerate(zip(procedures, (conv, conv, mid))):
                p = table.p[r * m:(r + 1) * m].tolist()
                rejected = [i for i in range(m) if threshold is not None and p[i] <= threshold]
                assert len(rejected) == count
                false = sum(i < m0 for i in rejected)
                assert fdp[j, r, a] == false / max(count, 1)
                assert tdp[j, r, a] == ((count - false) / (m - m0) if m - m0 else 0.0)


def test_a_point_of_two_supports_takes_the_larger_cdf_value():
    """bt totals 3 and 6 both have the mid p-value 1/8, where their mid
    CDFs are 1/4 and 7/32.  Both tests sit at 1/8, so F*(1/8) = 1/4, and at
    alpha = 0.23 MidPBH+ rejects neither (F* = 7/32 there would reject
    both).  This holds for a batch of one and for a batch of two, with the
    mid supports listed in either order."""
    for reps in (1, 2):
        conv, mid = pvalue.pvalue_table([0, 1] * reps, [3, 5] * reps)
        assert mid.p.tolist() == [0.125] * (2 * reps)
        for order in ([0, 1], [1, 0]):
            supports = mid.supports
            listed = PValueTable([supports[k] for k in order],
                                 np.argsort(order)[mid.support_index], mid.point_index)
            runs = run_procedures(conv, listed, (0.23,), reps)
            assert runs.rejection_count[2].tolist() == [[0]] * reps
            for r, row in enumerate(oracle(conv, listed, (0.23,), reps)):
                assert [count for count, _ in row[0][0]] == runs.rejection_count[:, r, 0].tolist()


def test_a_point_split_across_two_groups_takes_its_larger_cdf_value():
    """Read in groups of two pooled points, bt totals 3 and 6 (two and
    four mid points) fall in two groups, both holding the mid p-value 1/8,
    at CDF values 1/4 and 7/32.  At alpha = 0.23 F*(1/8) = 1/4 rejects
    neither test, and at 0.25 and 0.3 both are rejected, at the oracle's
    thresholds, whichever group holds each support."""
    conv, mid = pvalue.pvalue_table([0, 1], [3, 5])
    alphas = (0.23, 0.25, 0.3)
    with grouped():
        for order in ([0, 1], [1, 0]):
            supports = mid.supports
            listed = PValueTable([supports[k] for k in order],
                                 np.argsort(order)[mid.support_index], mid.point_index)
            assert len(stepup._groups(listed._parts, listed.support_index, 2)) == 2
            runs = run_procedures(conv, listed, alphas)
            assert runs.rejection_count[2, 0].tolist() == [0, 2, 2]
            for a, (procedures, _) in enumerate(oracle(conv, listed, alphas, 1)[0]):
                count, threshold = procedures[2]
                assert runs.rejection_count[2, 0, a] == count
                assert np.isnan(runs.threshold[2, 0, a]) if threshold is None else (
                    runs.threshold[2, 0, a] == threshold)

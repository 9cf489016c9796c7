"""Tests for the step-up procedures and the pooled-CDF machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stepfdr import stepup
from stepfdr.pvalue import (
    PValueFlavor,
    PValueSupport,
    PValueTable,
    bt_support,
    fet_support,
    pvalue_table,
)
from stepfdr.stepup import (
    MaxCdf,
    bh,
    bh_plus,
    build_max_cdf,
    critical_values,
    mid_vs_conventional,
    run_procedures,
)

CONV = PValueFlavor.CONVENTIONAL
MID = PValueFlavor.MID


def make_support(points, cdf_values, flavor=CONV):
    return PValueSupport(flavor=flavor, points=np.asarray(points, dtype=float),
                         cdf_values=np.asarray(cdf_values, dtype=float))


def on_supports(supports, point_index):
    """A hand-built table: test i takes point point_index[i] of supports[i]."""
    return PValueTable(supports, np.arange(len(supports)), point_index)


def table_on(supports):
    """A hand-built table with one test on the first point of each support."""
    return on_supports(supports, np.zeros(len(supports), dtype=np.int64))


def brute_max_cdf(supports, t):
    best = 0.0
    for sup in supports:
        idx = np.searchsorted(sup.points, t, side="right") - 1
        val = 0.0 if idx < 0 else float(sup.cdf_values[idx])
        best = max(best, val)
    return best


def test_build_max_cdf_single_support_identity():
    sup = make_support([0.25, 0.5, 1.0], [0.25, 0.5, 1.0])
    mc = build_max_cdf(table_on([sup]))
    assert np.array_equal(mc.grid, [0.25, 0.5, 1.0])
    assert np.array_equal(mc.values, [0.25, 0.5, 1.0])


def test_build_max_cdf_merges_two_supports():
    a = make_support([0.2, 1.0], [0.2, 1.0])
    b = make_support([0.6, 1.0], [0.6, 1.0])
    mc = build_max_cdf(table_on([a, b]))
    assert np.array_equal(mc.grid, [0.2, 0.6, 1.0])
    assert np.array_equal(mc.values, [0.2, 0.6, 1.0])


def test_max_cdf_matches_brute_force():
    """Supports share points of the lattice k/16 and some are listed twice,
    so runs of equal points hold events with different CDF values; F* at a
    point is the running maximum at the last event of its run.  About a
    third are conventional among the mid ones, and a hand-made table of all
    of them sweeps to the same F*."""
    rng = np.random.default_rng(21)
    lattice = np.arange(1, 16) / 16
    for _ in range(30):
        m = int(rng.integers(1, 20))
        supports = []
        for _ in range(m):
            k = int(rng.integers(1, 6))
            pts = np.unique(np.append(rng.choice(lattice, k), 1.0))
            if rng.uniform() < 1 / 3:
                supports.append(make_support(pts, pts))
                continue
            cdf = np.append(np.sort(rng.uniform(0.0, 1.0, len(pts) - 1)), 1.0)
            cdf = np.maximum(np.maximum.accumulate(cdf), pts)
            supports.append(make_support(pts, cdf, flavor=MID))
        supports += [supports[i] for i in rng.integers(0, m, size=m // 2 + 1)]
        supports = [supports[i] for i in rng.permutation(len(supports))]
        table = table_on(supports)
        mc = build_max_cdf(table)
        assert np.array_equal(
            mc.grid, np.unique(np.concatenate([s.points for s in supports])))
        assert not mc.grid.flags.writeable and not mc.values.flags.writeable
        for t, value in zip(mc.grid, mc.values):
            assert value == brute_max_cdf(supports, t)
        for t in rng.uniform(0.0, 1.0, 50):
            assert mc.evaluate(float(t)) == brute_max_cdf(supports, float(t))
        for alpha in (0.05, 0.3, 0.9):
            gamma = critical_values(mc, alpha, len(supports))
            hits = np.flatnonzero(np.sort(table.p) <= gamma)   # NaN is never a hit
            r = hits[-1] + 1 if hits.size else 0
            res = bh_plus(table, alpha)
            assert (res.m, res.rejection_count) == (len(supports), r)
            assert res.threshold == (gamma[r - 1] if r else None)


def test_max_cdf_of_a_table_matches_brute_force_over_its_supports():
    """`build_max_cdf(table)` sweeps the table's own slots.  On random bt
    and fet tables of both flavors, registry-backed and rebuilt by hand
    with some supports listed twice and the slots shuffled, its grid is
    the union of `table.supports`' points, its value at every grid point
    is the brute-force maximum over them, and both tables give the same
    bytes."""
    rng = np.random.default_rng(41)
    for i in range(24):
        m = int(rng.integers(1, 11))
        if i % 2:
            n1, n2 = rng.integers(1, 12, size=(2, m))
            tables = pvalue_table(rng.integers(0, n1 + 1), rng.integers(0, n2 + 1), n1, n2)
        else:
            tables = pvalue_table(*rng.integers(0, 16, size=(2, m)))
        for table in tables:
            slots = table.supports
            twice = slots + tuple(slots[j] for j in rng.integers(0, len(slots), len(slots)))
            order = rng.permutation(len(twice))
            hand = PValueTable([twice[j] for j in order],
                               np.argsort(order)[table.support_index], table.point_index)
            assert hand.p.tobytes() == table.p.tobytes()
            want = build_max_cdf(table)
            for made in (table, hand):
                mc, supports = build_max_cdf(made), made.supports
                assert mc.grid.tobytes() == want.grid.tobytes()
                assert mc.values.tobytes() == want.values.tobytes()
                assert np.array_equal(
                    mc.grid, np.unique(np.concatenate([s.points for s in supports])))
                for t, value in zip(mc.grid, mc.values):
                    assert value == brute_max_cdf(supports, t)


def test_max_cdf_evaluate_below_grid_is_zero():
    mc = build_max_cdf(table_on([make_support([0.5, 1.0], [0.5, 1.0])]))
    assert mc.evaluate(0.4) == 0.0
    assert mc.evaluate(0.5) == 0.5
    assert mc.evaluate(0.9) == 0.5
    out = mc.evaluate(np.array([0.1, 0.5, 0.75, 1.0]))
    assert np.array_equal(out, [0.0, 0.5, 0.5, 1.0])


@pytest.mark.parametrize("t", [math.nan, np.float64("nan"), np.array([0.5, math.nan])],
                         ids=["float", "numpy-scalar", "array"])
def test_max_cdf_evaluate_rejects_nan(t):
    """F*(NaN) is undefined, not 1.0."""
    mc = build_max_cdf(table_on([make_support([0.5, 1.0], [0.5, 1.0])]))
    with pytest.raises(ValueError, match="NaN"):
        mc.evaluate(t)


NOT_NUMBERS = [["0.5"], [b"0.5"], [True], np.array([Fraction(1, 2)]), [0.5 + 0j]]
NOT_NUMBER_IDS = ["str", "bytes", "bool", "object", "complex"]


@pytest.mark.parametrize("t", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_max_cdf_evaluate_refuses_what_is_not_a_real_number(t):
    """A float cast once parsed "0.5" and b"0.5" and read True as 1.0."""
    mc = build_max_cdf(table_on([make_support([0.5, 1.0], [0.5, 1.0])]))
    with pytest.raises(ValueError, match="^t must hold real numbers"):
        mc.evaluate(t)


def test_critical_values_identity_supports():
    mc = build_max_cdf(table_on([make_support([0.25, 0.5, 1.0], [0.25, 0.5, 1.0])]))
    gammas = critical_values(mc, m=2, alpha=0.5)
    assert np.array_equal(gammas, [0.25, 0.5])


def test_critical_values_conservative_supports():
    a = make_support([0.2, 1.0], [0.2, 1.0])
    b = make_support([0.6, 1.0], [0.6, 1.0])
    mc = build_max_cdf(table_on([a, b]))
    gammas = critical_values(mc, m=2, alpha=0.5)
    assert np.array_equal(gammas, [0.2, 0.2])


def test_critical_values_infeasible_level_gives_nan():
    mc = build_max_cdf(table_on([make_support([0.5, 1.0], [0.5, 1.0])]))
    gammas = critical_values(mc, m=3, alpha=0.1)
    assert np.all(np.isnan(gammas))


def test_bh_frozen_example():
    res = bh(np.array([0.01, 0.02, 0.9]), alpha=0.05)
    assert res.rejection_count == 2
    assert sorted(res.rejected.tolist()) == [0, 1]
    assert res.threshold == pytest.approx(0.05 * 2 / 3)


def test_bh_rejects_nothing_at_one():
    res = bh(np.ones(5), alpha=0.2)
    assert res.rejection_count == 0
    assert res.threshold is None
    assert res.rejected.size == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1, 1.5])
def test_bh_rejects_pvalues_outside_unit_interval(bad):
    with pytest.raises(ValueError, match=r"pvalues must lie in \[0, 1\]"):
        bh(np.array([0.01, bad, 0.5]), alpha=0.05)


@pytest.mark.parametrize("pvalues", NOT_NUMBERS, ids=NOT_NUMBER_IDS)
def test_bh_refuses_pvalues_that_are_not_real_numbers(pvalues):
    """A float cast once ran BH on text and on object columns (of Fractions,
    say), and read True as the p-value 1.0."""
    with pytest.raises(ValueError, match="^pvalues must hold real numbers"):
        bh(pvalues, alpha=0.5)


def test_bh_plus_no_rejection_when_gamma_infeasible():
    sups = [make_support([0.5, 1.0], [0.5, 1.0]) for _ in range(2)]
    table = on_supports(sups, [0, 1])
    res = bh_plus(table, alpha=0.6)
    assert res.rejection_count == 0 and res.m == 2
    gamma = critical_values(build_max_cdf(table), 0.6, 2)
    assert np.all(np.isnan(gamma) | (gamma >= 0))


def test_bh_plus_reduces_to_bh_on_identity_supports():
    """With dense identity supports containing the BH constants the
    pooled-CDF procedure reproduces plain BH decisions."""
    rng = np.random.default_rng(33)
    for _ in range(25):
        m = int(rng.integers(2, 12))
        alpha = float(rng.uniform(0.05, 0.3))
        consts = alpha * np.arange(1, m + 1) / m
        grid = np.unique(np.concatenate([
            consts, rng.uniform(0, 1, 30), [1.0]]))
        sup = make_support(grid, grid)
        idx = rng.integers(0, len(grid), m)
        res_plus = bh_plus(PValueTable([sup], np.zeros(m), idx), alpha=alpha)
        res_bh = bh(grid[idx], alpha=alpha)
        assert res_plus.rejection_count == res_bh.rejection_count
        assert set(res_plus.rejected.tolist()) == set(res_bh.rejected.tolist())


def random_bt_instance(rng, m_max=40):
    """A table with a random point of a random bt support per test."""
    m = int(rng.integers(1, m_max))
    supports = []
    point_index = np.empty(m, dtype=np.int64)
    for i in range(m):
        n = int(rng.integers(0, 25))
        sup = bt_support(n, CONV)
        point_index[i] = int(rng.integers(0, len(sup)))
        supports.append(sup)
    return on_supports(supports, point_index)


def test_bh_plus_contains_bh_on_random_exact_instances():
    rng = np.random.default_rng(35)
    for _ in range(150):
        table = random_bt_instance(rng)
        alpha = float(rng.uniform(0.02, 0.3))
        r_bh = bh(table.p, alpha=alpha)
        r_plus = bh_plus(table, alpha=alpha)
        assert set(r_bh.rejected.tolist()) <= set(r_plus.rejected.tolist())


def test_bh_plus_alpha_monotone():
    rng = np.random.default_rng(36)
    for _ in range(60):
        table = random_bt_instance(rng)
        a_lo = float(rng.uniform(0.02, 0.15))
        a_hi = a_lo + float(rng.uniform(0.01, 0.2))
        r_lo = bh_plus(table, alpha=a_lo)
        r_hi = bh_plus(table, alpha=a_hi)
        assert r_lo.rejection_count <= r_hi.rejection_count


def test_bh_plus_threshold_separates_decisions():
    rng = np.random.default_rng(37)
    for _ in range(60):
        table = random_bt_instance(rng)
        res = bh_plus(table, alpha=0.1)
        if res.rejection_count == 0:
            assert res.threshold is None
            assert res.rejected.size == 0
            continue
        thr = res.threshold
        rejected = set(res.rejected.tolist())
        for i, pi in enumerate(table.p):
            if i in rejected:
                assert pi <= thr
            else:
                assert pi > thr


def test_bh_plus_critical_values_monotone_where_defined():
    rng = np.random.default_rng(38)
    for _ in range(40):
        table = random_bt_instance(rng)
        g = critical_values(build_max_cdf(table), 0.15, bh_plus(table, 0.15).m)
        defined = g[~np.isnan(g)]
        assert np.all(np.diff(defined) >= 0)


def test_bh_plus_rejects_p_not_on_any_support():
    """A p-value off its support cannot reach bh_plus: the table refuses it."""
    sup = make_support([0.5, 1.0], [0.5, 1.0])
    with pytest.raises(ValueError):
        bh_plus(on_supports([sup], [2]), alpha=0.1)


@pytest.mark.parametrize("bad", [2.5, True])
def test_m_and_reps_must_be_integers(bad):
    conv, mid = pvalue_table([1, 2], [2, 3])
    with pytest.raises(ValueError) as error:
        critical_values(build_max_cdf(conv), 0.1, bad)
    assert str(error.value) == f"m must be an integer, got {bad!r}"
    with pytest.raises(ValueError) as error:
        run_procedures(conv, mid, (0.1,), reps=bad)
    assert str(error.value) == f"reps must be an integer, got {bad!r}"


@pytest.mark.parametrize("call, message", [
    (lambda conv, mid: critical_values(build_max_cdf(conv), 0.1, 0),
     "m must be >= 1, got 0"),
    (lambda conv, mid: bh([], 0.1), "pvalues must be a non-empty 1-D sequence"),
    (lambda conv, mid: run_procedures(conv, pvalue_table([1], [2])[1], (0.1,)),
     "run_procedures needs alphas, and two tables of `reps` replications of m tests each"),
    (lambda conv, mid: run_procedures(conv, mid, (0.1,), reps=3),
     "run_procedures needs alphas, and two tables of `reps` replications of m tests each"),
], ids=["m-zero", "no-pvalues", "mismatched-tables", "reps-not-dividing"])
def test_step_up_entries_refuse_empty_and_mismatched_input(call, message):
    conv, mid = pvalue_table([1, 2], [2, 3])
    with pytest.raises(ValueError) as error:
        call(conv, mid)
    assert str(error.value) == message


def test_a_batch_sweep_refuses_keys_past_int64_before_building_them(monkeypatch):
    """2 replications x 2**32 points x 2**32 levels overflow the int64 event
    keys; faked as broadcast views, the sizes are refused without allocating."""
    conv, mid = pvalue_table([1, 2], [2, 3])

    def unique(values, return_inverse):
        return np.broadcast_to(values[:1], (2**32,)), np.zeros(values.size, dtype=np.intp)

    monkeypatch.setattr(stepup.np, "unique", unique)
    with pytest.raises(ValueError) as error:
        stepup._sweep(mid._parts, mid.support_index, 2)
    assert str(error.value) == ("2 replications of 4294967296 support points "
                                "are too many for one batch")


def test_bh_plus_rejects_bad_alpha():
    sup = make_support([0.5, 1.0], [0.5, 1.0])
    for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(ValueError):
            bh_plus(on_supports([sup], [0]), alpha=bad)


def fet_pair_instance(rng, m):
    """Conventional and mid tables of m tests, each at one tie class of a
    random fet margin (the two flavors' supports align point for point)."""
    conv_sups = []
    mid_sups = []
    point_index = np.empty(m, dtype=np.int64)
    for i in range(m):
        n1 = int(rng.integers(1, 12))
        n2 = int(rng.integers(1, 12))
        total = int(rng.integers(0, n1 + n2 + 1))
        cs = fet_support(n1, n2, total, CONV)
        ms = fet_support(n1, n2, total, MID)
        assert len(cs) == len(ms)
        point_index[i] = int(rng.integers(0, len(cs)))
        conv_sups.append(cs)
        mid_sups.append(ms)
    return on_supports(conv_sups, point_index), on_supports(mid_sups, point_index)


def test_mid_vs_conventional_counts_and_condition():
    rng = np.random.default_rng(40)
    saw_holds = False
    for _ in range(80):
        m = int(rng.integers(1, 25))
        cs, ms = fet_pair_instance(rng, m)
        alpha = float(rng.uniform(0.05, 0.3))
        conv = bh_plus(cs, alpha=alpha)
        cmp_res = mid_vs_conventional(conv, ms, alpha=alpha)
        direct_m = bh_plus(ms, alpha=alpha)
        assert cmp_res.r_cp == conv.rejection_count
        assert cmp_res.r_mp == direct_m.rejection_count
        assert cmp_res.mid_result.rejection_count == cmp_res.r_mp
        assert cmp_res.condition_holds == (cmp_res.r_mp >= cmp_res.r_cp)
        if cmp_res.condition_holds:
            saw_holds = True
    assert saw_holds


def test_mid_vs_conventional_vacuous_when_no_conventional_rejection():
    sup_c = make_support([0.9, 1.0], [0.9, 1.0])
    sup_m = make_support([0.45, 0.95], [0.9, 1.0], flavor=MID)
    conv = bh_plus(on_supports([sup_c], [0]), alpha=0.05)
    assert conv.rejection_count == 0
    res = mid_vs_conventional(conv, on_supports([sup_m], [0]), alpha=0.05)
    assert res.r_cp == 0
    assert res.condition_holds


def test_mid_vs_conventional_rejects_mismatched_lengths():
    sup = make_support([0.5, 1.0], [0.5, 1.0])
    conv = bh_plus(on_supports([sup], [0]), alpha=0.1)
    mid_sup = make_support([0.25, 0.75], [0.5, 1.0], flavor=MID)
    with pytest.raises(ValueError):
        mid_vs_conventional(conv, on_supports([mid_sup, mid_sup], [0, 1]),
                            alpha=0.1)


def test_mid_vs_conventional_validates_mid_pvalues_once(monkeypatch):
    """The table's constructor is the one check; the step-ups re-check nothing."""
    from stepfdr import stepup
    calls = []
    original = stepup._validate_pvalues
    monkeypatch.setattr(stepup, "_validate_pvalues",
                        lambda p: calls.append(p) or original(p))
    rng = np.random.default_rng(42)
    cs, ms = fet_pair_instance(rng, 12)
    conv = bh_plus(cs, alpha=0.2)
    mid_vs_conventional(conv, ms, alpha=0.2)
    assert calls == []
    bh(cs.p, alpha=0.2)
    assert len(calls) == 1


def test_single_run_step_ups_pool_only_the_supports_their_tests_use():
    """A hand-built table that lists a support no test uses once pooled its
    CDF into F*: MidPBH+ rejected 4 here through `bh_plus` and
    `mid_vs_conventional`, but 5 through `run_procedures` on the same tests."""
    conv, mid = pvalue_table([14, 5, 2, 2, 9], [1, 15, 6, 5, 4])
    unused = pvalue_table([0], [2])[1].supports[0]
    padded = PValueTable(mid.supports + (unused,), mid.support_index, mid.point_index)
    alpha = 0.455
    r_mp = run_procedures(conv, mid, (alpha,)).rejection_count[2, 0, 0]
    assert r_mp == bh_plus(mid, alpha).rejection_count == 5
    assert bh_plus(padded, alpha).rejection_count == r_mp
    assert mid_vs_conventional(bh_plus(conv, alpha), padded, alpha).r_mp == r_mp


def test_build_max_cdf_pools_only_the_supports_the_tests_use():
    """A hand-built table whose only test sits on its first of three
    supports: F* from `build_max_cdf` once pooled all three and gave BH+
    the threshold 0.34375 against 0.25 without it."""
    supports = [bt_support(total, MID) for total in (2, 3, 9)]
    table = PValueTable(supports, [0, 0, 0], [0, 0, 0])
    alpha = 0.9
    want = bh_plus(table, alpha)
    got = bh_plus(table, alpha, max_cdf=build_max_cdf(table))
    assert want.threshold == 0.25
    assert (got.rejection_count, got.threshold) == (want.rejection_count, want.threshold)
    max_cdf = build_max_cdf(table)
    alone = build_max_cdf(PValueTable(supports[:1], [0, 0, 0], [0, 0, 0]))
    assert max_cdf.grid.tobytes() == alone.grid.tobytes()
    assert max_cdf.values.tobytes() == alone.values.tobytes()


def test_single_run_step_ups_sweep_the_table_without_a_max_cdf(monkeypatch):
    """With no `max_cdf` passed, `bh_plus` and `mid_vs_conventional` take F*
    from the table's supports directly, never through a MaxCdf, and count as
    `run_procedures` does."""
    from stepfdr import stepup

    def refuse(table):
        raise AssertionError("build_max_cdf called")

    conv, mid = pvalue_table([14, 5, 2, 2, 9], [1, 15, 6, 5, 4])
    alpha = 0.455
    want = run_procedures(conv, mid, (alpha,)).rejection_count[1:, 0, 0].tolist()
    monkeypatch.setattr(stepup, "build_max_cdf", refuse)
    conv_result = bh_plus(conv, alpha)
    assert [conv_result.rejection_count,
            mid_vs_conventional(conv_result, mid, alpha).r_mp] == want


def test_mid_never_accepts_larger_rank_than_conventional():
    """On paired exact supports the mid rejection count never exceeds
    the conventional one."""
    rng = np.random.default_rng(41)
    for _ in range(120):
        m = int(rng.integers(1, 30))
        cs, ms = fet_pair_instance(rng, m)
        alpha = float(rng.uniform(0.02, 0.3))
        conv = bh_plus(cs, alpha=alpha)
        res = mid_vs_conventional(conv, ms, alpha=alpha)
        assert res.r_mp <= res.r_cp

"""Tests for the Monte Carlo simulation harness."""

import ast
import dataclasses
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from exact_oracle import exact_pvalues
from stepfdr import pvalue, sim, stepup
from stepfdr.dist import hypergeometric_null
from stepfdr.errors import InvariantViolation
from stepfdr.sim import (
    SIM_ROW_FIELDS,
    SimConfig,
    gen_binomial_pair,
    gen_copula_uniforms,
    gen_poisson_pair,
    run_cell,
    run_grid,
    summaries_to_rows,
)
from stepfdr.stepup import PROCEDURES


def bt_config(**kwargs):
    base = dict(test="bt", pi0=0.5, alpha=0.05, eta=3.0, m=20, reps=3, seed=0)
    base.update(kwargs)
    return SimConfig(**base)


def fet_config(**kwargs):
    base = dict(test="fet", pi0=0.5, alpha=0.05, n=10, m=20, reps=3, seed=0)
    base.update(kwargs)
    return SimConfig(**base)


class TestSimConfigValidation:
    def test_bt_requires_eta_and_no_n(self):
        with pytest.raises(ValueError):
            SimConfig(test="bt", pi0=0.5, alpha=0.05, m=20)
        with pytest.raises(ValueError):
            SimConfig(test="bt", pi0=0.5, alpha=0.05, m=20, eta=3.0, n=10)

    def test_fet_requires_n_and_no_eta(self):
        with pytest.raises(ValueError):
            SimConfig(test="fet", pi0=0.5, alpha=0.05, m=20)
        with pytest.raises(ValueError):
            SimConfig(test="fet", pi0=0.5, alpha=0.05, m=20, n=10, eta=3.0)

    def test_unknown_test_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(test="tt", pi0=0.5, alpha=0.05, m=20, eta=3.0)

    @pytest.mark.parametrize("eta, problem", [(np.inf, "finite"), (np.nan, "> 0"),
                                              (-np.inf, "> 0"), (0.0, "> 0")])
    def test_eta_must_be_finite_and_positive(self, eta, problem):
        with pytest.raises(ValueError, match=f"eta must be {problem}, got {eta}"):
            bt_config(eta=eta)

    def test_pi0_m_must_be_integral(self):
        with pytest.raises(ValueError):
            bt_config(pi0=0.33, m=20)
        cfg = bt_config(pi0=0.45, m=20)
        assert cfg.m0 == 9
        assert cfg.m1 == 11

    def test_alpha_bounds(self):
        for bad in (0.0, 1.0, -0.2):
            with pytest.raises(ValueError):
                bt_config(alpha=bad)

    def test_block_geometry_must_match_m(self):
        for blocks in (3, 0, -4):
            with pytest.raises(ValueError, match="blocks must be >= 1 and divide m"):
                bt_config(dependence="block", blocks=blocks, m=20)
        assert bt_config(dependence="block", blocks=4, m=20).blocks == 4
        cfg = fet_config(dependence="block", n=np.int64(10), m=np.int64(20),
                         blocks=np.int64(4))
        assert cfg.m0 == 10

    @pytest.mark.parametrize("rho", [1.0, -0.1, np.nan])
    def test_block_rho_must_lie_in_the_unit_interval(self, rho):
        with pytest.raises(ValueError) as error:
            bt_config(dependence="block", rho=rho)
        assert str(error.value) == f"rho must lie in [0, 1), got {rho}"
        assert bt_config(rho=rho).rho is rho   # independence reads no rho

    def test_choice_fields(self):
        with pytest.raises(ValueError):
            bt_config(dependence="equicorrelated")
        with pytest.raises(ValueError):
            bt_config(copula_sharing="both")
        with pytest.raises(ValueError):
            bt_config(reps=0)
        with pytest.raises(ValueError):
            bt_config(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("n", 10.5), ("n", True), ("m", 20.0), ("reps", 2.5), ("reps", True),
        ("blocks", 2.5), ("seed", 1.5), ("seed", False), ("m", None),
        ("blocks", None), ("reps", None), ("seed", None)])
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer"):
            fet_config(dependence="block", **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("pi0", True), ("alpha", False), ("eta", True), ("rho", False),
        ("pi0", np.True_), ("alpha", "0.1"), ("eta", 3 + 0j), ("rho", None)])
    def test_levels_must_be_real_numbers(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be a real number"):
            bt_config(dependence="block", **{field: value})

    def test_levels_take_numpy_and_integer_reals(self):
        cfg = bt_config(pi0=np.float64(0.5), alpha=np.float32(0.125), eta=3, rho=0)
        assert cfg.m0 == cfg.m // 2


def test_gen_binomial_pair_theta_pattern():
    cfg = fet_config(m=200, pi0=0.5)
    rng = np.random.default_rng(5)
    theta, counts = gen_binomial_pair(cfg, rng)
    assert cfg.m0 == 100 and cfg.m1 == 100
    assert np.array_equal(theta[:100, 0], theta[:100, 1])
    assert np.all((theta[:100, 0] >= 0.2) & (theta[:100, 0] <= 0.3))
    assert np.all(theta[100:150] == (0.3, 0.75))
    assert np.all(theta[150:200] == (0.75, 0.3))
    assert counts.dtype == np.int64
    assert counts.shape == (200, 2)
    assert np.all((counts >= 0) & (counts <= cfg.n))


def test_gen_poisson_pair_theta_pattern():
    cfg = bt_config(m=200, pi0=0.5, eta=4.5)
    rng = np.random.default_rng(6)
    theta, counts = gen_poisson_pair(cfg, rng)
    assert cfg.m0 == 100 and cfg.m1 == 100
    assert np.all(theta >= 4.5)
    assert np.array_equal(theta[:100, 0], theta[:100, 1])
    ratio_hi = theta[100:150, 1] / theta[100:150, 0]
    ratio_lo = theta[150:200, 0] / theta[150:200, 1]
    for ratio in (ratio_hi, ratio_lo):
        assert np.all((ratio >= 3.0) & (ratio <= 5.5))
    assert counts.dtype == np.int64
    assert np.all(counts >= 0)


@pytest.mark.parametrize("family", ["poisson", "binomial"])
@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data(), spread=st.floats(-6.0, 12.0), free=st.floats(0.0, 1.0))
def test_count_ppf_is_the_smallest_k_reaching_u(family, data, spread, free):
    """u right at a CDF step and its float neighbours, 0, 1 and a free u,
    against the first k whose float CDF reaches u."""
    if family == "poisson":
        theta, n = data.draw(st.floats(0.1, 500.0)), None
        mean, sd = theta, np.sqrt(theta)
        cdf = special.pdtr(np.arange(int(theta + 20.0 * sd + 60.0)), theta)
    else:
        theta, n = data.draw(st.floats(0.01, 0.99)), data.draw(st.integers(1, 500))
        mean, sd = n * theta, np.sqrt(n * theta * (1.0 - theta))
        cdf = special.bdtr(np.arange(n + 1), n, theta)
    assert cdf[-1] == 1.0
    step = cdf[min(max(0, int(mean + spread * sd)), cdf.size - 1)]
    u = np.array([step, np.nextafter(step, 0.0), np.nextafter(step, 2.0),
                  0.0, 1.0, free]).clip(0.0, 1.0)
    want = np.argmax(cdf >= u[:, None], axis=1)   # first k reaching u
    got = sim._count_ppf(u, np.full(u.size, theta), n)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("test", ["bt", "fet"])
def test_count_ppf_matches_scipy_stats_on_harness_draws(monkeypatch, test):
    """40 replications of each block cell (eta or n, both sharing modes),
    generated by one block call per cell."""
    from scipy import stats

    seen = []
    inverse = sim._count_ppf

    def recorded(u, theta, n=None):
        seen.append((u, theta, n, k := inverse(u, theta, n)))
        return k

    monkeypatch.setattr(sim, "_count_ppf", recorded)
    config, gen, field, values = {
        "bt": (bt_config, gen_poisson_pair, "eta", (3.0, 4.5, 6.0)),
        "fet": (fet_config, gen_binomial_pair, "n", (10, 20, 30))}[test]
    for value in values:
        for sharing in ("shared", "per-group"):
            cfg = config(m=200, dependence="block", copula_sharing=sharing,
                         **{field: value})
            gen(cfg, [np.random.default_rng([11, r]) for r in range(40)])
    assert len(seen) == 3 * 2
    # Per-group inverts both columns; shared inverts each null row once.
    per_group = sum(u.size for u, *_ in seen[1::2])
    shared = sum(u.size for u, *_ in seen[::2])
    assert per_group == 3 * 40 * 200 * 2 and shared == 3 * 40 * (200 + 100)
    for u, theta, n, k in seen:
        want = stats.poisson.ppf(u, theta) if n is None else stats.binom.ppf(u, n, theta)
        np.testing.assert_array_equal(k, want.astype(np.int64))


@pytest.mark.parametrize("test", ["bt", "fet"])
@pytest.mark.parametrize("dependence", ["independent", "block"])
@pytest.mark.parametrize("sharing", ["shared", "per-group"])
@pytest.mark.parametrize("pi0", [0.0, 0.5, 1.0])
def test_stacked_generation_equals_each_replication_alone(test, dependence, sharing, pi0):
    """A sequence of generators gives each one's replication, byte for byte,
    stacked in order."""
    config, gen = {"bt": (bt_config, gen_poisson_pair),
                   "fet": (fet_config, gen_binomial_pair)}[test]
    cfg = config(pi0=pi0, dependence=dependence, copula_sharing=sharing)
    for reps in (1, 7, 20):
        theta, counts = gen(cfg, [np.random.default_rng([9, r]) for r in range(reps)])
        alone = [gen(cfg, np.random.default_rng([9, r])) for r in range(reps)]
        for got, want in ((theta, np.concatenate([t for t, _ in alone])),
                          (counts, np.concatenate([c for _, c in alone]))):
            assert got.dtype == want.dtype and got.shape == (reps * cfg.m, 2)
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("reps", [1, 7, 20])
def test_stacked_copula_uniforms_equal_each_generator_alone(reps):
    got = gen_copula_uniforms(4, 5, 0.3, [np.random.default_rng([2, r]) for r in range(reps)])
    want = np.stack([gen_copula_uniforms(4, 5, 0.3, np.random.default_rng([2, r]))
                     for r in range(reps)])
    assert got.shape == (reps, 20) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("theta, n, largest", [(1e30, None, "1e+30"),
                                               (np.inf, None, "inf"),
                                               (np.nan, None, "nan"),
                                               (0.5, 2 ** 64, "9.223372036854776e+18")])
def test_count_ppf_rejects_counts_beyond_int64(theta, n, largest):
    """A start that int64 cannot hold once wrapped to -2**63."""
    with pytest.raises(ValueError, match=re.escape(f"largest mean is {largest}") + "$"):
        sim._count_ppf(np.array([0.5, 0.9]), np.array([0.2, theta]), n)


def test_huge_eta_block_cell_fails_in_generation():
    """`SimConfig` refuses an eta of 2**63 or more; below it, alternatives
    3 to 5.5 times a Pareto mean >= 5e18 still pass int64 in generation."""
    with pytest.raises(ValueError, match=re.escape("eta must be below 2**63, got 1e+30")):
        bt_config(eta=1e30, dependence="block")
    with pytest.raises(ValueError, match="counts must stay below 2\\*\\*63"):
        run_cell(bt_config(eta=5e18, dependence="block"))


def test_gen_pair_rejects_wrong_test():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_poisson_pair(fet_config(), rng)
    with pytest.raises(ValueError):
        gen_binomial_pair(bt_config(), rng)


def test_copula_correlation_structure():
    rng = np.random.default_rng(7)
    draws = np.array([gen_copula_uniforms(2, 10, 0.2, rng)
                      for _ in range(4000)])
    assert draws.shape == (4000, 20)
    assert np.all((draws > 0) & (draws < 1))
    corr = np.corrcoef(draws, rowvar=False)
    within = corr[0, 1:10]
    across = corr[0, 10:]
    # Spearman-style correlation of the uniforms under rho = 0.2 is about
    # (6 / pi) * arcsin(rho / 2) = 0.191.
    assert within.mean() == pytest.approx(0.191, abs=0.04)
    assert abs(across.mean()) < 0.04


def test_copula_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        gen_copula_uniforms(0, 10, 0.2, rng)
    with pytest.raises(ValueError):
        gen_copula_uniforms(2, 10, 1.0, rng)
    # A bool once ran as one block, and 2.5 failed inside numpy with a TypeError.
    for blocks, block_size, name, bad in ((True, 10, "blocks", True), (2.5, 10, "blocks", 2.5),
                                          (2, True, "block_size", True),
                                          (2, 2.5, "block_size", 2.5)):
        with pytest.raises(ValueError) as error:
            gen_copula_uniforms(blocks, block_size, 0.2, rng)
        assert str(error.value) == f"{name} must be an integer, got {bad!r}"


def test_run_cell_deterministic():
    cfg = fet_config(m=40, pi0=0.5, reps=4, seed=11)
    s1 = run_cell(cfg)
    s2 = run_cell(cfg)
    assert s1.config.reps == 4
    for name in PROCEDURES:
        assert s1.stats[name] == s2.stats[name]


def test_run_cell_stats_are_sane():
    cfg = fet_config(m=40, pi0=0.5, n=30, alpha=0.2, reps=6, seed=2)
    summary = run_cell(cfg)
    for name in PROCEDURES:
        st = summary.stats[name]
        assert 0.0 <= st.fdr <= 1.0
        assert 0.0 <= st.power <= 1.0
        assert st.fdp_sd >= 0.0 and st.tdp_sd >= 0.0
    # Strong alternatives at n = 30 should be detected at least sometimes.
    assert summary.stats["BH+"].power > 0.0


def test_run_cell_single_rep_sd_is_zero():
    summary = run_cell(fet_config(reps=1))
    for name in PROCEDURES:
        assert summary.stats[name].fdp_sd == 0.0
        assert summary.stats[name].tdp_sd == 0.0


def test_run_cell_all_null_has_zero_power():
    summary = run_cell(fet_config(pi0=1.0, m=20, n=10, reps=5))
    for name in PROCEDURES:
        assert summary.stats[name].power == 0.0


def test_evaluate_mid_run_rejects_fewer_than_bh_plus_on_fixed_fet_instance():
    """Two alternatives, n = 30, alpha = 0.1: BH+ rejects one, MidPBH+ none.

    Test A = (13, 5) has P_A <= alpha / 2, so BH (= BH+) rejects it.  The
    mid max-CDF at Q_A also takes test B = (6, 2): its mid CDF at Q_A is the
    conventional p-value of B's largest tie class with mid p-value <= Q_A,
    which exceeds alpha / 2, so the mid run cannot accept rank 1; rank 2
    fails because P_B > alpha.  The counts are recomputed here from exact
    hypergeometric masses, independently of the p-value layer.
    """
    n, alpha = 30, Fraction(1, 10)
    counts = np.array([[13, 5], [6, 2]])
    oracle_a = exact_pvalues(hypergeometric_null(n, n, 18))
    oracle_b = exact_pvalues(hypergeometric_null(n, n, 8))
    p_a, q_a = oracle_a[13]
    p_b, _ = oracle_b[6]
    mid_cdf_b_at_q_a = max(p for p, q in oracle_b.values() if q <= q_a)
    assert p_a <= alpha / 2 < mid_cdf_b_at_q_a
    assert p_b > alpha

    conv, mid = pvalue.pvalue_table(counts[:, 0], counts[:, 1], n, n)
    assert conv.p.tolist() == [float(p_a), float(p_b)]
    runs = stepup.run_procedures(conv, mid, (float(alpha),))   # a batch of one
    tables = {pvalue.PValueFlavor.CONVENTIONAL: conv, pvalue.PValueFlavor.MID: mid}
    fdp, tdp = sim._fdp_tdp(runs, tables, m0=0, m1=2)
    bh, bh_plus, mid = zip(fdp[:, 0, 0].tolist(), tdp[:, 0, 0].tolist())
    assert bh == bh_plus == (0.0, 0.5)
    assert mid == (0.0, 0.0)


def blocks_of(monkeypatch, reps_per_block, m):
    """Make `sim` run `reps_per_block` replications of m tests per block."""
    monkeypatch.setattr(sim, "_BLOCK", reps_per_block * m)


def test_cell_sweeps_two_max_cdfs_per_block(monkeypatch):
    """One conventional and one mid F* sweep per block of replications
    serve every alpha and every replication of the block."""
    sweeps = []
    sweep = stepup._sweep
    monkeypatch.setattr(stepup, "_sweep", lambda parts, slots=None, reps=1: (
        sweeps.append(reps) or sweep(parts, slots, reps)))
    blocks_of(monkeypatch, 2, 20)
    grid = run_grid("bt", pi0s=(0.5,), alphas=(0.05, 0.1, 0.15, 0.2),
                    etas=(3.0,), ns=(), m=20, reps=5, seed=5)
    assert len(grid) == 4
    assert sweeps == [2, 2, 2, 2, 1, 1]


def test_run_grid_rejects_an_empty_alpha_grid(monkeypatch):
    """Before generating any data."""
    monkeypatch.setattr(sim, "_run_alphas", lambda *args: pytest.fail("a cell ran"))
    with pytest.raises(ValueError, match="^the alpha grid must not be empty$"):
        run_grid("bt", pi0s=(0.5,), alphas=(), etas=(3.0,), m=20, reps=5)


@pytest.mark.parametrize("test, grid", [("bt", {"pi0s": ()}), ("bt", {"etas": ()}),
                                        ("fet", {"ns": ()})], ids=["pi0", "eta", "n"])
def test_run_grid_rejects_an_empty_data_grid(monkeypatch, test, grid):
    """An empty pi0, eta or n grid once ran no cell and returned []."""
    monkeypatch.setattr(sim, "_run_alphas", lambda *args: pytest.fail("a cell ran"))
    name = {"pi0s": "pi0", "etas": "eta", "ns": "n"}[next(iter(grid))]
    with pytest.raises(ValueError, match=f"^the {name} grid must not be empty$"):
        run_grid(test, **grid, m=20, reps=5)


@pytest.mark.parametrize("alphas", [(0.1, 1.5), (0.1, 0.2, 0.0)], ids=["second", "last"])
def test_run_grid_checks_every_alpha_before_any_draw(monkeypatch, alphas):
    """A bad alpha past the first once surfaced only after a block of
    replications had been drawn and tabulated (inside a worker, under a pool)."""
    monkeypatch.setattr(sim, "gen_poisson_pair", lambda *args: pytest.fail("data drawn"))
    with pytest.raises(ValueError) as error:
        run_grid("bt", pi0s=(0.5,), alphas=alphas, etas=(3.0,), m=20, reps=5)
    assert str(error.value) == f"alpha must lie in (0, 1), got {alphas[-1]}"


def test_each_pvalue_table_sorts_once_per_cell(monkeypatch):
    """The step-ups of every alpha and every replication of a block share
    one sort of each flavor's p-values: one sort per flavor per block."""
    sorted_shapes = []
    sort = np.sort

    def counting(a, *args, **kwargs):
        if np.asarray(a).dtype.kind == "f":   # p-values, not integer keys
            sorted_shapes.append(np.shape(a))
        return sort(a, *args, **kwargs)

    monkeypatch.setattr(np, "sort", counting)
    blocks_of(monkeypatch, 2, 20)
    grid = run_grid("bt", pi0s=(0.5,), alphas=(0.05, 0.1, 0.15, 0.2),
                    etas=(3.0,), ns=(), m=20, reps=5, seed=5)
    assert len(grid) == 4
    assert sorted_shapes == [(2, 20)] * 4 + [(1, 20)] * 2


@pytest.mark.parametrize("test, dependence", [
    ("bt", "independent"), ("fet", "independent"), ("bt", "block"), ("fet", "block")])
def test_block_size_does_not_change_summaries(monkeypatch, test, dependence):
    """Blocks of 1 and 7 replications (the last block of 20 ragged) and one
    block for the whole cell give bit-identical summaries."""
    kwargs = dict(pi0s=(0.5, 0.8), alphas=(0.05, 0.2), etas=(3.0,), ns=(10,),
                  m=20, dependence=dependence, blocks=4, reps=20, seed=13)
    whole = run_grid(test, **kwargs)
    for reps_per_block in (1, 7):
        blocks_of(monkeypatch, reps_per_block, 20)
        for a, b in zip(whole, run_grid(test, **kwargs), strict=True):
            assert a.config == b.config
            assert a.stats == b.stats


@pytest.mark.parametrize("test", ["bt", "fet"])
def test_run_procedures_on_a_batch_equals_each_replication_alone(test):
    """Every count, threshold and condition of a batch's runs equals, bit
    for bit, that of the replication run as a batch of one."""
    m, reps, alphas = 30, 6, (0.05, 0.1, 0.3)
    config = (bt_config if test == "bt" else fet_config)(m=m)
    gen = gen_poisson_pair if test == "bt" else gen_binomial_pair
    counts = [gen(config, np.random.default_rng([4, r]))[1] for r in range(reps)]
    stacked = np.concatenate(counts)
    batch = stepup.run_procedures(
        *pvalue.pvalue_table(stacked[:, 0], stacked[:, 1], config.n, config.n),
        alphas, reps)
    assert batch.rejection_count.shape == batch.threshold.shape == (3, reps, 3)
    assert batch.rejection_count.any()
    for r, c in enumerate(counts):
        alone = stepup.run_procedures(
            *pvalue.pvalue_table(c[:, 0], c[:, 1], config.n, config.n), alphas)
        assert batch.rejection_count[:, r].tobytes() == alone.rejection_count[:, 0].tobytes()
        assert batch.threshold[:, r].tobytes() == alone.threshold[:, 0].tobytes()
        assert batch.condition_holds[r].tobytes() == alone.condition_holds[0].tobytes()


@st.composite
def scanned_batches(draw):
    """Random bt or fet tables of 2 to 5 replications, with counts small
    enough that no p-value reaches 1e-12, and alphas starting there."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    test = draw(st.sampled_from(["bt", "fet"]))
    m, reps = draw(st.integers(1, 40)), draw(st.integers(2, 5))
    if test == "bt":
        counts = rng.integers(0, rng.integers(1, 20), size=(reps * m, 2))
        tables = pvalue.pvalue_table(counts[:, 0], counts[:, 1])
    else:
        n = rng.integers(1, 15, size=(reps * m, 2))
        counts = rng.integers(0, n + 1)
        tables = pvalue.pvalue_table(counts[:, 0], counts[:, 1], n[:, 0], n[:, 1])
    alphas = [1e-12] + draw(st.lists(st.floats(0.001, 0.99), min_size=1, max_size=3))
    return tables, alphas, reps


@settings(max_examples=60, deadline=None, database=None)
@given(batch=scanned_batches())
def test_scanning_f_star_at_the_pvalues_equals_the_critical_value_scan(batch):
    """Every p-value is a point of its replication's grid and F* never
    falls, so the scan of F* at the sorted p-values gives, for all three
    procedures, R = max{k : p_(k) <= gamma_k} over the full (replications,
    alphas, m) grid of `stepup._gammas`, and the threshold gamma_R bit for
    bit; at alpha = 1e-12 no gamma is feasible."""
    (conv, mid), alphas, reps = batch
    runs = stepup.run_procedures(conv, mid, alphas, reps)
    m = conv.p.size // reps
    thresholds = stepup._thresholds(np.array(alphas), m)[None]
    for j, table in enumerate((conv, conv, mid)):
        gamma = np.broadcast_to(thresholds, (reps, *thresholds.shape[1:]))
        if j:
            gamma = stepup._gammas(stepup._sweep(table._parts, table.support_index, reps),
                                   thresholds)
            assert np.isnan(gamma[:, 0]).all()
        hits = np.sort(table.p.reshape(reps, m))[:, None, :] <= gamma
        r = np.where(hits, np.arange(1, m + 1), 0).max(axis=-1)
        assert runs.rejection_count[j].tolist() == r.tolist()
        want = np.where(r > 0, np.take_along_axis(gamma, np.maximum(r - 1, 0)[..., None],
                                                  axis=-1)[..., 0], np.nan)
        assert runs.threshold[j].tobytes() == want.tobytes()


def test_a_block_looks_critical_values_up_only_at_r(monkeypatch):
    """On a 20-replication block, each adaptive flavor asks `_gammas` for
    one critical value per (replication, alpha) pair, and the runs carry no
    per-rank critical values."""
    asked, gammas = [], stepup._gammas
    monkeypatch.setattr(stepup, "_gammas", lambda steps, thresholds: (
        asked.append(np.size(thresholds)) or gammas(steps, thresholds)))
    m, reps, alphas = 200, 20, (0.05, 0.1, 0.15, 0.2)
    counts = gen_poisson_pair(bt_config(m=m), [np.random.default_rng([5, r])
                                                for r in range(reps)])[1]
    runs = stepup.run_procedures(*pvalue.pvalue_table(counts[:, 0], counts[:, 1]),
                                 alphas, reps)
    assert "critical_values" not in runs._fields and runs.rejection_count.any()
    assert asked == [reps * len(alphas)] * 2


def test_replications_that_share_no_support_each_pool_their_own():
    """Two replications of three Fisher tests whose six margins are all
    distinct, so together they use every slot once: each replication's F*
    pools only its own supports, and the batch equals each run alone."""
    c1, c2, n1, n2 = (np.array(x) for x in ([7, 6, 2, 0, 4, 3], [3, 1, 1, 4, 11, 4],
                                            [8, 14, 3, 14, 5, 6], [11, 1, 12, 4, 13, 4]))
    batch = stepup.run_procedures(*pvalue.pvalue_table(c1, c2, n1, n2), (0.05, 0.5), 2)
    for r in range(2):
        rows = slice(3 * r, 3 * r + 3)
        alone = stepup.run_procedures(
            *pvalue.pvalue_table(c1[rows], c2[rows], n1[rows], n2[rows]), (0.05, 0.5))
        assert batch.rejection_count[:, r].tobytes() == alone.rejection_count[:, 0].tobytes()
        assert batch.threshold[:, r].tobytes() == alone.threshold[:, 0].tobytes()
    assert batch.rejection_count[:, 1, 1].tolist() == [2, 2, 2]


@pytest.mark.parametrize("reps", [1, 2, 7])
def test_summaries_equal_per_procedure_scalar_reductions(reps):
    """One mean and one sd reduction over each (procedures, replications)
    array give, bit for bit, the per-procedure scalar np.mean and np.std
    (ddof=1; 0.0 for one replication)."""
    rng = np.random.default_rng(reps)
    fdp = rng.integers(0, 9, size=(3, reps)) / rng.integers(1, 9, size=(3, reps))
    tdp = rng.random((3, reps)) / 3
    summary = sim._summarize(bt_config(reps=reps), fdp, tdp)
    for j, name in enumerate(PROCEDURES):
        sd = [float(np.std(x[j], ddof=1)) if reps > 1 else 0.0 for x in (fdp, tdp)]
        want = sim.ProcedureStats(fdr=float(np.mean(fdp[j])), fdp_sd=sd[0],
                                  power=float(np.mean(tdp[j])), tdp_sd=sd[1])
        assert summary.stats[name] == want
        assert all(type(v) is float for v in dataclasses.astuple(summary.stats[name]))


def test_run_grid_matches_run_cell_bitwise():
    grid = run_grid("fet", pi0s=(0.5, 0.8), alphas=(0.05, 0.2), ns=(10,),
                    etas=(), m=20, reps=3, seed=9)
    assert len(grid) == 4
    for summary in grid:
        single = run_cell(summary.config)
        for name in PROCEDURES:
            assert summary.stats[name] == single.stats[name]


def test_run_grid_order_is_pi0_param_alpha():
    grid = run_grid("bt", pi0s=(0.5, 0.9), alphas=(0.05, 0.1),
                    etas=(3.0, 6.0), ns=(), m=20, reps=1, seed=0)
    keys = [(s.config.pi0, s.config.eta, s.config.alpha) for s in grid]
    assert keys == [
        (0.5, 3.0, 0.05), (0.5, 3.0, 0.1),
        (0.5, 6.0, 0.05), (0.5, 6.0, 0.1),
        (0.9, 3.0, 0.05), (0.9, 3.0, 0.1),
        (0.9, 6.0, 0.05), (0.9, 6.0, 0.1),
    ]


def test_run_grid_workers_do_not_change_output():
    kwargs = dict(pi0s=(0.5, 0.8), alphas=(0.1,), ns=(10,), etas=(),
                  m=20, reps=3, seed=4)
    serial = run_grid("fet", **kwargs, workers=1)
    parallel = run_grid("fet", **kwargs, workers=2)
    assert len(serial) == len(parallel)
    for a, b in zip(serial, parallel):
        assert a.config == b.config
        for name in PROCEDURES:
            assert a.stats[name] == b.stats[name]


@pytest.mark.parametrize("workers, message", [
    (0, "workers must be >= 1, got 0"),
    (-3, "workers must be >= 1, got -3"),
    (True, "workers must be an integer, got True"),
    ("2", "workers must be an integer, got '2'"),
    (2.0, "workers must be an integer, got 2.0"),
], ids=["zero", "negative", "bool", "str", "float"])
def test_run_grid_refuses_a_worker_count_before_any_cell_runs(monkeypatch, workers, message):
    """0 and -3 once ran one process, True ran as 1, and "2" failed with a
    TypeError from a comparison."""
    def refuse(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(sim, "_run_alphas", refuse)
    with pytest.raises(ValueError) as error:
        run_grid("fet", pi0s=(0.5, 0.8), alphas=(0.1,), ns=(10,), m=20, reps=3,
                 workers=workers)
    assert str(error.value) == message


def test_block_dependence_runs_both_sharing_modes():
    for sharing in ("shared", "per-group"):
        cfg = fet_config(m=20, dependence="block", blocks=2,
                         copula_sharing=sharing, reps=2, seed=3)
        summary = run_cell(cfg)
        assert set(summary.stats) == set(PROCEDURES)


def test_invariant_violation_message_replays_its_replication(monkeypatch):
    """A failure injected into one (replication, alpha) pair of a block is
    reported for exactly that pair, the first failing one in (replication,
    alpha) order, and the message alone regenerates its counts."""
    alphas, m, per_block = (0.05, 0.1, 0.2), 40, 4
    failing = {(6, 1), (6, 2), (7, 0)}   # (replication, alpha index)
    generated, scans = [], []
    generate, scan = sim.gen_binomial_pair, stepup._scan

    def recording_generate(config, rngs):
        out = generate(config, rngs)
        generated.append(out[1])
        return out

    def over_rejecting_bh(p, f, thresholds, steps=None):
        """BH's scan, the first of each block's three, rejects all m tests
        at the failing pairs, which BH+ then cannot contain."""
        r, threshold, rejected = scan(p, f, thresholds, steps)
        block, procedure = divmod(len(scans), 3)
        scans.append(1)
        for rep, a in failing:
            if procedure == 0 and rep // per_block == block:
                r[rep % per_block, a] = rejected[rep % per_block, a] = m
                threshold[rep % per_block, a] = 1.0
        return r, threshold, rejected

    monkeypatch.setattr(sim, "gen_binomial_pair", recording_generate)
    monkeypatch.setattr(stepup, "_scan", over_rejecting_bh)
    blocks_of(monkeypatch, per_block, m)
    with pytest.raises(InvariantViolation) as info:
        run_grid("fet", pi0s=(0.7,), alphas=alphas, ns=(20,), etas=(), m=m,
                 dependence="block", blocks=4, rho=0.3,
                 reps=10, seed=7, copula_sharing="per-group")
    monkeypatch.undo()
    assert sum(len(c) for c in generated) == 2 * per_block * m and len(scans) == 2 * 3

    message = str(info.value)
    head = "adaptive step-up did not contain the classical rejection set at alpha=0.1: "
    assert message.startswith(head + "BH rejected 40, BH+ ")
    fields = {key: ast.literal_eval(value) for key, value in
              (item.split("=", 1)
               for item in message[message.index(" [") + 2:-1].split())}
    r = fields.pop("replication")
    config = SimConfig(**fields)
    assert (r, config.alpha) == (6, 0.1)
    _, counts = gen_binomial_pair(config, np.random.default_rng([config.seed, r]))
    generated = np.concatenate(generated)
    assert np.array_equal(counts, generated[r * m:(r + 1) * m])
    assert not np.array_equal(counts, generated[(r - 1) * m:r * m])


def test_summaries_to_rows_layout():
    grid = run_grid("fet", pi0s=(0.5,), alphas=(0.05,), ns=(10,), etas=(),
                    m=20, reps=2, seed=1)
    rows = summaries_to_rows(grid)
    assert len(rows) == 3
    assert [r["procedure"] for r in rows] == list(PROCEDURES)
    for row in rows:
        assert tuple(row) == SIM_ROW_FIELDS
        assert row["eta"] == ""
        assert row["n"] == 10
        assert row["test"] == "fet"
        assert row["reps"] == 2


def test_bt_rows_blank_out_n():
    summary = run_cell(bt_config(reps=1))
    row = summaries_to_rows([summary])[0]
    assert row["eta"] == 3.0
    assert row["n"] == ""

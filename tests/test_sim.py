"""Tests for the Monte Carlo simulation harness."""

import ast
import functools
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
    PROCEDURES,
    SIM_ROW_FIELDS,
    SimConfig,
    gen_binomial_pair,
    gen_copula_uniforms,
    gen_poisson_pair,
    run_cell,
    run_grid,
    summaries_to_rows,
)


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

    def test_choice_fields(self):
        with pytest.raises(ValueError):
            bt_config(dependence="equicorrelated")
        with pytest.raises(ValueError):
            bt_config(copula_sharing="both")
        with pytest.raises(ValueError):
            bt_config(reps=0)
        with pytest.raises(ValueError):
            bt_config(seed=-1)


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


@settings(max_examples=200, deadline=None, database=None)
@given(theta=st.floats(0.1, 500.0), spread=st.floats(-6.0, 12.0),
       free=st.floats(0.0, 1.0))
def test_poisson_ppf_is_the_smallest_k_reaching_u(theta, spread, free):
    """u right at a CDF step and its float neighbours, 0, 1 and a free u."""
    step = special.pdtr(max(0, int(theta + spread * np.sqrt(theta))), theta)
    u = np.array([step, np.nextafter(step, 0.0), np.nextafter(step, 2.0),
                  0.0, 1.0, free]).clip(0.0, 1.0)
    ks = np.arange(int(theta + 20.0 * np.sqrt(theta) + 60.0))
    cdf = special.pdtr(ks, theta)
    assert cdf[-1] == 1.0
    want = np.argmax(cdf >= u[:, None], axis=1)   # first k reaching u
    got = sim._poisson_ppf(u, np.full(u.size, theta))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_poisson_ppf_matches_scipy_stats_on_harness_draws(monkeypatch):
    from scipy import stats

    seen = []
    inverse = sim._poisson_ppf
    monkeypatch.setattr(sim, "_poisson_ppf",
                        lambda u, theta: seen.append((u, theta)) or inverse(u, theta))
    for eta in (3.0, 4.5, 6.0):
        for sharing in ("shared", "per-group"):
            cfg = bt_config(eta=eta, m=200, dependence="block",
                            copula_sharing=sharing)
            for r in range(40):
                gen_poisson_pair(cfg, np.random.default_rng([11, r]))
    u, theta = map(np.concatenate, zip(*seen))
    assert u.size == 3 * 2 * 40 * 400
    np.testing.assert_array_equal(inverse(u, theta),
                                  stats.poisson.ppf(u, theta).astype(np.int64))


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
    tables = (conv, mid, stepup.build_max_cdf(conv.supports),
              stepup.build_max_cdf(mid.supports))
    config = SimConfig(test="fet", pi0=0.0, alpha=float(alpha), m=2, n=n)
    bh, bh_plus, mid = sim._evaluate(tables, config, float(alpha))
    assert bh == bh_plus == (0.0, 0.5)
    assert mid == (0.0, 0.0)


def test_cell_builds_two_max_cdfs_per_replication(monkeypatch):
    """Each replication's two max-CDFs serve every alpha of its cell."""
    calls = []
    build = stepup.build_max_cdf
    monkeypatch.setattr(stepup, "build_max_cdf",
                        lambda supports: calls.append(1) or build(supports))
    grid = run_grid("bt", pi0s=(0.5,), alphas=(0.05, 0.1, 0.15, 0.2),
                    etas=(3.0,), ns=(), m=20, reps=3, seed=5)
    assert len(grid) == 4
    assert len(calls) == 2 * 3


def test_each_pvalue_table_sorts_once_per_cell(monkeypatch):
    """A table's order is cached, and the step-ups of every alpha share it."""
    conv, _ = pvalue.pvalue_table([3, 0, 7, 3], [1, 2, 2, 5])
    assert conv.order is conv.order and not conv.order.flags.writeable
    np.testing.assert_array_equal(conv.order, np.argsort(conv.p, kind="stable"))
    sorted_tables = []
    sort = pvalue.PValueTable.order.func
    counting = functools.cached_property(
        lambda table: sorted_tables.append(table) or sort(table))
    counting.__set_name__(pvalue.PValueTable, "order")
    monkeypatch.setattr(pvalue.PValueTable, "order", counting)
    grid = run_grid("bt", pi0s=(0.5,), alphas=(0.05, 0.1, 0.15, 0.2),
                    etas=(3.0,), ns=(), m=20, reps=3, seed=5)
    assert len(grid) == 4
    assert len(sorted_tables) == 2 * 3
    assert len({id(table) for table in sorted_tables}) == 2 * 3


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


def test_block_dependence_runs_both_sharing_modes():
    for sharing in ("shared", "per-group"):
        cfg = fet_config(m=20, dependence="block", blocks=2,
                         copula_sharing=sharing, reps=2, seed=3)
        summary = run_cell(cfg)
        assert set(summary.stats) == set(PROCEDURES)


def test_invariant_violation_message_replays_its_replication(monkeypatch):
    """The message alone regenerates the failing replication's counts."""
    alphas, fail_rep, fail_alpha = (0.05, 0.1, 0.2), 2, 0.1
    generated, calls = [], []
    generate, evaluate = sim._generate, sim._evaluate

    def recording_generate(config, rng):
        out = generate(config, rng)
        generated.append(out[0])
        return out

    def failing_evaluate(tables, config, alpha):
        calls.append(alpha)
        if len(generated) - 1 == fail_rep and alpha == fail_alpha:
            raise InvariantViolation("injected")
        return evaluate(tables, config, alpha)

    monkeypatch.setattr(sim, "_generate", recording_generate)
    monkeypatch.setattr(sim, "_evaluate", failing_evaluate)
    with pytest.raises(InvariantViolation) as info:
        run_grid("fet", pi0s=(0.7,), alphas=alphas, ns=(20,), etas=(), m=40,
                 dependence="block", blocks=4, rho=0.3,
                 reps=5, seed=7, copula_sharing="per-group")
    monkeypatch.undo()
    assert len(calls) == fail_rep * len(alphas) + 2

    message = str(info.value)
    assert message.startswith("injected [")
    fields = {key: ast.literal_eval(value) for key, value in
              (item.split("=", 1)
               for item in message[len("injected ["):-1].split())}
    r = fields.pop("replication")
    config = SimConfig(**fields)
    assert (r, config.alpha) == (fail_rep, fail_alpha)
    counts, _ = sim._generate(config, np.random.default_rng([config.seed, r]))
    assert np.array_equal(counts, generated[fail_rep])
    assert not np.array_equal(counts, generated[fail_rep - 1])


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

"""Tests for the exact null tables and the Pareto law of the simulation."""

import math
from fractions import Fraction

import numpy as np
import pytest

from stepfdr.dist import (
    DiscreteDistribution,
    Pareto,
    binomial_null,
    hypergeometric_null,
)


def test_binomial_null_n2_masses():
    d = binomial_null(2)
    assert list(d.support) == [0, 1, 2]
    assert d.numerators == (1, 2, 1)
    assert d.denominator == 4
    assert [Fraction(n, d.denominator) for n in d.numerators] == [
        Fraction(1, 4), Fraction(1, 2), Fraction(1, 4)]


def test_binomial_null_exact_sum():
    for n in range(0, 65):
        d = binomial_null(n)
        assert sum(d.numerators) == d.denominator


def test_binomial_null_symmetry():
    for n in range(0, 65):
        d = binomial_null(n)
        nums = d.numerators
        assert nums == nums[::-1], f"asymmetric table at n={n}"


def test_binomial_null_zero_is_point_mass():
    d = binomial_null(0)
    assert list(d.support) == [0]
    assert d.numerators == (1,)
    assert d.denominator == 1


def test_hypergeometric_unequal_margins():
    d = hypergeometric_null(3, 1, 2)
    assert list(d.support) == [1, 2]
    assert d.numerators == (3, 3)
    assert d.denominator == 6


def test_hypergeometric_support_bounds():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n1 = int(rng.integers(1, 12))
        n2 = int(rng.integers(1, 12))
        total = int(rng.integers(0, n1 + n2 + 1))
        d = hypergeometric_null(n1, n2, total)
        assert d.support[0] == max(0, total - n2)
        assert d.support[-1] == min(n1, total)
        assert sum(d.numerators) == d.denominator


def test_hypergeometric_against_fraction_oracle():
    """Match an independent big-integer evaluation on equal margins."""
    for n in range(1, 21):
        for total in range(0, 2 * n + 1):
            d = hypergeometric_null(n, n, total)
            denom = math.comb(2 * n, total)
            for x, num in zip(d.support, d.numerators):
                expected = Fraction(math.comb(n, int(x)) * math.comb(n, total - int(x)), denom)
                assert Fraction(num, d.denominator) == expected


@pytest.mark.parametrize("call, message", [
    (lambda: binomial_null(-1), "n must be >= 0, got -1"),
    (lambda: hypergeometric_null(2, -3, 1), "n2 must be >= 0, got -3"),
], ids=["binomial", "hypergeometric"])
def test_nulls_refuse_negative_sizes(call, message):
    with pytest.raises(ValueError) as error:
        call()
    assert str(error.value) == message


def test_hypergeometric_impossible_total():
    with pytest.raises(ValueError):
        hypergeometric_null(2, 2, 5)


def test_pareto_quantile():
    p = Pareto(3.0, 5.0)
    assert p.quantile(0.0) == 3.0
    u = 0.7
    assert p.quantile(u) == pytest.approx(3.0 * (1 - u) ** (-1 / 5), rel=1e-15)
    with pytest.raises(ValueError):
        p.quantile(1.0)


@pytest.mark.parametrize("eta, sigma", [(math.inf, 5.0), (3.0, math.inf), (math.nan, 5.0),
                                        (3.0, math.nan), (0.0, 5.0), (3.0, -1.0)])
def test_pareto_requires_finite_positive_parameters(eta, sigma):
    with pytest.raises(ValueError, match="finite eta > 0 and sigma > 0"):
        Pareto(eta, sigma)


@pytest.mark.parametrize("u", [math.nan, [0.5, math.nan], np.array([[math.nan]])],
                         ids=["scalar", "list", "array"])
def test_pareto_quantile_rejects_nan(u):
    with pytest.raises(ValueError, match=r"u must lie in \[0, 1\)"):
        Pareto(3.0, 5.0).quantile(u)


@pytest.mark.parametrize("u", ["0.5", [b"0.5"], True, np.array([Fraction(1, 2)]), 0.5 + 0j],
                         ids=["str", "bytes", "bool", "object", "complex"])
def test_pareto_quantile_refuses_what_is_not_a_real_number(u):
    """A float cast once parsed "0.5" to the quantile 1.414 of Pareto(1, 2)."""
    with pytest.raises(ValueError, match="^u must hold real numbers"):
        Pareto(1.0, 2.0).quantile(u)


def test_large_totals_build_exactly():
    """Totals whose smallest masses underflow a float still build exactly."""
    for d in (binomial_null(1075), binomial_null(2000),
              hypergeometric_null(700, 700, 700)):
        assert all(n > 0 for n in d.numerators)
        assert sum(d.numerators) == d.denominator
        assert d.numerators[0] / d.denominator == 0.0
    for n in (1075, 2000):
        nums = binomial_null(n).numerators
        assert len(nums) == n + 1
        assert nums == nums[::-1]


def test_numerators_equal_binomial_coefficient_products():
    """The exact recurrences give the math.comb products term by term."""
    for n in range(301):
        assert binomial_null(n).numerators == tuple(
            math.comb(n, x) for x in range(n + 1))
    rng = np.random.default_rng(17)
    for _ in range(300):
        n1, n2 = (int(v) for v in rng.integers(0, 301, size=2))
        total = int(rng.integers(0, n1 + n2 + 1))
        d = hypergeometric_null(n1, n2, total)
        assert d.numerators == tuple(math.comb(n1, x) * math.comb(n2, total - x)
                                     for x in list(d.support))


def test_tables_are_read_only():
    d = binomial_null(3)
    assert d == DiscreteDistribution(range(4), (1, 3, 3, 1), 8)
    with pytest.raises(AttributeError):
        d.support = range(5)
    with pytest.raises(TypeError):
        d.support[0] = 5

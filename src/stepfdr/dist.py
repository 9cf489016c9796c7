"""Exact discrete null distributions, plus the Pareto law of the simulation.

Null distributions for the two exact tests keep their probability masses as
big-integer numerators over a single common denominator so that downstream
tie classification compares integers, never floats.  No mass is ever held as
a float, so no table underflows, however large its total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

__all__ = [
    "DiscreteDistribution",
    "Pareto",
    "binomial_null",
    "hypergeometric_null",
]


def _check_int(value, name: str, least: int | None = None) -> int:
    """`value` as an int, or a ValueError naming `name` if it is not an
    integer or lies below `least`, when that is given: the one statement of
    every integer bound."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")
    return int(value)


def _check_float(values, name: str) -> np.ndarray:
    """`values` as float64, or a ValueError naming `name` unless they are
    ints, uints or floats (a cast would parse a string, count a bool or
    coerce an object)."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"{name} must hold real numbers, got dtype {raw.dtype}")
    return raw.astype(np.float64, copy=False)


class DiscreteDistribution(NamedTuple):
    """Exact masses numerators[i] / denominator of the outcomes support[i],
    each positive and summing to 1 (checked where `stepfdr.pvalue` sums them)."""

    support: range
    numerators: tuple[int, ...]
    denominator: int


@dataclass(frozen=True)
class Pareto:
    """Pareto law on [eta, inf) with tail exponent sigma (Type I)."""

    eta: float
    sigma: float

    def __post_init__(self) -> None:
        if not (0 < self.eta < np.inf and 0 < self.sigma < np.inf):   # NaN fails too
            raise ValueError("Pareto requires finite eta > 0 and sigma > 0")

    def quantile(self, u):
        u_arr = _check_float(u, "u")
        if not np.all((u_arr >= 0.0) & (u_arr < 1.0)):   # NaN fails both
            raise ValueError("u must lie in [0, 1)")
        out = self.eta * (1.0 - u_arr) ** (-1.0 / self.sigma)
        return float(out) if np.isscalar(u) or u_arr.ndim == 0 else out


def binomial_null(n: int) -> DiscreteDistribution:
    """Binomial(1/2, n): the null law of c1 given a fixed total c1 + c2 = n.

    Masses are C(n, x) / 2**n held exactly; n = 0 gives the point mass at 0.
    The numerators follow C(n, x+1) = C(n, x)(n - x)/(x + 1), whose
    division is exact.
    """
    n = _check_int(n, "n", 0)
    numerators = accumulate(range(n), lambda c, x: c * (n - x) // (x + 1),
                            initial=1)
    return DiscreteDistribution(range(n + 1), tuple(numerators), 1 << n)


def hypergeometric_null(n1: int, n2: int, m_total: int) -> DiscreteDistribution:
    """Central hypergeometric: the null law of c1 in a 2x2 table with fixed margins.

    Support runs over x in {max(0, m_total - n2), ..., min(n1, m_total)} with
    masses C(n1, x) * C(n2, m_total - x) / C(n1 + n2, m_total), held exactly.
    From the first, each numerator follows by the exact recurrence
    f(x+1) = f(x)(n1 - x)(m_total - x) / ((x + 1)(n2 - m_total + x + 1)).
    """
    n1 = _check_int(n1, "n1", 0)
    n2 = _check_int(n2, "n2", 0)
    m_total = _check_int(m_total, "m_total", 0)
    if m_total > n1 + n2:
        raise ValueError(
            f"m_total must lie in [0, n1 + n2], got {m_total} > {n1 + n2}")
    lo = max(0, m_total - n2)
    hi = min(n1, m_total)
    rest = n2 - m_total
    numerators = accumulate(
        range(lo, hi),
        lambda f, x: f * (n1 - x) * (m_total - x) // ((x + 1) * (rest + x + 1)),
        initial=math.comb(n1, lo) * math.comb(n2, m_total - lo))
    return DiscreteDistribution(range(lo, hi + 1), tuple(numerators),
                                math.comb(n1 + n2, m_total))

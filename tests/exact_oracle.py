"""Exact two-sided p-values on Fractions: the one oracle the tests share.

Everything here is recomputed from a null distribution's integer numerators,
independently of `stepfdr.pvalue`, which the oracle checks.
"""

from fractions import Fraction

from stepfdr.dist import binomial_null, hypergeometric_null


def null_of(margin):
    """The exact null of a margin: (total,) for bt, (n1, n2, total) for fet."""
    return binomial_null(*margin) if len(margin) == 1 else hypergeometric_null(*margin)


def tie_classes(dist):
    """(outcomes, l, e) per tie class of `dist`, in ascending mass order.

    l is the exact null mass strictly below the class and e the mass of the
    class itself, both Fractions.
    """
    outcomes_of = {}
    for num, x in zip(dist.numerators, list(dist.support)):
        outcomes_of.setdefault(num, []).append(x)
    classes = []
    below = Fraction(0)
    for num in sorted(outcomes_of):
        xs = outcomes_of[num]
        e = Fraction(num * len(xs), dist.denominator)
        classes.append((xs, below, e))
        below += e
    return classes


def exact_pvalues(dist):
    """{outcome: (P, Q)}: the exact conventional and mid p-value of each outcome."""
    return {x: (l + e, l + e / 2) for xs, l, e in tie_classes(dist) for x in xs}

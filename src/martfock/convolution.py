"""Convolution of coefficient functionals and the truncation-approximation
scheme built on it.

Convolution multiplies coefficient functions pointwise.  The family of
indicator functionals (coefficient 1 on every subset of {0,..,n}) convolves
any functional into its truncation, producing a martingale sequence that
approximates the original functional.
"""

from __future__ import annotations

import numpy as np

from .functionals import FockCoefficients, InsufficientOrderError
from .sequences import FunctionalSequence
from .subsets import FiniteSubset, TruncatedDomain, indicator, weight_vector


def convolve(a: FockCoefficients, b: FockCoefficients) -> FockCoefficients:
    """Pointwise product of coefficient functions; the support is contained
    in the intersection of the factors' supports."""
    bounds = [x.support_bound for x in (a, b) if x.support_bound is not None]
    bound = min(bounds) if bounds else None
    if a.rule is not None or b.rule is not None:
        return FockCoefficients(
            rule=lambda s: a.evaluate(s) * b.evaluate(s), support_bound=bound
        )
    table = {}
    b_table = dict(b.table_items())
    for sigma, value in a.table_items():
        if sigma in b_table:
            product = value * b_table[sigma]
            if product != 0:
                table[sigma] = product
    return FockCoefficients(table=table, support_bound=bound)


def all_ones() -> FockCoefficients:
    """The rule-backed functional with coefficient 1 at every subset (the
    convolution unit, and the limit of the indicator family)."""
    return FockCoefficients(rule=lambda s: 1.0, support_bound=None)


def indicator_functional(n: int, guard: int = 20) -> FockCoefficients:
    """Coefficient 1 at every subset of {0,..,n}, 0 elsewhere."""
    if not 0 <= n <= guard:
        raise ValueError(f"truncation level must lie in 0..{guard}, got {n}")
    table = {FiniteSubset(m): 1.0 + 0j for m in range(1 << (n + 1))}
    return FockCoefficients(table=table, support_bound=n)


def approximate(phi: FockCoefficients, n: int) -> FockCoefficients:
    """Truncation approximant: agrees with phi on subsets of {0,..,n} and
    vanishes elsewhere (convolution with the level-n indicator functional)."""
    return convolve(indicator_functional(n), phi)


def approximation_sequence(phi: FockCoefficients, levels: int) -> FunctionalSequence:
    """The martingale sequence of truncation approximants at levels 0..levels."""
    return FunctionalSequence([approximate(phi, n) for n in range(levels + 1)])


def approximation_residual(
    phi: FockCoefficients,
    n: int,
    q: float,
    domain: TruncatedDomain,
) -> float:
    """Dual-side norm of phi minus its level-n approximant over the domain:
    sqrt of the sum of weight^(-2q) |F|^2 over subsets outside {0,..,n}.

    Non-increasing in n, exactly 0 once n covers the domain.  q must exceed
    the functional's growth order by more than 1/2 for the untruncated
    residual series to converge.
    """
    return _residuals(phi, [n], q, domain)[0]


def residual_curve(
    phi: FockCoefficients,
    level: int,
    q: float,
    domain: TruncatedDomain,
) -> list[float]:
    """approximation_residual at every n = 0..level, from one pass."""
    return _residuals(phi, range(level + 1), q, domain)


def _residuals(phi, levels, q, domain) -> list[float]:
    """Residuals at the given levels from one vector of terms
    weight^(-2q) |F|^2: the subsets outside {0,..,n} are exactly the masks
    from 2^(n+1) on, so each level sums a suffix of that vector (an empty
    one once n >= max_index)."""
    if q <= 0.5:
        raise InsufficientOrderError(
            f"residual order q={q} too small; needs q > growth order + 1/2"
        )
    domain._check_guard()
    if all(n >= domain.max_index for n in levels):
        return [0.0 for _ in levels]
    values = phi.values_on(domain)
    terms = weight_vector(domain) ** (-2.0 * q) * np.abs(values) ** 2
    return [float(np.sqrt(np.sum(terms[1 << (n + 1):]))) for n in levels]

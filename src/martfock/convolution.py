"""Convolution of coefficient functionals and the truncation-approximation
scheme built on it.

Convolution multiplies coefficient functions pointwise.  The family of
indicator functionals (coefficient 1 on every subset of {0,..,n}) convolves
any functional into its truncation, producing a martingale sequence that
approximates the original functional.
"""

from __future__ import annotations

import numpy as np

from .functionals import FockCoefficients, InsufficientOrderError, _product
from .sequences import FunctionalSequence
from .subsets import TruncatedDomain, weight_vector

INDICATOR_MAX_LEVEL = 20


def convolve(a: FockCoefficients, b: FockCoefficients) -> FockCoefficients:
    """Pointwise product of coefficient functions; the support is contained
    in the intersection of the factors' supports."""
    bound = min((x.support_bound for x in (a, b) if x.support_bound is not None),
                default=None)
    if a.rule is not None or b.rule is not None:
        return FockCoefficients.from_rule(lambda s: a.evaluate(s) * b.evaluate(s), bound)
    masks, ia, ib = np.intersect1d(a._masks, b._masks, assume_unique=True,
                                   return_indices=True)
    return FockCoefficients._from_arrays(masks, _product(a._values[ia], b._values[ib]),
                                         bound)


def all_ones() -> FockCoefficients:
    """The rule-backed functional with coefficient 1 at every subset (the
    convolution unit, and the limit of the indicator family)."""
    return FockCoefficients(rule=lambda s: 1.0, support_bound=None)


def indicator_functional(n: int) -> FockCoefficients:
    """Coefficient 1 at every subset of {0,..,n}, 0 elsewhere."""
    if not 0 <= n <= INDICATOR_MAX_LEVEL:
        raise ValueError(f"truncation level must lie in 0..{INDICATOR_MAX_LEVEL}, got {n}")
    return FockCoefficients.from_vector(np.ones(2 << n, dtype=np.complex128), n)


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

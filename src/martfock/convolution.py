"""Convolution of coefficient functionals and the truncation-approximation
scheme built on it.

Convolution multiplies coefficient functions pointwise.  The family of
indicator functionals (coefficient 1 on every subset of {0,..,n}) convolves
any functional into its truncation, producing a martingale sequence that
approximates the original functional.  Convolutions and approximants of a
rule are rules again, computed at the masks they are read at; neither
builds an indicator table.  A truncation level is a domain index, 0..63:
TruncatedDomain refuses any other, before any plan or read, and only plan
refuses what is too big.
"""

from __future__ import annotations

import numpy as np

from .functionals import FockCoefficients, InsufficientOrderError, _product, float_checked
from .sequences import FunctionalSequence
from .subsets import TruncatedDomain, weighted_sums


def convolve(a: FockCoefficients, b: FockCoefficients) -> FockCoefficients:
    """Pointwise product of coefficient functions; the support is contained
    in the intersection of the factors' supports.  Two tables multiply at
    their common masks; with a rule, the product is the rule that
    multiplies a's values by b's at the masks read."""
    bound = min((x.support_bound for x in (a, b) if x.support_bound is not None),
                default=None)
    if a.rule is not None or b.rule is not None:
        return FockCoefficients._from_mask_rule(lambda m: _product(a._at(m), b._at(m)), bound)
    masks, ia, ib = np.intersect1d(a._masks, b._masks, assume_unique=True,
                                   return_indices=True)
    return FockCoefficients._from_arrays(masks, _product(a._values[ia], b._values[ib]),
                                         bound)


def all_ones() -> FockCoefficients:
    """The rule-backed functional with coefficient 1 at every subset (the
    convolution unit, and the limit of the indicator family)."""
    return FockCoefficients._from_mask_rule(lambda m: np.ones(m.size, np.complex128), None)


def indicator_functional(n: int) -> FockCoefficients:
    """Coefficient 1 at every subset of {0,..,n}, 0 elsewhere."""
    # the ones and the masks, held by the table as built (no caller holds
    # them, so they are not copied); the finite check brings the peak to 26
    domain = TruncatedDomain(n)
    domain.plan(32)
    return FockCoefficients._from_arrays(domain.masks(), np.ones(2 << n, np.complex128), n)


def approximate(phi: FockCoefficients, n: int) -> FockCoefficients:
    """Truncation approximant: agrees with phi on subsets of {0,..,n} and
    vanishes elsewhere (convolution with the level-n indicator functional).

    Neither backing builds the indicator.  A table keeps the prefix of its
    masks inside {0,..,n}, each value multiplied by 1 as the convolution
    multiplies it (so signed zeros round the same way).  A rule is
    convolved with the indicator written as a rule (1 below 2^(n+1), 0 from
    there on), so its approximant is a rule too, and each value is rounded
    as the indicator table's convolution rounded it (0 * -x is -0.0)."""
    domain = TruncatedDomain(n)
    if phi.rule is not None:
        return convolve(FockCoefficients._from_mask_rule(lambda m: (m < (2 << n)) + 0j, n), phi)
    masks, values = phi._entries_on(domain)
    return FockCoefficients._from_arrays(masks, _product(1.0, values),
                                         min(n, phi.support_bound))


def approximation_sequence(phi: FockCoefficients, levels: int) -> FunctionalSequence:
    """The martingale sequence of truncation approximants at levels 0..levels.
    levels is a domain index, refused (TruncatedDomain) before any approximant
    is built."""
    TruncatedDomain(levels)
    return FunctionalSequence([approximate(phi, n) for n in range(levels + 1)])


def approximation_residual(phi: FockCoefficients, n: int, q: float,
                           domain: TruncatedDomain) -> float:
    """Dual-side norm of phi minus its level-n approximant over the domain:
    sqrt of the sum of weight^(-2q) |F|^2 over subsets outside {0,..,n}.

    Non-increasing in n, exactly 0 once n covers the domain.  q must exceed
    the functional's growth order by more than 1/2 for the untruncated
    residual series to converge.  A call costs its kernels over the masks
    from 2^(n+1) on (the power, |F|^2 and the sum; see _residuals); no dense
    complex vector is built.
    """
    return _residuals(phi, range(n, n + 1), q, domain)[0]


def residual_curve(phi: FockCoefficients, level: int, q: float,
                   domain: TruncatedDomain) -> list[float]:
    """approximation_residual at every n = 0..level, from one vector of
    terms: one power and one |F|^2 per mask outside {0} (per entry there,
    for a sparse table), and one sum per level, with no dense complex
    vector."""
    return _residuals(phi, range(level + 1), q, domain)


def _residuals(phi, levels: range, q, domain) -> list[float]:
    """Residuals at a range of levels, 0..level or the one level n.  Its last
    level is refused unless it is a domain index, before any read, and so is
    every level.  The subsets outside {0,..,n} are exactly the masks from
    2^(n+1) on, so each level is the square root of
    subsets.weighted_sums at exponent -2q from that start (0.0 once
    n >= max_index, without a read when every level is), all from one
    vector of terms: over the masks from the least start on, or over the
    entries there for a sparse table, whose sums read only the entries.  A
    term or a sum that overflows raises ValueError."""
    if not q > 0.5:  # NaN too
        raise InsufficientOrderError(f"residual order q={q} too small; "
                                     "needs q > growth order + 1/2")
    TruncatedDomain(levels.stop - 1)
    if levels.start >= domain.max_index:
        return [0.0 for _ in levels]  # nothing outside {0,..,n} to read
    masks, values = phi._entries_on(domain)
    with float_checked(f"a residual term or sum at order q={q} overflows the float range"):
        sums = weighted_sums(masks, values, -2.0 * q, [1 << (n + 1) for n in levels], domain)
        return [float(np.sqrt(total)) for total in sums]

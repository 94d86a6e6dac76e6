"""Generalized functionals as sparse Fock-coefficient tables.

A functional is identified with its coefficient function on finite subsets
(the Fock transform determines the functional).  Tables are sparse: an absent
key means a coefficient of exactly zero.  A functional may instead be backed
by a total rule sigma -> complex, with the table acting as a memo cache.

Also here: the weighted Sobolev norm chain, the canonical pairing, and growth
certificates |F(sigma)| <= C * weight(sigma)^p with fitting and verification.
"""

from __future__ import annotations

import threading
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .subsets import (
    FiniteSubset,
    TruncatedDomain,
    full_series,
    indicator,
    weight_vector,
)

FOCK_FORMAT = "fock-coefficients/v1"


class InsufficientOrderError(ValueError):
    """Dual norm order too small for the certificate; the series may diverge."""


class FockCoefficients:
    """A generalized functional given by its coefficient table and/or rule.

    support_bound: smallest N with all nonzero coefficients on subsets of
    {0,..,N}, or None when unbounded (rule-backed analytic functionals).
    """

    def __init__(
        self,
        table: Optional[Mapping[FiniteSubset, complex]] = None,
        rule: Optional[Callable[[FiniteSubset], complex]] = None,
        support_bound: Optional[int] = None,
    ):
        self._table: dict[FiniteSubset, complex] = {}
        self.rule = rule
        self._lock = threading.Lock()
        if table:
            for sigma, value in table.items():
                if not isinstance(sigma, FiniteSubset):
                    raise TypeError(f"table key {sigma!r} is not a FiniteSubset")
                self._table[sigma] = complex(value)
        if rule is None:
            if support_bound is None:
                support_bound = 0
                for sigma in self._table:
                    top = sigma.max_element()
                    if top is not None:
                        support_bound = max(support_bound, top)
            else:
                for sigma in self._table:
                    if not indicator(sigma, support_bound):
                        raise ValueError(
                            f"table key {sigma!r} lies outside the declared "
                            f"support bound {support_bound}"
                        )
        self.support_bound = support_bound

    @classmethod
    def zero(cls) -> "FockCoefficients":
        return cls(table={})

    @classmethod
    def basis(cls, sigma: FiniteSubset) -> "FockCoefficients":
        """The functional with coefficient 1 at sigma and 0 elsewhere."""
        return cls(table={sigma: 1.0})

    @classmethod
    def from_rule(
        cls,
        rule: Callable[[FiniteSubset], complex],
        support_bound: Optional[int] = None,
    ) -> "FockCoefficients":
        return cls(rule=rule, support_bound=support_bound)

    def evaluate(self, sigma: FiniteSubset) -> complex:
        """Coefficient at sigma: table value, else rule value, else 0."""
        with self._lock:
            if sigma in self._table:
                return self._table[sigma]
        if self.rule is not None:
            value = complex(self.rule(sigma))
            with self._lock:
                self._table.setdefault(sigma, value)
            return value
        return 0j

    def values_on(self, domain: TruncatedDomain) -> np.ndarray:
        """Coefficients over the whole domain, ascending bitmask order."""
        values = np.zeros(domain.size, dtype=np.complex128)
        if self.rule is not None:
            for sigma in domain:
                values[sigma.mask] = self.evaluate(sigma)
        else:
            n = len(self._table)
            masks = np.fromiter((s.mask for s in self._table), np.uint64, n)
            table = np.fromiter(self._table.values(), np.complex128, n)
            inside = masks < domain.size
            if not inside.all():  # copy only when needed: copies raise peak RSS
                masks, table = masks[inside], table[inside]
            values[masks] = table
        return values

    def table_items(self) -> Iterable[tuple[FiniteSubset, complex]]:
        with self._lock:
            return list(self._table.items())

    def restricted(self, domain: TruncatedDomain) -> "FockCoefficients":
        """Table-backed restriction to the domain (zeros dropped)."""
        values = self.values_on(domain)
        table = {
            FiniteSubset(int(m)): complex(values[m])
            for m in np.nonzero(values)[0]
        }
        return FockCoefficients(table=table, support_bound=domain.max_index)

    def __add__(self, other: "FockCoefficients") -> "FockCoefficients":
        if self.rule is not None or other.rule is not None:
            bound = None
            if self.support_bound is not None and other.support_bound is not None:
                bound = max(self.support_bound, other.support_bound)
            return FockCoefficients(
                rule=lambda s: self.evaluate(s) + other.evaluate(s),
                support_bound=bound,
            )
        table = dict(self.table_items())
        for sigma, value in other.table_items():
            table[sigma] = table.get(sigma, 0j) + value
        table = {s: v for s, v in table.items() if v != 0}
        return FockCoefficients(table=table)

    def __sub__(self, other: "FockCoefficients") -> "FockCoefficients":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockCoefficients":
        if self.rule is not None:
            return FockCoefficients(
                rule=lambda s: scalar * self.evaluate(s),
                support_bound=self.support_bound,
            )
        return FockCoefficients(
            table={s: scalar * v for s, v in self.table_items() if scalar * v != 0},
            support_bound=self.support_bound,
        )

    __rmul__ = __mul__

    def equal_on(self, other: "FockCoefficients", domain: TruncatedDomain,
                 tol: float = 0.0) -> bool:
        """Pointwise coefficient equality over the domain, within tol."""
        return bool(
            np.max(np.abs(self.values_on(domain) - other.values_on(domain)),
                   initial=0.0) <= tol
        )

    def to_json_dict(self) -> dict:
        coefficients = []
        for sigma, value in sorted(self.table_items(), key=lambda kv: kv[0].mask):
            if value == 0:
                continue
            coefficients.append(
                {"sigma": sigma.to_json(), "re": value.real, "im": value.imag}
            )
        return {
            "format": FOCK_FORMAT,
            "support_bound": self.support_bound,
            "coefficients": coefficients,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockCoefficients":
        if data.get("format") != FOCK_FORMAT:
            raise ValueError(f"unexpected format field: {data.get('format')!r}")
        table: dict[FiniteSubset, complex] = {}
        for entry in data["coefficients"]:
            sigma = FiniteSubset.from_json(entry["sigma"])
            if sigma in table:
                raise ValueError(f"duplicate sigma {entry['sigma']!r} in file")
            table[sigma] = complex(entry["re"], entry["im"])
        return cls(table=table, support_bound=data.get("support_bound"))

    def __repr__(self) -> str:
        kind = "rule" if self.rule is not None else "table"
        return (f"FockCoefficients({kind}, support_bound={self.support_bound}, "
                f"cached={len(self._table)})")


@dataclass(frozen=True)
class GrowthCertificate:
    """Witness (scale, order) of the bound |F(sigma)| <= scale * weight^order,
    verified over domain_checked."""

    scale: float
    order: float
    domain_checked: Optional[TruncatedDomain] = None

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError(f"certificate scale must be >= 0, got {self.scale}")
        if self.order < 0:
            raise ValueError(f"certificate order must be >= 0, got {self.order}")

    def bound_at(self, weights: np.ndarray) -> np.ndarray:
        return self.scale * weights ** self.order


def sobolev_norm(phi: FockCoefficients, p: float, domain: TruncatedDomain) -> float:
    """Weighted l2 norm sqrt(sum weight^(2p) |F|^2) over the domain.

    p = 0 gives the plain L2 norm; negative p is the dual-side diagnostic on
    the truncated domain.  If the functional's support exceeds the domain the
    result is only a lower bound (a warning is emitted).
    """
    if phi.support_bound is None or phi.support_bound > domain.max_index:
        warnings.warn(
            "domain does not cover the functional's support; norm is a lower bound",
            stacklevel=2,
        )
    w = weight_vector(domain)
    values = phi.values_on(domain)
    total = float(np.sum(w ** (2.0 * p) * np.abs(values) ** 2))
    if not np.isfinite(total):
        warnings.warn("norm overflowed to infinity", stacklevel=2)
        return float("inf")
    return float(np.sqrt(total))


def dual_norm_bound(cert: GrowthCertificate, q: float) -> float:
    """Upper bound scale * sqrt(sum over ALL subsets of weight^(-2(q-order)))
    on the dual norm of any functional admitting the certificate.

    Requires q > order + 1/2 so the untruncated series converges.
    """
    if q <= cert.order + 0.5:
        raise InsufficientOrderError(
            f"dual order q={q} must exceed certificate order + 1/2 = {cert.order + 0.5}"
        )
    if cert.scale == 0:
        return 0.0
    return cert.scale * float(np.sqrt(full_series(2.0 * (q - cert.order))))


def pairing(phi: FockCoefficients, xi: FockCoefficients,
            domain: TruncatedDomain) -> complex:
    """Canonical bilinear pairing: sum over the domain of F_phi * c_xi.

    Bilinear (no conjugation); pairing phi against the basis functional at
    sigma returns phi's coefficient at sigma.
    """
    return complex(np.sum(phi.values_on(domain) * xi.values_on(domain)))


def fit_growth_values(
    abs_values: np.ndarray,
    weights: np.ndarray,
    p_grid: Iterable[float],
    domain: Optional[TruncatedDomain] = None,
) -> tuple[dict[float, float], Optional[GrowthCertificate]]:
    """Core of fit_growth, operating on |F| and weight vectors directly.

    For each grid order p, C(p) = max |F| * weight^(-p) (exact on the vectors).
    The selected certificate takes the smallest p whose maximizing subset has
    weight at most half the largest domain weight, a stability heuristic
    guarding against bounds driven by the truncation edge.
    """
    p_grid = list(p_grid)
    if not p_grid:
        raise ValueError("p_grid must be nonempty")
    if any(p < 0 for p in p_grid):
        raise ValueError("growth orders must be nonnegative")
    w_max = float(np.max(weights))
    curve: dict[float, float] = {}
    selected: Optional[GrowthCertificate] = None
    for p in sorted(p_grid):
        ratios = abs_values * weights ** (-float(p))
        idx = int(np.argmax(ratios))
        curve[p] = float(ratios[idx])
        if selected is None and weights[idx] <= w_max / 2.0:
            selected = GrowthCertificate(curve[p], p, domain)
    return curve, selected


def fit_growth(
    phi: FockCoefficients,
    domain: TruncatedDomain,
    p_grid: Iterable[float],
) -> tuple[dict[float, float], Optional[GrowthCertificate]]:
    """Fit the growth-bound curve p -> C(p) over the domain and select a
    stable certificate (see fit_growth_values)."""
    abs_values = np.abs(phi.values_on(domain))
    return fit_growth_values(abs_values, weight_vector(domain), p_grid, domain)


def verify_certificate(
    phi: FockCoefficients,
    cert: GrowthCertificate,
    domain: TruncatedDomain,
    rtol: float = 1e-12,
) -> tuple[bool, Optional[FiniteSubset]]:
    """Check |F(sigma)| <= scale * weight^order over the domain.

    Returns (True, None) or (False, witness) with a violating subset.  The
    relative slack rtol absorbs rounding in the weight powers.
    """
    abs_values = np.abs(phi.values_on(domain))
    bound = cert.bound_at(weight_vector(domain))
    bad = np.nonzero(abs_values > bound * (1.0 + rtol))[0]
    if bad.size == 0:
        return True, None
    worst = bad[int(np.argmax((abs_values - bound)[bad]))]
    return False, FiniteSubset(int(worst))

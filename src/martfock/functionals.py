"""Generalized functionals as sparse Fock-coefficient tables.

A functional is identified with its coefficient function on finite subsets
(the Fock transform determines the functional).  A table-backed functional
stores that function as two parallel arrays sorted by bitmask: uint64 masks
and complex128 values.  Tables are sparse: an absent mask means a coefficient
of exactly zero.  Table operations (sums, scalar multiples, restriction,
convolution, the dense vector over a domain, JSON output) are numpy
operations on the two arrays; FiniteSubset objects are made only where the
API hands out or takes in a subset (evaluate, table_items, the table=
adapter) and in the JSON form.  A functional may instead be backed by a total
rule sigma -> complex, whose values are memoised per subset.

The fock-coefficients/v1 loader is strict, like the other loaders that use
the json_* helpers here: wrong JSON types (a bool is not an int), malformed
subsets and non-finite numbers raise ValueError.

Also here: the weighted Sobolev norm chain, the canonical pairing, and growth
certificates |F(sigma)| <= C * weight(sigma)^p with fitting and verification.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from .subsets import (
    FiniteSubset,
    TruncatedDomain,
    full_series,
    json_mask,
    mask_elements,
    weight_vector,
)

FOCK_FORMAT = "fock-coefficients/v1"


class InsufficientOrderError(ValueError):
    """Dual norm order too small for the certificate; the series may diverge."""


def json_document(data, fmt: str) -> dict:
    """data, checked to be a JSON object whose format field is fmt."""
    if type(data) is not dict:
        raise ValueError(f"a {fmt} document must be a JSON object")
    if data.get("format") != fmt:
        raise ValueError(f"unexpected format field: {data.get('format')!r}")
    return data


def json_typed(value, kind: type, name: str):
    """value, checked to be of this JSON type (a bool is not an int)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def json_complex(rows: list) -> np.ndarray:
    """complex128 vector from JSON rows {"re": x, "im": y}.  Each part must be
    an int or a float (not a bool) and finite."""
    try:
        parts = [x for row in rows for x in (row["re"], row["im"])]
    except TypeError:
        raise ValueError("every row must be a JSON object") from None
    if any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, parts))):
        raise ValueError("re and im must be JSON numbers")
    try:
        flat = np.array(parts, dtype=np.float64)
    except OverflowError:
        raise ValueError("re or im exceeds the float range") from None
    if not np.isfinite(flat).all():
        raise ValueError("re and im must be finite")
    return flat.view(np.complex128)


def _product(a, b) -> np.ndarray:
    """Elementwise a * b by the textbook complex product, so every entry is
    rounded exactly as Python's complex multiply rounds it (numpy's complex
    multiply may fuse the multiply-adds)."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return np.stack([re, im], axis=-1).view(np.complex128)[..., 0]


class FockCoefficients:
    """A generalized functional given by its coefficient table or by a rule.

    A table is held as strictly ascending uint64 masks and their complex128
    values; table_items() lists it as (FiniteSubset, complex) pairs in
    ascending mask order.  A rule is evaluated on demand, and its values are
    memoised per subset (a rule-backed functional holds empty arrays).

    support_bound: smallest N with all nonzero coefficients on subsets of
    {0,..,N}, or None when unbounded (rule-backed analytic functionals).
    """

    def __init__(
        self,
        table: Optional[Mapping[FiniteSubset, complex]] = None,
        rule: Optional[Callable[[FiniteSubset], complex]] = None,
        support_bound: Optional[int] = None,
    ):
        if rule is not None and table is not None:
            raise ValueError("a functional has a table or a rule, not both")
        self.rule, self._memo = rule, {}
        table = table or {}
        for sigma in table:
            if not isinstance(sigma, FiniteSubset):
                raise TypeError(f"table key {sigma!r} is not a FiniteSubset")
        masks = np.fromiter((s.mask for s in table), np.uint64, len(table))
        values = np.fromiter(map(complex, table.values()), np.complex128, len(table))
        order = np.argsort(masks)
        self._adopt(masks[order], values[order], support_bound)

    def _adopt(self, masks: np.ndarray, values: np.ndarray,
               support_bound: Optional[int]) -> None:
        """Hold strictly ascending masks and their values.  A table's missing
        support bound is inferred from its largest mask; a given bound is
        checked against it."""
        self._masks, self._values = masks, values
        top = int(masks[-1]) if masks.size else 0
        if support_bound is None and self.rule is None:
            support_bound = max(top.bit_length() - 1, 0)
        elif support_bound is not None and (support_bound < 0 or top >> support_bound > 1):
            raise ValueError(f"declared support bound {support_bound} is negative "
                             f"or misses table key {FiniteSubset(top)!r}")
        self.support_bound = support_bound

    @classmethod
    def _from_arrays(cls, masks: np.ndarray, values: np.ndarray, support_bound: Optional[int],
                     drop_zeros: bool = True) -> "FockCoefficients":
        """Table-backed functional from strictly ascending masks and their
        values, with the zero values dropped unless drop_zeros is false."""
        phi, keep = cls(), (values != 0 if drop_zeros else slice(None))
        phi._adopt(masks[keep], values[keep], support_bound)
        return phi

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

    @classmethod
    def from_vector(cls, values: np.ndarray, support_bound: int) -> "FockCoefficients":
        """Table-backed functional from a dense coefficient vector indexed by
        bitmask; zero entries are dropped."""
        masks = np.flatnonzero(values)
        return cls._from_arrays(masks.astype(np.uint64),
                                values[masks].astype(np.complex128, copy=False),
                                support_bound, drop_zeros=False)

    def evaluate(self, sigma: FiniteSubset) -> complex:
        """Coefficient at sigma: the table value (0 if absent) or the rule
        value, computed once and then served from the memo."""
        if self.rule is None:
            i = self._masks.searchsorted(np.uint64(sigma.mask))
            return complex(self._values[i]) if sigma.mask in self._masks[i:i + 1] else 0j
        if sigma not in self._memo:
            self._memo[sigma] = complex(self.rule(sigma))
        return self._memo[sigma]

    def values_on(self, domain: TruncatedDomain) -> np.ndarray:
        """Coefficients over the whole domain, ascending bitmask order.  The
        domain's guard is checked before the vector is allocated."""
        domain._check_guard()
        if self.rule is not None:
            return np.fromiter(map(self.evaluate, domain), np.complex128, domain.size)
        values = np.zeros(domain.size, dtype=np.complex128)
        inside = self._masks.searchsorted(np.uint64(domain.size))  # a prefix
        values[self._masks[:inside]] = self._values[:inside]
        return values

    def _pairs(self) -> Iterable[tuple[int, complex]]:
        """(mask, coefficient) pairs in ascending mask order: the table, or
        the memoised values of a rule."""
        if self.rule is None:
            return zip(self._masks.tolist(), self._values.tolist())
        return sorted((s.mask, v) for s, v in self._memo.items())

    def table_items(self) -> Iterable[tuple[FiniteSubset, complex]]:
        """(subset, coefficient) pairs in ascending mask order (see _pairs)."""
        return [(FiniteSubset(m), v) for m, v in self._pairs()]

    def restricted(self, domain: TruncatedDomain) -> "FockCoefficients":
        """Table-backed restriction to the domain (zeros dropped)."""
        return FockCoefficients.from_vector(self.values_on(domain), domain.max_index)

    def __add__(self, other: "FockCoefficients") -> "FockCoefficients":
        if self.rule is not None or other.rule is not None:
            bounds = (self.support_bound, other.support_bound)
            return FockCoefficients.from_rule(
                lambda s: self.evaluate(s) + other.evaluate(s),
                None if None in bounds else max(bounds))
        masks = np.union1d(self._masks, other._masks)
        values = np.zeros(masks.size, dtype=np.complex128)
        values[masks.searchsorted(self._masks)] = self._values
        values[masks.searchsorted(other._masks)] += other._values
        return FockCoefficients._from_arrays(masks, values, None)

    def __sub__(self, other: "FockCoefficients") -> "FockCoefficients":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockCoefficients":
        if self.rule is not None:
            return FockCoefficients.from_rule(lambda s: scalar * self.evaluate(s),
                                              self.support_bound)
        return FockCoefficients._from_arrays(self._masks, _product(scalar, self._values),
                                             self.support_bound)

    __rmul__ = __mul__

    def equal_on(self, other: "FockCoefficients", domain: TruncatedDomain,
                 tol: float = 0.0) -> bool:
        """Pointwise coefficient equality over the domain, within tol."""
        difference = self.values_on(domain) - other.values_on(domain)
        return bool(np.max(np.abs(difference), initial=0.0) <= tol)

    def to_json_dict(self) -> dict:
        """The fock-coefficients/v1 document: nonzero coefficients in
        ascending mask order."""
        return {
            "format": FOCK_FORMAT,
            "support_bound": self.support_bound,
            "coefficients": [{"sigma": mask_elements(m), "re": v.real, "im": v.imag}
                             for m, v in self._pairs() if v != 0],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockCoefficients":
        json_document(data, FOCK_FORMAT)
        bound = data.get("support_bound")
        if bound is not None:
            json_typed(bound, int, "support_bound")
        rows = json_typed(data["coefficients"], list, "coefficients")
        values = json_complex(rows)
        masks = np.array([json_mask(row["sigma"]) for row in rows], dtype=np.uint64)
        order = np.argsort(masks)
        masks, values = masks[order], values[order]
        repeated = masks[1:][masks[1:] == masks[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate sigma {mask_elements(int(repeated[0]))} in file")
        return cls._from_arrays(masks, values, bound, drop_zeros=False)

    def __repr__(self) -> str:
        kind = "rule" if self.rule is not None else "table"
        return (f"FockCoefficients({kind}, support_bound={self.support_bound}, "
                f"cached={len(self._memo) + self._masks.size})")


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

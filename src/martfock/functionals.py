"""Generalized functionals as sparse Fock-coefficient tables.

A functional is identified with its coefficient function on finite subsets
(the Fock transform determines the functional).  A table-backed functional
stores that function as two parallel arrays sorted by bitmask: uint64 masks
and complex128 values.  Tables are sparse: an absent mask means a coefficient
of exactly zero.  Table operations (sums, scalar multiples, restriction,
convolution, the dense vector over a domain, JSON output) are numpy
operations on the two arrays.  Every table they build, and every table built
from a dense vector, comes from one factory, FockCoefficients._from_arrays,
which drops the zero values and otherwise holds the arrays it is given: a
restriction, an approximant or a scalar multiple may share its operand's
arrays.  No code writes a table's arrays once they are held, so sharing is
safe.  Zero values are left out in one place, _nonzero, which the factory
and the JSON output (to_document) share: formats writes every row it is
handed.  FiniteSubset objects are made only where the API hands out or takes
in a subset (evaluate, table_items, the table= argument, from_rule).  A
functional may instead be backed by a total rule: a function from an array
of uint64 masks to the complex128 coefficients there.  Sums, scalar
multiples, convolutions and approximants of a rule are rules that call their
operands' rules on the same masks.  A scalar rule sigma -> complex
(from_rule) is wrapped once into such a function, which memoises the scalar
values by mask; no other functional holds state.  A rule has no table: it is
read only over a domain (values_on, restricted), and table_items and the
JSON form refuse it.

The fock-coefficients/v1 document is read and written through formats.

Also here: the weighted Sobolev norm chain, the canonical pairing, and growth
certificates |F(sigma)| <= C * weight(sigma)^p with fitting and verification.
"""

from __future__ import annotations

import cmath
import contextlib
import functools
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

import numpy as np

from . import formats
from .subsets import FiniteSubset, TruncatedDomain, full_series, weight_vector, weighted_sums


class InsufficientOrderError(ValueError):
    """Dual norm order too small for the certificate; the series may diverge."""


@contextlib.contextmanager
def float_checked(message: str):
    """Context for numpy arithmetic that raises ValueError(message) where it
    overflows or makes an invalid value (such as inf - inf); a math function
    that overflows (OverflowError) raises it too."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except (FloatingPointError, OverflowError):
        raise ValueError(message) from None


def nonnegative(value: float, name: str) -> None:
    """The rule for a tolerance: ValueError naming the argument unless value
    is finite and >= 0 (NaN fails too)."""
    if not 0 <= value < np.inf:  # NaN too
        raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def growth_orders(p_grid: Iterable[float]) -> list[float]:
    """The rule for a grid of growth orders: its orders in ascending order,
    else ValueError for an empty grid or an order that is not finite and
    >= 0 (NaN fails too)."""
    orders = sorted(p_grid)
    if not orders:
        raise ValueError("p_grid must be nonempty")
    if not all(0 <= p < np.inf for p in orders):  # NaN too
        raise ValueError("growth orders must be finite and nonnegative")
    return orders


def _scalar_adapter(rule: Callable[[FiniteSubset], complex]) -> Callable[[np.ndarray], np.ndarray]:
    """The mask-array rule of a scalar rule sigma -> complex: each mask's
    value is computed once, from a FiniteSubset, and memoised by mask.  A
    value that is not finite raises ValueError naming the subset."""
    @functools.cache
    def value(mask: int) -> complex:
        z = complex(rule(FiniteSubset(mask)))
        if not cmath.isfinite(z):
            raise ValueError(f"rule value {z} at {FiniteSubset(mask)!r} is not finite")
        return z
    return lambda masks: np.fromiter(map(value, masks.tolist()), np.complex128, masks.size)


def _nonzero(masks: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """masks and values without the entries whose value is zero: the one
    place zero coefficients are left out.  Only a drop copies; with no zero
    value the arrays come back as given.  The zero test, values.all(),
    reduces in a fixed buffer rather than one bool per entry (NaN counts
    as nonzero, -0.0 as zero); only a drop builds the bools of keep."""
    if not values.all():
        keep = values != 0
        return masks[keep], values[keep]
    return masks, values


@float_checked("a coefficient product overflows the float range")
def _product(a, b) -> np.ndarray:
    """Elementwise a * b by the textbook complex product, so every entry is
    rounded exactly as Python's complex multiply rounds it (numpy's complex
    multiply may fuse the multiply-adds)."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    re, im = a.real * b.real - a.imag * b.imag, a.real * b.imag + a.imag * b.real
    return np.stack([re, im], axis=-1).view(np.complex128)[..., 0]


_sum = float_checked("a coefficient sum overflows the float range")(np.add)


# What reading any rule over a domain plans per mask: one plan for every
# rule, sized for the heaviest, an adapted scalar rule.  Its masks as Python
# ints, the memo entries and the values peak at 140-210 bytes per mask under
# tracemalloc at horizons 13 and 16 (all_ones and composites of it: 40-90).
RULE_READ_BYTES = 200


class FockCoefficients:
    """A generalized functional given by its coefficient table or by a rule.

    A table is held as strictly ascending uint64 masks and their complex128
    values; table_items() lists it as (FiniteSubset, complex) pairs in
    ascending mask order.  A rule (the rule attribute) maps an array of
    uint64 masks to their complex128 coefficients in one call; a
    rule-backed functional holds empty arrays and has no table.  from_rule
    takes a scalar rule sigma -> complex, which is adapted once.  _hold sets
    the state of every instance, holding its arrays as given;
    _from_arrays, the one factory of tables built from arrays, drops zeros
    and copies nothing else; _entries_on is the one reader of either
    backing over a domain.  Every coefficient is finite: _hold refuses a
    table value, and the scalar-rule adapter a rule value, that is NaN or
    infinite (ValueError naming the subset).

    support_bound: an upper bound N with all nonzero coefficients on
    subsets of {0,..,N}.  A declared bound is kept as given (from_vector,
    restricted, convolve and approximate declare one); a table without one
    takes the smallest N that covers every stored mask, a stored zero
    included.  None when unbounded (rule-backed analytic functionals).
    """

    def __init__(self, table: Optional[Mapping[FiniteSubset, complex]] = None,
                 support_bound: Optional[int] = None):
        table = table or {}
        for sigma in table:
            if not isinstance(sigma, FiniteSubset):
                raise TypeError(f"table key {sigma!r} is not a FiniteSubset")
        masks = np.fromiter((s.mask for s in table), np.uint64, len(table))
        values = np.fromiter(map(complex, table.values()), np.complex128, len(table))
        order = np.argsort(masks)
        self._hold(masks[order], values[order], None, support_bound)

    def _hold(self, masks: np.ndarray, values: np.ndarray, rule: Optional[Callable],
              support_bound: Optional[int]) -> "FockCoefficients":
        """Hold strictly ascending masks and their values, or a mask-array
        rule and empty arrays, and return self.  The arrays are held as
        given, not copied, and never written after.  A table's missing
        support bound is inferred from its largest mask; a given bound is
        checked against it.  A value that is not finite raises ValueError."""
        if not np.isfinite(values.view(np.float64)).all():  # real and imaginary parts
            at = np.flatnonzero(~np.isfinite(values))[0]
            raise ValueError(f"coefficient {values[at]} at {FiniteSubset(int(masks[at]))!r} "
                             "is not finite")
        self._masks, self._values, self.rule = masks, values, rule
        top = int(masks[-1]) if masks.size else 0
        if support_bound is None and rule is None:
            support_bound = max(top.bit_length() - 1, 0)
        elif support_bound is not None and (support_bound < 0 or top >> support_bound > 1):
            raise ValueError(f"declared support bound {support_bound} is negative "
                             f"or misses table key {FiniteSubset(top)!r}")
        self.support_bound = support_bound
        return self

    @classmethod
    def _from_arrays(cls, masks: np.ndarray, values: np.ndarray,
                     support_bound: Optional[int]) -> "FockCoefficients":
        """Table-backed functional from strictly ascending masks and their
        values, with the zero values dropped (_nonzero): the one factory of
        tables built from arrays.  Where no value is zero the arrays are held
        as given, so the table shares them (views included) and keeps them
        alive."""
        return cls.__new__(cls)._hold(*_nonzero(masks, values), None, support_bound)

    @classmethod
    def _from_mask_rule(cls, rule: Callable, support_bound: Optional[int]) -> "FockCoefficients":
        """Rule-backed functional from a mask-array rule (uint64 masks to
        complex128 values)."""
        return cls.__new__(cls)._hold(np.empty(0, np.uint64), np.empty(0, np.complex128),
                                      rule, support_bound)

    @classmethod
    def zero(cls) -> "FockCoefficients":
        return cls(table={})

    @classmethod
    def basis(cls, sigma: FiniteSubset) -> "FockCoefficients":
        """The functional with coefficient 1 at sigma and 0 elsewhere."""
        return cls(table={sigma: 1.0})

    @classmethod
    def from_rule(cls, rule: Callable[[FiniteSubset], complex],
                  support_bound: Optional[int] = None) -> "FockCoefficients":
        """Rule-backed functional from a scalar rule sigma -> complex, adapted
        once (see _scalar_adapter)."""
        return cls._from_mask_rule(_scalar_adapter(rule), support_bound)

    @classmethod
    def from_vector(cls, values: np.ndarray, support_bound: int) -> "FockCoefficients":
        """Table-backed functional from a dense coefficient vector indexed by
        bitmask; zero entries are dropped (_from_arrays).  The vector is
        copied first, so the table never aliases the caller's vector."""
        return cls._from_arrays(np.arange(values.size, dtype=np.uint64),
                                np.array(values, dtype=np.complex128), support_bound)

    def evaluate(self, sigma: FiniteSubset) -> complex:
        """Coefficient at sigma: _at of its one mask (a table's value found by
        searchsorted, 0 if absent; a rule's value from a one-mask call)."""
        return complex(self._at(np.array([sigma.mask], dtype=np.uint64))[0])

    def _at(self, masks: np.ndarray) -> np.ndarray:
        """Coefficients at the given uint64 masks: one call of the rule, or
        a searchsorted of the table from each side (0 where a mask is absent;
        nothing table-sized is allocated)."""
        if self.rule is not None:
            return self.rule(masks)
        first = self._masks.searchsorted(masks)
        hit = self._masks.searchsorted(masks, side="right") > first
        out = np.zeros(masks.size, dtype=np.complex128)
        out[hit] = self._values[first[hit]]
        return out

    def values_on(self, domain: TruncatedDomain) -> np.ndarray:
        """Coefficients over the whole domain, ascending bitmask order: the
        entries of _entries_on scattered into a planned zero vector."""
        domain.plan(16)
        masks, values = self._entries_on(domain)
        out = np.zeros(domain.size, dtype=np.complex128)
        out[masks.view(np.int64)] = values  # below 2^63 once planned
        return out

    def _entries_on(self, domain: TruncatedDomain) -> tuple[np.ndarray, np.ndarray]:
        """Ascending uint64 masks and their values, covering every nonzero
        coefficient in the domain.  A table gives the prefix of its arrays
        inside the domain, as held (nothing domain-sized is allocated); a
        rule gives every mask of the domain and its values there, from one
        call on domain.masks()."""
        if self.rule is None:
            inside = self._masks.searchsorted(np.uint64(domain.size - 1), side="right")
            return self._masks[:inside], self._values[:inside]
        domain.plan(RULE_READ_BYTES)
        masks = domain.masks()
        return masks, self.rule(masks)

    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The table's masks and values, ascending.  A rule has no table: it
        is read only over a domain (ValueError)."""
        if self.rule is not None:
            raise ValueError("a rule has no table; restrict it to a domain")
        return self._masks, self._values

    def table_items(self) -> Iterable[tuple[FiniteSubset, complex]]:
        """(subset, coefficient) pairs in ascending mask order (see _table)."""
        masks, values = self._table()
        return [(FiniteSubset(m), v) for m, v in zip(masks.tolist(), values.tolist())]

    def restricted(self, domain: TruncatedDomain) -> "FockCoefficients":
        """Table-backed restriction to the domain: the entries of _entries_on,
        zeros dropped (so a table without zeros shares its prefix arrays)."""
        return FockCoefficients._from_arrays(*self._entries_on(domain), domain.max_index)

    def __add__(self, other: "FockCoefficients") -> "FockCoefficients":
        if self.rule is not None or other.rule is not None:
            bounds = (self.support_bound, other.support_bound)
            return FockCoefficients._from_mask_rule(lambda m: _sum(self._at(m), other._at(m)),
                                                    None if None in bounds else max(bounds))
        masks = np.union1d(self._masks, other._masks)
        values = np.zeros(masks.size, dtype=np.complex128)
        values[masks.searchsorted(self._masks)] = self._values
        at = masks.searchsorted(other._masks)
        values[at] = _sum(values[at], other._values)
        return FockCoefficients._from_arrays(masks, values, None)

    def __sub__(self, other: "FockCoefficients") -> "FockCoefficients":
        return self + (-1.0) * other

    def __mul__(self, scalar: complex) -> "FockCoefficients":
        if not cmath.isfinite(scalar):
            raise ValueError(f"scalar {scalar} is not finite")
        if self.rule is not None:
            return FockCoefficients._from_mask_rule(lambda m: _product(scalar, self.rule(m)),
                                                    self.support_bound)
        return FockCoefficients._from_arrays(self._masks, _product(scalar, self._values),
                                             self.support_bound)

    __rmul__ = __mul__

    def equal_on(self, other: "FockCoefficients", domain: TruncatedDomain,
                 tol: float = 0.0) -> bool:
        """Pointwise coefficient equality over the domain, within tol (finite
        and >= 0, checked before the read; ValueError otherwise)."""
        nonnegative(tol, "tol")
        with np.errstate(over="ignore"):  # an infinite difference exceeds tol
            difference = np.abs(self.values_on(domain) - other.values_on(domain))
        return bool(np.max(difference, initial=0.0) <= tol)

    def to_document(self) -> dict:
        """The fock-coefficients/v1 document, for formats.write: the nonzero
        coefficients in ascending mask order (a rule has none; see _table).
        Its Table holds the table's own arrays unless a stored zero is
        dropped (_nonzero), since formats writes every row it is handed."""
        masks, values = _nonzero(*self._table())
        return {"format": formats.FOCK_FORMAT, "support_bound": self.support_bound,
                "coefficients": formats.Table(values, masks)}

    to_json_dict = formats.as_dict

    @classmethod
    def from_json_dict(cls, data: dict) -> "FockCoefficients":
        formats.json_document(data, formats.FOCK_FORMAT)
        bound = data.get("support_bound")
        if bound is not None:
            formats.json_typed(bound, int, "support_bound")
        table = formats.json_table(data["coefficients"], "coefficients", sigma=True)
        order = np.argsort(table.masks)
        masks, values = table.masks[order], table.values[order]
        repeated = masks[1:][masks[1:] == masks[:-1]]
        if repeated.size:
            raise ValueError(f"duplicate sigma {list(FiniteSubset(int(repeated[0])))} in file")
        return cls.__new__(cls)._hold(masks, values, None, bound)  # stored zeros kept

    def __repr__(self) -> str:
        kind = "rule" if self.rule is not None else "table"
        return (f"FockCoefficients({kind}, support_bound={self.support_bound}, "
                f"entries={self._masks.size})")


@dataclass(frozen=True)
class GrowthCertificate:
    """Witness (scale, order) of the bound |F(sigma)| <= scale * weight^order,
    verified over domain_checked."""

    scale: float
    order: float
    domain_checked: Optional[TruncatedDomain] = None

    def __post_init__(self):
        for name, value in (("scale", self.scale), ("order", self.order)):
            if not 0 <= value < np.inf:  # NaN too
                raise ValueError(f"certificate {name} must be >= 0 and finite, got {value}")

    def bound_at(self, weights: np.ndarray) -> np.ndarray:
        """scale * weight^order at each weight; ValueError if it overflows."""
        with float_checked(f"growth bound {self.scale!r} * weight^{self.order!r} "
                           "overflows the float range"):
            return self.scale * weights ** self.order


def sobolev_norm(phi: FockCoefficients, p: float, domain: TruncatedDomain) -> float:
    """Weighted l2 norm sqrt(sum weight^(2p) |F|^2) over the domain: the
    square root of subsets.weighted_sums at exponent 2p from mask 0, over
    phi's entries.  A table's norm plans 8 bytes per mask, the terms vector
    (a rule's read plans its own).

    p = 0 gives the plain L2 norm; negative p is the dual-side diagnostic on
    the truncated domain.  If the functional's support exceeds the domain the
    result is only a lower bound (a warning is emitted).  p must be finite;
    a term or a sum that overflows raises ValueError.
    """
    if not abs(p) < np.inf:  # NaN too
        raise ValueError(f"Sobolev order must be finite, got {p}")
    if phi.support_bound is None or phi.support_bound > domain.max_index:
        warnings.warn(
            "domain does not cover the functional's support; norm is a lower bound",
            stacklevel=2,
        )
    masks, values = phi._entries_on(domain)
    with float_checked(f"the Sobolev norm at order p={p} overflows the float range"):
        return float(np.sqrt(weighted_sums(masks, values, 2.0 * p, [0], domain)[0]))


def dual_norm_bound(cert: GrowthCertificate, q: float) -> float:
    """Upper bound scale * sqrt(sum over ALL subsets of weight^(-2(q-order)))
    on the dual norm of any functional admitting the certificate.

    Requires q > order + 1/2 so the untruncated series converges; a bound
    that overflows the float range raises ValueError.
    """
    if not q > cert.order + 0.5:  # NaN too
        raise InsufficientOrderError(f"dual order q={q} must exceed certificate "
                                     f"order + 1/2 = {cert.order + 0.5}")
    if cert.scale == 0:
        return 0.0
    with float_checked("the dual norm bound overflows the float range"):
        return float(cert.scale * np.sqrt(full_series(2.0 * (q - cert.order))))


def pairing(phi: FockCoefficients, xi: FockCoefficients,
            domain: TruncatedDomain) -> complex:
    """Canonical bilinear pairing: sum over the domain of F_phi * c_xi.

    Bilinear (no conjugation); pairing phi against the basis functional at
    sigma returns phi's coefficient at sigma.
    """
    with float_checked("the pairing overflows the float range"):
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
    against bounds driven by the truncation edge.  A C(p) that is not a
    finite float raises ValueError.  The grid is checked first
    (growth_orders).
    """
    p_grid = growth_orders(p_grid)
    w_max = float(np.max(weights))
    curve: dict[float, float] = {}
    selected: Optional[GrowthCertificate] = None
    for p in p_grid:
        ratios = abs_values * weights ** (-float(p))
        idx = int(np.argmax(ratios))
        curve[p] = float(ratios[idx])
        if not curve[p] < np.inf:  # NaN too
            raise ValueError(f"growth-bound scale C({p}) = {curve[p]} is not finite")
        if selected is None and weights[idx] <= w_max / 2.0:
            selected = GrowthCertificate(curve[p], p, domain)
    return curve, selected


def fit_growth(
    phi: FockCoefficients,
    domain: TruncatedDomain,
    p_grid: Iterable[float],
) -> tuple[dict[float, float], Optional[GrowthCertificate]]:
    """Fit the growth-bound curve p -> C(p) over the domain and select a
    stable certificate (see fit_growth_values).  The grid is checked
    (growth_orders) before the domain is read."""
    p_grid = growth_orders(p_grid)
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
    relative slack rtol (finite, >= 0) absorbs rounding in the weight powers.
    """
    nonnegative(rtol, "rtol")
    abs_values = np.abs(phi.values_on(domain))
    bound = cert.bound_at(weight_vector(domain))
    with np.errstate(over="ignore"):  # an infinite slack bound is exceeded by nothing
        bad = np.nonzero(abs_values > bound * (1.0 + rtol))[0]
    if bad.size == 0:
        return True, None
    worst = bad[int(np.argmax((abs_values - bound)[bad]))]
    return False, FiniteSubset(int(worst))

"""Finite subsets of the nonnegative integers, their multiplicative weights,
and truncated enumeration domains.

A subset sigma is stored as a bitmask over indices 0..63 (bit k set <=> k in
sigma).  The weight of sigma is the product of (k+1) over its elements, with
the empty set weighing 1.  Truncated domains enumerate every subset of
{0,..,N} in ascending bitmask order; this order is fixed because file formats
and sequence diagnostics depend on deterministic iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

MAX_INDEX = 63
DEFAULT_ENUMERATION_GUARD = 30


class DomainTooLargeError(ValueError):
    """Requested full enumeration beyond the configured memory guard."""


class InvalidExponentError(ValueError):
    """Series exponent outside the admissible range."""


@dataclass(frozen=True, order=True)
class FiniteSubset:
    """A finite subset of {0,..,63} in compact bitmask encoding."""

    mask: int = 0

    def __post_init__(self):
        if not isinstance(self.mask, int):
            raise TypeError(f"mask must be an int, got {type(self.mask).__name__}")
        if not 0 <= self.mask < (1 << (MAX_INDEX + 1)):
            raise ValueError(f"mask {self.mask:#x} outside the 64-bit index range")

    @classmethod
    def from_elements(cls, elements: Iterable[int]) -> "FiniteSubset":
        mask = 0
        for k in elements:
            if not 0 <= k <= MAX_INDEX:
                raise ValueError(f"element {k} outside supported index range 0..{MAX_INDEX}")
            if mask >> k & 1:
                raise ValueError(f"duplicate element {k}")
            mask |= 1 << k
        return cls(mask)

    @property
    def elements(self) -> tuple[int, ...]:
        return tuple(mask_elements(self.mask))

    def max_element(self) -> int | None:
        """Largest element, or None for the empty set."""
        if self.mask == 0:
            return None
        return self.mask.bit_length() - 1

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, k: int) -> bool:
        return 0 <= k <= MAX_INDEX and bool(self.mask >> k & 1)

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def union(self, other: "FiniteSubset") -> "FiniteSubset":
        return FiniteSubset(self.mask | other.mask)

    def isdisjoint(self, other: "FiniteSubset") -> bool:
        return self.mask & other.mask == 0

    def to_json(self) -> list[int]:
        """JSON form: ascending integer array, [] for the empty set."""
        return list(self.elements)

    @classmethod
    def from_json(cls, data: list[int]) -> "FiniteSubset":
        """Inverse of to_json; see json_mask for what is accepted."""
        return cls(json_mask(data))

    def __repr__(self) -> str:
        return f"FiniteSubset({{{', '.join(map(str, self.elements))}}})"


EMPTY = FiniteSubset(0)


# _BYTE_ELEMENTS[j][b]: the elements that byte value b contributes at byte j.
_BYTE_ELEMENTS = [[[k + 8 * j for k in range(8) if b >> k & 1] for b in range(256)]
                  for j in range(8)]


def mask_elements(mask: int) -> list[int]:
    """Elements of the subset with this bitmask (0 <= mask < 2^64), ascending
    (its JSON form); a new list, read off one byte at a time."""
    out: list[int] = []
    j = 0
    while mask > 0:
        out += _BYTE_ELEMENTS[j][mask & 255]
        mask >>= 8
        j += 1
    return out


def json_mask(data: list[int]) -> int:
    """Bitmask of a subset given in JSON form: a strictly ascending list of
    ints (bools excluded) in 0..63.  Raises ValueError for anything else."""
    if type(data) is not list:
        raise ValueError(f"subset must be a JSON array of ints, got {data!r}")
    mask = 0
    for k in data:
        if type(k) is not int:
            raise ValueError(f"subset element {k!r} is not an int")
        if not 0 <= k <= MAX_INDEX:
            raise ValueError(f"element {k} outside supported index range 0..{MAX_INDEX}")
        if mask >> k:
            raise ValueError(f"subset array must be strictly ascending: {data!r}")
        mask |= 1 << k
    return mask


@dataclass(frozen=True)
class TruncatedDomain:
    """All subsets of {0,..,max_index}, enumerated in ascending bitmask order."""

    max_index: int
    guard: int = field(default=DEFAULT_ENUMERATION_GUARD, compare=False)

    def __post_init__(self):
        if not 0 <= self.max_index <= MAX_INDEX:
            raise ValueError(f"max_index must lie in 0..{MAX_INDEX}, got {self.max_index}")

    @property
    def size(self) -> int:
        return 1 << (self.max_index + 1)

    def _check_guard(self):
        if self.max_index > self.guard:
            raise DomainTooLargeError(
                f"enumerating 2^{self.max_index + 1} subsets exceeds guard "
                f"max_index={self.guard}"
            )

    def __len__(self) -> int:
        return self.size

    def __contains__(self, sigma: FiniteSubset) -> bool:
        return sigma.mask < self.size

    def __iter__(self) -> Iterator[FiniteSubset]:
        self._check_guard()
        return (FiniteSubset(m) for m in range(self.size))

    def masks(self) -> np.ndarray:
        """All bitmasks of the domain, ascending (int64 vector)."""
        self._check_guard()
        return np.arange(self.size, dtype=np.int64)


def weight(sigma: FiniteSubset) -> int:
    """Multiplicative weight: product of (k+1) over elements, 1 for the empty set.

    Exact integer arithmetic; never overflows (Python integers are unbounded),
    but see log_weight for a float-scale variant.
    """
    return math.prod(k + 1 for k in sigma.elements)


def log_weight(sigma: FiniteSubset) -> float:
    """Natural log of the weight, for subsets whose exact weight is unwieldy."""
    return sum(math.log(k + 1) for k in sigma.elements)


def indicator(sigma: FiniteSubset, n: int) -> int:
    """1 if sigma is a subset of {0,..,n} (empty set included), else 0."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return 1 if sigma.mask < (1 << (n + 1)) else 0


def weight_vector(domain: TruncatedDomain) -> np.ndarray:
    """Weights of every subset in the domain, ascending bitmask order (float64).

    Built by doubling: the masks in [2^k, 2^(k+1)) weigh (k+1) times the
    masks below 2^k, so every weight is multiplied up from 1.0 in ascending k.
    That order is the contract: it fixes the rounding of products beyond the
    exact float64 range, bit for bit.
    """
    domain._check_guard()
    w = np.ones(domain.size)
    for k in range(domain.max_index + 1):
        w[1 << k : 2 << k] = w[: 1 << k] * (k + 1)
    return w


def weighted_series(p: float, domain: TruncatedDomain) -> float:
    """Sum of weight^(-p) over the domain, by direct enumeration.

    Converges (as max_index grows) for p > 1, with the closed upper bound
    exp(zeta(p)); for 0 < p <= 1 the truncated sum is still returned but no
    bound holds.
    """
    if not p > 0:  # NaN too
        raise InvalidExponentError(f"series exponent must be positive, got {p}")
    return float(np.sum(weight_vector(domain) ** (-float(p))))


def weighted_series_product(p: float, max_index: int) -> float:
    """Factorized form of the truncated series: prod_{k=1}^{N+1} (1 + k^-p).

    Independent of enumeration; used to cross-check weighted_series.
    """
    if not p > 0:  # NaN too
        raise InvalidExponentError(f"series exponent must be positive, got {p}")
    return math.prod(1.0 + k ** (-float(p)) for k in range(1, max_index + 2))


# Euler-Maclaurin for the Hurwitz zeta: the head length and the Bernoulli
# numbers B_2 .. B_24 as (numerator, denominator).  The head length is tuned:
# with 16 terms zeta(1.5), zeta(2) and zeta(3) come out correctly rounded, and
# full_series keeps bit for bit the values scipy.special.zeta gave it at s in
# {1.01, 1.5, 2, 3, 7.5, 40} (tests/test_subsets.py pins them).
_ZETA_HEAD = 16
_BERNOULLI = [(1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66), (-691, 2730), (7, 6),
              (-3617, 510), (43867, 798), (-174611, 330), (854513, 138),
              (-236364091, 2730)]
# B_2j / (2j)!, each correctly rounded (int / int division rounds once).
_ZETA_COEFFS = [n / (d * math.factorial(2 * j)) for j, (n, d) in enumerate(_BERNOULLI, 1)]


def zeta(s: float, a: float = 1.0) -> float:
    """Hurwitz zeta sum_{k>=0} (a+k)^-s for real s > 1 and a >= 1.

    Euler-Maclaurin summation (F. Johansson, Numer. Algorithms 69, 2015): the
    head terms (a+k)^-s for k < 16, the integral and half terms at x = a+16,
    and twelve Bernoulli corrections B_2j/(2j)! * s(s+1)..(s+2j-2) *
    x^(-s-2j+1).  The parts are added by one math.fsum, so the result is
    within about one ulp of the exact value.
    """
    x = a + _ZETA_HEAD
    t = x ** -s
    parts = [(a + k) ** -s for k in range(_ZETA_HEAD)]
    parts += [x ** (1.0 - s) / (s - 1.0), 0.5 * t]
    for i in range(2 * len(_ZETA_COEFFS) - 1):
        if t == 0.0:
            break  # every later correction underflows too (s may be infinite)
        t *= (s + i) / x
        if i % 2 == 0:
            parts.append(_ZETA_COEFFS[i // 2] * t)
    return math.fsum(parts)


def series_upper_bound(p: float) -> float:
    """Upper bound exp(sum_{k>=1} k^-p) on the full (untruncated) series; p > 1."""
    if p <= 1:
        raise InvalidExponentError(f"upper bound requires p > 1, got {p}")
    return math.exp(zeta(p))


def full_series(s: float, head_terms: int = 2000) -> float:
    """The untruncated series sum over ALL finite subsets of weight^(-s), s > 1.

    Equals the infinite product prod_{k>=1}(1 + k^-s).  Evaluated as a finite
    log-product plus the exact tail sum_{k>K} log(1 + k^-s) expanded in Hurwitz
    zeta values, so the truncation error is below double rounding.
    """
    if s <= 1:
        raise InvalidExponentError(f"full series requires exponent > 1, got {s}")
    k = np.arange(1, head_terms + 1, dtype=float)
    log_head = float(np.sum(np.log1p(k ** (-s))))
    log_tail = 0.0
    for j in range(1, 80):
        term = (-1.0) ** (j + 1) * zeta(j * s, head_terms + 1.0) / j
        log_tail += term
        if abs(term) < 1e-18:
            break
    return math.exp(log_head + log_tail)

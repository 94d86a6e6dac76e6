"""Finite subsets of the nonnegative integers, their multiplicative weights,
and truncated enumeration domains.

A subset sigma is stored as a bitmask over indices 0..63 (bit k set <=> k in
sigma).  The weight of sigma is the product of (k+1) over its elements, with
the empty set weighing 1.  Truncated domains enumerate every subset of
{0,..,N} in ascending bitmask order; this order is fixed because file formats
and sequence diagnostics depend on deterministic iteration.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_INDEX = 63
# The bytes one operation may plan for: an eighth of physical memory.  A
# whole-domain path peaks at no more than 4x its largest planned request, so
# an admitted call holds at most half of physical memory.
MEMORY_BUDGET = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 8


class DomainTooLargeError(ValueError):
    """An allocation was refused by admit before it was made: its planned
    bytes exceed MEMORY_BUDGET.  It is a domain-sized one (TruncatedDomain.plan)
    or the read of a file (formats.load_json)."""


def admit(what: str, count: int, bytes_each: int) -> None:
    """Admit an allocation of count things (what names them) at bytes_each
    bytes each, before it is made; DomainTooLargeError if the total exceeds
    MEMORY_BUDGET.  The library's one size check: the budget is read here,
    at each call, so a budget set after import applies."""
    if count * bytes_each > MEMORY_BUDGET:
        raise DomainTooLargeError(f"{what} at {bytes_each} bytes each need {count * bytes_each} "
                                  f"bytes, over the memory budget of {MEMORY_BUDGET} bytes")


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
        return tuple(k for k in range(self.mask.bit_length()) if self.mask >> k & 1)

    def max_element(self) -> int | None:
        """Largest element, or None for the empty set."""
        return self.mask.bit_length() - 1 if self.mask else None

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
        """Inverse of to_json; see formats.json_masks for what is accepted."""
        from .formats import json_masks  # here, so this module loads on its own
        return cls(int(json_masks([data])[0]))

    def __repr__(self) -> str:
        return f"FiniteSubset({{{', '.join(map(str, self.elements))}}})"


@dataclass(frozen=True)
class TruncatedDomain:
    """All subsets of {0,..,max_index}, enumerated in ascending bitmask order.

    Every domain-sized allocation is admitted by plan first; plan counts
    bytes only, so any max_index in 0..63 is admitted where nothing
    domain-sized is allocated.
    """

    max_index: int

    def __post_init__(self):
        if not 0 <= self.max_index <= MAX_INDEX:
            raise ValueError(f"max_index must lie in 0..{MAX_INDEX}, got {self.max_index}")

    @property
    def size(self) -> int:
        return 1 << (self.max_index + 1)

    def plan(self, bytes_per_mask: int) -> None:
        """Admit an operation that allocates bytes_per_mask bytes per mask of
        the domain, before it allocates them (see admit)."""
        admit(f"2^{self.max_index + 1} subsets", self.size, bytes_per_mask)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, sigma: FiniteSubset) -> bool:
        return sigma.mask < self.size

    def __iter__(self) -> Iterator[FiniteSubset]:
        self.plan(120)  # a FiniteSubset and a list slot per mask, if kept
        return (FiniteSubset(m) for m in range(self.size))

    def masks(self) -> np.ndarray:
        """All bitmasks of the domain, ascending (uint64, as table masks)."""
        self.plan(8)
        return np.arange(self.size, dtype=np.uint64)


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
    """1 if sigma is a subset of {0,..,n} (empty set included), else 0.  The
    level n is a domain index: TruncatedDomain refuses any other."""
    return 1 if sigma in TruncatedDomain(n) else 0


def weight_vector(domain: TruncatedDomain) -> np.ndarray:
    """Weights of every subset in the domain, ascending bitmask order (float64).

    Product contract: the weight of sigma is 1.0 times (k+1) for each k in
    sigma, multiplied in ascending order of k; that order fixes the rounding
    of products beyond the exact float64 range, bit for bit.  Built by
    coordinate_products with the factors (1, k+1).
    """
    domain.plan(8)
    return coordinate_products([(1.0, k + 1.0) for k in range(domain.max_index + 1)])


def coordinate_products(factors: Sequence[tuple[float, float]]) -> np.ndarray:
    """The products over coordinates, one per bitmask below 2^len(factors)
    (float64, unplanned): entry m is 1.0 times factors[k][bit k of m] for
    each k, multiplied in ascending k.  Built by doubling: the entries in
    [2^k, 2^(k+1)) are those below 2^k times factors[k][1], and then those
    below 2^k are multiplied by factors[k][0], unless it is 1.0 (exact)."""
    v = np.ones(1 << len(factors))
    for k, (low, high) in enumerate(factors):
        np.multiply(v[: 1 << k], high, out=v[1 << k : 2 << k])
        if low != 1.0:
            v[: 1 << k] *= low
    return v


@functools.cache
def _low_weights() -> np.ndarray:
    """weight_vector(TruncatedDomain(15)), read-only and built once, on first
    use: the 512 KB table of the weights below 2^16.  Its size is fixed, not
    domain-sized, so it is not planned."""
    w = coordinate_products([(1.0, k + 1.0) for k in range(16)])
    w.flags.writeable = False
    return w


def mask_weights(masks: np.ndarray, max_index: int) -> np.ndarray:
    """weight_vector(TruncatedDomain(max_index))[masks], bit for bit, without
    the whole-domain vector (masks: integers, each below 2^(max_index+1)).

    The low 16 bits index the one _low_weights table; each higher bit k then
    multiplies in (k+1), in ascending k.  That is the product order of
    weight_vector's doubling, so every weight rounds the same way.  A call
    costs the gather and one pass per bit above 15; the table is never
    rebuilt.
    """
    w = _low_weights()[masks & 0xFFFF]
    for k in range(16, max_index + 1):
        w *= np.where(masks >> k & 1, k + 1.0, 1.0)
    return w


def weighted_sums(masks: np.ndarray, values: np.ndarray, exponent: float,
                  starts: Sequence[int], domain: TruncatedDomain) -> list[float]:
    """The sum of weight^exponent |F|^2 over the masks from each start on, one
    float per start (0.0 from domain.size on), from one vector of terms at
    the masks from the least start on, which lies inside the domain.

    masks: strictly ascending integers inside the domain, and values the
    coefficients there, covering every nonzero in that range (as
    FockCoefficients._entries_on gives them).  Each sum is np.sum of the
    dense formula over the domain vectors (weight_vector(domain)[start:] **
    exponent * |values_on|^2), to the bits, with 0.0 at the masks without an
    entry (where the dense formula may multiply an overflowed power by 0).
    Where the entries fill the range (a dense table, every rule read) the
    weights are a slice of weight_vector (of the read-only low table up to
    2^16 masks), the terms are computed in place and each sum is np.sum of
    a slice.  Otherwise the terms are computed at the entries only and each
    sum is _pairwise_sum over them: no zeroed vector of the range, only the
    lanes of its tree (one float per 8 to 16 masks), laid out in closed
    form with a fixed number of numpy calls per sum.  Plans the terms
    vector.  The caller makes numpy raise on overflow; a sum that is not
    finite raises FloatingPointError here too, since np.abs flags no
    |value| past the float range."""
    domain.plan(8)
    starts = [min(s, domain.size) for s in starts]  # each sum from domain.size on is empty
    start = min(starts)
    first = masks.searchsorted(np.uint64(start))
    # int64: the same values once planned, and numpy indexes int64 faster
    masks, values = masks[first:].view(np.int64), values[first:]
    squares = np.abs(values) ** 2
    if masks.size == domain.size - start:  # ascending, so masks[i] == start + i
        weights = _low_weights() if domain.max_index < 16 else weight_vector(domain)
        terms = weights[start:domain.size] ** exponent
        terms *= squares
        sums = [float(np.sum(terms[s - start:])) for s in starts]
        if not math.isfinite(max(sums)):  # np.abs flags no |value| past the float range
            raise FloatingPointError("overflow encountered in a term")
        return sums
    terms = mask_weights(masks, domain.max_index) ** exponent * squares
    return [_pairwise_sum(masks[i:] - s, terms[i:], domain.size - s)
            for s, i in zip(starts, masks.searchsorted(starts))]


def _pairwise_sum(positions: np.ndarray, terms: np.ndarray, length: int) -> float:
    """np.sum of a float64 vector of the given length that holds the terms
    (each >= 0) at the positions (ascending int64) and 0.0 elsewhere, to the
    bits, reading only the terms.

    numpy sums a contiguous vector pairwise (N. J. Higham, SIAM J. Sci.
    Comput. 14, 1993): a block of more than 128 values splits at half its
    groups of 8, rounded down, so the right half takes the odd group and the
    length % 8 leftovers.  A leaf block sums its values in 8 lanes in
    position order, adds the lanes as ((0+1)+(2+3))+((4+5)+(6+7)), then the
    leftovers one at a time.  With D >= 1 the first depth at which every
    block is a leaf, the leaves lie at depths D-1 and D; a leaf at D-1
    passes down as itself and an empty block (x + 0.0 is x for x >= 0, and
    so is every sum of an empty block), so one bincount gives the lanes of
    the 2^D blocks at depth D and D halving adds combine them.  The blocks
    at depth D-1 come from _layout in closed form and each entry's block
    from _blocks_of, so a sum costs a fixed number of numpy calls on arrays
    of its entries and of its 2^(D-1) blocks (one per 120 to 256 values),
    plus the D adds.  bincount checks no float status, so a sum that passes
    the float range raises FloatingPointError here, as np.sum does under
    np.errstate(over="raise") (the terms, >= 0 and finite, can only
    overflow).  tests/test_subsets.py::TestPairwiseSum pins this against
    np.sum, and against a model of numpy's recursion past its reach."""
    groups, leftovers = divmod(length, 8)
    starts, splits = _layout(groups, leftovers)
    at = positions[: positions.searchsorted(8 * groups)]  # the grouped entries
    group = at >> 3
    block = _blocks_of(group, starts)  # its block at depth D-1
    leaf = 2 * block + (group >= splits[block])  # its block at depth D
    lanes = np.bincount((at & 7) * (2 * splits.size) + leaf, terms[: at.size], 16 * splits.size)
    lanes = lanes.astype(np.float64, copy=False).reshape(8, -1)  # int64 when no terms
    for step in (1, 2, 4):  # ((0+1)+(2+3))+((4+5)+(6+7)) for every block, in place
        lanes[0::2 * step] += lanes[step::2 * step]
    sums = lanes[0]
    last = 2 * splits.size - 2 + int(splits[-1] < groups)  # the leftovers' block
    for term in terms[at.size :]:
        sums[last] += term
    while sums.size > 1:  # the tree, a depth at a time
        sums = sums[0::2] + sums[1::2]
    total = float(sums[0])
    if not math.isfinite(total):  # the terms are finite, so the sum overflowed
        raise FloatingPointError("overflow encountered in the pairwise sum")
    return total


def _layout(groups: int, leftovers: int) -> tuple[np.ndarray, np.ndarray]:
    """The blocks at depth D-1 of numpy's pairwise tree over groups groups
    of 8 and then leftovers values (D as in _pairwise_sum): the first group
    of each block and then groups (starts, int64), and the first group of
    each block's right child at depth D (splits; the block's end when it is
    a leaf, whose right child is empty).

    Halving g groups d times, the left half taking the floor, leaves block
    i at depth d with (g >> d) + [rev_d(i) >= 2^d - g mod 2^d] groups, where
    rev_d reverses the d low bits (by induction on d: rev_(d+1)(2i) is
    rev_d(i) and rev_(d+1)(2i+1) is 2^d + rev_d(i)).  The rightmost block
    is the largest and takes the leftovers."""
    # D - 1: at depth D the rightmost block, with ceil(g / 2^D) groups, is
    # the first to be a leaf, of at most 16 groups or 15 and the leftovers
    m = max(1, (-(-groups // (16 - (leftovers > 0))) - 1).bit_length()) - 1
    blocks = (_reversal(m) >= (1 << m) - groups % (1 << m)) + (groups >> m)
    halves = blocks >> (blocks > 16)  # the groups of the left child
    halves[-1] = blocks[-1] >> (8 * blocks[-1] + leftovers > 128)
    starts = np.concatenate(([0], blocks)).cumsum()
    return starts, starts[:-1] + halves


def _blocks_of(group: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """starts.searchsorted(group, "right") - 1 for groups (int64, each below
    starts[-1]) in a _layout, without the binary search: a group x of g in
    2^m blocks is guessed at its share, floor(x 2^m / g), and corrected by
    one block either way.  One is enough: the starts of a bit-reversal
    layout lie within m/3 + 1 groups of their shares i g / 2^m (the star
    discrepancy of the van der Corput sequence; R. Bejian and H. Faure,
    C. R. Acad. Sci. Paris 285, 1977), and a block at depth D-1 holds more
    than 15 groups on average, so for m < 42 (far past any lanes array
    that fits in memory) the guess is off by one block at most."""
    guess = (group * ((starts.size - 1) / max(starts[-1], 1))).astype(np.int64)
    return guess - 1 + (group >= starts[guess]) + (group >= starts[guess + 1])


@functools.cache
def _byte_reversal() -> np.ndarray:
    """The 8-bit reversal of every byte: the 2 KB int64 table that
    _reversal composes, read-only and built once, on first use."""
    reversed_ = np.array([int(f"{byte:08b}"[::-1], 2) for byte in range(256)])
    reversed_.flags.writeable = False
    return reversed_


def _reversal(m: int) -> np.ndarray:
    """rev_m(i), the m low bits of i in reverse order, for every i below
    2^m (int64), a byte at a time: the low byte of i, reversed, leads."""
    if m <= 8:
        return _byte_reversal()[: 1 << m] >> (8 - m)
    return ((_byte_reversal() << (m - 8)) + _reversal(m - 8)[:, None]).ravel()


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
    """Upper bound exp(sum_{k>=1} k^-p) on the full (untruncated) series; p > 1.
    A bound past the float range, for p just above 1, raises ValueError."""
    if not p > 1:  # NaN too
        raise InvalidExponentError(f"upper bound requires p > 1, got {p}")
    try:
        return math.exp(zeta(p))
    except OverflowError:
        raise ValueError(f"upper bound at p={p} overflows the float range") from None


_SERIES_HEAD = 2000  # factors of full_series multiplied out before the zeta tail


def full_series(s: float) -> float:
    """The untruncated series sum over ALL finite subsets of weight^(-s), s > 1.

    Equals the infinite product prod_{k>=1}(1 + k^-s).  Evaluated as a finite
    log-product plus the exact tail sum_{k>K} log(1 + k^-s) expanded in Hurwitz
    zeta values, so the truncation error is below double rounding.
    """
    if not s > 1:  # NaN too
        raise InvalidExponentError(f"full series requires exponent > 1, got {s}")
    k = np.arange(1, _SERIES_HEAD + 1, dtype=float)
    log_head = float(np.sum(np.log1p(k ** (-s))))
    log_tail = 0.0
    for j in range(1, 80):
        term = (-1.0) ** (j + 1) * zeta(j * s, _SERIES_HEAD + 1.0) / j
        log_tail += term
        if abs(term) < 1e-18:
            break
    return math.exp(log_head + log_tail)

"""Exact probabilistic model: the symmetric Rademacher walk on the sign cube.

The sample space at horizon N is {-1,+1}^(N+1) with uniform (dyadic) point
masses.  Point m (a bitmask) has coordinate k equal to -1 when bit k of m is
set.  The Walsh functions (products of coordinates over a finite subset) form
an orthonormal basis, so the chaos expansion of any square-integrable
functional is computed exactly by a fast Walsh-Hadamard transform.  The
transform, the chaos expansion, both conditional expectations and the
inner product return finite values or raise one ValueError.  The
normal-martingale verifier's report is a document that formats renders,
as a functional is.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import formats
from .functionals import FockCoefficients, float_checked, nonnegative
from .subsets import FiniteSubset, TruncatedDomain, coordinate_products


class OutOfHorizonError(ValueError):
    """A subset or index refers to coordinates beyond the sample space horizon."""


@dataclass(frozen=True)
class SampleSpace:
    """The cube {-1,+1}^(horizon+1) with uniform probability."""

    horizon: int

    def __post_init__(self):
        self.domain().plan(16)  # one complex128 value per point

    @property
    def size(self) -> int:
        return 1 << (self.horizon + 1)

    def signs(self, k: int) -> np.ndarray:
        """Coordinate k over all points: +1 / -1 per the bitmask convention.
        Built by coordinate_products, as walsh is, with the factors (1, -1)
        at k and (1, 1) elsewhere."""
        if not 0 <= k <= self.horizon:
            raise OutOfHorizonError(f"coordinate {k} outside 0..{self.horizon}")
        return coordinate_products([(1.0, -1.0 if j == k else 1.0)
                                    for j in range(self.horizon + 1)])

    def domain(self) -> TruncatedDomain:
        return TruncatedDomain(self.horizon)


@dataclass
class RandomFunctional:
    """A complex function on the sample space, one value per point (ascending
    bitmask order)."""

    space: SampleSpace
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.shape != (self.space.size,):
            raise ValueError(
                f"expected {self.space.size} values, got shape {self.values.shape}"
            )

    def to_document(self) -> dict:
        """The random-functional/v1 document, for formats.write."""
        return {"format": formats.RANDOM_FUNCTIONAL_FORMAT, "horizon": self.space.horizon,
                "values": formats.Table(self.values)}

    to_json_dict = formats.as_dict

    @classmethod
    def from_json_dict(cls, data: dict) -> "RandomFunctional":
        formats.json_document(data, formats.RANDOM_FUNCTIONAL_FORMAT)
        space = SampleSpace(formats.json_typed(data["horizon"], int, "horizon"))
        return cls(space, formats.json_table(data["values"], "values", sigma=False).values)


def constant(space: SampleSpace, value: complex = 1.0) -> RandomFunctional:
    return RandomFunctional(space, np.full(space.size, value, dtype=np.complex128))


def noise(space: SampleSpace, n: int) -> RandomFunctional:
    """The n-th Rademacher coordinate (the normal noise increment)."""
    return RandomFunctional(space, space.signs(n).astype(np.complex128))


def walsh(space: SampleSpace, sigma: FiniteSubset) -> RandomFunctional:
    """Product of coordinates over sigma; the empty set gives the constant 1.
    Built by coordinate_products with the factors (1, -1) on sigma and
    (1, 1) off it: every product is of signs, so exact."""
    if sigma.mask >= space.size:
        raise OutOfHorizonError(
            f"{sigma!r} has elements beyond horizon {space.horizon}"
        )
    values = coordinate_products([(1.0, -1.0 if k in sigma else 1.0)
                                  for k in range(space.horizon + 1)])
    return RandomFunctional(space, values)


def inner_product(f: RandomFunctional, g: RandomFunctional) -> complex:
    """L2 inner product (conjugate-linear in the first argument) under the
    uniform measure; ValueError if it is not finite (np.vdot overflows
    without a float flag)."""
    if f.space != g.space:
        raise ValueError("functionals live on different sample spaces")
    product = complex(np.vdot(f.values, g.values)) / f.space.size
    if not np.isfinite(product):
        raise ValueError(f"the inner product {product} is not finite")
    return product


def l2_norm(f: RandomFunctional) -> float:
    return float(np.sqrt(inner_product(f, f).real))


def _butterflies(v: np.ndarray, scratch: np.ndarray, h: int) -> None:
    """One stage in place on a float64 vector: (a, b) -> (a + b, a - b) on
    the halves of every block of 2h values.  scratch holds at least half of
    v and is overwritten."""
    pairs, diff = v.reshape(-1, 2, h), scratch[: v.size // 2].reshape(-1, h)
    top, bottom = pairs[:, 0], pairs[:, 1]
    np.subtract(top, bottom, out=diff)
    top += bottom
    bottom[...] = diff


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform (self-inverse up to 1/size).

    Output index s holds sum over m of (-1)^popcount(s & m) * values[m].
    Raises ValueError on a non-finite input and when a butterfly overflows
    float64; the input is not changed.  Once the input is copied, fwht drops
    its references to it, so an input that only the call holds (a
    temporary) is freed before the result is allocated.

    Bit contract: for each bit k, in ascending order, every pair of indices
    (m, m + 2^k) with bit k of m clear becomes (a + b, a - b), so every
    output has the bits of the radix-2 loop over h = 1, 2, 4, ....  A stage
    is two float64 adds per complex value.  The low half of the bits
    (k < b = floor(log2(size) / 2)) runs on the (2^b x size/2^b) transpose,
    where their pairs lie in contiguous runs of at least size/2^b values;
    the high bits run after transposing back.  The two complex buffers are
    each other's scratch.
    """
    x = np.asarray(values, dtype=np.complex128)
    n = x.size
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    bits = max(n.bit_length() - 1, 0)
    low = bits // 2
    rows, cols = n >> low, 1 << low  # index m = row * cols + col
    moved = np.empty(n, dtype=np.complex128)
    np.copyto(moved.reshape(cols, rows), x.reshape(rows, cols).T)
    del x, values
    if not np.isfinite(moved.view(np.float64)).all():  # real and imaginary parts
        raise ValueError("Walsh-Hadamard transform input holds a non-finite value")
    v = np.empty(n, dtype=np.complex128)
    with float_checked("Walsh-Hadamard transform overflows float64"):
        for k in range(low):  # bit k of col: rows 2^k apart in the transpose
            _butterflies(moved.view(np.float64), v.view(np.float64), 2 * rows << k)
        np.copyto(v.reshape(rows, cols), moved.reshape(cols, rows).T)
        for k in range(low, bits):
            _butterflies(v.view(np.float64), moved.view(np.float64), 2 << k)
    return v


def chaos_expand(f: RandomFunctional) -> FockCoefficients:
    """Walsh chaos coefficients c(sigma) = <Z_sigma, f> for all sigma within
    the horizon, via the fast transform."""
    return FockCoefficients.from_vector(_low_chaos(f, f.space.horizon), f.space.horizon)


def synthesize(c: FockCoefficients, space: SampleSpace) -> RandomFunctional:
    """Rebuild the pointwise functional from chaos coefficients (inverse of
    chaos_expand)."""
    if c.support_bound is None or c.support_bound > space.horizon:
        raise OutOfHorizonError(
            f"coefficient support bound {c.support_bound} exceeds horizon "
            f"{space.horizon}"
        )
    return RandomFunctional(space, fwht(c.values_on(space.domain())))


def conditional_expectation(f: RandomFunctional, n: int) -> RandomFunctional:
    """Conditional expectation given the first n+1 coordinates, computed
    spectrally: chaos coefficients outside subsets of {0,..,n} are dropped."""
    if not 0 <= n <= f.space.horizon:
        raise OutOfHorizonError(f"index {n} outside 0..{f.space.horizon}")
    return RandomFunctional(f.space, fwht(_low_chaos(f, n)))


def _low_chaos(f: RandomFunctional, n: int) -> np.ndarray:
    """f's chaos coefficients on the subsets of {0,..,n}, 0 elsewhere, as a
    vector that only its caller holds (so fwht can free it)."""
    coeffs = fwht(f.values)
    coeffs /= f.space.size
    coeffs[1 << (n + 1):] = 0
    return coeffs


def conditional_expectation_by_averaging(f: RandomFunctional, n: int) -> RandomFunctional:
    """Independent oracle for conditional_expectation: directly average over
    coordinates n+1..N (rows of the reshaped value vector).  Raises
    ValueError on a non-finite input and when the average overflows."""
    if not 0 <= n <= f.space.horizon:
        raise OutOfHorizonError(f"index {n} outside 0..{f.space.horizon}")
    if not np.isfinite(f.values).all():
        raise ValueError("the averaged functional holds a non-finite value")
    grid = f.values.reshape(-1, 2 << n)  # [later coordinates, atom of the first n+1]
    with float_checked("the average over the later coordinates overflows float64"):
        return RandomFunctional(f.space, np.tile(grid.mean(axis=0), grid.shape[0]))


def random_functional(space: SampleSpace, seed: int) -> RandomFunctional:
    """Seeded complex Gaussian functional (documented 64-bit seed)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    return RandomFunctional(space, values)


def biased_probabilities(space: SampleSpace, minus_prob: float) -> np.ndarray:
    """Product measure with P(coordinate = -1) = minus_prob; a negative
    control for the normal-martingale verifier.  Built by
    coordinate_products with the factors (1 - minus_prob, minus_prob) at
    every coordinate: point m's mass is 1.0 times each coordinate's factor,
    multiplied in ascending coordinate order."""
    if not 0.0 <= minus_prob <= 1.0:
        raise ValueError(f"minus_prob must lie in [0, 1], got {minus_prob}")
    return coordinate_products([(1.0 - minus_prob, minus_prob)] * (space.horizon + 1))


@dataclass(frozen=True)
class MartingaleCondition:
    name: str
    max_deviation: float
    passed: bool


@dataclass(frozen=True)
class NormalMartingaleReport:
    conditions: tuple[MartingaleCondition, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_document(self) -> dict:
        """The verifier's JSON report, for formats.write."""
        return {"passed": self.passed, "conditions": [asdict(c) for c in self.conditions]}

    to_json_dict = formats.as_dict


def verify_normal_martingale(
    space: SampleSpace,
    probabilities: Optional[np.ndarray] = None,
    tol: float = 0.0,
) -> NormalMartingaleReport:
    """Check the defining normal-martingale identities of the partial-sum walk
    M_n = Z_0 + .. + Z_n by exact enumeration, atom by atom.

    Conditions: E[M_0] = 0, E[M_n | first n coords] = M_{n-1},
    E[M_0^2] = 1, E[M_n^2 | first n coords] = M_{n-1}^2 + 1.
    With the uniform measure every deviation is exactly 0; a biased measure
    (negative control) breaks the mean condition.  tol must be finite and
    >= 0 (checked first, before the plan), and probabilities must be finite,
    nonnegative and sum to 1 within 1e-9 (ValueError otherwise).

    The identities need only the marginals of the measure, so it is folded
    once, top coordinate first: for n = N..1 the law of coordinates 0..n
    splits by coordinate n into plus and minus, and their sum is the law of
    coordinates 0..n-1.  On an atom of nonzero mass, E[Z_n | atom] =
    (plus - minus) / mass is the mean deviation and, since Z_n^2 = 1,
    2 M_{n-1} E[Z_n | atom] the second-moment one.  Atoms of zero mass are
    skipped, since the identities hold almost surely.  M_{N-1} is built once
    per atom of the first N coordinates by doubling; its first 2^n values
    less N - n are M_{n-1}, exactly.
    """
    nonnegative(tol, "tol")
    space.domain().plan(40)  # the measure, the walk, and the first fold's temporaries
    probs = (np.full(space.size, 1.0 / space.size) if probabilities is None
             else np.asarray(probabilities, dtype=float))
    if probs.shape != (space.size,):
        raise ValueError("probability vector length mismatch")
    if not (np.isfinite(probs).all() and probs.min() >= 0 and abs(probs.sum() - 1.0) <= 1e-9):
        raise ValueError("probabilities must be finite, nonnegative and sum to 1 within 1e-9")
    horizon, law, walk = space.horizon, probs, np.zeros(1)
    for _ in range(horizon):  # M_{-1} = 0 on one atom, doubled to M_{N-1}
        walk = np.concatenate([walk + 1.0, walk - 1.0])
    deviations = []  # (mean, second moment) per step, the largest over its atoms
    for n in range(horizon, 0, -1):
        plus, minus = law[:1 << n], law[1 << n:]
        law = plus + minus
        charged = law > 0
        drift = np.abs(plus - minus)[charged] / law[charged]  # |E[Z_n | atom]|
        prev = np.abs(walk[:1 << n][charged] - (horizon - n))  # |M_{n-1}|
        deviations.append((drift.max(), 2.0 * (prev * drift).max()))
    # Step 0, on the last law's two atoms: E[M_0] = 0 and E[M_0^2] = 1.
    deviations.append((abs(law[0] - law[1]), abs(law[0] + law[1] - 1.0)))
    mean_dev, sq_dev = (float(d) for d in np.max(deviations, axis=0))

    conditions = (
        MartingaleCondition("conditional mean", mean_dev, mean_dev <= tol),
        MartingaleCondition("conditional second moment", sq_dev, sq_dev <= tol),
    )
    return NormalMartingaleReport(conditions)

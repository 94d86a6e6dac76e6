"""Exact probabilistic model: the symmetric Rademacher walk on the sign cube.

The sample space at horizon N is {-1,+1}^(N+1) with uniform (dyadic) point
masses.  Point m (a bitmask) has coordinate k equal to -1 when bit k of m is
set.  The Walsh functions (products of coordinates over a finite subset) form
an orthonormal basis, so the chaos expansion of any square-integrable
functional is computed exactly by a fast Walsh-Hadamard transform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import formats
from .functionals import FockCoefficients, float_checked
from .subsets import FiniteSubset, TruncatedDomain


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
        """Coordinate k over all points: +1 / -1 per the bitmask convention."""
        if not 0 <= k <= self.horizon:
            raise OutOfHorizonError(f"coordinate {k} outside 0..{self.horizon}")
        m = np.arange(self.size)
        return (1 - 2 * ((m >> k) & 1)).astype(np.float64)

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
    """Product of coordinates over sigma; the empty set gives the constant 1."""
    if sigma.mask >= space.size:
        raise OutOfHorizonError(
            f"{sigma!r} has elements beyond horizon {space.horizon}"
        )
    values = np.ones(space.size)
    for k in sigma.elements:
        values = values * space.signs(k)
    return RandomFunctional(space, values.astype(np.complex128))


def inner_product(f: RandomFunctional, g: RandomFunctional) -> complex:
    """L2 inner product (conjugate-linear in the first argument) under the
    uniform measure."""
    if f.space != g.space:
        raise ValueError("functionals live on different sample spaces")
    return complex(np.vdot(f.values, g.values)) / f.space.size


def l2_norm(f: RandomFunctional) -> float:
    return float(np.sqrt(inner_product(f, f).real))


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalized fast Walsh-Hadamard transform (self-inverse up to 1/size).

    Output index s holds sum over m of (-1)^popcount(s & m) * values[m].
    Raises ValueError on a non-finite input and when a butterfly overflows
    float64.
    """
    v = np.array(values, dtype=np.complex128)
    n = v.size
    if n & (n - 1):
        raise ValueError(f"length must be a power of two, got {n}")
    if not np.isfinite(v.view(np.float64)).all():  # real and imaginary parts
        raise ValueError("Walsh-Hadamard transform input holds a non-finite value")
    h, scratch = 1, np.empty(n // 2, dtype=np.complex128)
    with float_checked("Walsh-Hadamard transform overflows float64"):
        while h < n:  # butterflies (a, b) -> (a + b, a - b) on halves of blocks of 2h
            pairs, diff = v.reshape(-1, 2 * h), scratch.reshape(-1, h)
            top, bottom = pairs[:, :h], pairs[:, h:]
            np.subtract(top, bottom, out=diff)
            top += bottom
            bottom[...] = diff
            h *= 2
    return v


def chaos_expand(f: RandomFunctional) -> FockCoefficients:
    """Walsh chaos coefficients c(sigma) = <Z_sigma, f> for all sigma within
    the horizon, via the fast transform."""
    return FockCoefficients.from_vector(fwht(f.values) / f.space.size,
                                       f.space.horizon)


def synthesize(c: FockCoefficients, space: SampleSpace) -> RandomFunctional:
    """Rebuild the pointwise functional from chaos coefficients (inverse of
    chaos_expand)."""
    if c.support_bound is None or c.support_bound > space.horizon:
        raise OutOfHorizonError(
            f"coefficient support bound {c.support_bound} exceeds horizon "
            f"{space.horizon}"
        )
    vector = c.values_on(space.domain())
    return RandomFunctional(space, fwht(vector))


def conditional_expectation(f: RandomFunctional, n: int) -> RandomFunctional:
    """Conditional expectation given the first n+1 coordinates, computed
    spectrally: chaos coefficients outside subsets of {0,..,n} are dropped."""
    if not 0 <= n <= f.space.horizon:
        raise OutOfHorizonError(f"index {n} outside 0..{f.space.horizon}")
    coeffs = fwht(f.values) / f.space.size
    coeffs[1 << (n + 1):] = 0
    return RandomFunctional(f.space, fwht(coeffs))


def conditional_expectation_by_averaging(f: RandomFunctional, n: int) -> RandomFunctional:
    """Independent oracle for conditional_expectation: directly average over
    coordinates n+1..N (rows of the reshaped value vector)."""
    if not 0 <= n <= f.space.horizon:
        raise OutOfHorizonError(f"index {n} outside 0..{f.space.horizon}")
    block = 1 << (n + 1)
    grid = f.values.reshape(-1, block)
    mean = grid.mean(axis=0)
    return RandomFunctional(f.space, np.tile(mean, grid.shape[0]))


def random_functional(space: SampleSpace, seed: int) -> RandomFunctional:
    """Seeded complex Gaussian functional (documented 64-bit seed)."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(space.size) + 1j * rng.standard_normal(space.size)
    return RandomFunctional(space, values)


def biased_probabilities(space: SampleSpace, minus_prob: float) -> np.ndarray:
    """Product measure with P(coordinate = -1) = minus_prob; a negative
    control for the normal-martingale verifier."""
    if not 0.0 <= minus_prob <= 1.0:
        raise ValueError(f"minus_prob must lie in [0, 1], got {minus_prob}")
    probs = np.ones(space.size)
    for k in range(space.horizon + 1):
        probs *= np.where(space.signs(k) < 0, minus_prob, 1.0 - minus_prob)
    return probs


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

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "max_deviation": c.max_deviation, "passed": c.passed}
                for c in self.conditions
            ],
        }


def _conditional_given_prefix(values: np.ndarray, probs: np.ndarray, n_coords: int
                              ) -> tuple[np.ndarray, np.ndarray]:
    """E[values | coordinates 0..n_coords-1] on the atoms of positive mass,
    and the boolean mask of those atoms: atom a holds the points whose low
    n_coords bits are a.  Atoms of zero mass are skipped, since the
    identities hold almost surely."""
    block = 1 << n_coords
    v, p = values.reshape(-1, block), probs.reshape(-1, block)
    mass = p.sum(axis=0)
    charged = mass > 0
    return (v * p).sum(axis=0)[charged] / mass[charged], charged


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
    (negative control) breaks the mean condition.  The walk is built one step
    at a time, holding only M_{n-1} and M_n; M_{n-1} is constant on each atom
    of the first n coordinates, so its value there is its value at the atom's
    index.  Atoms of zero mass are skipped.
    """
    space.domain().plan(56)  # M_{n-1}, M_n, the measure and the step's temporaries
    probs = (np.full(space.size, 1.0 / space.size) if probabilities is None
             else np.asarray(probabilities, dtype=float))
    if probs.shape != (space.size,):
        raise ValueError("probability vector length mismatch")
    walk = space.signs(0)  # M_0

    mean_dev = abs(float(np.dot(walk, probs)))  # E[M_0] = 0
    sq_dev = abs(float(np.dot(walk ** 2, probs)) - 1.0)  # E[M_0^2] = 1
    for n in range(1, space.horizon + 1):
        prev, walk = walk[:1 << n], walk + space.signs(n)  # prev: M_{n-1} per atom
        cond_mean, charged = _conditional_given_prefix(walk, probs, n)
        cond_sq, _ = _conditional_given_prefix(walk ** 2, probs, n)
        prev = prev[charged]
        mean_dev = max(mean_dev, float(np.max(np.abs(cond_mean - prev))))
        sq_dev = max(sq_dev, float(np.max(np.abs(cond_sq - prev ** 2 - 1.0))))

    conditions = (
        MartingaleCondition("conditional mean", mean_dev, mean_dev <= tol),
        MartingaleCondition("conditional second moment", sq_dev, sq_dev <= tol),
    )
    return NormalMartingaleReport(conditions)

"""Functional sequences: the coefficient-truncation martingale predicate,
strong-convergence diagnostics, limit extraction, and uniform boundedness.

A sequence (Phi_n) is a martingale in the generalized sense when each term's
coefficients are the truncation of the next term's:
F_n(sigma) = indicator(sigma, n) * F_{n+1}(sigma).  For such sequences the
coefficient at sigma stabilizes once n reaches max(sigma), so convergence
reduces to a uniform growth bound on the coefficients.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Optional

import numpy as np

from .functionals import (
    FockCoefficients,
    GrowthCertificate,
    dual_norm_bound,
    fit_growth_values,
    json_document,
    json_typed,
)
from .rademacher import RandomFunctional, fwht
from .subsets import FiniteSubset, TruncatedDomain, weight_vector

SEQUENCE_FORMAT = "fock-sequence/v1"

DEFAULT_TOL = 1e-9


class InsufficientLengthError(ValueError):
    """The sequence is too short for the requested diagnostic."""


class NotAMartingaleError(ValueError):
    """The truncation-martingale predicate failed; carries the witness."""

    def __init__(self, witness: tuple[int, FiniteSubset]):
        n, sigma = witness
        super().__init__(
            f"truncation relation violated at term {n}, subset {sigma!r}"
        )
        self.witness = witness


@dataclass
class FunctionalSequence:
    """An ordered family of coefficient functionals."""

    terms: list[FockCoefficients]

    def __post_init__(self):
        if not self.terms:
            raise ValueError("a functional sequence must have at least one term")

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, n: int) -> FockCoefficients:
        return self.terms[n]

    def values_matrix(self, domain: TruncatedDomain) -> np.ndarray:
        """Coefficients of every term over the domain: shape (len, domain size)."""
        return np.stack([phi.values_on(domain) for phi in self.terms])

    def to_json_dict(self) -> dict:
        return {
            "format": SEQUENCE_FORMAT,
            "terms": [phi.to_json_dict() for phi in self.terms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "FunctionalSequence":
        json_document(data, SEQUENCE_FORMAT)
        terms = json_typed(data["terms"], list, "terms")
        return cls([FockCoefficients.from_json_dict(t) for t in terms])


class ConvergenceStatus(enum.Enum):
    CONVERGED = "CONVERGED"
    DIVERGED = "DIVERGED"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class SigmaDiagnostic:
    """Per-subset row of the convergence report."""

    sigma: FiniteSubset
    stabilization_index: int
    sup_abs: float
    certificate_margin: float


class SigmaDiagnostics(Sequence):
    """Read-only view of the per-subset rows as three columns; the row at
    position m is the subset with bitmask m.  Rows are built when asked for."""

    def __init__(self, stabilization_index: np.ndarray, sup_abs: np.ndarray,
                 certificate_margin: np.ndarray):
        for column in (stabilization_index, sup_abs, certificate_margin):
            column.flags.writeable = False
        self.stabilization_index = stabilization_index
        self.sup_abs = sup_abs
        self.certificate_margin = certificate_margin

    def __len__(self) -> int:
        return self.sup_abs.size

    def __getitem__(self, index):
        m = range(len(self))[index]  # IndexError, negative indices and slices
        if isinstance(m, range):
            return tuple(map(self.__getitem__, m))
        return SigmaDiagnostic(FiniteSubset(m), int(self.stabilization_index[m]),
                               float(self.sup_abs[m]), float(self.certificate_margin[m]))


@dataclass(frozen=True)
class ConvergenceVerdict:
    status: ConvergenceStatus
    limit: Optional[FockCoefficients] = None
    uniform_certificate: Optional[GrowthCertificate] = None
    witness: Optional[tuple[FiniteSubset, str]] = None
    tail_start: int = 0
    diagnostics: Sequence[SigmaDiagnostic] = field(default=(), repr=False)

    def __post_init__(self):
        if self.status is ConvergenceStatus.CONVERGED:
            assert self.limit is not None and self.uniform_certificate is not None
        if self.status is ConvergenceStatus.DIVERGED:
            assert self.witness is not None

    def to_json_dict(self) -> dict:
        out: dict = {"status": self.status.value, "tail_start": self.tail_start}
        if self.limit is not None:
            out["limit"] = self.limit.to_json_dict()
        if self.uniform_certificate is not None:
            out["certificate"] = {
                "scale": self.uniform_certificate.scale,
                "order": self.uniform_certificate.order,
            }
        if self.witness is not None:
            sigma, reason = self.witness
            out["witness"] = {"sigma": sigma.to_json(), "reason": reason}
        return out


def is_generalized_martingale(
    seq: FunctionalSequence,
    domain: TruncatedDomain,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, Optional[tuple[int, FiniteSubset]]]:
    """Check F_n = indicator(., n) * F_{n+1} over the domain for every
    consecutive pair; returns the first violation (n, sigma) on failure."""
    if len(seq) < 2:
        raise InsufficientLengthError("need at least two terms to test the relation")
    witness = _martingale_witness(seq.values_matrix(domain), tol)
    return witness is None, witness


def _martingale_witness(
    values: np.ndarray, tol: float
) -> Optional[tuple[int, FiniteSubset]]:
    """First (n, sigma) where row n of the values matrix differs by more than
    tol from row n+1 truncated to the masks below 2^(n+1), or None."""
    for n in range(len(values) - 1):
        truncation = values[n + 1].copy()
        truncation[2 << n:] = 0
        bad = np.flatnonzero(np.abs(values[n] - truncation) > tol)
        if bad.size:
            return n, FiniteSubset(int(bad[0]))
    return None


def classical_to_sequence(f: RandomFunctional) -> FunctionalSequence:
    """The coefficient sequence of the classical martingale n -> E[f | first
    n+1 coordinates]: term n is the chaos table of f truncated to subsets of
    {0,..,n}."""
    coeffs = fwht(f.values) / f.space.size
    return FunctionalSequence([
        FockCoefficients.from_vector(coeffs[: 2 << n], n)
        for n in range(f.space.horizon + 1)
    ])


def _stabilization_indices(values: np.ndarray, tol: float) -> np.ndarray:
    """Per column: smallest index s with |values[n+1] - values[n]| <= tol for
    every n >= s."""
    diffs = np.abs(np.diff(values, axis=0)) > tol
    k = diffs.shape[0]
    if k == 0:
        return np.zeros(values.shape[1], dtype=int)
    # One past the last moving step: argmax finds the first True from the end.
    last = k - np.argmax(diffs[::-1], axis=0)
    return np.where(diffs.any(axis=0), last, 0)


def strong_convergence_test(
    seq: FunctionalSequence,
    domain: TruncatedDomain,
    tol: float = DEFAULT_TOL,
    p_grid: Sequence[float] = (0.0, 1.0, 2.0),
) -> ConvergenceVerdict:
    """Convergence verdict from two ingredients: per-subset stabilization of
    the coefficients, and a uniform growth certificate fitted to their
    pointwise sup.

    Sequences passing the martingale predicate stabilize structurally (at
    n = max(sigma)), so for them only the certificate is decisive.  Generic
    sequences must stabilize empirically before the final third of the
    observed prefix.  DIVERGED requires growth with margin: coefficients at
    some subset strictly increasing through the final third and exceeding
    every certificate fitted to the earlier terms.  Everything else is
    INCONCLUSIVE.
    """
    if len(seq) < 3:
        raise InsufficientLengthError("need at least three terms for a verdict")
    k_last = len(seq) - 1
    values = seq.values_matrix(domain)
    weights = weight_vector(domain)
    sup_abs = np.abs(values).max(axis=0)
    stab = _stabilization_indices(values, tol)

    def _diagnostics(cert: Optional[GrowthCertificate]) -> SigmaDiagnostics:
        margins = (cert.bound_at(weights) - sup_abs if cert is not None
                   else np.full_like(sup_abs, np.nan))
        return SigmaDiagnostics(stab, sup_abs, margins)

    if domain.max_index <= k_last and _martingale_witness(values, tol) is None:
        # Martingale coefficients stabilize structurally, at n = max(sigma).
        tail_start = domain.max_index
        settled = True
    else:
        tail_start = k_last - max(2, len(seq) // 3)
        settled = bool(np.all(stab <= tail_start))
    if settled:
        _, cert = fit_growth_values(sup_abs, weights, p_grid, domain)
        if cert is None:
            return ConvergenceVerdict(
                ConvergenceStatus.INCONCLUSIVE, tail_start=tail_start,
                diagnostics=_diagnostics(None),
            )
        return ConvergenceVerdict(
            ConvergenceStatus.CONVERGED,
            limit=FockCoefficients.from_vector(values[-1], domain.max_index),
            uniform_certificate=cert,
            tail_start=tail_start,
            diagnostics=_diagnostics(cert),
        )

    # Divergence scan: fit certificates to the pre-tail prefix, then look for
    # a subset whose tail magnitudes grow monotonically past every fitted bound.
    head_sup = np.abs(values[: tail_start + 1]).max(axis=0)
    head_curve, _ = fit_growth_values(head_sup, weights, p_grid, domain)
    tail_abs = np.abs(values[tail_start:])
    last, before = tail_abs[-1], tail_abs[-2]
    grows = (stab > tail_start) & np.all(np.diff(tail_abs, axis=0) > 0, axis=0)
    for p, c in head_curve.items():
        # float_power takes libm's pow for every element, as a scalar ** does;
        # an array ** may take a SIMD pow that differs in the last bit.
        bound = c * np.float_power(weights, p)
        grows &= (last - bound > 0) & (last - bound > before - bound)
    if grows.any():
        return ConvergenceVerdict(
            ConvergenceStatus.DIVERGED,
            witness=(FiniteSubset(int(np.argmax(grows))),
                     "coefficient magnitudes grow past every fitted bound"),
            tail_start=tail_start,
            diagnostics=_diagnostics(None),
        )
    return ConvergenceVerdict(
        ConvergenceStatus.INCONCLUSIVE, tail_start=tail_start,
        diagnostics=_diagnostics(None),
    )


def martingale_limit(
    seq: FunctionalSequence,
    domain: TruncatedDomain,
    tol: float = DEFAULT_TOL,
) -> FockCoefficients:
    """Limit coefficients of a truncation martingale: at each subset, the
    value of the first term whose truncation level covers it (the value is
    constant from there on)."""
    if len(seq) < 2:
        raise InsufficientLengthError("need at least two terms to test the relation")
    values = seq.values_matrix(domain)
    witness = _martingale_witness(values, tol)
    if witness is not None:
        raise NotAMartingaleError(witness)
    if domain.max_index > len(seq) - 1:
        raise InsufficientLengthError(
            f"domain needs terms up to index {domain.max_index}, "
            f"sequence has {len(seq)}"
        )
    # Masks in [2^k, 2^(k+1)) have max element k: term k first covers them.
    return FockCoefficients.from_vector(
        np.concatenate([values[0, :2]] + [values[k, 1 << k : 2 << k]
                                          for k in range(1, domain.max_index + 1)]),
        domain.max_index,
    )


@dataclass(frozen=True)
class UniformBound:
    certificate: GrowthCertificate
    dual_order: float
    dual_bound: float


def uniform_boundedness(
    functionals: Iterable[FockCoefficients],
    domain: TruncatedDomain,
    p_grid: Sequence[float] = (0.0, 1.0, 2.0),
    dual_order: Optional[float] = None,
) -> Optional[UniformBound]:
    """Fit a growth certificate to the pointwise sup of |F| over the family;
    when one is found, also report the induced bound on the dual norms."""
    family = list(functionals)
    if not family:
        raise ValueError("the family must be nonempty")
    sup_abs = np.abs(np.stack([phi.values_on(domain) for phi in family])).max(axis=0)
    _, cert = fit_growth_values(sup_abs, weight_vector(domain), p_grid, domain)
    if cert is None:
        return None
    q = cert.order + 1.0 if dual_order is None else dual_order
    return UniformBound(cert, q, dual_norm_bound(cert, q))

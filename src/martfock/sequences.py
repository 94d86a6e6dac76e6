"""Functional sequences: the coefficient-truncation martingale predicate,
strong-convergence diagnostics, limit extraction, and uniform boundedness.

A sequence (Phi_n) is a martingale in the generalized sense when each term's
coefficients are the truncation of the next term's:
F_n(sigma) = indicator(sigma, n) * F_{n+1}(sigma).  For such sequences the
coefficient at sigma stabilizes once n reaches max(sigma), so convergence
reduces to a uniform growth bound on the coefficients.

The scans (the predicate, the verdict and the limit) refuse on their
arguments before they plan or read a term, in this order: too few terms,
then a tol that is not finite and >= 0 (functionals.nonnegative), then,
for the verdict, a grid of growth orders that is empty or holds an order
that is not finite and >= 0 (functionals.growth_orders), and, for the
limit, a domain wider than the sequence.  uniform_boundedness checks its
grid the same way before it plans or reads a term.

The three scans share one pass (_scan), which reads each term only at the
union of the terms' supports; a mask off it is zero in every term, so the
outputs are those of a pass over the whole domain, bit for bit.  The plans
are sized for a dense sequence, where the union is the domain.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

import numpy as np

from . import formats
from .functionals import (FockCoefficients, GrowthCertificate, dual_norm_bound,
                          fit_growth_values, growth_orders, nonnegative)
from .rademacher import RandomFunctional, chaos_expand
from .subsets import FiniteSubset, TruncatedDomain, mask_weights, weight_vector

DEFAULT_TOL = 1e-9
DEFAULT_P_GRID = (0.0, 1.0, 2.0)  # growth orders a certificate is fitted over
# Bytes per domain mask each path plans: its tracemalloc peak at horizon 13,
# rows read and growth fit included, rounded up to 8, on a dense sequence,
# where the scans read every mask (_scan).  The terms are read two rows at a
# time, so the peak is the same at 4 terms as at 32.
PREDICATE_BYTES, LIMIT_BYTES, VERDICT_BYTES, UNIFORM_BYTES = 56, 72, 112, 64


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


def _check(seq, tol: float, least: int, needs: str) -> None:
    """The scans' argument check, made before any plan or read: fewer than
    least terms raise InsufficientLengthError ("need at least " + needs),
    then a tol that is not finite and >= 0 raises ValueError (nonnegative)."""
    if len(seq) < least:
        raise InsufficientLengthError(f"need at least {needs}")
    nonnegative(tol, "tol")


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

    def rows(self, domain: TruncatedDomain) -> Iterator[np.ndarray]:
        """Each term's coefficients over the whole domain (values_on), one
        fresh row at a time.  The library's scans read a sequence at the
        union of its terms' supports instead (_scan)."""
        return (phi.values_on(domain) for phi in self.terms)

    def to_json_dict(self) -> dict:
        return {"format": formats.SEQUENCE_FORMAT,
                "terms": [phi.to_json_dict() for phi in self.terms]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FunctionalSequence":
        formats.json_document(data, formats.SEQUENCE_FORMAT)
        terms = formats.json_typed(data["terms"], list, "terms")
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

    def to_document(self) -> dict:
        """The verdict's JSON report, for formats.write; its limit is a
        fock-coefficients/v1 document."""
        out: dict = {"status": self.status.value, "tail_start": self.tail_start}
        if self.limit is not None:
            out["limit"] = self.limit.to_document()
        if self.uniform_certificate is not None:
            cert = self.uniform_certificate
            out["certificate"] = {"scale": cert.scale, "order": cert.order}
        if self.witness is not None:
            sigma, reason = self.witness
            out["witness"] = {"sigma": sigma.to_json(), "reason": reason}
        return out

    to_json_dict = formats.as_dict


def is_generalized_martingale(
    seq: FunctionalSequence,
    domain: TruncatedDomain,
    tol: float = DEFAULT_TOL,
) -> tuple[bool, Optional[tuple[int, FiniteSubset]]]:
    """Check F_n = indicator(., n) * F_{n+1} over the domain for every
    consecutive pair, two rows at a time (_scan); returns the first
    violation (n, sigma) on failure."""
    _check(seq, tol, 2, "two terms to test the relation")
    domain.plan(PREDICATE_BYTES)
    witness, _ = _truncation_witness(seq, domain, tol)
    return witness is None, witness


def _scan(seq, domain) -> tuple[np.ndarray, Iterator[tuple[int, np.ndarray, int]]]:
    """The one pass of the sequence scans (the predicate, the verdict and
    the limit): the masks they read, the union, and the terms read there in
    order, one fresh complex128 row each, as (n, row, s), where union[:s]
    are the masks below 2^n.

    The union holds mask 0, the all-ones mask and every mask that a table
    term stores inside the domain, ascending (int64), marked on one bool per
    domain mask; it is the whole domain where a term is a rule or stores
    every mask.  A mask off the union is zero in every term, so it adds
    nothing to a scan: its sup is 0, it stabilizes at 0, it never grows and
    it keeps the truncation relation.  With mask 0 and the all-ones mask in
    it, a growth fit over the union takes the argmax and the largest weight
    of one over the domain.  Over the whole domain a mask is its own
    position; elsewhere a term's masks find theirs by searchsorted.  A rule
    is read only in the pass, one term at a time."""
    if any(phi.rule is not None or phi._entries_on(domain)[0].size == domain.size
           for phi in seq.terms):
        union = np.arange(domain.size)
    else:
        mark = np.zeros(domain.size, dtype=bool)
        mark[[0, -1]] = True
        for phi in seq.terms:
            mark[phi._entries_on(domain)[0].view(np.int64)] = True  # below 2^63 once planned
        union = np.flatnonzero(mark)  # the mark goes with this frame

    def rows():
        for n, phi in enumerate(seq.terms):
            masks, values = phi._entries_on(domain)
            masks = masks.view(np.int64)
            row = np.zeros(union.size, dtype=np.complex128)
            row[masks if union.size == domain.size else union.searchsorted(masks)] = values
            yield n, row, int(union.searchsorted(min(1 << n, domain.size)))
    return union, rows()


def _truncation_witness(seq, domain, tol, limit=False):
    """(witness, limit): the first (n, sigma) where term n differs by more
    than tol from term n+1 cut to the masks below 2^(n+1), or None, read by
    _scan; and, given limit and no witness, the table that takes at each
    mask of the union the value of the first term that covers it."""
    union, rows = _scan(seq, domain)
    first = np.empty(union.size, dtype=np.complex128) if limit else None
    for n, row, s in rows:
        if n:  # prev is spent once its tail is read: its head takes the difference
            tail = np.flatnonzero(np.abs(prev[s:]) > tol)
            with np.errstate(over="ignore"):  # an infinite difference exceeds tol
                head = np.flatnonzero(np.abs(np.subtract(row[:s], prev[:s], out=prev[:s])) > tol)
            if head.size or tail.size:
                at = union[head[0] if head.size else s + tail[0]]
                return (n - 1, FiniteSubset(int(at))), None
        if limit:
            # Masks in [2^n, 2^(n+1)) have max element n: term n first covers
            # them (term 0 also covers the empty set).
            cover = slice(n and s, union.searchsorted(min(2 << n, domain.size)))
            first[cover] = row[cover]
        prev = row
    return None, (FockCoefficients._from_arrays(union.view(np.uint64), first, domain.max_index)
                  if limit else None)


def _finite_abs(n: int, row: np.ndarray, masks) -> np.ndarray:
    """|row| of term n, read at the masks (ascending).  A magnitude that is
    not a finite float raises ValueError naming its subset: np.abs of a
    complex overflows to inf without a flag."""
    row_abs = np.abs(row)
    if not np.isfinite(row_abs.max()):
        sigma = FiniteSubset(int(masks[np.argmin(np.isfinite(row_abs))]))
        raise ValueError(f"coefficient magnitude of term {n} at {sigma!r} "
                         "overflows the float range")
    return row_abs


def classical_to_sequence(f: RandomFunctional) -> FunctionalSequence:
    """The coefficient sequence of the classical martingale n -> E[f | first
    n+1 coordinates]: term n is the chaos table of f truncated to subsets of
    {0,..,n}, its restriction.  The table holds no zero, so every term
    holds views of its prefix arrays (see FockCoefficients._from_arrays)."""
    table = chaos_expand(f)
    return FunctionalSequence([table.restricted(TruncatedDomain(n))
                               for n in range(f.space.horizon + 1)])


def strong_convergence_test(
    seq: FunctionalSequence,
    domain: TruncatedDomain,
    tol: float = DEFAULT_TOL,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
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

    The terms are read once, in order, at the union of their supports
    (_scan), two rows at a time: the pass keeps running columns there (the
    sup of |F|, its copy at the generic tail start, the stabilization index,
    the strictly-increasing tail mask, the truncation check) and the last
    two rows, and the columns are spread over the domain once, at the end,
    with the weights of the union for the growth fits (mask_weights, the
    bits of weight_vector's).  A magnitude |F| that is not a finite float
    raises ValueError.  The arguments are checked before the plan and the
    read: fewer than three terms, then tol, then p_grid (growth_orders).
    """
    _check(seq, tol, 3, "three terms for a verdict")
    p_grid = growth_orders(p_grid)
    k_last = len(seq) - 1
    tail_start = k_last - max(2, len(seq) // 3)
    structural = domain.max_index <= k_last  # until a pair breaks the relation
    domain.plan(VERDICT_BYTES)
    union, rows = _scan(seq, domain)
    dense = union.size == domain.size  # weight_vector then, without mask_weights' table
    weights = weight_vector(domain) if dense else mask_weights(union, domain.max_index)
    sup_abs, moving = np.zeros(union.size), np.empty(union.size)
    stab = np.zeros(union.size, dtype=int)
    grows = np.ones(union.size, dtype=bool)  # strictly increasing from tail_start
    for n, row, s in rows:
        row_abs = _finite_abs(n, row, union)
        np.maximum(sup_abs, row_abs, out=sup_abs)
        if n:
            with np.errstate(over="ignore"):  # an infinite step exceeds tol
                np.abs(np.subtract(row, prev, out=prev), out=moving)
            stab[moving > tol] = n  # one past the last moving step
            structural = structural and not (  # the relation of terms n-1 and n
                (moving[:s] > tol).any() or (prev_abs[s:] > tol).any())
        if n > tail_start:
            grows &= (row_abs - prev_abs) > 0  # np.diff's sign, step by step
        elif n == tail_start:
            head_sup = sup_abs.copy()
        if n < k_last:
            prev, prev_abs = row, row_abs
    del prev, moving  # spent; the limit is row, the scan reads prev_abs

    if structural:
        # Martingale coefficients stabilize structurally, at n = max(sigma).
        tail_start, settled = domain.max_index, True
    else:
        settled = bool(np.all(stab <= tail_start))
    witness = cert = None
    if settled:
        _, cert = fit_growth_values(sup_abs, weights, p_grid, domain)
    else:
        # Divergence scan: fit certificates to the pre-tail prefix, then look
        # for a subset whose tail magnitudes (row_abs is the last, prev_abs the
        # one before) grow monotonically past every fitted bound.
        head_curve, _ = fit_growth_values(head_sup, weights, p_grid, domain)
        grows &= stab > tail_start
        for p, c in head_curve.items():
            # float_power takes libm's pow for every element, as a scalar **
            # does; an array ** may take a SIMD pow that differs in the last
            # bit.  A bound that overflows to inf (or to nan, as 0 * inf) is
            # harmless: nothing exceeds it.
            with np.errstate(over="ignore", invalid="ignore"):
                bound = c * np.float_power(weights, p)
            grows &= (row_abs - bound > 0) & (row_abs - bound > prev_abs - bound)
        if grows.any():
            witness = (FiniteSubset(int(union[np.argmax(grows)])),
                       "coefficient magnitudes grow past every fitted bound")
    # The columns over the whole domain, once: 0 off the union, as every term.
    stab, sup_abs = (_spread(column, union, domain) for column in (stab, sup_abs))
    if cert is None:
        status = ConvergenceStatus.INCONCLUSIVE if witness is None else ConvergenceStatus.DIVERGED
        limit, margin = None, np.full_like(sup_abs, np.nan)
    else:
        limit = FockCoefficients._from_arrays(union.view(np.uint64), row, domain.max_index)
        margin = cert.bound_at(weights if dense else weight_vector(domain)) - sup_abs
        status = ConvergenceStatus.CONVERGED
    return ConvergenceVerdict(status, limit, cert, witness, tail_start,
                              SigmaDiagnostics(stab, sup_abs, margin))


def _spread(column: np.ndarray, union: np.ndarray, domain: TruncatedDomain) -> np.ndarray:
    """A column over the union (_scan) as one over the domain, 0 off it."""
    if union.size == domain.size:
        return column
    out = np.zeros(domain.size, dtype=column.dtype)
    out[union] = column
    return out


def martingale_limit(
    seq: FunctionalSequence,
    domain: TruncatedDomain,
    tol: float = DEFAULT_TOL,
) -> FockCoefficients:
    """Limit coefficients of a truncation martingale: at each subset, the
    value of the first term whose truncation level covers it (the value is
    constant from there on).  The terms are read two rows at a time.

    Its arguments are checked before the plan and the read: fewer than two
    terms, then tol, then a domain that needs terms past the last
    (InsufficientLengthError), so a sequence that is both too short and
    broken is refused for its length.  A broken relation raises
    NotAMartingaleError with its witness."""
    _check(seq, tol, 2, "two terms to test the relation")
    if domain.max_index > len(seq) - 1:
        raise InsufficientLengthError(
            f"domain needs terms up to index {domain.max_index}, "
            f"sequence has {len(seq)}"
        )
    domain.plan(LIMIT_BYTES)
    witness, limit = _truncation_witness(seq, domain, tol, limit=True)
    if witness is not None:
        raise NotAMartingaleError(witness)
    return limit


@dataclass(frozen=True)
class UniformBound:
    certificate: GrowthCertificate
    dual_order: float
    dual_bound: float


def uniform_boundedness(
    functionals: Iterable[FockCoefficients],
    domain: TruncatedDomain,
    p_grid: Sequence[float] = DEFAULT_P_GRID,
) -> Optional[UniformBound]:
    """Fit a growth certificate to the pointwise sup of |F| over the family,
    iterated once and read one term at a time, never listed (ValueError if
    a magnitude is not a finite float); when one is found, also report the
    induced bound on the dual norms of order q = order + 1.  The bound at any
    other order q is dual_norm_bound(bound.certificate, q).  The grid is
    checked (growth_orders) before the plan and the first term."""
    p_grid = growth_orders(p_grid)
    domain.plan(UNIFORM_BYTES)
    sup_abs, n = np.zeros(domain.size), -1
    for n, phi in enumerate(functionals):
        np.maximum(sup_abs, _finite_abs(n, phi.values_on(domain), range(domain.size)),
                   out=sup_abs)
    if n < 0:
        raise ValueError("the family must be nonempty")
    _, cert = fit_growth_values(sup_abs, weight_vector(domain), p_grid, domain)
    if cert is None:
        return None
    q = cert.order + 1.0
    return UniformBound(cert, q, dual_norm_bound(cert, q))

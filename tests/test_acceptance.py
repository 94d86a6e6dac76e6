"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import contextlib
import math
import time

import numpy as np
import pytest

from martfock.convolution import (
    all_ones,
    approximate,
    approximation_residual,
    approximation_sequence,
    indicator_functional,
)
from martfock.functionals import FockCoefficients, fit_growth, sobolev_norm
from martfock.rademacher import (
    SampleSpace,
    biased_probabilities,
    chaos_expand,
    conditional_expectation,
    inner_product,
    l2_norm,
    random_functional,
    synthesize,
    verify_normal_martingale,
    walsh,
)
from martfock.sequences import (
    ConvergenceStatus,
    classical_to_sequence,
    is_generalized_martingale,
    martingale_limit,
    strong_convergence_test,
)
from martfock.subsets import (
    FiniteSubset,
    TruncatedDomain,
    weight_vector,
    weighted_series,
    weighted_series_product,
)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({description}): FAIL")
        raise
    print(f"\nACCEPTANCE {num} ({description}): PASS")


def bounded_random_functional(domain, seed, scale=1.0, order=0.0):
    """Coefficients u * scale * weight^order with u uniform in [0,1] and a
    random phase; certified by (scale, order) on any domain."""
    rng = np.random.default_rng(seed)
    w = weight_vector(domain)
    mags = rng.uniform(0.0, 1.0, domain.size) * scale * w ** order
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, domain.size))
    return FockCoefficients(
        {FiniteSubset(int(m)): complex(mags[m] * phases[m])
         for m in range(domain.size)},
        support_bound=domain.max_index,
    )


def test_criterion_1_walsh_orthonormality():
    with criterion(1, "Walsh orthonormality at horizon 8, exact"):
        start = time.perf_counter()
        sp = SampleSpace(8)
        rows = np.stack(
            [walsh(sp, FiniteSubset(m)).values.real for m in range(512)]
        )
        gram = rows @ rows.T / sp.size
        assert np.array_equal(gram, np.eye(512))  # deviation exactly 0
        # and the sampled-pair form stated by the gate
        rng = np.random.default_rng(0)
        for s, t in rng.integers(0, 512, size=(500, 2)):
            expected = 1.0 if s == t else 0.0
            assert inner_product(
                walsh(sp, FiniteSubset(int(s))), walsh(sp, FiniteSubset(int(t)))
            ) == expected
        assert time.perf_counter() - start < 5.0


def test_criterion_2_weighted_series():
    with criterion(2, "weighted series: product oracle, bound, limit proximity"):
        start = time.perf_counter()
        values = [weighted_series(2, TruncatedDomain(n)) for n in range(1, 13)]
        assert all(b > a for a, b in zip(values, values[1:]))
        for n, v in zip(range(1, 13), values):
            assert v == pytest.approx(weighted_series_product(2, n), rel=1e-12)
        assert all(v <= math.exp(math.pi ** 2 / 6) for v in values)
        assert time.perf_counter() - start < 2.0
        # Known red: the truncated sum at max_index 12 is 3.41396..., which
        # sits 0.262 below the infinite-product limit sinh(pi)/pi = 3.67608...
        # Proximity within 0.03 first holds at max_index 121, beyond the
        # largest subset index (63), so this gate cannot pass at the stated
        # truncation.
        assert abs(values[-1] - math.sinh(math.pi) / math.pi) <= 0.03


def test_criterion_3_indicator_family_l2_norm():
    with criterion(3, "indicator-family L2 norms equal 2^((n+1)/2)"):
        for n in range(13):
            got = sobolev_norm(indicator_functional(n), 0, TruncatedDomain(n))
            assert got == pytest.approx(2.0 ** ((n + 1) / 2), rel=1e-12)


def test_criterion_4_classical_martingales_pass_predicate():
    with criterion(4, "100 conditional-expectation sequences pass the predicate"):
        sp = SampleSpace(8)
        for seed in range(100):
            seq = classical_to_sequence(random_functional(sp, seed))
            ok, witness = is_generalized_martingale(seq, sp.domain(), tol=1e-12)
            assert ok, f"seed {seed}: witness {witness}"


def test_criterion_5_martingale_convergence_equivalence():
    with criterion(5, "bounded martingales converge; unbounded family diverges"):
        domain = TruncatedDomain(6)
        for seed in range(50):
            phi = bounded_random_functional(domain, seed)
            seq = approximation_sequence(phi, 9)
            verdict = strong_convergence_test(seq, domain, tol=0.0)
            assert verdict.status is ConvergenceStatus.CONVERGED, f"seed {seed}"
            assert verdict.uniform_certificate is not None
            limit = martingale_limit(seq, domain, tol=0.0)
            assert limit.equal_on(phi, domain, tol=0.0), f"seed {seed}"

        from martfock.sequences import FunctionalSequence
        diverging = FunctionalSequence(
            [FockCoefficients({FiniteSubset(0): float(n)}) for n in range(12)]
        )
        verdict = strong_convergence_test(diverging, TruncatedDomain(3))
        assert verdict.status is ConvergenceStatus.DIVERGED
        assert verdict.witness[0] == FiniteSubset(0)


def test_criterion_6_convolution_approximation():
    with criterion(6, "truncation approximants: residual decay and bound control"):
        domain = TruncatedDomain(12)
        ones = all_ones()
        residuals = [approximation_residual(ones, n, 1.0, domain) for n in range(13)]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[12] == 0.0

        small = TruncatedDomain(6)
        for seed in range(20):
            phi = bounded_random_functional(small, 1000 + seed, scale=2.0, order=1.0)
            for n in range(7):
                approx = approximate(phi, n)
                inner = TruncatedDomain(n)
                assert approx.equal_on(phi, inner, tol=0.0)
                curve, _ = fit_growth(approx, small, [1.0])
                assert curve[1.0] <= 2.0 + 1e-12


def test_criterion_7_walsh_roundtrip_and_parseval():
    with criterion(7, "chaos round-trip and Parseval for 100 seeds at horizon 10"):
        sp = SampleSpace(10)
        for seed in range(100):
            f = random_functional(sp, seed)
            c = chaos_expand(f)
            back = synthesize(c, sp)
            assert np.max(np.abs(back.values - f.values)) <= 1e-12
            total = sum(abs(v) ** 2 for _, v in c.table_items())
            assert total == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


def test_criterion_8_tower_property():
    with criterion(8, "tower property of conditional expectations at horizon 8"):
        sp = SampleSpace(8)
        for seed in range(20):
            f = random_functional(sp, seed)
            conditioned = {n: conditional_expectation(f, n) for n in range(9)}
            for n in range(9):
                for m in range(n, 9):
                    nested = conditional_expectation(conditioned[m], n)
                    dev = np.max(np.abs(nested.values - conditioned[n].values))
                    assert dev <= 1e-12


def test_criterion_9_normal_martingale_verifier():
    with criterion(9, "normal-martingale identities exact; biased control fails"):
        report = verify_normal_martingale(SampleSpace(6))
        assert report.passed
        assert all(c.max_deviation == 0.0 for c in report.conditions)

        sp = SampleSpace(6)
        control = verify_normal_martingale(sp, biased_probabilities(sp, 0.7))
        mean = next(c for c in control.conditions if c.name == "conditional mean")
        assert not mean.passed and mean.max_deviation > 0


def test_criterion_10_basis_expansion_partial_sums():
    with criterion(10, "partial sums of a decaying expansion converge in norm"):
        domain = TruncatedDomain(10)
        w = weight_vector(domain)
        xi = FockCoefficients(
            {FiniteSubset(int(m)): complex(w[m] ** -3.0) for m in range(domain.size)},
            support_bound=10,
        )
        for p in (0.0, 1.0):
            errors = [
                sobolev_norm(xi - approximate(xi, n), p, domain) for n in range(11)
            ]
            assert all(b < a for a, b in zip(errors, errors[1:]))
            assert errors[10] == 0.0

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martfock.convolution import all_ones, approximation_sequence, indicator_functional
from martfock.functionals import FockCoefficients
from martfock.rademacher import (
    SampleSpace,
    chaos_expand,
    conditional_expectation,
    random_functional,
)
from martfock.sequences import (
    ConvergenceStatus,
    FunctionalSequence,
    InsufficientLengthError,
    NotAMartingaleError,
    classical_to_sequence,
    is_generalized_martingale,
    martingale_limit,
    strong_convergence_test,
    _stabilization_indices,
    uniform_boundedness,
)
from martfock.subsets import FiniteSubset, TruncatedDomain


def indicator_sequence(k):
    return FunctionalSequence([indicator_functional(n) for n in range(k + 1)])


def diverging_at_empty(k):
    return FunctionalSequence(
        [FockCoefficients({FiniteSubset(0): float(n)}) for n in range(k + 1)]
    )


class TestMartingalePredicate:
    def test_indicator_sequence_exact(self):
        ok, witness = is_generalized_martingale(indicator_sequence(6),
                                                TruncatedDomain(6), tol=0.0)
        assert ok and witness is None

    def test_conditional_expectation_sequence(self):
        f = random_functional(SampleSpace(6), 4)
        seq = classical_to_sequence(f)
        ok, _ = is_generalized_martingale(seq, TruncatedDomain(6), tol=1e-12)
        assert ok

    def test_violation_with_witness(self):
        # term 0 carries a coefficient at {1} that truncation should kill
        bad = FunctionalSequence([
            FockCoefficients({FiniteSubset.from_elements([1]): 1.0}),
            FockCoefficients.zero(),
        ])
        ok, witness = is_generalized_martingale(bad, TruncatedDomain(2), tol=0.0)
        assert not ok
        assert witness == (0, FiniteSubset.from_elements([1]))

    def test_single_term_rejected(self):
        with pytest.raises(InsufficientLengthError):
            is_generalized_martingale(
                FunctionalSequence([FockCoefficients.zero()]), TruncatedDomain(1)
            )


class TestClassicalToSequence:
    def test_product_pair(self):
        sp = SampleSpace(3)
        from martfock.rademacher import RandomFunctional
        f = RandomFunctional(sp, sp.signs(0) * sp.signs(1))
        seq = classical_to_sequence(f)
        assert not list(seq[0].table_items())
        assert seq[1].evaluate(FiniteSubset.from_elements([0, 1])) == 1.0

    def test_constant(self):
        from martfock.rademacher import constant
        seq = classical_to_sequence(constant(SampleSpace(3)))
        for term in seq.terms:
            assert term.evaluate(FiniteSubset(0)) == 1.0
            assert len(list(term.table_items())) == 1

    def test_last_term_is_full_expansion(self):
        sp = SampleSpace(5)
        f = random_functional(sp, 9)
        seq = classical_to_sequence(f)
        assert seq[sp.horizon].equal_on(chaos_expand(f), sp.domain(), tol=0.0)

    def test_terms_match_conditional_expectations(self):
        # dual route: truncating the table equals expanding E[f | first n+1 coords]
        sp = SampleSpace(5)
        f = random_functional(sp, 10)
        seq = classical_to_sequence(f)
        for n in range(sp.horizon + 1):
            direct = chaos_expand(conditional_expectation(f, n))
            assert seq[n].equal_on(direct, sp.domain(), tol=1e-12)


class TestStrongConvergence:
    def test_indicator_sequence_converges(self):
        verdict = strong_convergence_test(indicator_sequence(6), TruncatedDomain(6),
                                          tol=0.0)
        assert verdict.status is ConvergenceStatus.CONVERGED
        assert verdict.uniform_certificate.scale == pytest.approx(1.0)
        assert verdict.uniform_certificate.order == 0
        ones = all_ones()
        assert verdict.limit.equal_on(ones, TruncatedDomain(6), tol=0.0)

    def test_constant_sequence_converges(self):
        phi = FockCoefficients({FiniteSubset.from_elements([0, 2]): 2.5})
        verdict = strong_convergence_test(
            FunctionalSequence([phi] * 6), TruncatedDomain(3)
        )
        assert verdict.status is ConvergenceStatus.CONVERGED
        assert verdict.limit.equal_on(phi, TruncatedDomain(3), tol=0.0)

    def test_unbounded_at_empty_diverges(self):
        verdict = strong_convergence_test(diverging_at_empty(11), TruncatedDomain(3))
        assert verdict.status is ConvergenceStatus.DIVERGED
        assert verdict.witness[0] == FiniteSubset(0)

    def test_slow_oscillation_is_inconclusive(self):
        terms = [
            FockCoefficients({FiniteSubset(0): 1.0 + 0.5 * (-1) ** n})
            for n in range(12)
        ]
        verdict = strong_convergence_test(FunctionalSequence(terms), TruncatedDomain(2),
                                          tol=1e-9)
        assert verdict.status is ConvergenceStatus.INCONCLUSIVE

    def test_verdict_stable_under_domain_growth(self):
        seq = indicator_sequence(8)
        for n in (3, 5, 8):
            verdict = strong_convergence_test(seq, TruncatedDomain(n), tol=0.0)
            assert verdict.status is ConvergenceStatus.CONVERGED

    def test_diagnostics_rows(self):
        verdict = strong_convergence_test(indicator_sequence(4), TruncatedDomain(4),
                                          tol=0.0)
        assert len(verdict.diagnostics) == 32
        row = verdict.diagnostics[0]
        assert row.sigma == FiniteSubset(0)
        assert row.sup_abs == 1.0
        assert row.certificate_margin == pytest.approx(0.0)

    def test_too_short(self):
        with pytest.raises(InsufficientLengthError):
            strong_convergence_test(
                FunctionalSequence([FockCoefficients.zero()] * 2), TruncatedDomain(1)
            )


class TestMartingaleLimit:
    def test_indicator_sequence_limit_is_all_ones(self):
        limit = martingale_limit(indicator_sequence(5), TruncatedDomain(5), tol=0.0)
        assert limit.equal_on(all_ones(), TruncatedDomain(5), tol=0.0)

    def test_classical_sequence_limit_is_full_expansion(self):
        sp = SampleSpace(6)
        f = random_functional(sp, 31)
        seq = classical_to_sequence(f)
        limit = martingale_limit(seq, sp.domain(), tol=1e-12)
        assert limit.equal_on(chaos_expand(f), sp.domain(), tol=1e-12)

    def test_zero_sequence(self):
        seq = FunctionalSequence([FockCoefficients.zero()] * 4)
        limit = martingale_limit(seq, TruncatedDomain(3), tol=0.0)
        assert not list(limit.table_items())

    def test_limit_consistent_with_every_term(self):
        phi = FockCoefficients({
            FiniteSubset(0): 1.0,
            FiniteSubset.from_elements([1]): 2.0,
            FiniteSubset.from_elements([0, 3]): -1j,
        })
        seq = approximation_sequence(phi, 5)
        limit = martingale_limit(seq, TruncatedDomain(5), tol=0.0)
        for m in range(6):
            for sigma in TruncatedDomain(m):
                assert limit.evaluate(sigma) == seq[m].evaluate(sigma)

    def test_rejects_non_martingale(self):
        bad = FunctionalSequence([
            FockCoefficients({FiniteSubset(0): 1.0}),
            FockCoefficients({FiniteSubset(0): 2.0}),
        ])
        with pytest.raises(NotAMartingaleError) as err:
            martingale_limit(bad, TruncatedDomain(1), tol=0.0)
        assert err.value.witness == (0, FiniteSubset(0))

    def test_domain_needs_enough_terms(self):
        with pytest.raises(InsufficientLengthError):
            martingale_limit(indicator_sequence(2), TruncatedDomain(5), tol=0.0)


class TestUniformBoundedness:
    def test_indicator_family(self):
        result = uniform_boundedness(
            [indicator_functional(n) for n in range(6)], TruncatedDomain(6)
        )
        assert result is not None
        assert result.certificate.scale == pytest.approx(1.0)
        assert result.certificate.order == 0
        assert result.dual_bound == pytest.approx(
            np.sqrt(np.sinh(np.pi) / np.pi), rel=1e-12
        )

    def test_zero_family(self):
        result = uniform_boundedness([FockCoefficients.zero()], TruncatedDomain(3))
        assert result.certificate.scale == 0.0

    def test_growing_family_certificate_grows(self):
        family = [FockCoefficients({FiniteSubset(0): float(n)}) for n in range(1, 20)]
        scales = [
            uniform_boundedness(family[:k], TruncatedDomain(2)).certificate.scale
            for k in (5, 10, 19)
        ]
        assert scales == sorted(scales) and scales[0] < scales[-1]

    def test_empty_family(self):
        with pytest.raises(ValueError):
            uniform_boundedness([], TruncatedDomain(2))

    def test_bounded_iff_converged_for_martingales(self):
        # bounded martingale family -> certificate and CONVERGED agree;
        # the unbounded-at-empty-set family fails both
        phi = FockCoefficients({FiniteSubset(0): 2.0, FiniteSubset(3): 1j})
        good = approximation_sequence(phi, 8)
        d = TruncatedDomain(4)
        assert uniform_boundedness(good.terms, d) is not None
        assert strong_convergence_test(good, d, tol=0.0).status is ConvergenceStatus.CONVERGED

        bad = diverging_at_empty(11)
        verdict = strong_convergence_test(bad, d)
        assert verdict.status is ConvergenceStatus.DIVERGED


class TestSequenceSerialization:
    def test_roundtrip(self):
        seq = indicator_sequence(3)
        data = seq.to_json_dict()
        assert data["format"] == "fock-sequence/v1"
        back = FunctionalSequence.from_json_dict(data)
        assert len(back) == len(seq)
        for a, b in zip(back.terms, seq.terms):
            assert a.equal_on(b, TruncatedDomain(3), tol=0.0)

    def test_format_checked(self):
        with pytest.raises(ValueError):
            FunctionalSequence.from_json_dict({"format": "other", "terms": []})


def per_column_stabilization(values, tol):
    """Reference: one past the last moving step of each column, by a loop."""
    diffs = np.abs(np.diff(values, axis=0)) > tol
    out = np.zeros(values.shape[1], dtype=int)
    for col in range(values.shape[1]):
        moving = np.nonzero(diffs[:, col])[0]
        out[col] = int(moving[-1]) + 1 if moving.size else 0
    return out


class TestStabilizationIndices:
    @given(st.integers(1, 30), st.integers(1, 200), st.integers(0, 2**32 - 1))
    def test_matches_per_column_loop(self, rows, cols, seed):
        # Steps of 1.0 move; steps of 0, tol/2 or exactly tol do not.  All
        # partial sums are small dyadic rationals, so the differences are exact.
        tol = 0.5
        rng = np.random.default_rng(seed)
        moving = rng.random((rows - 1, cols)) < rng.random()
        moving[:, 0] = False
        if rows > 1 and cols > 1:
            moving[:, -1] = False
            moving[-1, -1] = True
        still = rng.choice([0.0, tol / 2, tol, -tol], size=moving.shape)
        steps = np.where(moving, rng.choice([1.0, -1.0], size=moving.shape), still)
        values = np.vstack([np.zeros((1, cols)), np.cumsum(steps, axis=0)])
        values = values * rng.choice([1.0, 1j])
        got = _stabilization_indices(values, tol)
        expected = per_column_stabilization(values, tol)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert got[0] == 0
        if rows > 1 and cols > 1:
            assert got[-1] == rows - 1

    def test_single_row_gives_zeros(self):
        got = _stabilization_indices(np.ones((1, 5), dtype=complex), 0.0)
        assert got.tolist() == [0] * 5

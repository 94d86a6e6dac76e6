import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from martfock import sequences, subsets
from martfock.convolution import all_ones, approximation_sequence, indicator_functional
from martfock.functionals import (FockCoefficients, dual_norm_bound, fit_growth,
                                  fit_growth_values)
from martfock.rademacher import (
    SampleSpace,
    chaos_expand,
    conditional_expectation,
    fwht,
    random_functional,
)
from martfock.sequences import (
    ConvergenceStatus,
    ConvergenceVerdict,
    FunctionalSequence,
    InsufficientLengthError,
    NotAMartingaleError,
    SigmaDiagnostic,
    SigmaDiagnostics,
    classical_to_sequence,
    is_generalized_martingale,
    martingale_limit,
    strong_convergence_test,
    uniform_boundedness,
)
from martfock.subsets import (
    DomainTooLargeError,
    FiniteSubset,
    TruncatedDomain,
    weight,
    weight_vector,
)


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

    def test_guard_applies_to_table_terms(self, monkeypatch):
        # A budget of the predicate's plan over {0..3}: 16 masks at
        # PREDICATE_BYTES (48) each, 768 bytes.
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", 16 * sequences.PREDICATE_BYTES)
        seq = FunctionalSequence([FockCoefficients.zero(),
                                  FockCoefficients({FiniteSubset(0): 1.0})])
        assert is_generalized_martingale(seq, TruncatedDomain(3))[0] is False
        with pytest.raises(DomainTooLargeError):
            is_generalized_martingale(seq, TruncatedDomain(4))


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

    def test_terms_equal_filtered_full_table(self):
        # The per-term filter of the whole chaos table, kept as the oracle.
        sp = SampleSpace(6)
        f = random_functional(sp, 12)
        coeffs = fwht(f.values) / sp.size
        full = {FiniteSubset(int(m)): complex(coeffs[m]) for m in np.nonzero(coeffs)[0]}
        assert chaos_expand(f).table_items() == list(full.items())
        seq = classical_to_sequence(f)
        for n, term in enumerate(seq.terms):
            expected = [(s, v) for s, v in full.items() if s.mask < (1 << (n + 1))]
            got = term.table_items()
            assert [s for s, _ in got] == [s for s, _ in expected]
            assert [repr(v) for _, v in got] == [repr(v) for _, v in expected]
            assert term.support_bound == n

    @pytest.mark.parametrize("horizon", [0, 1, 5, 12])
    def test_terms_are_views_of_one_table(self, horizon):
        # Each term is the prefix of the last one's arrays, with the masks,
        # value bits and bound of a table built from its own coefficients.
        f = random_functional(SampleSpace(horizon), 7)
        coeffs = fwht(f.values) / f.space.size
        seq = classical_to_sequence(f)
        last = seq[horizon]
        for n, term in enumerate(seq.terms):
            alone = FockCoefficients.from_vector(coeffs[: 2 << n], n)
            assert np.array_equal(term._masks, alone._masks)
            assert np.array_equal(term._values.view(np.int64), alone._values.view(np.int64))
            assert term.support_bound == n
            assert np.shares_memory(term._values, last._values) or not term._values.size

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


def table_sequence(rows):
    """One table-backed term per row {mask: coefficient}."""
    return FunctionalSequence(
        [FockCoefficients({FiniteSubset(m): v for m, v in row.items()}) for row in rows]
    )


GROWTH_REASON = "coefficient magnitudes grow past every fitted bound"

# Every branch of strong_convergence_test, default tol and p-grid, with the
# verdict fields recorded before its branches were merged into one:
# (sequence, domain max_index, status, tail_start, witness (mask, reason),
#  certificate (scale, order), limit (support_bound, [(mask, repr(value))])).
VERDICT_CASES = {
    "structural-converged": (
        lambda: approximation_sequence(FockCoefficients(
            {FiniteSubset(0): 1.0, FiniteSubset(2): 2.0, FiniteSubset(9): -1j}), 5),
        4, "CONVERGED", 4, None, (2.0, 0.0),
        (4, [(0, "(1+0j)"), (2, "(2+0j)"), (9, "-1j")])),
    "structural-inconclusive": (  # |F| = weight^3: no p in the grid is stable
        lambda: approximation_sequence(FockCoefficients(
            {s: float(weight(s)) ** 3 for s in TruncatedDomain(3)}), 3),
        3, "INCONCLUSIVE", 3, None, None, None),
    "martingale-wider-domain": (
        lambda: approximation_sequence(FockCoefficients(
            {FiniteSubset(0): 1.0, FiniteSubset(2): 2.0, FiniteSubset(5): 0.5j}), 8),
        10, "CONVERGED", 5, None, (2.0, 0.0),
        (10, [(0, "(1+0j)"), (2, "(2+0j)"), (5, "0.5j")])),
    "empirical-converged": (
        lambda: table_sequence(
            [{0: a, 2: 3.0} for a in (1.0, 0.5, 2.0, 2.0, 2.0, 2.0, 2.0)]),
        2, "CONVERGED", 4, None, (3.0, 0.0), (2, [(0, "(2+0j)"), (2, "(3+0j)")])),
    "diverged": (
        lambda: table_sequence([{0: float((n + 1) ** 3), 3: 1.0} for n in range(12)]),
        2, "DIVERGED", 7, (0, GROWTH_REASON), None, None),
    "scan-inconclusive": (
        lambda: table_sequence([{0: 1.0 + 0.5 * (-1) ** n} for n in range(12)]),
        2, "INCONCLUSIVE", 7, None, None, None),
}


@pytest.mark.parametrize("case", VERDICT_CASES.values(), ids=VERDICT_CASES.keys())
def test_verdict_branches_pinned(case):
    build, max_index, status, tail_start, witness, cert, limit = case
    verdict = strong_convergence_test(build(), TruncatedDomain(max_index))
    assert verdict.status.value == status
    assert verdict.tail_start == tail_start
    got_witness = verdict.witness and (verdict.witness[0].mask, verdict.witness[1])
    assert got_witness == witness
    got_cert = verdict.uniform_certificate
    assert (got_cert and (got_cert.scale, got_cert.order)) == cert
    got_limit = verdict.limit and (
        verdict.limit.support_bound,
        [(s.mask, repr(v)) for s, v in verdict.limit.table_items()])
    assert got_limit == limit
    assert len(verdict.diagnostics) == 1 << (max_index + 1)


def stacked(seq, domain):
    """Every term's coefficients over the domain, one row per term: the
    matrix the oracles below read."""
    return np.array(list(seq.rows(domain)))


# The per-subset row builder and the per-candidate divergence loop that
# strong_convergence_test replaced with columns and whole-array comparisons,
# kept as references.
def reference_rows(seq, domain, tol, cert):
    values = stacked(seq, domain)
    weights = weight_vector(domain)
    sup_abs = np.abs(values).max(axis=0)
    stab = per_column_stabilization(values, tol)
    margins = (cert.bound_at(weights) - sup_abs if cert is not None
               else np.full_like(sup_abs, np.nan))
    return tuple(
        SigmaDiagnostic(FiniteSubset(int(m)), int(stab[m]),
                        float(sup_abs[m]), float(margins[m]))
        for m in range(domain.size)
    )


def reference_verdict(seq, domain, tol=1e-9, p_grid=(0.0, 1.0, 2.0)):
    """(status, witness mask or None, tail_start) by the old branch logic."""
    k_last = len(seq) - 1
    values = stacked(seq, domain)
    weights = weight_vector(domain)
    stab = per_column_stabilization(values, tol)
    if domain.max_index <= k_last and is_generalized_martingale(seq, domain, tol)[0]:
        tail_start, settled = domain.max_index, True
    else:
        tail_start = k_last - max(2, len(seq) // 3)
        settled = bool(np.all(stab <= tail_start))
    if settled:
        _, cert = fit_growth_values(np.abs(values).max(axis=0), weights, p_grid)
        return ("INCONCLUSIVE" if cert is None else "CONVERGED"), None, tail_start
    head_sup = np.abs(values[: tail_start + 1]).max(axis=0)
    head_curve, _ = fit_growth_values(head_sup, weights, p_grid, domain)
    tail_abs = np.abs(values[tail_start:])
    for m in np.nonzero(stab > tail_start)[0]:
        col = tail_abs[:, m]
        if not np.all(np.diff(col) > 0):
            continue
        margins = [col[-1] - c * weights[m] ** p for p, c in head_curve.items()]
        growing = all(
            col[-1] - c * weights[m] ** p > col[-2] - c * weights[m] ** p
            for p, c in head_curve.items()
        )
        if min(margins) > 0 and growing:
            return "DIVERGED", int(m), tail_start
    return "INCONCLUSIVE", None, tail_start


def row_fields(rows):
    return [(r.sigma.mask, r.stabilization_index, repr(r.sup_abs),
             repr(r.certificate_margin)) for r in rows]


def assert_matches_references(seq, domain, tol=1e-9):
    verdict = strong_convergence_test(seq, domain, tol)
    status, witness, tail_start = reference_verdict(seq, domain, tol)
    assert verdict.status.value == status
    assert (verdict.witness and verdict.witness[0].mask) == witness
    assert verdict.tail_start == tail_start
    expected = row_fields(reference_rows(seq, domain, tol, verdict.uniform_certificate))
    view = verdict.diagnostics
    assert row_fields(view) == expected
    assert row_fields(view[m] for m in range(len(view))) == expected
    return verdict


def growth_sequence(head, tails):
    """One term per row; column m holds head[m] up to term 7 and tails[m] in
    terms 8..11 (tail_start is 7 for twelve terms)."""
    return table_sequence(
        [dict(enumerate(head))] * 8
        + [{m: t[n] for m, t in enumerate(tails)} for n in range(4)])


# Masks 1..3 grow to exactly the head maximum 16 at mask 0: every candidate
# ties its p = 0 bound, so the scan finds none.
TIED_SCAN = growth_sequence([16.0, 1.0, 1.0, 1.0],
                            [[0.0] * 4] + [[2.0, 4.0, 8.0, 16.0]] * 3)
# Masks 1 and 2 tie; mask 3 grows past 16 and is the smallest qualifying mask.
LATE_WITNESS = growth_sequence([16.0, 1.0, 1.0, 1.0],
                               [[0.0] * 4] + [[2.0, 4.0, 8.0, 16.0]] * 2
                               + [[2.0, 4.0, 8.0, 500.0]])


@st.composite
def generated_sequences(draw):
    """Sequences over a small domain that reach every branch: truncation
    martingales, and table sequences of growing, constant, settling and
    arbitrary columns from a few dyadic magnitudes, so that stabilisation
    steps, bounds and margins tie often."""
    max_index = draw(st.integers(0, 3))
    length = draw(st.integers(3, 12))
    magnitudes = st.sampled_from([0.0, 0.5, 1.0, 2.0, 4.0, 16.0])
    shape = draw(st.sampled_from(["martingale", "settled", "mixed"]))
    if shape == "martingale":
        phi = {FiniteSubset(m): v for m in range(2 << max_index)
               if (v := draw(magnitudes) * draw(st.sampled_from([1.0, -1j])))}
        return (approximation_sequence(FockCoefficients(phi), length - 1),
                TruncatedDomain(max_index))
    kinds = ["constant", "settle"] + (["grow", "any"] if shape == "mixed" else [])
    columns = []
    for _ in range(2 << max_index):
        kind = draw(st.sampled_from(kinds))
        if kind == "grow":
            steps = draw(st.lists(st.sampled_from([1.0, 2.0, 8.0]),
                                  min_size=length, max_size=length))
            columns.append(np.cumsum(steps) * draw(st.sampled_from([1.0, -1.0, 1j])))
        elif kind == "constant":
            columns.append(np.full(length, draw(magnitudes)))
        else:
            cut = draw(st.integers(0, length)) if kind == "settle" else length
            column = draw(st.lists(magnitudes, min_size=length, max_size=length))
            columns.append(np.array(column[:cut] + [column[-1]] * (length - cut)))
    rows = np.array(columns, dtype=complex).T
    seq = table_sequence([{m: v for m, v in enumerate(row) if v != 0} for row in rows])
    return seq, TruncatedDomain(max_index)


class TestColumnarDiagnostics:
    @pytest.mark.parametrize("case", VERDICT_CASES.values(), ids=VERDICT_CASES.keys())
    def test_verdict_cases_match_references(self, case):
        build, max_index = case[:2]
        assert_matches_references(build(), TruncatedDomain(max_index))
        assert_streamed_matches_matrix(build(), TruncatedDomain(max_index))

    @settings(max_examples=200)
    @given(generated_sequences())
    def test_generated_sequences_match_references(self, drawn):
        assert_matches_references(*drawn)

    def test_scan_where_every_candidate_ties(self):
        verdict = assert_matches_references(TIED_SCAN, TruncatedDomain(1))
        assert verdict.status is ConvergenceStatus.INCONCLUSIVE
        assert list(verdict.diagnostics.stabilization_index) == [8, 11, 11, 11]
        assert all(math.isnan(r.certificate_margin) for r in verdict.diagnostics)

    def test_witness_is_smallest_qualifying_mask(self):
        verdict = assert_matches_references(LATE_WITNESS, TruncatedDomain(1))
        assert verdict.status is ConvergenceStatus.DIVERGED
        assert verdict.witness[0] == FiniteSubset(3)

    def test_growth_lost_to_rounding_is_no_witness(self):
        # Mask 1 rises to 1.0 past the bound b = 3 * 2^-54, but 1.0 - b and
        # (1 - 2^-53) - b round to the same double: its excess does not grow.
        bound = 3 * 2.0 ** -54
        seq = table_sequence([{0: bound, 1: v} for v in
                              [0.0] * 7 + [2.0 ** -60, 0.25, 0.5, 1 - 2.0 ** -53, 1.0]])
        verdict = assert_matches_references(seq, TruncatedDomain(0))
        assert verdict.status is ConvergenceStatus.INCONCLUSIVE

    def test_bound_rounds_as_scalar_pow(self):
        # Mask 32750 (weight 261534873600) rises to exactly weight^2, the p = 2
        # bound as a scalar ** gives it: a tie, not a witness.  An array **
        # with a SIMD pow can come out one ulp lower and find one.
        w = weight(FiniteSubset(32750))
        seq = table_sequence([{0: 1.0, 32750: v} for v in
                              [0.0] * 7 + [1.0, 2.0, 4.0, 8.0, w ** 2.0]])
        verdict = assert_matches_references(seq, TruncatedDomain(14))
        assert verdict.status is ConvergenceStatus.INCONCLUSIVE

    def test_tied_margins(self):
        # Two subsets reach the certificate scale: both margins are 0.
        seq = FunctionalSequence([FockCoefficients(
            {FiniteSubset(0): 3.0, FiniteSubset(1): 3.0, FiniteSubset(2): 1.0})] * 4)
        verdict = assert_matches_references(seq, TruncatedDomain(1))
        assert verdict.diagnostics.certificate_margin.tolist() == [0.0, 0.0, 2.0, 3.0]

    def test_view_semantics(self):
        verdict = strong_convergence_test(indicator_sequence(3), TruncatedDomain(3),
                                          tol=0.0)
        view = verdict.diagnostics
        rows = reference_rows(indicator_sequence(3), TruncatedDomain(3), 0.0,
                              verdict.uniform_certificate)
        assert len(view) == 16
        assert view[0] == rows[0] and view[-1] == rows[-1] == view[15]
        assert view[-16] == rows[0]
        for index in (16, -17):
            with pytest.raises(IndexError):
                view[index]
        assert tuple(view) == rows
        assert view[2:5] == rows[2:5] and view[::-4] == rows[::-4]
        assert list(reversed(view)) == list(reversed(rows))
        for column in (view.stabilization_index, view.sup_abs, view.certificate_margin):
            assert column.shape == (16,)
            with pytest.raises(ValueError):
                column[0] = 7
        swapped = list(view)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        replaced = dataclasses.replace(verdict, diagnostics=tuple(swapped))
        assert replaced.diagnostics == tuple(swapped)
        assert len(replaced.diagnostics) == 16
        assert replaced.status is verdict.status


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

    def test_needs_two_terms(self):
        with pytest.raises(InsufficientLengthError):
            martingale_limit(indicator_sequence(0), TruncatedDomain(3))
        # the empty domain needs only term 0, and one term is still refused
        with pytest.raises(InsufficientLengthError, match="need at least two terms"):
            martingale_limit(indicator_sequence(0), TruncatedDomain(0))

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

    def test_domain_length_is_refused_before_the_plan(self):
        # 2^31 masks at 64 bytes each are over any budget; the refusal is
        # the one no budget would cure.
        with pytest.raises(InsufficientLengthError,
                           match="^domain needs terms up to index 30, sequence has 3$"):
            martingale_limit(indicator_sequence(2), TruncatedDomain(30))

    def test_too_short_and_broken_is_refused_for_its_length(self):
        bad = FunctionalSequence([
            FockCoefficients({FiniteSubset(0): 1.0}),
            FockCoefficients({FiniteSubset(0): 2.0}),
        ])
        assert is_generalized_martingale(bad, TruncatedDomain(2), tol=0.0) == (
            False, (0, FiniteSubset(0)))
        with pytest.raises(InsufficientLengthError,
                           match="^domain needs terms up to index 2, sequence has 2$"):
            martingale_limit(bad, TruncatedDomain(2), tol=0.0)

    def test_drift_below_tol_keeps_first_covering_term(self):
        # Term n holds base + n * 1e-12 on subsets of {0..n}: a martingale at
        # tol 1e-9 whose values drift, so the limit is not the last term.
        domain = TruncatedDomain(4)
        base = {s: complex(weight(s), -len(s)) for s in domain}
        seq = FunctionalSequence([
            FockCoefficients({s: v + n * 1e-12 for s, v in base.items()
                              if s.mask < (1 << (n + 1))}, support_bound=n)
            for n in range(6)
        ])
        limit = martingale_limit(seq, domain, tol=1e-9)
        # The per-subset loop martingale_limit replaces, kept as the oracle.
        oracle = {}
        for sigma in domain:
            value = seq[sigma.max_element() or 0].evaluate(sigma)
            if value != 0:
                oracle[sigma] = value
        assert limit.table_items() == list(oracle.items())
        assert limit.support_bound == 4
        assert not np.array_equal(limit.values_on(domain),
                                  stacked(seq, domain)[-1])


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_tol_must_be_finite_and_nonnegative(tol):
    # A NaN or infinite tol made every "> tol" test false: any sequence
    # passed the predicate and settled.
    seq = FunctionalSequence([FockCoefficients({FiniteSubset(0): float((n + 1) ** 3)},
                                               support_bound=2) for n in range(12)])
    domain = TruncatedDomain(2)
    for check in (is_generalized_martingale, strong_convergence_test, martingale_limit):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check(seq, domain, tol)


BAD_GRIDS = {"empty": ([], "p_grid must be nonempty"),
             "nan": ([float("nan")], "growth orders must be finite and nonnegative"),
             "negative": ([-1.0], "growth orders must be finite and nonnegative")}


def unread_family():
    raise AssertionError("a term was read")
    yield  # a generator: the body runs at the first read


@pytest.mark.parametrize("grid", sorted(BAD_GRIDS))
def test_growth_grid_is_refused_before_the_plan(grid, no_plan):
    # The grid alone decides these refusals; they came after the
    # whole-domain read, and uniform_boundedness's after every term.
    p_grid, message = BAD_GRIDS[grid]
    seq, domain = diverging_at_empty(3), TruncatedDomain(2)
    for refused in (lambda: strong_convergence_test(seq, domain, p_grid=p_grid),
                    lambda: uniform_boundedness(unread_family(), domain, p_grid),
                    lambda: fit_growth(seq[0], domain, p_grid)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            refused()


def test_verdict_arguments_are_refused_in_order(no_plan):
    # terms, then tol, then the grid, each before the plan
    nan, domain = float("nan"), TruncatedDomain(2)
    with pytest.raises(InsufficientLengthError, match="^need at least three terms"):
        strong_convergence_test(diverging_at_empty(1), domain, nan, [])
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative, got nan$"):
        strong_convergence_test(diverging_at_empty(2), domain, nan, [])
    with pytest.raises(ValueError, match="^p_grid must be nonempty$"):
        strong_convergence_test(diverging_at_empty(2), domain, 0.0, [])


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

    def test_overflowing_dual_bound_is_refused(self):
        # the certificate (1e308, 0) is finite, its dual bound was inf
        family = [FockCoefficients({FiniteSubset(0): 1e308})]
        with pytest.raises(ValueError, match="the dual norm bound overflows"):
            uniform_boundedness(family, TruncatedDomain(2))

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
    """The stabilization column of strong_convergence_test, which the
    streamed pass keeps as it reads the terms."""

    @given(st.integers(3, 30), st.integers(0, 7), st.integers(0, 2**32 - 1))
    def test_matches_per_column_loop(self, rows, max_index, seed):
        # Steps of 1.0 move; steps of 0, tol/2 or exactly tol do not.  All
        # partial sums are small dyadic rationals, so the differences are exact.
        tol, cols = 0.5, 2 << max_index
        rng = np.random.default_rng(seed)
        moving = rng.random((rows - 1, cols)) < rng.random()
        moving[:, 0] = False
        moving[:, -1] = False
        moving[-1, -1] = True
        still = rng.choice([0.0, tol / 2, tol, -tol], size=moving.shape)
        steps = np.where(moving, rng.choice([1.0, -1.0], size=moving.shape), still)
        values = np.vstack([np.zeros((1, cols)), np.cumsum(steps, axis=0)])
        values = values * rng.choice([1.0, 1j])
        seq = FunctionalSequence([FockCoefficients.from_vector(row, max_index)
                                  for row in values])
        got = strong_convergence_test(seq, TruncatedDomain(max_index), tol)
        got = got.diagnostics.stabilization_index
        expected = per_column_stabilization(values, tol)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert got[0] == 0
        assert got[-1] == rows - 1

    def test_constant_terms_give_zeros(self):
        seq = FunctionalSequence([FockCoefficients.from_vector(np.ones(4, complex), 1)] * 3)
        got = strong_convergence_test(seq, TruncatedDomain(1), 0.0).diagnostics
        assert got.stabilization_index.tolist() == [0] * 4


# The matrix implementation that the streamed paths replaced, kept as their
# oracle: every term over the domain at once, whole-matrix abs and diff.
def matrix_witness(values, tol):
    for n in range(len(values) - 1):
        truncation = values[n + 1].copy()
        truncation[2 << n:] = 0
        with np.errstate(over="ignore"):  # an infinite difference exceeds tol
            bad = np.flatnonzero(np.abs(values[n] - truncation) > tol)
        if bad.size:
            return n, FiniteSubset(int(bad[0]))
    return None


def matrix_stabilization_indices(values, tol):
    with np.errstate(over="ignore"):  # an infinite step exceeds tol
        diffs = np.abs(np.diff(values, axis=0)) > tol
    k = diffs.shape[0]
    last = k - np.argmax(diffs[::-1], axis=0)
    return np.where(diffs.any(axis=0), last, 0)


def matrix_convergence_test(seq, domain, tol=1e-9, p_grid=(0.0, 1.0, 2.0)):
    k_last = len(seq) - 1
    values = stacked(seq, domain)
    weights = weight_vector(domain)
    sup_abs = np.abs(values).max(axis=0)
    stab = matrix_stabilization_indices(values, tol)

    def _diagnostics(cert):
        margins = (cert.bound_at(weights) - sup_abs if cert is not None
                   else np.full_like(sup_abs, np.nan))
        return SigmaDiagnostics(stab, sup_abs, margins)

    if domain.max_index <= k_last and matrix_witness(values, tol) is None:
        tail_start, settled = domain.max_index, True
    else:
        tail_start = k_last - max(2, len(seq) // 3)
        settled = bool(np.all(stab <= tail_start))
    if settled:
        _, cert = fit_growth_values(sup_abs, weights, p_grid, domain)
        if cert is None:
            return ConvergenceVerdict(ConvergenceStatus.INCONCLUSIVE, tail_start=tail_start,
                                      diagnostics=_diagnostics(None))
        return ConvergenceVerdict(
            ConvergenceStatus.CONVERGED,
            limit=FockCoefficients.from_vector(values[-1], domain.max_index),
            uniform_certificate=cert, tail_start=tail_start, diagnostics=_diagnostics(cert))
    head_sup = np.abs(values[: tail_start + 1]).max(axis=0)
    head_curve, _ = fit_growth_values(head_sup, weights, p_grid, domain)
    tail_abs = np.abs(values[tail_start:])
    last, before = tail_abs[-1], tail_abs[-2]
    grows = (stab > tail_start) & np.all(np.diff(tail_abs, axis=0) > 0, axis=0)
    for p, c in head_curve.items():
        with np.errstate(over="ignore", invalid="ignore"):
            bound = c * np.float_power(weights, p)
        grows &= (last - bound > 0) & (last - bound > before - bound)
    if grows.any():
        return ConvergenceVerdict(
            ConvergenceStatus.DIVERGED,
            witness=(FiniteSubset(int(np.argmax(grows))), GROWTH_REASON),
            tail_start=tail_start, diagnostics=_diagnostics(None))
    return ConvergenceVerdict(ConvergenceStatus.INCONCLUSIVE, tail_start=tail_start,
                              diagnostics=_diagnostics(None))


def matrix_limit(seq, domain, tol):
    if domain.max_index > len(seq) - 1:
        raise InsufficientLengthError(
            f"domain needs terms up to index {domain.max_index}, sequence has {len(seq)}")
    values = stacked(seq, domain)
    witness = matrix_witness(values, tol)
    if witness is not None:
        raise NotAMartingaleError(witness)
    return FockCoefficients.from_vector(
        np.concatenate([values[0, :2]] + [values[k, 1 << k : 2 << k]
                                          for k in range(1, domain.max_index + 1)]),
        domain.max_index)


def matrix_uniform_sup(family, domain):
    return np.abs(stacked(FunctionalSequence(family), domain)).max(axis=0)


def outcome(call, *args):
    """call(*args), or the type and message of the ValueError it raises."""
    try:
        return call(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def table_fields(phi):
    return phi.support_bound, [(s.mask, repr(v)) for s, v in phi.table_items()]


def verdict_fields(verdict):
    if isinstance(verdict, tuple):  # the error raised
        return verdict
    cert = verdict.uniform_certificate
    return (verdict.status, verdict.tail_start,
            verdict.witness and (verdict.witness[0].mask, verdict.witness[1]),
            cert and (repr(cert.scale), repr(cert.order), cert.domain_checked),
            verdict.limit and table_fields(verdict.limit))


def assert_streamed_matches_matrix(seq, domain, tol=1e-9):
    """Every streamed path against the matrix oracle: the same verdict
    fields and bitwise-equal diagnostics columns (dtype, read-only flag), the
    same predicate witness, limit and sup of |F|."""
    got, want = (outcome(test, seq, domain, tol)
                 for test in (strong_convergence_test, matrix_convergence_test))
    assert verdict_fields(got) == verdict_fields(want)
    if not isinstance(got, tuple):
        for name in ("stabilization_index", "sup_abs", "certificate_margin"):
            a, b = getattr(got.diagnostics, name), getattr(want.diagnostics, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable and not b.flags.writeable
    witness = matrix_witness(stacked(seq, domain), tol)
    assert is_generalized_martingale(seq, domain, tol) == (witness is None, witness)
    limits = [outcome(limit, seq, domain, tol) for limit in (martingale_limit, matrix_limit)]
    got_limit, want_limit = [x if isinstance(x, tuple) else table_fields(x) for x in limits]
    assert got_limit == want_limit
    _, cert = fit_growth_values(matrix_uniform_sup(seq.terms, domain),
                                weight_vector(domain), (0.0, 1.0, 2.0), domain)
    try:
        bound = uniform_boundedness(seq.terms, domain)
    except ValueError:  # only where the certificate's dual bound overflows
        with pytest.raises(ValueError, match="the dual norm bound overflows"):
            dual_norm_bound(cert, cert.order + 1.0)
    else:
        assert (bound and bound.certificate) == cert
    return got


def explicit_sequence(rows, max_index):
    """One table per row of {mask: value}, every entry stored, zeros too."""
    return FunctionalSequence([
        FockCoefficients({FiniteSubset(m): v for m, v in row.items()}, support_bound=max_index)
        for row in rows])


def cut(values, level):
    """The martingale term at level: the entries of values below 2^(level+1)."""
    return {m: v for m, v in values.items() if m < 2 << level}


BIG = {0: 1.0, 1: 1e308, 2: -0.0, 3: -1e308j}
# name -> (rows, max_index): each takes a streamed path at an edge.
STREAMED_CASES = {
    "three-terms": ([{0: 1.0}, {0: 2.0}, {0: 2.0}], 0),
    "domain-past-last-term": ([cut(BIG, n) for n in range(3)] , 4),
    "domain-at-last-term": ([cut(BIG, n) for n in range(3)], 2),
    "witness-at-first-pair": ([{0: 1.0, 1: 3.0}, {0: 1.0, 1: 2.0}, {0: 1.0, 1: 2.0}], 1),
    "witness-at-last-pair": ([cut(BIG, n) for n in range(3)] + [{**BIG, 2: 5.0}], 1),
    "infinite-differences": ([{0: (-1.0) ** n * 1e308, 1: 1e308j} for n in range(6)], 1),
    "negative-zero": ([{0: -0.0, 1: complex(-0.0, -0.0), 2: 1.0} for _ in range(4)], 1),
}


@st.composite
def streamed_sequences(draw):
    """(sequence, domain, tol): 3 to 8 terms over max_index 0..4, so the
    domain lies on both sides of the last term index.  Truncation
    martingales, some with one term changed (a witness at the first, the
    last or any pair), and columns that stay, settle, grow or jump; entries
    include -0.0 (stored) and +-1e308, whose differences overflow."""
    max_index, length = draw(st.integers(0, 4)), draw(st.integers(3, 8))
    size = 2 << max_index
    entries = st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, 16.0, 1e308, -1e308])
    phases = st.sampled_from([1.0, -1.0, 1j])
    shape = draw(st.sampled_from(["martingale", "broken", "columns"]))
    if shape == "columns":
        columns = []
        for _ in range(size):
            kind = draw(st.sampled_from(["constant", "settle", "grow", "any"]))
            if kind == "grow":
                steps = draw(st.lists(st.sampled_from([1.0, 2.0, 8.0]),
                                      min_size=length, max_size=length))
                columns.append(list(np.cumsum(steps) * draw(phases)))
            else:
                cut_at = draw(st.integers(0, length)) if kind == "settle" else length
                column = draw(st.lists(entries, min_size=length, max_size=length))
                if kind == "constant":
                    column = [column[0]] * length
                columns.append(column[:cut_at] + [column[-1]] * (length - cut_at))
        rows = [{m: complex(columns[m][n]) for m in range(size)} for n in range(length)]
    else:
        base = {m: draw(entries) * draw(phases) for m in range(size)}
        rows = [cut(base, n) for n in range(length)]
        if shape == "broken":
            n = draw(st.sampled_from([0, length - 1, draw(st.integers(0, length - 1))]))
            rows[n][draw(st.integers(0, size - 1))] = draw(entries) + 0.25
    tol = draw(st.sampled_from([0.0, 1e-9, 0.5]))
    return explicit_sequence(rows, max_index), TruncatedDomain(max_index), tol


class TestStreamedMatchesMatrix:
    @pytest.mark.parametrize("name", STREAMED_CASES)
    def test_edge_cases(self, name):
        rows, max_index = STREAMED_CASES[name]
        assert_streamed_matches_matrix(explicit_sequence(rows, max_index),
                                       TruncatedDomain(max_index))

    def test_edge_cases_reach_their_edges(self):
        def witness(name, tol=1e-9):
            rows, max_index = STREAMED_CASES[name]
            return is_generalized_martingale(explicit_sequence(rows, max_index),
                                             TruncatedDomain(max_index), tol)[1]
        assert witness("witness-at-first-pair") == (0, FiniteSubset(1))
        assert witness("witness-at-last-pair") == (2, FiniteSubset(2))
        assert witness("infinite-differences") == (0, FiniteSubset(0))
        rows, max_index = STREAMED_CASES["domain-past-last-term"]
        verdict = strong_convergence_test(explicit_sequence(rows, max_index),
                                          TruncatedDomain(max_index))
        assert verdict.tail_start == 0  # the generic tail: no structural branch

    @settings(max_examples=200, deadline=None)
    @example((explicit_sequence([{0: 1.0, 1: 2.0}] * 3, 0), TruncatedDomain(0), 0.0))
    @given(streamed_sequences())
    def test_generated_sequences(self, drawn):
        assert_streamed_matches_matrix(*drawn)

    def test_overflowing_magnitude_is_refused(self):
        # |1.5e308 + 1.5e308i| overflows to inf, and np.abs raises no flag
        # for it; the matrix path let it through as an inf sup.
        seq = explicit_sequence([{0: 1.0}, {0: complex(1.5e308, 1.5e308)}, {0: 1.0}], 1)
        message = ("coefficient magnitude of term 1 at FiniteSubset({}) overflows "
                   "the float range")
        for call in (lambda: strong_convergence_test(seq, TruncatedDomain(1)),
                     lambda: uniform_boundedness(seq.terms, TruncatedDomain(1))):
            with pytest.raises(ValueError) as refused:
                call()
            assert str(refused.value) == message


# F(sigma) = c * weight(sigma)^a: off the growth grid (0, 1, 2), so the fitted
# certificate is (|c|, the smallest grid order p >= a) with no rounding tie.
POWER_LAWS = [(-0.5, 1.0), (-1.0, 3 - 4j), (0.25, -2.5), (0.5, 1e-3j), (1.5, 7.0)]
CLOSED_FORM_TOL = 2.0 ** -51  # 4 ulp of the bound |c| * weight^p


class TestClosedFormVerdict:
    """strong_convergence_test on the truncations of c * weight^a at levels
    0..N, N = 2..12 (a verdict needs three terms), against the closed form
    evaluated by mpmath at 50 digits."""

    @pytest.mark.parametrize("a,c", POWER_LAWS)
    def test_power_law_verdict(self, a, c):
        p = min(q for q in (0.0, 1.0, 2.0) if q >= a)
        w = weight_vector(TruncatedDomain(12))
        phi = FockCoefficients.from_vector(c * np.float_power(w, a), 12)
        verdicts = {n: strong_convergence_test(approximation_sequence(phi, n), TruncatedDomain(n))
                    for n in range(2, 13)}
        margins = verdicts[12].diagnostics.certificate_margin
        with mpmath.workdps(50):
            modulus = mpmath.sqrt(mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2)
            powers = {x: (mpmath.mpf(x) ** a, mpmath.mpf(x) ** p) for x in set(w.tolist())}
            exact = [(modulus * powers[x][0], modulus * powers[x][1]) for x in w.tolist()]
            # |computed margin - |c| (weight^p - weight^a)|, over the bound |c| weight^p
            errors = [float(abs(mpmath.mpf(m) - (bound - sup)) / bound)
                      for m, (sup, bound) in zip(margins.tolist(), exact)]
            sup_errors = [float(abs(mpmath.mpf(m) - sup) / sup)
                          for m, (sup, _) in zip(verdicts[12].diagnostics.sup_abs.tolist(), exact)]
            moved = np.array([sup > 1e-9 for sup, _ in exact])
            scale_error = float(abs(mpmath.mpf(abs(c)) - modulus) / modulus)
        assert max(errors) <= CLOSED_FORM_TOL and max(sup_errors) <= CLOSED_FORM_TOL
        assert scale_error <= CLOSED_FORM_TOL
        for n, verdict in verdicts.items():
            size = 2 << n
            assert verdict.status is ConvergenceStatus.CONVERGED and verdict.tail_start == n
            cert = verdict.uniform_certificate
            assert (cert.scale, cert.order) == (abs(c), p)
            view = verdict.diagnostics
            # Every column at level n is the prefix of the level-12 column.
            assert view.certificate_margin.tobytes() == margins[:size].tobytes()
            top = np.floor(np.log2(np.maximum(np.arange(size), 1))).astype(int)
            assert np.array_equal(view.stabilization_index, np.where(moved[:size], top, 0))
            limit = verdict.limit.values_on(TruncatedDomain(n))
            assert limit.tobytes() == phi.values_on(TruncatedDomain(n)).tobytes()

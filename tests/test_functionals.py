import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from martfock import subsets
from martfock.functionals import (
    FockCoefficients,
    GrowthCertificate,
    InsufficientOrderError,
    dual_norm_bound,
    fit_growth,
    pairing,
    sobolev_norm,
    verify_certificate,
)
from martfock.convolution import approximation_sequence, indicator_functional
from martfock.subsets import (
    DomainTooLargeError,
    FiniteSubset,
    TruncatedDomain,
    weight,
    weight_vector,
)


def table_functional(entries):
    return FockCoefficients({FiniteSubset.from_elements(e): v for e, v in entries})


coeff_tables = st.dictionaries(
    st.integers(min_value=0, max_value=31),  # masks over {0..4}
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    max_size=8,
)


class TestFockCoefficients:
    def test_evaluate_table(self):
        phi = table_functional([([], 1.0)])
        assert phi.evaluate(FiniteSubset(0)) == 1.0
        assert phi.evaluate(FiniteSubset.from_elements([3])) == 0

    def test_evaluate_indicator_family(self):
        psi2 = indicator_functional(2)
        assert psi2.evaluate(FiniteSubset.from_elements([0, 1])) == 1.0
        assert psi2.evaluate(FiniteSubset.from_elements([3])) == 0

    def test_rule_memoization_agrees(self):
        calls = []

        def rule(sigma):
            calls.append(sigma)
            return weight(sigma)

        phi = FockCoefficients.from_rule(rule)
        s = FiniteSubset.from_elements([1, 2])
        assert phi.evaluate(s) == 6
        assert phi.evaluate(s) == 6
        assert calls == [s]  # second hit served from the cache

    def test_scalar_rule_called_once_per_mask_across_composites(self):
        # The adapted rule's memo is shared by every composite built on it:
        # each approximant's terms and repeated reads call the rule once per
        # mask in all.
        calls = collections.Counter()

        def rule(sigma):
            calls[sigma.mask] += 1
            return 1.0 / weight(sigma)

        phi = FockCoefficients.from_rule(rule)
        domain = TruncatedDomain(6)
        seq = approximation_sequence(2.0 * phi, 8)
        for _ in range(2):
            for term in seq.terms:
                term.values_on(domain)
            phi.values_on(domain)
            phi.values_on(TruncatedDomain(3))
        assert calls == collections.Counter(range(domain.size))

    def test_support_bound_inferred_and_enforced(self):
        phi = table_functional([([0, 4], 1.0)])
        assert phi.support_bound == 4
        with pytest.raises(ValueError):
            FockCoefficients({FiniteSubset.from_elements([5]): 1.0}, support_bound=3)

    def test_values_on_domain(self):
        phi = table_functional([([1], 2.0), ([0, 1], -1j)])
        v = phi.values_on(TruncatedDomain(1))
        assert list(v) == [0, 0, 2.0, -1j]

    def test_values_on_drops_keys_outside_domain(self):
        masks = (0, 5, 6, 8, 70, 1 << 40, (1 << 64) - 1)
        phi = FockCoefficients({FiniteSubset(m): complex(m % 97, 1) for m in masks})
        expected = np.zeros(8, dtype=complex)
        for m in (0, 5, 6):
            expected[m] = complex(m, 1)
        assert np.array_equal(phi.values_on(TruncatedDomain(2)), expected)
        assert np.array_equal(FockCoefficients.zero().values_on(TruncatedDomain(1)),
                              np.zeros(4, dtype=complex))

    def test_restricted_drops_outside(self):
        phi = table_functional([([0], 1.0), ([3], 5.0)])
        r = phi.restricted(TruncatedDomain(1))
        assert r.evaluate(FiniteSubset.from_elements([0])) == 1.0
        assert r.evaluate(FiniteSubset.from_elements([3])) == 0
        assert r.support_bound == 1

    def test_guard_applies_to_tables(self, monkeypatch):
        # A budget of one complex128 vector over {0..3}: a vector over 2^5
        # masks is refused, however few entries back the table.
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", 16 * 16)
        domain = TruncatedDomain(4)
        for phi in (FockCoefficients.zero(), table_functional([([0], 1.0)])):
            with pytest.raises(DomainTooLargeError):
                phi.values_on(domain)
        with pytest.raises(DomainTooLargeError):
            FockCoefficients.from_rule(lambda s: 1.0).restricted(domain)
        assert FockCoefficients.zero().values_on(TruncatedDomain(3)).size == 16

    @pytest.mark.parametrize("entries", [
        [],
        [0.0, -0.0, complex(-0.0, -0.0), 0.0],
        [1.0, 0.0, -0.0, 2 - 3j, 0.0, complex(0.0, -0.0), 5e-324, -1.0],
        [math.nan, 0.0, complex(0.0, math.nan), math.inf, -math.inf, 0.0,
         complex(-math.inf, 1.0), complex(0.0, -0.0)],
    ])
    def test_from_vector_matches_comprehension(self, entries):
        values = np.array(entries + [0.0] * (8 - len(entries)), dtype=np.complex128)
        # The dense-to-table loop from_vector replaces, kept as the oracle.
        oracle = {FiniteSubset(int(m)): complex(values[m]) for m in np.nonzero(values)[0]}
        phi = FockCoefficients.from_vector(values, 2)
        got = dict(phi.table_items())
        assert list(got) == list(oracle)
        assert [repr(v) for v in got.values()] == [repr(v) for v in oracle.values()]
        assert phi.support_bound == 2

    def test_from_vector_checks_support_bound(self):
        with pytest.raises(ValueError):
            FockCoefficients.from_vector(np.ones(8, dtype=complex), 1)

    def test_arithmetic(self):
        a = table_functional([([0], 1.0)])
        b = table_functional([([0], 2.0), ([1], 1.0)])
        d = TruncatedDomain(1)
        assert (a + b).equal_on(table_functional([([0], 3.0), ([1], 1.0)]), d)
        assert (b - a).equal_on(table_functional([([0], 1.0), ([1], 1.0)]), d)
        assert (2 * a).evaluate(FiniteSubset(1)) == 2.0

    def test_json_roundtrip(self):
        phi = table_functional([([], 1.5), ([0, 2], 1 - 2j)])
        data = phi.to_json_dict()
        assert data["format"] == "fock-coefficients/v1"
        back = FockCoefficients.from_json_dict(data)
        assert back.equal_on(phi, TruncatedDomain(3))

    def test_json_rejects_duplicates(self):
        data = {
            "format": "fock-coefficients/v1",
            "support_bound": 1,
            "coefficients": [
                {"sigma": [0], "re": 1.0, "im": 0.0},
                {"sigma": [0], "re": 2.0, "im": 0.0},
            ],
        }
        with pytest.raises(ValueError):
            FockCoefficients.from_json_dict(data)


class TestSobolevNorm:
    def test_indicator_family_l2(self):
        # 4 unit coefficients on subsets of {0,1}
        assert sobolev_norm(indicator_functional(1), 0, TruncatedDomain(1)) == pytest.approx(2.0)

    def test_indicator_family_weighted(self):
        # weights over subsets of {0,1} are 1,1,2,2; squares sum to 10
        got = sobolev_norm(indicator_functional(1), 1, TruncatedDomain(1))
        assert got == pytest.approx(math.sqrt(10), rel=1e-12)

    def test_zero(self):
        assert sobolev_norm(FockCoefficients.zero(), 2.5, TruncatedDomain(4)) == 0.0

    def test_basis_normalization(self):
        d = TruncatedDomain(4)
        for s in d:
            for p in (0.0, 0.7, 2.0):
                assert sobolev_norm(FockCoefficients.basis(s), p, d) == pytest.approx(
                    weight(s) ** p, rel=1e-12
                )

    @given(coeff_tables, st.floats(min_value=0, max_value=2),
           st.floats(min_value=0, max_value=2))
    @settings(max_examples=50)
    def test_norm_chain_monotone(self, table, p, q):
        phi = FockCoefficients({FiniteSubset(m): v for m, v in table.items()})
        d = TruncatedDomain(4)
        lo, hi = sorted((p, q))
        assert sobolev_norm(phi, lo, d) <= sobolev_norm(phi, hi, d) * (1 + 1e-12)

    @pytest.mark.parametrize("p", [float("nan"), float("inf"), float("-inf")])
    def test_order_must_be_finite(self, p):
        with pytest.raises(ValueError, match="Sobolev order must be finite"):
            sobolev_norm(indicator_functional(1), p, TruncatedDomain(1))

    def test_lower_bound_warning(self):
        phi = table_functional([([4], 1.0)])
        with pytest.warns(UserWarning, match="lower bound"):
            sobolev_norm(phi, 0, TruncatedDomain(2))

    # numpy warns as |1e200|^2 overflows; the norm then reports inf itself
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflow_gives_inf_with_a_warning(self):
        phi = table_functional([([], 1e200), ([1], 1.0)])
        with pytest.warns(UserWarning, match="norm overflowed to infinity"):
            assert sobolev_norm(phi, 0, TruncatedDomain(1)) == math.inf


class TestPairing:
    def test_against_basis_is_evaluation(self):
        phi = table_functional([([0], 2.0), ([1, 2], 3j)])
        d = TruncatedDomain(3)
        for s in d:
            assert pairing(phi, FockCoefficients.basis(s), d) == phi.evaluate(s)

    def test_zero(self):
        assert pairing(FockCoefficients.zero(), indicator_functional(2),
                       TruncatedDomain(2)) == 0

    def test_indicator_self_pairing(self):
        # 4 unit terms on subsets of {0,1}
        psi = indicator_functional(1)
        assert pairing(psi, psi, TruncatedDomain(1)) == pytest.approx(4.0)

    def test_bilinear(self):
        d = TruncatedDomain(2)
        a = table_functional([([0], 1.0), ([1], 2.0)])
        b = table_functional([([1], 1j)])
        xi = indicator_functional(2)
        left = pairing(a + b, xi, d)
        assert left == pytest.approx(pairing(a, xi, d) + pairing(b, xi, d))


class TestDualNormBound:
    def test_known_constant(self):
        got = dual_norm_bound(GrowthCertificate(1.0, 0.0), 1.0)
        assert got == pytest.approx(math.sqrt(math.sinh(math.pi) / math.pi), rel=1e-12)

    def test_zero_scale(self):
        assert dual_norm_bound(GrowthCertificate(0.0, 3.0), 4.0) == 0.0

    def test_linear_in_scale(self):
        one = dual_norm_bound(GrowthCertificate(1.0, 0.0), 1.0)
        assert dual_norm_bound(GrowthCertificate(2.0, 0.0), 1.0) == pytest.approx(2 * one)

    def test_order_guard(self):
        with pytest.raises(InsufficientOrderError):
            dual_norm_bound(GrowthCertificate(1.0, 0.5), 1.0)

    def test_nan_order_refused(self):
        with pytest.raises(InsufficientOrderError):
            dual_norm_bound(GrowthCertificate(1.0, 0.0), float("nan"))

    def test_dominates_truncated_dual_norm(self):
        # any functional certified at (C, p) has truncated -q norm below the bound
        rng = np.random.default_rng(7)
        d = TruncatedDomain(8)
        w = weight_vector(d)
        for p in (0.0, 1.0):
            values = rng.uniform(0, 1, d.size) * w ** p
            phi = FockCoefficients(
                {FiniteSubset(int(m)): complex(values[m]) for m in range(d.size)}
            )
            for q in (p + 0.75, p + 2.0):
                bound = dual_norm_bound(GrowthCertificate(1.0, p), q)
                assert sobolev_norm(phi, -q, d) <= bound


class TestGrowthCertificates:
    def test_indicator_family_fit(self):
        curve, cert = fit_growth(indicator_functional(3), TruncatedDomain(4), [0, 1, 2])
        assert curve[0] == pytest.approx(1.0)
        assert cert is not None
        assert (cert.order, cert.scale) == (0, 1.0)

    def test_zero_functional(self):
        curve, _ = fit_growth(FockCoefficients.zero(), TruncatedDomain(3), [0, 1])
        assert curve == {0: 0.0, 1: 0.0}

    def test_weight_valued_functional(self):
        d = TruncatedDomain(4)
        phi = FockCoefficients.from_rule(lambda s: weight(s), support_bound=None)
        curve, _ = fit_growth(phi, d, [0, 1])
        assert curve[1] == pytest.approx(1.0)
        assert curve[0] == pytest.approx(float(np.max(weight_vector(d))))

    def test_empty_grid(self):
        with pytest.raises(ValueError):
            fit_growth(FockCoefficients.zero(), TruncatedDomain(2), [])

    def test_verify_accepts_fitted(self):
        d = TruncatedDomain(4)
        rng = np.random.default_rng(3)
        phi = FockCoefficients(
            {FiniteSubset(int(m)): complex(v)
             for m, v in enumerate(rng.standard_normal(d.size))}
        )
        curve, _ = fit_growth(phi, d, [0.0, 0.5, 1.0])
        for p, c in curve.items():
            ok, witness = verify_certificate(phi, GrowthCertificate(c, p), d)
            assert ok and witness is None
            if c > 0:
                bad, witness = verify_certificate(
                    phi, GrowthCertificate(c * (1 - 1e-6), p), d
                )
                assert not bad and witness is not None

    def test_verify_rejects_with_witness(self):
        d = TruncatedDomain(2)
        phi = FockCoefficients.from_rule(lambda s: weight(s), support_bound=None)
        ok, witness = verify_certificate(phi, GrowthCertificate(1.0, 0.0), d)
        assert not ok
        assert weight(witness) > 1

    def test_huge_certificate_trivially_holds(self):
        d = TruncatedDomain(3)
        phi = FockCoefficients.from_rule(lambda s: weight(s) ** 2, support_bound=None)
        ok, _ = verify_certificate(phi, GrowthCertificate(1e12, 10.0), d)
        assert ok

    def test_invalid_certificate_fields(self):
        with pytest.raises(ValueError):
            GrowthCertificate(-1.0, 0.0)
        with pytest.raises(ValueError):
            GrowthCertificate(1.0, -0.5)

    def test_nan_certificate_fields_refused(self):
        with pytest.raises(ValueError, match="scale must be >= 0"):
            GrowthCertificate(float("nan"), 0.0)
        with pytest.raises(ValueError, match="order must be >= 0"):
            GrowthCertificate(1.0, float("nan"))

    @pytest.mark.parametrize("rtol", [float("nan"), float("inf"), -1e-12])
    def test_verify_refuses_rtol_that_is_not_finite_and_nonnegative(self, rtol):
        # A NaN slack made every comparison false, so any functional passed.
        phi = FockCoefficients.from_rule(lambda s: weight(s), support_bound=None)
        with pytest.raises(ValueError, match="rtol must be finite and nonnegative"):
            verify_certificate(phi, GrowthCertificate(1.0, 0.0), TruncatedDomain(2), rtol)

    def test_bound_overflow_is_one_value_error(self):
        w = weight_vector(TruncatedDomain(3))
        assert GrowthCertificate(1e300, 2.0).bound_at(w).tolist() == (1e300 * w ** 2.0).tolist()
        before = np.geterr()
        for cert in (GrowthCertificate(1e308, 1.0), GrowthCertificate(1.0, 400.0)):
            with pytest.raises(ValueError, match="overflows the float range"):
                cert.bound_at(w)
        assert np.geterr() == before

import collections
import math
import warnings

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
from martfock.convolution import (
    all_ones,
    approximation_sequence,
    convolve,
    indicator_functional,
)
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
        if not np.isfinite(values).all():  # refused, naming the first such subset
            with pytest.raises(ValueError, match=r"\(nan\+0j\) at FiniteSubset\(\{\}\) is not"):
                FockCoefficients.from_vector(values, 2)
            return
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

    def test_overflow_is_one_value_error(self):
        # |1e200|^2 overflows: one ValueError naming the order, no warning
        phi = table_functional([([], 1e200), ([1], 1.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="Sobolev norm at order p=0 overflows"):
                sobolev_norm(phi, 0, TruncatedDomain(1))

    @pytest.mark.parametrize("p", [0.0, 1.0])
    def test_overflowing_sum_is_one_value_error(self, p):
        # Two finite terms near 1e308 in one lane of one leaf of a sparse
        # table: the sum itself overflows, and is refused as np.sum of the
        # dense vector refuses it.
        weights = {8: 4.0, 16: 5.0}
        phi = FockCoefficients({FiniteSubset(m): math.sqrt(9e307) / w ** p
                                for m, w in weights.items()})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"Sobolev norm at order p={p} overflows"):
                sobolev_norm(phi, p, TruncatedDomain(4))

    def test_high_order_reads_only_the_entries(self):
        # weight^24 overflows at the large masks, which hold no entry: the
        # dense formula made inf * 0 = NaN there and reported inf
        phi = FockCoefficients({FiniteSubset(1): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sobolev_norm(phi, 12.0, TruncatedDomain(15)) == 1.0


def dense_formula_norm(phi, p, domain):
    """The Sobolev norm as the dense formula over the domain vectors."""
    terms = weight_vector(domain) ** (2.0 * p) * np.abs(phi.values_on(domain)) ** 2
    return float(np.sqrt(np.sum(terms)))


def norm_inputs(horizon):
    """(functional, is a rule) pairs at the horizon: a dense table, tables
    1%, 10% and 60% full, an empty and a one-entry table, all_ones and (up
    to horizon 12) a scalar rule."""
    rng = np.random.default_rng(horizon)
    size = 2 << horizon
    dense = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    yield FockCoefficients.from_vector(dense, horizon), False
    for fill in (0.01, 0.1, 0.6):  # from horizon 7, several entries share a lane
        sparse = np.where(rng.random(size) < fill, dense, 0)
        sparse[size - 1] = 0.5j  # the bound stays at the horizon
        yield FockCoefficients.from_vector(sparse, horizon), False
    yield FockCoefficients.zero(), False
    yield FockCoefficients({FiniteSubset(size - 2): -2.0 + 1j}), False
    yield all_ones(), True
    if horizon <= 12:
        yield FockCoefficients.from_rule(lambda s: complex(len(s), -0.25 * s.mask)), True


class TestSobolevNormKernel:
    """sobolev_norm is bit for bit the dense formula sqrt(sum(weight_vector
    ** (2p) * |values_on|^2)) wherever that is finite, across the 2^16
    masks of the low weight table."""

    @pytest.mark.parametrize("horizon", range(19))
    def test_bitwise_equal_to_the_dense_formula(self, horizon):
        domain = TruncatedDomain(horizon)
        for phi, rule in norm_inputs(horizon):
            for p in (-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    expected = dense_formula_norm(phi, p, domain)
                    if rule:  # unbounded support: a lower bound, with a warning
                        with pytest.warns(UserWarning, match="lower bound"):
                            got = sobolev_norm(phi, p, domain)
                    else:
                        got = sobolev_norm(phi, p, domain)
                assert got.hex() == expected.hex(), (horizon, phi, p)


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


class TestOverflowIsOneValueError:
    """A product, a sum or a pairing that overflows raises one ValueError
    naming the quantity, and numpy emits no RuntimeWarning on the way."""

    HUGE = 1.5e308 + 1.5e308j

    def raises_alone(self, call, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                call()

    def test_rule_product(self):
        # weight({0..63})^2 = (64!)^2, about 1.6e178: the square of twice it
        # overflows (it read (inf+nanj) once multiplied by 3).
        phi = FockCoefficients.from_rule(lambda s: weight(s) ** 2)
        product = 3 * convolve(2 * phi, phi)
        self.raises_alone(lambda: product.evaluate(FiniteSubset((1 << 64) - 1)),
                          "a coefficient product overflows")

    def test_table_sum(self):
        a = FockCoefficients({FiniteSubset(1): self.HUGE})
        self.raises_alone(lambda: a + a, "a coefficient sum overflows")

    def test_rule_sum(self):
        a = FockCoefficients.from_rule(lambda s: self.HUGE)
        self.raises_alone(lambda: (a + a).values_on(TruncatedDomain(2)),
                          "a coefficient sum overflows")

    def test_pairing(self):
        a = FockCoefficients({FiniteSubset(1): self.HUGE})
        self.raises_alone(lambda: pairing(a, a, TruncatedDomain(2)),
                          "the pairing overflows")

    def test_dual_norm_bound(self):
        # 1e308 * sqrt(sinh(pi) / pi) was returned as inf, and at q = 0.5001
        # the series' math.exp raised OverflowError
        for scale, q in ((1e308, 1.0), (1.0, 0.5001)):
            self.raises_alone(lambda: dual_norm_bound(GrowthCertificate(scale, 0.0), q),
                              "the dual norm bound overflows the float range")

    def test_an_infinite_difference_is_unequal(self):
        # 1e308 - (-1e308) overflowed with a RuntimeWarning
        big, d = FockCoefficients({FiniteSubset(1): 1e308}), TruncatedDomain(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not big.equal_on(-1.0 * big, d, tol=1e308)
            assert big.equal_on(big, d)

    def test_an_infinite_slack_is_exceeded_by_nothing(self):
        # 1e308 * (1 + 1) overflowed with a RuntimeWarning
        big, d = FockCoefficients({FiniteSubset(1): 1e308}), TruncatedDomain(1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert verify_certificate(big, GrowthCertificate(1e308, 0.0), d, rtol=1) == (
                True, None)
            assert verify_certificate(big, GrowthCertificate(1e307, 0.0), d, rtol=1) == (
                False, FiniteSubset(1))

    def test_finite_results_keep_their_bits(self):
        a = FockCoefficients({FiniteSubset(1): 1e308 + 0j, FiniteSubset(2): -0.0 + 1j})
        b = FockCoefficients({FiniteSubset(1): -1e308 + 0j, FiniteSubset(3): 2.0})
        assert (a + b).table_items() == [(FiniteSubset(2), -0.0 + 1j),
                                         (FiniteSubset(3), 2.0 + 0j)]
        c = FockCoefficients({FiniteSubset(1): 2.0 ** 500, FiniteSubset(2): -0.0 + 1j})
        d = FockCoefficients({FiniteSubset(1): 2.0 ** 500, FiniteSubset(2): 2.0})
        assert pairing(c, d, TruncatedDomain(2)) == complex(2.0 ** 1000, 2.0)


class TestNonFiniteInputs:
    """A coefficient that is not finite is refused where it enters, with one
    ValueError; it used to pass through sums, products and pairing."""

    def refused_alone(self, call, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=match):
                call()

    @pytest.mark.parametrize("value", [complex(math.nan, 0), complex(1, -math.inf)])
    def test_table(self, value):
        # a + a held nan+0j, 2 * a nan+nanj, and pairing(a, a) was nan+nanj
        self.refused_alone(lambda: FockCoefficients({FiniteSubset(1): value}),
                           r"at FiniteSubset\(\{0\}\) is not finite")

    def test_from_vector(self):
        self.refused_alone(lambda: FockCoefficients.from_vector(np.array([1.0, math.inf]), 0),
                           r"coefficient \(inf\+0j\) at FiniteSubset\(\{0\}\) is not finite")

    def test_scalar_rule(self):
        phi = FockCoefficients.from_rule(lambda s: math.nan if s.mask == 3 else 1.0)
        self.refused_alone(lambda: phi.values_on(TruncatedDomain(1)),
                           r"rule value \(nan\+0j\) at FiniteSubset\(\{0, 1\}\) is not finite")

    @pytest.mark.parametrize("scalar", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
    def test_scalar_times_a_rule(self, scalar):
        # inf times a rule read inf+infj at every mask, and its norm was inf
        phi = FockCoefficients.from_rule(lambda s: 1 + 1j, support_bound=1)
        for multiple in (lambda: scalar * phi, lambda: phi * scalar):
            self.refused_alone(multiple, r"scalar .* is not finite")

    @pytest.mark.parametrize("scalar", [math.inf, -math.inf, math.nan, complex(1, math.inf)])
    def test_scalar_times_a_table(self, scalar):
        # inf times the empty table was the zero functional, and times a
        # nonempty one an overflow error: both are refused as a rule is
        for phi in (FockCoefficients({}), FockCoefficients({FiniteSubset(1): 2.0})):
            for multiple in (lambda: scalar * phi, lambda: phi * scalar):
                self.refused_alone(multiple, r"scalar .* is not finite")


@pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
def test_equal_on_refuses_tol_before_the_plan(tol, no_plan):
    # A NaN tol made equal_on return False for a functional and itself.
    with pytest.raises(ValueError, match=f"^tol must be finite and nonnegative, got {tol}$"):
        all_ones().equal_on(all_ones(), TruncatedDomain(3), tol=tol)


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

    def test_overflowing_magnitude_is_refused_not_certified(self):
        # |1.5e308 + 1.5e308j| overflows, so C(0) = inf
        phi = FockCoefficients({FiniteSubset(0): 1.5e308 + 1.5e308j})
        with pytest.raises(ValueError, match="growth-bound scale C\\(0\\) = inf is not finite"):
            fit_growth(phi, TruncatedDomain(2), [0, 1])

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

    @pytest.mark.parametrize("scale, order", [(float("inf"), 1.0), (1.0, float("inf"))])
    def test_infinite_certificate_fields_refused(self, scale, order):
        # an infinite scale made dual_norm_bound return inf
        with pytest.raises(ValueError, match="must be >= 0 and finite, got inf"):
            GrowthCertificate(scale, order)

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

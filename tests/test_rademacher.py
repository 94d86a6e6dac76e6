import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from martfock import formats
from martfock.functionals import FockCoefficients, float_checked, sobolev_norm
from martfock.rademacher import (
    NormalMartingaleReport,
    OutOfHorizonError,
    RandomFunctional,
    SampleSpace,
    biased_probabilities,
    chaos_expand,
    conditional_expectation,
    conditional_expectation_by_averaging,
    constant,
    fwht,
    inner_product,
    l2_norm,
    noise,
    random_functional,
    synthesize,
    verify_normal_martingale,
    walsh,
)
from martfock.subsets import FiniteSubset, TruncatedDomain


class TestSampleSpace:
    def test_point_count(self):
        assert SampleSpace(0).size == 2
        assert SampleSpace(8).size == 512

    def test_sign_convention(self):
        # bit k set <=> coordinate k equals -1
        sp = SampleSpace(1)
        assert list(sp.signs(0)) == [1, -1, 1, -1]
        assert list(sp.signs(1)) == [1, 1, -1, -1]

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            SampleSpace(-1)


class TestNoise:
    def test_mean_zero_n0(self):
        f = noise(SampleSpace(0), 0)
        assert list(f.values) == [1, -1]
        assert inner_product(constant(f.space), f) == 0

    def test_unit_second_moment(self):
        sp = SampleSpace(5)
        for n in range(6):
            z = noise(sp, n)
            assert inner_product(z, z) == 1.0

    def test_distinct_coordinates_uncorrelated(self):
        sp = SampleSpace(5)
        for n in range(6):
            for m in range(6):
                if n != m:
                    assert inner_product(noise(sp, n), noise(sp, m)) == 0.0

    def test_index_guard(self):
        with pytest.raises(OutOfHorizonError):
            noise(SampleSpace(2), 3)


class TestWalsh:
    def test_empty_is_constant_one(self):
        f = walsh(SampleSpace(3), FiniteSubset(0))
        assert np.all(f.values == 1)

    def test_pointwise_product(self):
        sp = SampleSpace(2)
        f = walsh(sp, FiniteSubset.from_elements([0, 1]))
        # point with both low bits set: (-1)*(-1) = 1
        assert f.values[0b011] == 1
        assert f.values[0b001] == -1

    def test_orthonormal(self):
        sp = SampleSpace(4)
        d = TruncatedDomain(4)
        for s in d:
            for t in d:
                expected = 1.0 if s == t else 0.0
                assert inner_product(walsh(sp, s), walsh(sp, t)) == expected

    def test_out_of_horizon(self):
        with pytest.raises(OutOfHorizonError):
            walsh(SampleSpace(1), FiniteSubset.from_elements([2]))


class TestInnerProduct:
    def test_conjugate_linear_first_argument(self):
        sp = SampleSpace(2)
        f = RandomFunctional(sp, 1j * np.ones(sp.size))
        g = constant(sp)
        assert inner_product(f, g) == -1j
        assert inner_product(g, f) == 1j

    def test_an_overflowing_product_is_refused(self):
        # np.vdot sets no float flag: these read (inf+nanj) and inf
        f = RandomFunctional(SampleSpace(1), np.full(4, 1e200))
        for call in (lambda: inner_product(f, f), lambda: l2_norm(f)):
            with pytest.raises(ValueError, match=r"the inner product \(inf\+nanj\) is not"):
                call()

    def test_space_mismatch(self):
        with pytest.raises(ValueError):
            inner_product(constant(SampleSpace(1)), constant(SampleSpace(2)))


class TestFwht:
    def test_self_inverse_up_to_size(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        assert np.allclose(fwht(fwht(v)) / 16, v, atol=1e-14)

    def test_matches_direct_matrix(self):
        rng = np.random.default_rng(1)
        n = 32
        v = rng.standard_normal(n)
        H = np.array(
            [[(-1) ** bin(s & m).count("1") for m in range(n)] for s in range(n)]
        )
        assert np.allclose(fwht(v), H @ v, atol=1e-12)

    def test_power_of_two_only(self):
        with pytest.raises(ValueError):
            fwht(np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf),
                                     complex(np.nan, 0)])
    def test_non_finite_input_rejected(self, bad):
        v = np.ones(8, dtype=complex)
        v[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            fwht(v)
        with pytest.raises(ValueError, match="non-finite"):
            fwht(np.array([bad, 1.0]))

    @pytest.mark.parametrize("log_size", range(19))
    def test_bit_identical_to_the_radix2_loop(self, log_size):
        for values in (extreme_parts(log_size, seed=log_size), tiny_parts(log_size)):
            before = values.copy()
            out = fwht(values)
            assert np.array_equal(out.view(np.int64), radix2_loop(values).view(np.int64))
            assert np.array_equal(values.view(np.int64), before.view(np.int64))

    def test_overflow_raised_as_by_the_radix2_loop(self):
        for values in (np.array([1e308, 1e308]), np.full(64, 1e308 + 1e308j)):
            before = values.copy()
            for transform in (fwht, radix2_loop):
                with pytest.raises(ValueError, match="overflows float64"):
                    transform(values)
            assert np.array_equal(values, before)

    def test_non_finite_rejected_by_every_caller(self):
        sp = SampleSpace(2)
        for bad in (np.inf, np.nan):
            f = RandomFunctional(sp, np.where(np.arange(sp.size) == 3, bad, 1.0))
            for call in (lambda: chaos_expand(f), lambda: conditional_expectation(f, 0),
                         lambda: conditional_expectation_by_averaging(f, 0)):
                with pytest.raises(ValueError, match="non-finite"):
                    call()
            with pytest.raises(ValueError, match="is not finite"):  # refused as it enters
                FockCoefficients({FiniteSubset(2): bad}, support_bound=1)
            c = FockCoefficients._from_mask_rule(lambda m: np.where(m == 2, bad, 0.0) + 0j, 1)
            with pytest.raises(ValueError, match="non-finite"):
                synthesize(c, sp)
        # finite values whose mean's sum (and butterflies) leave the float range
        f = RandomFunctional(sp, [1e308 + 1e308j] * sp.size)
        for call in (conditional_expectation, conditional_expectation_by_averaging):
            with pytest.raises(ValueError, match="overflows float64"):
                call(f, 0)


# Parts across the float range, subnormals and both zeros; in half of the
# examples below NaN and both infinities too.
wide_parts = (st.floats(min_value=-1.7e308, max_value=1.7e308)
              | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308]))
non_finite_parts = st.sampled_from([math.nan, math.inf, -math.inf])


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_cube_paths_are_finite_or_one_value_error(data):
    # fwht, chaos_expand, both conditional expectations, inner_product and
    # l2_norm: each returns finite values or raises one ValueError, and
    # nothing warns.  The parts come from a pool of up to 8, at seeded
    # random positions.
    sp = SampleSpace(data.draw(st.integers(min_value=0, max_value=6)))
    parts = wide_parts | non_finite_parts if data.draw(st.booleans()) else wide_parts
    pool = data.draw(st.lists(parts, min_size=1, max_size=8))
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32 - 1)))
    f, g = (RandomFunctional(sp, rng.choice(pool, 2 * sp.size).view(np.complex128))
            for _ in range(2))
    n = data.draw(st.integers(min_value=0, max_value=sp.horizon))
    calls = [lambda: fwht(f.values), lambda: chaos_expand(f).values_on(sp.domain()),
             lambda: conditional_expectation(f, n).values,
             lambda: conditional_expectation_by_averaging(f, n).values,
             lambda: [inner_product(f, g)], lambda: [l2_norm(f)]]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except ValueError:
                continue
        assert np.isfinite(values).all()


def radix2_loop(values):
    """Reference transform: the in-place radix-2 loop over h = 1, 2, 4, ...,
    butterflies (a, b) -> (a + b, a - b) on the halves of blocks of 2h."""
    v = np.array(values, dtype=np.complex128)
    h, scratch = 1, np.empty(v.size // 2, dtype=np.complex128)
    with float_checked("Walsh-Hadamard transform overflows float64"):
        while h < v.size:
            pairs, diff = v.reshape(-1, 2 * h), scratch.reshape(-1, h)
            top, bottom = pairs[:, :h], pairs[:, h:]
            np.subtract(top, bottom, out=diff)
            top += bottom
            bottom[...] = diff
            h *= 2
    return v


def extreme_parts(log_size, seed):
    """2^log_size complex values whose real and imaginary parts are, at
    random, subnormal, +0.0 or -0.0, near 1e300, or of order 1."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal(2 << log_size)
    return (parts * rng.choice([1e-310, 0.0, 1e300, 1.0], parts.size)).view(np.complex128)


def tiny_parts(log_size):
    """Parts of order 1e-320 or signed zeros, so every partial sum is subnormal."""
    rng = np.random.default_rng(100 + log_size)
    parts = rng.standard_normal(2 << log_size)
    return (parts * rng.choice([1e-320, 0.0], parts.size)).view(np.complex128)


def product_form(horizon, seed):
    """f(m) = prod over k of (a_k if bit k of m is 0, else b_k), complex a_k
    and b_k: its factors, its values, and its chaos coefficients, the
    Kronecker product of the pairs [(a_k + b_k)/2, (a_k - b_k)/2] (bit k
    indexes the k-th factor from the right)."""
    rng = np.random.default_rng(seed)
    a, b = (rng.uniform(0.5, 1.5, horizon + 1) * np.exp(2j * np.pi * rng.random(horizon + 1))
            for _ in range(2))
    values = coefficients = np.ones(1, dtype=np.complex128)
    for k in range(horizon + 1):
        values = np.kron([a[k], b[k]], values)
        coefficients = np.kron([(a[k] + b[k]) / 2, (a[k] - b[k]) / 2], coefficients)
    return a, b, values, coefficients


def rms(v):
    return float(np.sqrt(np.mean(np.abs(v) ** 2)))


# Errors are compared in the L2 norm relative to that of the coefficients
# (Parseval: the rms of f).  One transform errs by at most about
# sqrt(2) (horizon + 1) eps of it, and the Kronecker products by (horizon + 1)
# eps: under 1e-14 together up to horizon 16.
PRODUCT_RTOL = 1e-14


class TestProductFormOracle:
    """chaos_expand, synthesize and conditional_expectation against the
    closed form of a product functional, which shares no code with fwht."""

    @pytest.mark.parametrize("horizon", range(17))
    def test_walsh_paths_meet_the_closed_form(self, horizon):
        a, b, values, coefficients = product_form(horizon, seed=horizon)
        sp, scale = SampleSpace(horizon), rms(values)
        c = chaos_expand(RandomFunctional(sp, values)).values_on(sp.domain())
        assert np.sqrt(np.sum(np.abs(c - coefficients) ** 2)) <= PRODUCT_RTOL * scale
        g = synthesize(FockCoefficients.from_vector(coefficients, horizon), sp).values
        assert rms(g - values) <= PRODUCT_RTOL * scale
        for n in range(horizon + 1):
            # E[f | coordinates 0..n] averages each later factor over its two values
            expected = np.ones(1, dtype=np.complex128)
            for k in range(horizon + 1):
                mean = (a[k] + b[k]) / 2
                expected = np.kron([a[k], b[k]] if k <= n else [mean, mean], expected)
            g = conditional_expectation(RandomFunctional(sp, values), n).values
            assert rms(g - expected) <= PRODUCT_RTOL * scale


class TestChaosExpansion:
    def test_product_coordinate_pair(self):
        sp = SampleSpace(3)
        f = RandomFunctional(sp, sp.signs(0) * sp.signs(1))
        c = chaos_expand(f)
        assert c.evaluate(FiniteSubset.from_elements([0, 1])) == 1.0
        assert len(list(c.table_items())) == 1

    def test_constant(self):
        c = chaos_expand(constant(SampleSpace(4)))
        assert c.evaluate(FiniteSubset(0)) == 1.0
        assert len(list(c.table_items())) == 1

    def test_coefficients_are_walsh_inner_products(self):
        sp = SampleSpace(4)
        f = random_functional(sp, 11)
        c = chaos_expand(f)
        for s in TruncatedDomain(4):
            assert c.evaluate(s) == pytest.approx(
                inner_product(walsh(sp, s), f), abs=1e-12
            )

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25)
    def test_parseval(self, seed):
        sp = SampleSpace(6)
        f = random_functional(sp, seed)
        c = chaos_expand(f)
        total = sum(abs(v) ** 2 for _, v in c.table_items())
        assert total == pytest.approx(inner_product(f, f).real, rel=1e-12)

    def test_norm_preservation_vs_sobolev(self):
        sp = SampleSpace(6)
        f = random_functional(sp, 5)
        c = chaos_expand(f)
        assert sobolev_norm(c, 0, sp.domain()) == pytest.approx(l2_norm(f), rel=1e-12)


class TestSynthesize:
    def test_constant_table(self):
        f = synthesize(FockCoefficients({FiniteSubset(0): 1.0}), SampleSpace(3))
        assert np.all(f.values == 1)

    def test_roundtrip(self):
        sp = SampleSpace(8)
        f = random_functional(sp, 99)
        g = synthesize(chaos_expand(f), sp)
        assert np.max(np.abs(f.values - g.values)) <= 1e-12

    def test_coefficient_roundtrip(self):
        sp = SampleSpace(5)
        c = chaos_expand(random_functional(sp, 3))
        c2 = chaos_expand(synthesize(c, sp))
        assert c2.equal_on(c, sp.domain(), tol=1e-12)

    def test_indicator_coefficients_synthesize_to_walsh_sum(self):
        sp = SampleSpace(4)
        n = 2
        table = {FiniteSubset(m): 1.0 for m in range(1 << (n + 1))}
        f = synthesize(FockCoefficients(table, support_bound=n), sp)
        direct = np.sum(
            [walsh(sp, FiniteSubset(m)).values for m in range(1 << (n + 1))], axis=0
        )
        assert np.allclose(f.values, direct, atol=1e-12)

    def test_support_beyond_horizon(self):
        c = FockCoefficients({FiniteSubset.from_elements([4]): 1.0})
        with pytest.raises(OutOfHorizonError):
            synthesize(c, SampleSpace(2))


class TestConditionalExpectation:
    def test_kills_unseen_coordinates(self):
        sp = SampleSpace(3)
        f = RandomFunctional(sp, sp.signs(0) * sp.signs(1))
        g = conditional_expectation(f, 0)
        assert np.max(np.abs(g.values)) == 0

    def test_full_horizon_is_identity(self):
        sp = SampleSpace(4)
        f = random_functional(sp, 21)
        g = conditional_expectation(f, sp.horizon)
        assert np.allclose(g.values, f.values, atol=1e-13)

    def test_agrees_with_averaging_oracle(self):
        sp = SampleSpace(6)
        f = random_functional(sp, 8)
        for n in range(7):
            spectral = conditional_expectation(f, n)
            direct = conditional_expectation_by_averaging(f, n)
            assert np.max(np.abs(spectral.values - direct.values)) <= 1e-12

    def test_tower(self):
        sp = SampleSpace(6)
        f = random_functional(sp, 13)
        for n in range(7):
            for m in range(n, 7):
                lhs = conditional_expectation(conditional_expectation(f, m), n)
                rhs = conditional_expectation(f, n)
                assert np.max(np.abs(lhs.values - rhs.values)) <= 1e-12

    def test_l2_contraction_and_idempotent(self):
        sp = SampleSpace(5)
        f = random_functional(sp, 17)
        for n in range(6):
            g = conditional_expectation(f, n)
            assert l2_norm(g) <= l2_norm(f) + 1e-12
            gg = conditional_expectation(g, n)
            assert np.max(np.abs(gg.values - g.values)) <= 1e-12


    @pytest.mark.parametrize("n", [-1, 4])
    def test_index_outside_the_horizon(self, n):
        f = random_functional(SampleSpace(3), 5)
        for expectation in (conditional_expectation, conditional_expectation_by_averaging):
            with pytest.raises(OutOfHorizonError):
                expectation(f, n)


class TestBiasedProbabilities:
    @pytest.mark.parametrize("minus_prob", [-0.1, 1.1, float("nan")])
    def test_minus_prob_must_lie_in_the_unit_interval(self, minus_prob):
        with pytest.raises(ValueError, match="minus_prob must lie in"):
            biased_probabilities(SampleSpace(2), minus_prob)

    @pytest.mark.parametrize("minus_prob", [0.0, 0.3, 1 / 3, 0.7, 0.75, 1.0])
    def test_matches_the_bit_loop_bit_for_bit(self, minus_prob):
        for horizon in range(9):
            sp = SampleSpace(horizon)
            want, m = np.ones(sp.size), np.arange(sp.size)
            for k in range(horizon + 1):
                want *= np.where((m >> k) & 1 == 1, minus_prob, 1.0 - minus_prob)
            assert biased_probabilities(sp, minus_prob).tobytes() == want.tobytes()


class TestNormalMartingaleVerifier:
    def test_exact_pass(self):
        report = verify_normal_martingale(SampleSpace(3))
        assert report.passed
        assert all(c.max_deviation == 0.0 for c in report.conditions)

    def test_horizon_zero(self):
        report = verify_normal_martingale(SampleSpace(0))
        assert report.passed

    def test_biased_negative_control(self):
        sp = SampleSpace(4)
        report = verify_normal_martingale(sp, biased_probabilities(sp, 0.75))
        mean = next(c for c in report.conditions if c.name == "conditional mean")
        assert not mean.passed
        assert mean.max_deviation == pytest.approx(0.5)

    @pytest.mark.parametrize("minus_prob", [0.0, 1.0])
    def test_null_atoms_are_skipped(self, minus_prob):
        # every coordinate is the same sign almost surely, so M_n = +-(n + 1):
        # E[M_n | first n coords] - M_{n-1} = +-1 and the second moment is off
        # by 2 |M_{n-1}| = 2n on the charged atom, 6 at n = 3
        sp = SampleSpace(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verify_normal_martingale(sp, biased_probabilities(sp, minus_prob))
        assert [c.max_deviation for c in report.conditions] == [1.0, 6.0]
        assert not any(c.passed for c in report.conditions)

    def test_probability_vector_length_checked(self):
        with pytest.raises(ValueError, match="length mismatch"):
            verify_normal_martingale(SampleSpace(2), np.full(4, 0.25))

    @pytest.mark.parametrize("defect", ["not finite", "negative", "sum above 1", "sum below 1"])
    def test_measure_must_be_a_probability_vector(self, defect):
        # at horizon 3: sixteen masses of 0.5 gave a report, and a negative
        # mass raised numpy's zero-size maximum error
        probs = {"not finite": np.r_[np.full(15, 1 / 15), np.nan],
                 "negative": np.r_[np.full(15, 2 / 15), -1.0],
                 "sum above 1": np.full(16, 0.5),
                 "sum below 1": np.full(16, 1 / 16 - 1e-9)}[defect]
        with pytest.raises(ValueError, match="probabilities must be finite, nonnegative "
                                             "and sum to 1 within 1e-9"):
            verify_normal_martingale(SampleSpace(3), probs)

    def test_json_report(self):
        data = verify_normal_martingale(SampleSpace(2)).to_json_dict()
        assert data["passed"] is True
        assert len(data["conditions"]) == 2
        # the canonical bytes read back: each condition's fields
        sp = SampleSpace(3)
        report = verify_normal_martingale(sp, biased_probabilities(sp, 0.3), tol=1e-3)
        assert report.to_json_dict() == {
            "passed": False,
            "conditions": [{"name": c.name, "max_deviation": c.max_deviation,
                            "passed": c.passed} for c in report.conditions]}
        assert NormalMartingaleReport.to_json_dict is formats.as_dict

    @pytest.mark.parametrize("minus_prob", [None, 0.25, 0.75])
    def test_deviations_match_the_stacked_walk_bit_for_bit(self, minus_prob):
        # None is the uniform measure, a float the minus_prob of
        # biased_probabilities: dyadic masses, whose sums are exact in any
        # order, so the fold meets the stacked walk's bits
        for horizon in range(13):
            sp = SampleSpace(horizon)
            probs = (np.full(sp.size, 1.0 / sp.size) if minus_prob is None
                     else biased_probabilities(sp, minus_prob))
            report = verify_normal_martingale(sp, None if minus_prob is None else probs)
            got = [c.max_deviation.hex() for c in report.conditions]
            assert got == [d.hex() for d in stacked_walk_deviations(sp, probs)], horizon

    @pytest.mark.parametrize("measure", [0.3, 0.7, "random-1", "random-2"])
    def test_deviations_within_four_ulp_of_the_exact_ones(self, measure):
        # A float is the minus_prob of biased_probabilities; a seeded random
        # measure's atoms do not factor over the coordinates.  Their masses
        # are not dyadic, so every summation order rounds differently: the
        # oracle is exact rational arithmetic.  From horizon 1: at horizon 0
        # the second-moment deviation is only the rounding of the masses'
        # sum, whose exact value is far below its ulp.
        if isinstance(measure, str):
            rng = np.random.default_rng(int(measure.split("-")[1]))
        for horizon in range(1, 8):
            sp = SampleSpace(horizon)
            if isinstance(measure, str):
                probs = rng.random(sp.size)
                probs /= probs.sum()
            else:
                probs = biased_probabilities(sp, measure)
            report = verify_normal_martingale(sp, probs)
            for c, want in zip(report.conditions, exact_deviations(sp, probs)):
                assert abs(c.max_deviation - want) <= 4 * np.spacing(want), (horizon, c, want)

    @pytest.mark.parametrize("minus_prob", [0.1, 0.3, 0.7, 0.75])
    def test_product_measures_meet_the_closed_form(self, minus_prob):
        # Under a product measure E[Z_n | atom] = 1 - 2p on every atom, so
        # the deviations are |1 - 2p| and 2N |1 - 2p| (|M_{N-1}| <= N).
        # Within 4 ulp of 1, relative: the masses' own rounding moves the
        # step-0 mean up to 4 ulp of its value at p = 0.1.
        drift = abs(1 - 2 * Fraction(minus_prob))
        for horizon in range(19):
            sp = SampleSpace(horizon)
            report = verify_normal_martingale(sp, biased_probabilities(sp, minus_prob))
            want = [float(drift), float(2 * horizon * drift)]
            got = [c.max_deviation for c in report.conditions]
            assert got == pytest.approx(want, rel=4 * 2.0 ** -52, abs=0.0), horizon


def exact_deviations(sp, probs):
    """The verifier's (mean, second moment) deviations in rational
    arithmetic, by their definition: on each atom of the first n
    coordinates, the sums of P, P M_n and P M_n^2 over its points."""
    masses = [Fraction(p) for p in probs.tolist()]

    def walk(m, n):  # M_n at point m
        return sum(1 - 2 * ((m >> k) & 1) for k in range(n + 1))

    mean = abs(sum(p * walk(m, 0) for m, p in enumerate(masses)))
    sq = abs(sum(masses) - 1)
    for n in range(1, sp.horizon + 1):
        atoms = {}
        for m, p in enumerate(masses):
            mass, first, second = atoms.get(m % (1 << n), (0, 0, 0))
            step = walk(m, n)
            atoms[m % (1 << n)] = (mass + p, first + p * step, second + p * step ** 2)
        for a, (mass, first, second) in atoms.items():
            if mass:
                prev = walk(a, n - 1)
                mean = max(mean, abs(first / mass - prev))
                sq = max(sq, abs(second / mass - prev ** 2 - 1))
    return float(mean), float(sq)


def stacked_walk_deviations(sp, probs):
    """The verifier's (mean, second moment) deviations by an earlier walk,
    kept as the reference: every M_n stacked in one matrix, and each
    conditional expectation tiled back to one value per point."""
    walk = np.cumsum(np.stack([sp.signs(k) for k in range(sp.horizon + 1)]), axis=0)

    def conditional(values, n):
        v, p = values.reshape(-1, 1 << n), probs.reshape(-1, 1 << n)
        return np.tile((v * p).sum(axis=0) / p.sum(axis=0), v.shape[0])

    mean_dev = abs(float(np.dot(walk[0], probs)))
    sq_dev = abs(float(np.dot(walk[0] ** 2, probs)) - 1.0)
    for n in range(1, sp.horizon + 1):
        mean_dev = max(mean_dev, float(np.max(np.abs(conditional(walk[n], n) - walk[n - 1]))))
        sq_dev = max(sq_dev, float(np.max(np.abs(
            conditional(walk[n] ** 2, n) - walk[n - 1] ** 2 - 1.0))))
    return mean_dev, sq_dev


class TestSerialization:
    def test_roundtrip(self):
        sp = SampleSpace(3)
        f = random_functional(sp, 1234)
        back = RandomFunctional.from_json_dict(f.to_json_dict())
        assert back.space == sp
        assert np.array_equal(back.values, f.values)

    def test_format_field_checked(self):
        with pytest.raises(ValueError):
            RandomFunctional.from_json_dict({"format": "nope", "horizon": 1, "values": []})

    def test_seed_determinism(self):
        sp = SampleSpace(5)
        a = random_functional(sp, 77)
        b = random_functional(sp, 77)
        assert np.array_equal(a.values, b.values)

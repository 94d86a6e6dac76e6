import cmath
import functools
import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from martfock import convolution, subsets
from martfock.convolution import (
    INDICATOR_MAX_LEVEL,
    all_ones,
    approximate,
    approximation_residual,
    approximation_sequence,
    convolve,
    indicator_functional,
    residual_curve,
)
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
from martfock.sequences import is_generalized_martingale
from martfock.subsets import (
    DomainTooLargeError,
    FiniteSubset,
    TruncatedDomain,
    weight,
    weight_vector,
)


coeff_tables = st.dictionaries(
    st.integers(min_value=0, max_value=15),
    st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False),
    max_size=6,
)


def from_masks(table):
    return FockCoefficients({FiniteSubset(m): v for m, v in table.items()})


# Real and imaginary parts that exercise signed zeros and the float range.
signed_parts = st.sampled_from([0.0, -0.0, 1.0, -2.5, 5e-324, -1e308])
signed_tables = st.dictionaries(
    st.integers(min_value=0, max_value=15) | st.integers(min_value=0, max_value=(1 << 22) - 1),
    st.builds(complex, signed_parts, signed_parts),
    max_size=12,
)


class TestConvolve:
    def test_pointwise_product_at_empty(self):
        a = FockCoefficients({FiniteSubset(0): 2.0})
        b = FockCoefficients({FiniteSubset(0): 3.0})
        assert convolve(a, b).evaluate(FiniteSubset(0)) == 6.0

    def test_zero_annihilates(self):
        a = FockCoefficients({FiniteSubset(5): 4.0})
        c = convolve(a, FockCoefficients.zero())
        assert not list(c.table_items())

    def test_indicator_truncates(self):
        phi = FockCoefficients({FiniteSubset(0): 1.0, FiniteSubset(0b1000): 2.0})
        c = convolve(indicator_functional(1), phi)
        assert c.evaluate(FiniteSubset(0)) == 1.0
        assert c.evaluate(FiniteSubset(0b1000)) == 0

    @given(coeff_tables, coeff_tables)
    @settings(max_examples=40)
    def test_transform_homomorphism(self, ta, tb):
        a, b = from_masks(ta), from_masks(tb)
        c = convolve(a, b)
        for s in TruncatedDomain(3):
            assert c.evaluate(s) == a.evaluate(s) * b.evaluate(s)

    @given(coeff_tables, coeff_tables)
    @settings(max_examples=30)
    def test_commutative(self, ta, tb):
        a, b = from_masks(ta), from_masks(tb)
        d = TruncatedDomain(3)
        assert convolve(a, b).equal_on(convolve(b, a), d, tol=0.0)

    @given(coeff_tables, coeff_tables, coeff_tables)
    @settings(max_examples=30)
    def test_associative(self, ta, tb, tc):
        a, b, c = from_masks(ta), from_masks(tb), from_masks(tc)
        d = TruncatedDomain(3)
        left = convolve(convolve(a, b), c)
        right = convolve(a, convolve(b, c))
        assert left.equal_on(right, d, tol=1e-12)

    @given(coeff_tables)
    @settings(max_examples=30)
    def test_unit(self, ta):
        a = from_masks(ta)
        assert convolve(a, all_ones()).equal_on(a, TruncatedDomain(3), tol=0.0)

    def test_rule_backed_result(self):
        c = convolve(all_ones(), FockCoefficients.from_rule(lambda s: weight(s)))
        assert c.rule is not None
        assert c.evaluate(FiniteSubset.from_elements([2])) == 3


def test_a_rule_has_no_table_to_list():
    # Before, the listing was whatever the memo held: an empty document at
    # first and a 3-row one after three evaluations.
    ones = all_ones()
    for evaluated in (0, 3):
        for sigma in map(FiniteSubset, range(evaluated)):
            assert ones.evaluate(sigma) == 1.0
        for listing in (ones.table_items, ones.to_json_dict):
            with pytest.raises(ValueError, match="restrict it to a domain"):
                listing()
    assert ones.restricted(TruncatedDomain(1)).to_json_dict()["coefficients"] == [
        {"sigma": sigma, "re": 1.0, "im": 0.0} for sigma in ([], [0], [1], [0, 1])]


class TestIndicatorFunctional:
    def test_level_zero(self):
        psi = indicator_functional(0)
        assert psi.evaluate(FiniteSubset(0)) == 1.0
        assert psi.evaluate(FiniteSubset(1)) == 1.0
        assert psi.evaluate(FiniteSubset(2)) == 0

    def test_l2_norm_growth(self):
        for n in range(6):
            got = sobolev_norm(indicator_functional(n), 0, TruncatedDomain(n))
            assert got == pytest.approx(2 ** ((n + 1) / 2), rel=1e-12)

    def test_vanishes_off_truncation(self):
        psi = indicator_functional(2)
        assert psi.evaluate(FiniteSubset.from_elements([3])) == 0
        assert psi.support_bound == 2

    def test_convolution_absorption(self):
        # product of indicator levels keeps the smaller level
        d = TruncatedDomain(5)
        got = convolve(indicator_functional(4), indicator_functional(2))
        assert got.equal_on(indicator_functional(2), d, tol=0.0)

    def test_level_guard(self):
        with pytest.raises(ValueError):
            indicator_functional(25)


class TestApproximate:
    def test_identity_inside_truncation(self):
        phi = FockCoefficients.from_rule(lambda s: weight(s) + 1j)
        approx = approximate(phi, 3)
        for s in TruncatedDomain(3):
            assert approx.evaluate(s) == phi.evaluate(s)

    def test_vanishes_outside(self):
        phi = all_ones()
        approx = approximate(phi, 2)
        assert approx.evaluate(FiniteSubset.from_elements([3])) == 0

    def test_absorbs_coarser_indicator(self):
        d = TruncatedDomain(5)
        assert approximate(indicator_functional(2), 4).equal_on(
            indicator_functional(2), d, tol=0.0
        )

    def test_family_is_martingale(self):
        phi = FockCoefficients.from_rule(lambda s: 1.0 / weight(s))
        seq = approximation_sequence(phi, 6)
        ok, _ = is_generalized_martingale(seq, TruncatedDomain(6), tol=0.0)
        assert ok

    @staticmethod
    def assert_same_table(got, want):
        assert got.rule is None and want.rule is None
        assert got.support_bound == want.support_bound
        assert got._masks.dtype == want._masks.dtype == np.uint64
        assert got._values.dtype == want._values.dtype == np.complex128
        assert got._masks.tolist() == want._masks.tolist()
        assert repr(got._values.tolist()) == repr(want._values.tolist())
        assert repr(list(got.table_items())) == repr(list(want.table_items()))

    @given(signed_tables, st.integers(min_value=0, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_table_prefix_equals_indicator_convolution(self, table, n):
        phi = from_masks(table)
        self.assert_same_table(approximate(phi, n), convolve(indicator_functional(n), phi))

    def test_table_prefix_at_the_level_limits(self):
        parts = (0.0, -0.0, 3.0, -1.0)
        table = {m: complex(parts[m % 4], parts[m // 4 % 4])
                 for m in (0, 1, 2, 3, 5, 9, 12, 13, 15, (1 << 20) | 7, (1 << 21) - 1, 1 << 21,
                           1 << 30)}
        phi = from_masks(table)
        small = from_masks({m: v for m, v in table.items() if m < 16})
        for psi, n in ((phi, 0), (phi, 19), (phi, INDICATOR_MAX_LEVEL), (small, 0),
                       (small, 3), (small, 9), (small, INDICATOR_MAX_LEVEL)):
            got = approximate(psi, n)
            self.assert_same_table(got, convolve(indicator_functional(n), psi))
            assert got.support_bound == min(n, psi.support_bound)
        # The real part -0.0 * 1 - 0 * im is -0.0 for im = 3 but +0.0 for im = -1.
        assert repr(phi.evaluate(FiniteSubset(13))) == "(-0-1j)"
        assert repr(approximate(phi, 3).evaluate(FiniteSubset(9))) == "(-0+3j)"
        assert repr(approximate(phi, 3).evaluate(FiniteSubset(13))) == "-1j"

    def test_level_outside_range_is_refused(self):
        for phi in (from_masks({0: 1.0}), all_ones()):
            for n in (-1, INDICATOR_MAX_LEVEL + 1):
                with pytest.raises(ValueError, match=r"truncation level must lie in 0\.\.20"):
                    approximate(phi, n)

    def test_rule_keeps_the_convolution(self):
        approx = approximate(FockCoefficients.from_rule(lambda s: weight(s) - 1j), 2)
        assert approx.rule is not None and approx.support_bound == 2
        assert approx.evaluate(FiniteSubset.from_elements([1, 2])) == 6 - 1j
        assert approx.evaluate(FiniteSubset.from_elements([3])) == 0

    def test_fitted_bound_never_exceeds_source_certificate(self):
        d = TruncatedDomain(6)
        w = weight_vector(d)
        rng = np.random.default_rng(2)
        values = rng.uniform(0, 1, d.size) * w  # certified by (1, 1)
        phi = FockCoefficients(
            {FiniteSubset(int(m)): complex(values[m]) for m in range(d.size)}
        )
        for n in range(7):
            curve, _ = fit_growth(approximate(phi, n), d, [1.0])
            assert curve[1.0] <= 1.0 + 1e-12
            ok, _ = verify_certificate(approximate(phi, n), GrowthCertificate(1.0, 1.0), d)
            assert ok


class TestApproximationResidual:
    def test_zero_once_domain_covered(self):
        assert approximation_residual(all_ones(), 5, 1.0, TruncatedDomain(5)) == 0.0
        assert approximation_residual(all_ones(), 7, 1.0, TruncatedDomain(5)) == 0.0

    def test_all_ones_matches_tail_enumeration(self):
        d = TruncatedDomain(6)
        w = weight_vector(d)
        for n in range(6):
            tail = np.sum(w[1 << (n + 1):] ** -2.0)
            got = approximation_residual(all_ones(), n, 1.0, d)
            assert got == pytest.approx(math.sqrt(tail), rel=1e-12)

    def test_strictly_decreasing(self):
        d = TruncatedDomain(8)
        vals = [approximation_residual(all_ones(), n, 1.0, d) for n in range(9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_overflowing_sum_is_one_value_error(self):
        # A sparse table (100 of 128 masks) of finite terms near 1e308 / w^1.5
        # whose sum from mask 2 overflows.  It overflows where the lanes
        # combine: at q > 1/2 one lane of a leaf holds less than the float
        # range, since its 1/w sum from mask 2 on stays below 1.
        phi = FockCoefficients({FiniteSubset(m): math.sqrt(9e307) for m in range(2, 102)})
        d = TruncatedDomain(6)
        for residuals in (lambda: approximation_residual(phi, 0, 0.75, d),
                          lambda: residual_curve(phi, 3, 0.75, d)):
            with pytest.raises(ValueError, match="residual term or sum at order q=0.75 overflows"):
                residuals()

    def test_single_coefficient_drops_to_zero_at_its_level(self):
        phi = FockCoefficients({FiniteSubset.from_elements([3]): 1.0})
        d = TruncatedDomain(5)
        vals = [approximation_residual(phi, n, 1.0, d) for n in range(6)]
        assert vals[0] == vals[1] == vals[2] > 0
        assert vals[3] == vals[4] == vals[5] == 0.0

    def test_order_guard(self):
        with pytest.raises(InsufficientOrderError):
            approximation_residual(all_ones(), 2, 0.4, TruncatedDomain(3))

    def test_nan_order_refused(self):
        phi = from_masks({0: 1.0, 8: 2.0})
        with pytest.raises(InsufficientOrderError):
            approximation_residual(phi, 1, float("nan"), TruncatedDomain(3))
        with pytest.raises(InsufficientOrderError):
            residual_curve(phi, 1, float("nan"), TruncatedDomain(3))


@functools.lru_cache(maxsize=1)
def dense_arrays(phi, domain):
    """The masks, coefficients and weights of the whole domain."""
    return domain.masks(), phi.values_on(domain), weight_vector(domain)


def boolean_mask_residual(phi, n, q, domain):
    """Reference: the residual as a boolean-indexed sum outside {0..n}, over
    dense vectors of the whole domain."""
    masks, values, w = dense_arrays(phi, domain)
    outside = masks >= (1 << (n + 1))
    if not outside.any():
        return 0.0
    total = np.sum((w[outside] ** (-2.0 * q)) * np.abs(values[outside]) ** 2)
    return float(np.sqrt(total))


def residual_inputs():
    rng = np.random.default_rng(7)
    for horizon in (0, 1, 3, 8, 13):
        d = TruncatedDomain(horizon)
        masks = rng.choice(d.size, size=min(d.size, 300), replace=False)
        values = rng.standard_normal(masks.size) + 1j * rng.standard_normal(masks.size)
        table = FockCoefficients(
            {FiniteSubset(int(m)): complex(v) for m, v in zip(masks, values)})
        yield table, d
        yield all_ones(), d
    # Past 2^16 masks mask_weights multiplies in the high bits.  The counts
    # are not multiples of a SIMD width; some keys lie outside the domain,
    # and some values are explicit (signed) zeros.
    for horizon, count in ((16, 77), (17, 1003), (18, 301), (19, 4099), (20, 2047)):
        d = TruncatedDomain(horizon)
        masks = rng.choice(d.size, size=count, replace=False)
        values = rng.standard_normal(count) + 1j * rng.standard_normal(count)
        values[:3] = [0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
        table = {FiniteSubset(int(m)): complex(v) for m, v in zip(masks, values)}
        for m in rng.integers(d.size, 1 << 40, size=5):
            table[FiniteSubset(int(m))] = 1e10 + 0j
        yield FockCoefficients(table), d
    # A residual reads the masks from 2^(n+1) on without a gather or a
    # scatter when the table holds every one of them.  These tables are dense
    # exactly on [2^(n+1), 2^(N+1)) and sparse below, so for n > 0 the curve
    # (from 2^1) scatters and the residuals from level n on do not; at
    # horizons 16 and 17 the weights come from weight_vector, past the
    # 2^16-entry low table.  Then an empty and a one-entry table.
    for horizon, n in ((9, 3), (16, 12), (17, 0)):
        d = TruncatedDomain(horizon)
        vector = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
        vector[:2 << n] = 0
        vector[rng.choice(2 << n, size=n + 1, replace=False)] = 1.5 - 2j
        yield FockCoefficients.from_vector(vector, horizon), d
    for horizon in (16, 17):
        d = TruncatedDomain(horizon)
        vector = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
        yield FockCoefficients.from_vector(vector, horizon), d
    yield FockCoefficients.zero(), TruncatedDomain(5)
    yield FockCoefficients({FiniteSubset(37): 2.5 - 1j}), TruncatedDomain(5)


class TestResidualCurve:
    @pytest.mark.parametrize("q", [0.75, 1.0, 1.5, 2.3])
    def test_bitwise_equal_to_per_level_and_boolean_mask(self, q):
        for phi, d in residual_inputs():
            level = d.max_index + 2
            curve = residual_curve(phi, level, q, d)
            assert len(curve) == level + 1
            for n, got in enumerate(curve):
                assert type(got) is float
                assert got == approximation_residual(phi, n, q, d)
                if d.max_index < 16 or n % 4 == 0 or n >= d.max_index - 1:
                    assert got == boolean_mask_residual(phi, n, q, d)

    def test_dense_suffixes_gather_no_weights(self, monkeypatch):
        # A suffix that the entries fill takes its weights as a slice; only a
        # sparse one gathers them through mask_weights.
        gathered = []
        gather = subsets.mask_weights
        monkeypatch.setattr(subsets, "mask_weights",
                            lambda masks, n: gathered.append(masks.size) or gather(masks, n))
        d = TruncatedDomain(9)
        vector = np.arange(d.size) + 1j
        vector[:16] = 0
        vector[5] = 1.0
        mixed = FockCoefficients.from_vector(vector, d.max_index)
        for phi in (all_ones(), FockCoefficients.from_vector(vector + 1, d.max_index)):
            residual_curve(phi, 10, 1.0, d)
        for n in range(3, 11):
            approximation_residual(mixed, n, 1.0, d)
        assert gathered == []
        residual_curve(mixed, 10, 1.0, d)
        approximation_residual(mixed, 2, 1.0, d)
        assert gathered == [d.size - 15, d.size - 16]  # mask 5 lies from 2^1 on

    def test_levels_covering_the_domain_are_exact_zero(self):
        d = TruncatedDomain(4)
        curve = residual_curve(all_ones(), 7, 1.0, d)
        assert curve[:4] == [boolean_mask_residual(all_ones(), n, 1.0, d)
                             for n in range(4)]
        assert all(r > 0 for r in curve[:4])
        assert curve[4:] == [0.0] * 4
        assert residual_curve(all_ones(), 3, 1.0, TruncatedDomain(2))[2:] == [0.0, 0.0]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_sparse_tables_bitwise_equal_to_dense_formula(self, data):
        horizon = data.draw(st.integers(min_value=0, max_value=17))
        masks = st.integers(min_value=0, max_value=(8 << horizon) - 1)
        parts = (st.floats(min_value=-1e100, max_value=1e100)
                 | st.sampled_from([0.0, -0.0, 5e-324]))
        table = data.draw(st.dictionaries(masks, st.builds(complex, parts, parts),
                                          max_size=40))
        q = data.draw(st.floats(min_value=0.5, max_value=6.0, exclude_min=True))
        phi, d = from_masks(table), TruncatedDomain(horizon)
        curve = residual_curve(phi, horizon + 1, q, d)
        for n, got in enumerate(curve):
            assert got == approximation_residual(phi, n, q, d)
            assert got == boolean_mask_residual(phi, n, q, d)

    @pytest.mark.parametrize("horizon", [10, 12, 15, 18])
    @pytest.mark.parametrize("fill", [0.01, 0.15, 0.6])
    def test_crowded_tables_bitwise_equal_to_dense_formula(self, horizon, fill):
        # Tables 1-60% full: the sum from each start is a multi-level tree
        # whose leaves hold several entries per lane, and the suffixes from
        # 2 and 4 leave 6 and 4 leftovers after the last group of 8.
        rng = np.random.default_rng(horizon)
        d = TruncatedDomain(horizon)
        vector = rng.standard_normal(d.size) + 1j * rng.standard_normal(d.size)
        vector *= rng.choice([1e-150, 1.0, 1e100], d.size)
        vector[rng.random(d.size) >= fill] = 0
        vector[-1] = 1.0  # the bound stays at the horizon
        phi = FockCoefficients.from_vector(vector, horizon)
        for q in (0.75, 2.0):
            curve = residual_curve(phi, horizon + 1, q, d)
            for n, got in enumerate(curve):
                assert got.hex() == approximation_residual(phi, n, q, d).hex()
                assert got.hex() == boolean_mask_residual(phi, n, q, d).hex(), (n, q)

    def test_order_checked_first(self):
        with pytest.raises(InsufficientOrderError):
            residual_curve(all_ones(), 2, 0.5, TruncatedDomain(31))

    def test_guard_checked_before_allocating(self, monkeypatch):
        # The small case first: unplanned, it succeeds cheaply (and the test
        # fails) instead of going on to the 2^32-entry request.  The budget
        # holds the terms vector over {0..3}, not over {0..4}.
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", 8 * 16)
        table = from_masks({3: 1.0, 1 << 31: 2.0})
        assert residual_curve(table, 2, 1.0, TruncatedDomain(3)) == [0.5, 0.0, 0.0]
        for domain in (TruncatedDomain(4), TruncatedDomain(31)):
            for phi in (all_ones(), table):
                with pytest.raises(DomainTooLargeError):
                    residual_curve(phi, 2, 1.0, domain)
                with pytest.raises(DomainTooLargeError):
                    approximation_residual(phi, 2, 1.0, domain)


def dense_formula(table, exponent, starts, domain):
    """sqrt(np.sum(weight_vector(domain)[s:] ** exponent * |values_on|^2))
    for each start s, with 0.0 at the masks without an entry and the terms
    computed at the entries from the least start on; None where a term or
    a sum leaves the float range (flagged, or an infinite |value|, which
    np.abs does not flag)."""
    inside = sorted(m for m in table if min(starts) <= m < domain.size)
    masks = np.array(inside, dtype=np.int64)
    values = np.array([table[m] for m in inside], dtype=complex)
    terms = np.zeros(domain.size)
    try:
        with np.errstate(over="raise", invalid="raise"):
            terms[masks] = weight_vector(domain)[masks] ** exponent * np.abs(values) ** 2
            sums = [float(np.sqrt(np.sum(terms[s:]))) for s in starts]
    except FloatingPointError:
        return None
    return sums if math.isfinite(max(sums)) else None


# Parts across the float range, subnormals and both zeros; a zero value is
# stored, not dropped.
wide_parts = (st.floats(min_value=-1.7e308, max_value=1.7e308)
              | st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7e308]))


def draw_table(data, d: TruncatedDomain):
    """A sparse (and, at small horizons, full) table over d of wide values,
    as a dict by mask, and its functional."""
    table = data.draw(st.dictionaries(st.integers(min_value=0, max_value=d.size - 1),
                                      st.builds(complex, wide_parts, wide_parts), max_size=48))
    return table, FockCoefficients({FiniteSubset(m): v for m, v in table.items()}, d.max_index)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_sums_are_the_dense_formula_or_one_value_error(data):
    # sobolev_norm, approximation_residual and residual_curve over sparse
    # (and, at small horizons, full) tables: each result has the bits of the
    # dense formula, or the call raises ValueError exactly where the formula
    # leaves the float range, and nothing warns.
    horizon = data.draw(st.integers(min_value=0, max_value=16))
    d = TruncatedDomain(horizon)
    table, phi = draw_table(data, d)
    p = data.draw(st.sampled_from([-1.0, 0.0, 0.5, 1.0, 12.0]))
    q = data.draw(st.floats(min_value=0.5, max_value=8.0, exclude_min=True))
    levels = range(horizon + 1)
    calls = [(lambda: [sobolev_norm(phi, p, d)], dense_formula(table, 2.0 * p, [0], d))]
    calls += [(lambda n=n: [approximation_residual(phi, n, q, d)],
               dense_formula(table, -2.0 * q, [2 << n], d) if n < horizon else [0.0])
              for n in levels]
    curve = dense_formula(table, -2.0 * q, [2 << n for n in levels], d) if horizon else [0.0]
    calls.append((lambda: residual_curve(phi, horizon, q, d), curve))
    for call, expected in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if expected is None:
                with pytest.raises(ValueError):
                    call()
            else:
                assert [x.hex() for x in call()] == [x.hex() for x in expected]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_growth_and_pairing_are_finite_or_one_value_error(data):
    # pairing, fit_growth, verify_certificate and dual_norm_bound on the
    # tables above, the last two with a drawn and the fitted certificate:
    # each returns finite values or raises one ValueError, and nothing warns.
    d = TruncatedDomain(data.draw(st.integers(min_value=0, max_value=16)))
    (_, phi), (_, xi) = draw_table(data, d), draw_table(data, d)
    orders = st.sampled_from([0.0, 0.5, 1.0, 2.0, 12.0])
    grid = sorted(data.draw(st.lists(orders, min_size=1, max_size=3, unique=True)))
    certs = [GrowthCertificate(data.draw(st.floats(min_value=0.0, max_value=1.7e308)),
                               data.draw(orders), d)]
    q = data.draw(st.floats(min_value=0.0, max_value=16.0) | st.sampled_from([1e308]))

    def growth():
        curve, cert = fit_growth(phi, d, grid)
        certs.extend([cert] if cert else [])
        return list(curve.values()) + ([cert.scale] if cert else [])

    def finite_or_value_error(call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                values = call()
            except ValueError:
                return
        assert all(cmath.isfinite(v) for v in values)

    finite_or_value_error(lambda: [pairing(phi, xi, d)])
    finite_or_value_error(growth)
    for cert in certs:
        finite_or_value_error(lambda: verify_certificate(phi, cert, d)[:1])  # the verdict
        finite_or_value_error(lambda: [dual_norm_bound(cert, q)])


class ScalarPath:
    """The per-subset implementation that rule-backed functionals had before
    rules read mask arrays, kept as the oracle: evaluate memoises each
    subset's value, and sums, scalar multiples, convolutions and approximants
    involving a rule are lambdas over the operands' evaluate.  A table is
    read from its table_items() (absent subsets give 0j), and an operation on
    two tables is the library's table path, which this oracle does not
    cover.  Both dicts are keyed by mask, which hashes faster than a
    FiniteSubset and holds the same values."""

    def __init__(self, rule=None, support_bound=None, table=None):
        self.rule, self.table, self._memo = rule, table, {}
        self.support_bound = support_bound if table is None else table.support_bound
        if table is not None:
            self._memo = {s.mask: v for s, v in table.table_items()}

    def evaluate(self, sigma):
        value = self._memo.get(sigma.mask)
        if value is None:
            if self.table is not None:
                return 0j
            value = self._memo[sigma.mask] = complex(self.rule(sigma))
        return value

    def __add__(self, other):
        if self.table is not None and other.table is not None:
            return ScalarPath(table=self.table + other.table)
        bounds = (self.support_bound, other.support_bound)
        return ScalarPath(lambda s: self.evaluate(s) + other.evaluate(s),
                          None if None in bounds else max(bounds))

    def __mul__(self, scalar):
        if self.table is not None:
            return ScalarPath(table=scalar * self.table)
        return ScalarPath(lambda s: scalar * self.evaluate(s), self.support_bound)

    __rmul__ = __mul__

    def __sub__(self, other):
        return self + (-1.0) * other

    @staticmethod
    def convolve(a, b):
        if a.table is not None and b.table is not None:
            return ScalarPath(table=convolve(a.table, b.table))
        bound = min((x.support_bound for x in (a, b) if x.support_bound is not None),
                    default=None)
        return ScalarPath(lambda s: a.evaluate(s) * b.evaluate(s), bound)

    @staticmethod
    def approximate(phi, n):
        if phi.table is not None:
            return ScalarPath(table=approximate(phi.table, n))
        # the level-n indicator table: 1.0 stored below 2^(n+1), absent above
        indicator = ScalarPath(lambda s: 1.0 if s.mask < 2 << n else 0j, n)
        return ScalarPath.convolve(indicator, phi)

    def values_on(self, subsets):
        """A rule's values at the subsets, one evaluate each."""
        return np.fromiter(map(self.evaluate, subsets), np.complex128, len(subsets))


ORACLE_HORIZON = 12
ORACLE_SUBSETS = [FiniteSubset(m) for m in range(2 << ORACLE_HORIZON)]
# Real and imaginary parts with signed zeros, explicit zero entries, and
# masks past the oracle's domain.
SIGNED_ZERO_TABLE = {0: complex(-0.0, 1.0), 1: complex(2.0, -0.0), 6: complex(-0.0, -0.0),
                     9: complex(0.0, -0.0), 13: -1.5 + 0j, 100: complex(-0.0, 3.0),
                     4095: 1e-300 + 0j, 5000: complex(-2.0, -0.0), 1 << 20: 7 + 0j}
SCALAR_RULES = {
    "1/weight": lambda s: 1.0 / weight(s),
    "weight": lambda s: weight(s),
    "weight^2": lambda s: weight(s) ** 2,
    "weight+1j": lambda s: weight(s) + 1j,
    "weight-1j": lambda s: weight(s) - 1j,
    "(-0+1j)": lambda s: complex(-0.0, 1.0),
    "(-0-1j)": lambda s: complex(-0.0, -1.0),
}
ORACLE_RULES = ["all_ones", *SCALAR_RULES]


def rule_pair(name):
    """The rule as a library functional and on the scalar path."""
    if name == "all_ones":
        return all_ones(), ScalarPath(lambda s: 1.0)
    return FockCoefficients.from_rule(SCALAR_RULES[name]), ScalarPath(SCALAR_RULES[name])


def combinations(phi, ref):
    """(name, library functional, scalar-path functional) for the rule and
    every composite of it that the oracle checks."""
    table = from_masks(SIGNED_ZERO_TABLE)
    t = ScalarPath(table=table)
    yield "rule", phi, ref
    yield "rule + table", phi + table, ref + t
    yield "table + rule", table + phi, t + ref
    yield "rule - table", phi - table, ref - t
    yield "table - rule", table - phi, t - ref
    yield "2.5 * rule", 2.5 * phi, 2.5 * ref
    yield "rule * (1.5-2j)", phi * (1.5 - 2j), ref * (1.5 - 2j)
    yield "(-0+1j) * rule", complex(-0.0, 1.0) * phi, complex(-0.0, 1.0) * ref
    yield "convolve(rule, table)", convolve(phi, table), ScalarPath.convolve(ref, t)
    yield "convolve(table, rule)", convolve(table, phi), ScalarPath.convolve(t, ref)
    for n in (0, 3, 12):
        yield f"approximate(rule, {n})", approximate(phi, n), ScalarPath.approximate(ref, n)
    yield ("nested", approximate(3 * convolve(2 * phi + table, phi) - phi, 5),
           ScalarPath.approximate(3 * ScalarPath.convolve(2 * ref + t, ref) - ref, 5))


class TestScalarPathOracle:
    @pytest.mark.parametrize("negated", [False, True], ids=["rule", "-1.0*rule"])
    @pytest.mark.parametrize("name", ORACLE_RULES)
    def test_values_repr_equal_to_the_scalar_path(self, name, negated):
        phi, ref = rule_pair(name)
        if negated:
            phi, ref = -1.0 * phi, -1.0 * ref
        for label, got, want in combinations(phi, ref):
            assert (got.rule is None) == (want.table is not None), label
            assert got.support_bound == want.support_bound, label
            full = want.values_on(ORACLE_SUBSETS)
            for h in range(ORACLE_HORIZON + 1):
                # bit for bit, so every entry's repr is equal too (signed
                # zeros, and NaN payloads, included)
                values = got.values_on(TruncatedDomain(h)).view(np.uint64)
                assert np.array_equal(values, full[:2 << h].view(np.uint64)), (label, h)
            for sigma in (FiniteSubset(5), FiniteSubset(1 << 63), FiniteSubset((1 << 64) - 1)):
                expected = want.evaluate(sigma)
                if cmath.isfinite(expected):
                    assert repr(got.evaluate(sigma)) == repr(expected), (label, sigma)
                    continue
                # weight^2 composites overflow at the top mask: Python's
                # product goes to inf (and inf * 0 to nan), the library's
                # raises one ValueError.
                with pytest.raises(ValueError, match="overflows the float range"):
                    got.evaluate(sigma)

    def test_all_ones_evaluates_a_high_mask_without_a_plan(self, monkeypatch):
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", 1)
        assert repr(all_ones().evaluate(FiniteSubset(1 << 63))) == "(1+0j)"


# F(sigma) = c * weight(sigma)^a on {0..N}: (c, a) pairs.
MONOMIALS = [(1.0, 0.0), (2.5 - 1j, 1.0), (-0.5j, -1.5), (3.0, 2.0), (1e-3 + 1e-3j, 0.5)]
# Relative error allowed against the 50-digit closed forms: 16 ulp.  The
# worst measured is 2.6e-16 for the norms and 4.1e-16 for the residuals.
CLOSED_FORM_REL = 2.0 ** -48
# A table up to N = 16; the scalar rule, read subset by subset, up to 12.
MONOMIAL_DOMAINS = {"table": (0, 1, 5, 12, 16), "rule": (0, 5, 12)}


def monomial(c, a, domain, kind):
    if kind == "table":
        return FockCoefficients.from_vector(c * weight_vector(domain) ** a, domain.max_index)
    return FockCoefficients.from_rule(lambda s: c * weight(s) ** a)


def factor_product(exponent, top):
    """prod_{k=1..top} (1 + k^exponent), at the working precision."""
    return mpmath.fprod(1 + mpmath.mpf(k) ** exponent for k in range(1, top + 1))


def relative_error(got, exact):
    return float(abs(mpmath.mpf(got) - exact) / exact)


class TestClosedFormMonomials:
    """sobolev_norm and residual_curve of c * weight^a over {0..N}, against
    products evaluated by mpmath at 50 digits:
    ||F||_p^2 = |c|^2 prod_{k<=N+1} (1 + k^(2(a+p))), and the residual at
    level n < N squared = |c|^2 (prod_{k<=N+1} - prod_{k<=n+1}) (1 + k^(2(a-q)))
    (exactly 0 from n = N on)."""

    @pytest.mark.parametrize("kind", MONOMIAL_DOMAINS)
    def test_sobolev_norm(self, kind):
        for (c, a), n_max in itertools.product(MONOMIALS, MONOMIAL_DOMAINS[kind]):
            domain = TruncatedDomain(n_max)
            phi = monomial(c, a, domain, kind)
            with mpmath.workdps(50):
                modulus2 = mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2
                for p in (-1.0, 0.0, 0.5, 1.0):
                    exact = mpmath.sqrt(modulus2 * factor_product(2 * (a + p), n_max + 1))
                    if kind == "rule":  # unbounded support: a lower bound, with a warning
                        with pytest.warns(UserWarning, match="lower bound"):
                            got = sobolev_norm(phi, p, domain)
                    else:
                        got = sobolev_norm(phi, p, domain)
                    assert relative_error(got, exact) <= CLOSED_FORM_REL, (c, a, n_max, p)

    @pytest.mark.parametrize("kind", MONOMIAL_DOMAINS)
    def test_residual_curve(self, kind):
        for (c, a), n_max in itertools.product(MONOMIALS, MONOMIAL_DOMAINS[kind]):
            domain = TruncatedDomain(n_max)
            phi = monomial(c, a, domain, kind)
            with mpmath.workdps(50):
                modulus2 = mpmath.mpf(c.real) ** 2 + mpmath.mpf(c.imag) ** 2
                for q in (0.75, 1.0, 2.0):
                    curve = residual_curve(phi, n_max + 1, q, domain)
                    assert curve[n_max:] == [0.0, 0.0]
                    whole = factor_product(2 * (a - q), n_max + 1)
                    for n, got in enumerate(curve[:n_max]):
                        exact = mpmath.sqrt(modulus2 * (whole - factor_product(2 * (a - q), n + 1)))
                        assert relative_error(got, exact) <= CLOSED_FORM_REL, (c, a, n_max, q, n)


@functools.cache
def infinite_product(exponent):
    """prod_{k>=1} (1 + k^exponent) for exponent < -1, at 50 digits: the log of the first 50 factors, plus the tail
    sum_{k>50} log(1 + k^exponent) = sum_j (-1)^(j+1) zeta(-j exponent, 51) / j."""
    with mpmath.workdps(50):
        head = mpmath.fsum(mpmath.log1p(mpmath.mpf(k) ** exponent) for k in range(1, 51))
        tail, j = mpmath.mpf(0), 1
        while True:
            term = (-1) ** (j + 1) * mpmath.zeta(-j * exponent, 51) / j
            tail += term
            if abs(term) < mpmath.mpf(10) ** -55:
                return mpmath.exp(head + tail)
            j += 1


def complex_error(got, exact):
    return float(abs(mpmath.mpc(got) - exact) / abs(exact))


class TestClosedFormCertificates:
    """pairing, fit_growth's C(p), verify_certificate and dual_norm_bound on
    the monomial tables c * weight^a over {0..N}, N <= 16, against closed
    forms evaluated by mpmath at 50 digits: the pairing of two monomials is
    c1 c2 prod_{k<=N+1} (1 + k^(a1+a2)); C(p) = max |c| weight^(a-p) is |c|
    at the empty set for a < p and |c| ((N+1)!)^(a-p) at the full set
    otherwise; the dual bound is C sqrt(prod_{k>=1} (1 + k^(-2(q-p))))."""

    HORIZONS = (1, 5, 12, 16)
    ORDERS = (0.0, 0.5, 1.0, 2.0)

    def test_pairing(self):
        for n_max in (0, *self.HORIZONS):
            domain = TruncatedDomain(n_max)
            for (c1, a1), (c2, a2) in itertools.combinations_with_replacement(MONOMIALS, 2):
                got = pairing(monomial(c1, a1, domain, "table"), monomial(c2, a2, domain, "table"),
                              domain)
                with mpmath.workdps(50):
                    exact = mpmath.mpc(c1) * mpmath.mpc(c2) * factor_product(a1 + a2, n_max + 1)
                    assert complex_error(got, exact) <= CLOSED_FORM_REL, (c1, a1, c2, a2, n_max)

    def test_growth_fit_certificate_and_dual_bound(self):
        for (c, a), n_max in itertools.product(MONOMIALS, self.HORIZONS):
            domain = TruncatedDomain(n_max)
            phi = monomial(c, a, domain, "table")
            curve, _ = fit_growth(phi, domain, self.ORDERS)
            for p in self.ORDERS:
                with mpmath.workdps(50):
                    exact = abs(mpmath.mpc(c)) * mpmath.factorial(n_max + 1) ** max(a - p, 0)
                    assert relative_error(curve[p], exact) <= CLOSED_FORM_REL, (c, a, n_max, p)
                    scale = float(exact)
                    for q in (p + 0.75, p + 1.0, p + 2.0):
                        bound = mpmath.mpf(scale) * mpmath.sqrt(infinite_product(-2 * (q - p)))
                        got = dual_norm_bound(GrowthCertificate(scale, p), q)
                        assert relative_error(got, bound) <= CLOSED_FORM_REL, (scale, p, q)
                assert verify_certificate(phi, GrowthCertificate(scale, p), domain) == (True, None)
                if a >= p and a > 0:
                    # The largest violation is at the largest weight, (N+1)!,
                    # which {1..N} and the full set share (element 0 weighs
                    # 1); the witness is the lower mask of the two.
                    below = GrowthCertificate(scale * (1 - 1e-9), p)
                    assert verify_certificate(phi, below, domain) == (
                        False, FiniteSubset(domain.size - 2)), (c, a, n_max, p)

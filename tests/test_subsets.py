import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from martfock import subsets
from martfock.subsets import (
    DomainTooLargeError,
    FiniteSubset,
    InvalidExponentError,
    TruncatedDomain,
    full_series,
    indicator,
    log_weight,
    mask_weights,
    series_upper_bound,
    weight,
    weight_vector,
    weighted_series,
    weighted_series_product,
    zeta,
)

masks_5 = st.integers(min_value=0, max_value=63)  # subsets of {0..5}


class TestFiniteSubset:
    def test_empty_is_distinct(self):
        assert FiniteSubset(0) != FiniteSubset(1)
        assert FiniteSubset(0).elements == ()
        assert len(FiniteSubset(0)) == 0

    def test_elements_strictly_increasing(self):
        s = FiniteSubset.from_elements([5, 0, 2])
        assert s.elements == (0, 2, 5)

    def test_equality_matches_elements(self):
        assert FiniteSubset.from_elements([1, 3]) == FiniteSubset(0b1010)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            FiniteSubset.from_elements([64])
        with pytest.raises(ValueError):
            FiniteSubset(-1)
        with pytest.raises(ValueError):
            FiniteSubset.from_elements([2, 2])

    def test_json_roundtrip(self):
        s = FiniteSubset.from_elements([0, 2, 5])
        assert s.to_json() == [0, 2, 5]
        assert FiniteSubset.from_json([0, 2, 5]) == s
        assert FiniteSubset.from_json([]) == FiniteSubset(0)
        with pytest.raises(ValueError):
            FiniteSubset.from_json([2, 1])

    def test_max_element(self):
        assert FiniteSubset(0).max_element() is None
        assert FiniteSubset.from_elements([0, 7]).max_element() == 7

    @pytest.mark.parametrize("mask", [1.0, "3", None])
    def test_mask_must_be_an_int(self, mask):
        with pytest.raises(TypeError, match="mask must be an int"):
            FiniteSubset(mask)

    def test_membership(self):
        s = FiniteSubset.from_elements([0, 3])
        assert 0 in s and 3 in s
        assert 1 not in s and -1 not in s
        top = FiniteSubset((1 << 64) - 1)
        assert 63 in top and 64 not in top and -1 not in top


class TestWeight:
    def test_empty(self):
        assert weight(FiniteSubset(0)) == 1

    def test_singleton(self):
        assert weight(FiniteSubset.from_elements([2])) == 3

    def test_product(self):
        assert weight(FiniteSubset.from_elements([0, 1, 3])) == 8

    @given(masks_5, masks_5)
    def test_multiplicative_on_disjoint(self, m1, m2):
        a, b = FiniteSubset(m1), FiniteSubset(m2)
        if a.isdisjoint(b):
            assert weight(a.union(b)) == weight(a) * weight(b)

    @given(masks_5)
    def test_at_least_one(self, m):
        s = FiniteSubset(m)
        assert weight(s) >= 1
        assert (weight(s) == 1) == (m in (0, 1))  # empty set or {0}

    def test_large_subset_exact(self):
        s = FiniteSubset.from_elements(range(64))
        assert weight(s) == math.factorial(64)
        assert log_weight(s) == pytest.approx(math.lgamma(65), rel=1e-12)


class TestIndicator:
    def test_examples(self):
        assert indicator(FiniteSubset(0), 0) == 1
        assert indicator(FiniteSubset.from_elements([0, 1]), 0) == 0
        assert indicator(FiniteSubset.from_elements([0, 1]), 1) == 1

    @given(masks_5, st.integers(min_value=0, max_value=8))
    def test_monotone_in_n(self, m, n):
        s = FiniteSubset(m)
        assert indicator(s, n) * indicator(s, n + 1) == indicator(s, n)

    def test_level_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            indicator(FiniteSubset(0), -1)


class TestTruncatedDomain:
    def test_enumeration_n0(self):
        assert [s.to_json() for s in TruncatedDomain(0)] == [[], [0]]

    def test_enumeration_n1(self):
        assert [s.to_json() for s in TruncatedDomain(1)] == [[], [0], [1], [0, 1]]

    def test_count(self):
        assert len(TruncatedDomain(1)) == 4
        assert len(list(TruncatedDomain(4))) == 32

    def test_nested(self):
        small = set(TruncatedDomain(2))
        assert small <= set(TruncatedDomain(4))

    def test_membership(self):
        d = TruncatedDomain(2)
        assert FiniteSubset(0) in d and FiniteSubset.from_elements([0, 1, 2]) in d
        assert FiniteSubset.from_elements([3]) not in d
        assert FiniteSubset((1 << 64) - 1) not in d

    def test_guard(self, monkeypatch):
        # A budget of one FiniteSubset per mask of {0..3}.
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", 16 * 120)
        for n in (4, 31):
            with pytest.raises(DomainTooLargeError):
                list(TruncatedDomain(n))
        assert len(list(TruncatedDomain(3))) == 16

    def test_indicator_restriction_matches_smaller_domain(self):
        inner = {s for s in TruncatedDomain(5) if indicator(s, 3)}
        assert inner == set(TruncatedDomain(3))

    def test_weight_vector_matches_scalar(self):
        d = TruncatedDomain(5)
        w = weight_vector(d)
        for s in d:
            assert w[s.mask] == weight(s)


def per_bit_weight_vector(domain):
    """Reference formulation: one boolean-mask pass per bit, ascending k."""
    masks = domain.masks()
    w = np.ones(domain.size)
    for k in range(domain.max_index + 1):
        w[(masks >> k) & 1 == 1] *= k + 1
    return w


class TestWeightVectorKernel:
    def test_bitwise_equal_to_per_bit_formulation(self):
        # The weights reach 21! > 2^53 here, yet every one is exact: its odd
        # part divides that of 21!, which is below 2^53.
        for n in range(21):
            d = TruncatedDomain(n)
            got = weight_vector(d)
            assert got.dtype == np.float64 and got.shape == (d.size,)
            assert np.array_equal(got.view(np.int64),
                                  per_bit_weight_vector(d).view(np.int64))

    def test_exact_below_two_to_53(self):
        # Every weight of a subset of {0..16} is at most 17! < 2^53.
        exact = [math.prod(k + 1 for k in FiniteSubset(m).elements)
                 for m in range(1 << 17)]
        for n in range(17):
            w = weight_vector(TruncatedDomain(n))
            assert w.tolist() == exact[: 1 << (n + 1)]

    def test_guard_checked_before_allocating(self, monkeypatch):
        # The small case first: unplanned, it succeeds cheaply (and the test
        # fails) instead of going on to the 2^32-entry request.
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", 8 * 16)
        assert weight_vector(TruncatedDomain(3)).size == 16
        with pytest.raises(DomainTooLargeError):
            weight_vector(TruncatedDomain(4))
        with pytest.raises(DomainTooLargeError):
            weight_vector(TruncatedDomain(31))


class TestMaskWeights:
    def test_bitwise_equal_to_indexed_weight_vector(self):
        # From horizon 16 the high-bit loop runs; from 18 the weights pass 2^53.
        rng = np.random.default_rng(5)
        for n in range(21):
            d = TruncatedDomain(n)
            w = weight_vector(d)
            every = d.masks()
            some = rng.integers(0, d.size, size=1001)  # unsorted, repeats
            for masks in (every, some, every[::-1][:13]):
                got = mask_weights(masks, n)
                assert got.dtype == np.float64 and got.shape == masks.shape
                assert np.array_equal(got.view(np.int64), w[masks].view(np.int64))

    def test_ascending_products_beyond_exact_range(self):
        # Past horizon 20 a weight may round; it must round as the product
        # 1.0 * (k+1) * ... taken in ascending k, as the doubling takes it.
        rng = np.random.default_rng(6)
        masks = rng.integers(0, 1 << 41, size=500)
        expected = []
        for m in masks.tolist():
            product = 1.0
            for k in FiniteSubset(m).elements:
                product *= k + 1
            expected.append(product)
        assert mask_weights(masks, 40).tolist() == expected
        assert mask_weights(np.zeros(0, dtype=np.int64), 40).shape == (0,)


class TestWeightedSeries:
    def test_small_enumeration(self):
        # 1 + 1 + 1/4 + 1/4 over the four subsets of {0,1}
        assert weighted_series(2, TruncatedDomain(1)) == pytest.approx(2.5, abs=1e-14)

    def test_matches_factorized_product(self):
        for n in range(13):
            s = weighted_series(2, TruncatedDomain(n))
            assert s == pytest.approx(weighted_series_product(2, n), rel=1e-12)

    def test_monotone_in_truncation(self):
        vals = [weighted_series(2, TruncatedDomain(n)) for n in range(13)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_decreasing_in_exponent(self):
        d = TruncatedDomain(8)
        assert weighted_series(2, d) > weighted_series(3, d) > weighted_series(4, d)

    def test_upper_bound(self):
        bound = series_upper_bound(2)
        assert bound == pytest.approx(math.exp(math.pi ** 2 / 6), rel=1e-12)
        for n in range(13):
            assert weighted_series(2, TruncatedDomain(n)) <= bound

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponentError):
            weighted_series(0, TruncatedDomain(2))
        with pytest.raises(InvalidExponentError):
            series_upper_bound(1.0)
        with pytest.raises(InvalidExponentError):
            full_series(1.0)

    @pytest.mark.parametrize("p", [0.0, -0.0, -1.0, float("nan"), float("-inf")])
    def test_series_exponent_must_be_positive(self, p):
        with pytest.raises(InvalidExponentError):
            weighted_series(p, TruncatedDomain(2))
        with pytest.raises(InvalidExponentError):
            weighted_series_product(p, 2)


class TestFullSeries:
    @pytest.mark.parametrize("p", [1.0, 0.5, float("nan"), float("-inf")])
    def test_closed_forms_refuse_exponents_up_to_one_and_nan(self, p):
        with pytest.raises(InvalidExponentError):
            full_series(p)
        with pytest.raises(InvalidExponentError):
            series_upper_bound(p)

    def test_known_value(self):
        # infinite product identity: sum over all subsets at exponent 2
        assert full_series(2) == pytest.approx(math.sinh(math.pi) / math.pi, rel=1e-13)

    def test_dominates_truncations(self):
        fs = full_series(2)
        for n in range(13):
            assert weighted_series(2, TruncatedDomain(n)) < fs

    def test_head_length_insensitive(self):
        assert full_series(1.5, head_terms=500) == pytest.approx(
            full_series(1.5, head_terms=4000), rel=1e-12
        )


class TestZeta:
    def test_matches_mpmath(self):
        # a = 1 serves series_upper_bound, a = 2001 the tail of full_series
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(400):  # at 80 digits mpmath itself misses near s = 78
            for s in [1.01, 1.5, 2, 3, 7.5, 40, 80]:
                for a in [1, 2.5, 2001, 1e4]:
                    exact = mpmath.zeta(s, a)
                    if exact < 1e-300:
                        continue
                    assert abs(zeta(s, a) - exact) <= math.ulp(float(exact)), (s, a)

    def test_closed_forms_keep_recorded_values(self):
        # bit patterns recorded from scipy.special.zeta, which these replaced
        recorded = {
            1.5: ("0x1.266dc86187dfep+3", "0x1.b4345c7065e08p+3"),
            2: ("0x1.d689b8914de4dp+1", "0x1.4b9011d932a70p+2"),
            3: ("0x1.36ceec50c5d92p+1", "0x1.a9d9997964a31p+1"),
            7.5: ("0x1.017df8796921cp+1", "0x1.5df92d11c8dccp+1"),
            40: ("0x1.0000000001000p+1", "0x1.5bf0a8b146d28p+1"),
        }
        for s, (full, bound) in recorded.items():
            assert full_series(s).hex() == full, s
            assert series_upper_bound(s).hex() == bound, s
        assert full_series(1.01).hex() == "0x1.3732929e34e52p+144"

    def test_huge_exponents(self):
        # the Bernoulli corrections underflow instead of forming 0 * inf
        for s in [1000.0, 1e300, math.inf]:
            assert zeta(s) == 1.0
            assert series_upper_bound(s) == math.e

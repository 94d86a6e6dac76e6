"""Array-backed coefficient tables against the dict-backed tables they
replace.  DictTable below is the dict code kept as the oracle: every table
operation must give the same masks, the same support bound and the same
values down to repr (signed zeros included), or, where its sum or product
overflows or makes an invalid value, raise one ValueError (see
same_or_refused).  A table with a value that is not finite (NaN or an
infinity) is refused by the constructor with one ValueError (see pair)."""

import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from martfock import subsets
from martfock.convolution import approximate, convolve, indicator_functional
from martfock.functionals import FockCoefficients
from martfock.subsets import FiniteSubset, TruncatedDomain, indicator

TOP = (1 << 64) - 1

# numpy reports the NaN and overflow the special values make; Python's
# complex arithmetic in the oracle does not.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


class DictTable:
    """The dict-backed coefficient table: a dict from FiniteSubset to complex,
    in insertion order."""

    def __init__(self, table, support_bound=None):
        self.table = {s: complex(v) for s, v in table.items()}
        if support_bound is None:
            support_bound = max((s.max_element() or 0 for s in self.table), default=0)
        self.support_bound = support_bound

    def evaluate(self, sigma):
        return self.table.get(sigma, 0j)

    def __add__(self, other):
        table = dict(self.table)
        for sigma, value in other.table.items():
            table[sigma] = table.get(sigma, 0j) + value
        return DictTable({s: v for s, v in table.items() if v != 0})

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return DictTable({s: scalar * v for s, v in self.table.items() if scalar * v != 0},
                         self.support_bound)

    def convolve(self, other):
        table = {}
        for sigma, value in self.table.items():
            if sigma in other.table:
                product = value * other.table[sigma]
                if product != 0:
                    table[sigma] = product
        return DictTable(table, min(self.support_bound, other.support_bound))

    def restricted(self, domain):
        # values_on followed by the dense-to-table loop: ascending, zeros dropped
        inside = sorted((s, v) for s, v in self.table.items()
                        if indicator(s, domain.max_index) and v != 0)
        return DictTable(dict(inside), domain.max_index)

    def to_json_dict(self):
        coefficients = []
        for sigma, value in sorted(self.table.items(), key=lambda kv: kv[0].mask):
            if value == 0:
                continue
            coefficients.append({"sigma": sigma.to_json(), "re": value.real,
                                 "im": value.imag})
        return {"format": "fock-coefficients/v1", "support_bound": self.support_bound,
                "coefficients": coefficients}


def same(phi: FockCoefficients, oracle: DictTable) -> None:
    got = [(s.mask, repr(v)) for s, v in phi.table_items()]
    want = [(s.mask, repr(v)) for s, v in sorted(oracle.table.items())]
    assert got == want
    assert phi.support_bound == oracle.support_bound


SPECIAL = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j,
           complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
           complex(-math.inf, 1.0), complex(2.0, -math.inf), complex(-0.0, 3.0)]
values = st.one_of(st.sampled_from(SPECIAL),
                   st.complex_numbers(allow_nan=True, allow_infinity=True),
                   st.complex_numbers(max_magnitude=1e3, allow_nan=False))
# A small pool makes sums and products overlap; the wide draws reach 2^64-1.
masks = st.one_of(st.integers(0, 15), st.sampled_from([0, 64, 1 << 40, 1 << 63, TOP]),
                  st.integers(0, TOP))
tables = st.dictionaries(masks, values, max_size=10).map(
    lambda t: {FiniteSubset(m): v for m, v in t.items()})
scalars = st.one_of(st.sampled_from([-1.0, 0.0, -0.0, 2, math.inf, -math.inf, math.nan]),
                    st.floats(allow_nan=True, allow_infinity=True))


def pair(table):
    """The array table and the oracle of a table; None for the array table
    when a value is not finite, after checking that the constructor refuses
    it."""
    if not all(map(cmath.isfinite, table.values())):
        with pytest.raises(ValueError, match="is not finite"):
            FockCoefficients(table)
        return None, DictTable(table)
    return FockCoefficients(table), DictTable(table)


def same_or_refused(operation, oracle: DictTable, scalar: complex = 0j) -> None:
    """same(operation(), oracle), except where the library refuses: a sum or
    a product that overflows, or that makes an invalid value (inf - inf,
    inf * 0), raises one ValueError, and so does a multiple by a scalar that
    is not finite (even of the empty table); then the scalar is not finite
    or the oracle's Python arithmetic must have made an infinite or NaN
    value."""
    try:
        phi = operation()
    except ValueError as error:
        assert "overflows the float range" in str(error) or "is not finite" in str(error)
        assert not cmath.isfinite(scalar) or not all(map(cmath.isfinite, oracle.table.values()))
        return
    same(phi, oracle)


@settings(max_examples=200)
@given(tables, tables)
def test_sum_difference_and_convolution(ta, tb):
    (a, oa), (b, ob) = pair(ta), pair(tb)
    if a is None or b is None:
        return
    same(a, oa)
    same_or_refused(lambda: a + b, oa + ob)
    same_or_refused(lambda: a - b, oa - ob)
    same_or_refused(lambda: convolve(a, b), oa.convolve(ob))


@settings(max_examples=200)
@given(tables, scalars)
def test_real_scalar_multiple(table, scalar):
    phi, oracle = pair(table)
    if phi is None:
        return
    same_or_refused(lambda: scalar * phi, scalar * oracle, scalar)
    same_or_refused(lambda: phi * scalar, scalar * oracle, scalar)


@settings(max_examples=200)
@given(tables, st.integers(0, 6), st.lists(masks, max_size=6))
def test_restricted_and_evaluate(table, max_index, probes):
    phi, oracle = pair(table)
    if phi is None:
        return
    domain = TruncatedDomain(max_index)
    same(phi.restricted(domain), oracle.restricted(domain))
    for sigma in [*table, *map(FiniteSubset, probes)]:
        assert repr(phi.evaluate(sigma)) == repr(oracle.evaluate(sigma))


@settings(max_examples=200)
@given(tables, st.integers(0, 6))
def test_restricted_equals_the_dense_route(table, max_index):
    # the dense route: the whole-domain vector, then its nonzero entries
    phi, domain = pair(table)[0], TruncatedDomain(max_index)
    if phi is None:
        return
    got = phi.restricted(domain)
    want = FockCoefficients.from_vector(phi.values_on(domain), max_index)
    assert repr(got) == repr(want)
    assert got._masks.tolist() == want._masks.tolist()
    assert list(map(repr, got._values.tolist())) == list(map(repr, want._values.tolist()))
    assert got.support_bound == want.support_bound


def test_tables_from_arrays_copy_only_what_they_drop():
    # from_vector copies the caller's vector; a restriction or a scalar
    # multiple without a zero to drop holds its operand's arrays as given.
    vector = np.arange(8, dtype=np.complex128)
    phi = FockCoefficients.from_vector(vector, 2)
    vector[:] = 9.0
    assert phi._masks.tolist() == list(range(1, 8))
    assert phi._values.tolist() == list(range(1, 8))
    cut = phi.restricted(TruncatedDomain(1))
    assert np.shares_memory(cut._masks, phi._masks)
    assert np.shares_memory(cut._values, phi._values)
    assert np.shares_memory((3.0 * phi)._masks, phi._masks)
    stored = FockCoefficients({FiniteSubset(m): v for m, v in [(0, 1.0), (1, 0.0), (2, 2j)]})
    cut = stored.restricted(TruncatedDomain(1))
    assert cut._masks.tolist() == [0, 2] and cut._values.tolist() == [1, 2j]
    assert not np.shares_memory(cut._masks, stored._masks)
    assert not np.shares_memory(cut._values, stored._values)


def test_documents_hand_the_writer_only_nonzero_entries():
    # formats writes every row it is handed: to_document leaves out stored
    # zeros, and hands over a zero-free table's own arrays.
    phi = FockCoefficients.from_vector(np.arange(1, 9, dtype=np.complex128), 2)
    table = phi.to_document()["coefficients"]
    assert table.masks is phi._masks and table.values is phi._values
    stored = FockCoefficients({FiniteSubset(m): v for m, v in [(0, 1.0), (1, 0.0), (2, 2j)]})
    table = stored.to_document()["coefficients"]
    assert table.masks.tolist() == [0, 2] and table.values.tolist() == [1, 2j]
    assert stored._masks.tolist() == [0, 1, 2]  # the stored zero stays


def test_restricted_to_the_widest_domain_keeps_every_nonzero(monkeypatch):
    # A table's restriction allocates nothing domain-sized, so it runs
    # under a 1-byte budget.
    table = {FiniteSubset(m): v for m, v in
             [(0, 1.0), (5, -0.0), (1 << 40, complex(3.0, -0.0)), (TOP, 2j), (3, 0.0)]}
    phi = FockCoefficients(table)
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", 1)
    same(phi.restricted(TruncatedDomain(63)), DictTable(table).restricted(TruncatedDomain(63)))


@settings(max_examples=200)
@given(tables, st.one_of(st.none(), st.integers(0, 70)))
def test_json_round_trip(table, bound):
    oracle = DictTable(table)
    if bound is not None and bound < oracle.support_bound:
        with pytest.raises(ValueError):
            FockCoefficients(table, support_bound=bound)
        return
    oracle = DictTable(table, bound)
    if not all(map(cmath.isfinite, table.values())):
        # the constructor and the strict loader refuse NaN and infinities
        with pytest.raises(ValueError, match="is not finite"):
            FockCoefficients(table, support_bound=bound)
        with pytest.raises(ValueError):
            FockCoefficients.from_json_dict(json.loads(json.dumps(oracle.to_json_dict())))
        return
    phi = FockCoefficients(table, support_bound=bound)
    # to_json_dict reads back the canonical bytes, so its keys are sorted;
    # json.dumps still tells -0.0 from 0.0 and 1 from 1.0, as repr does.
    data = phi.to_json_dict()
    assert json.dumps(data) == json.dumps(oracle.to_json_dict(), sort_keys=True)
    back = FockCoefficients.from_json_dict(json.loads(json.dumps(data)))
    same(back, DictTable({s: v for s, v in table.items() if v != 0},
                         oracle.support_bound))
    assert json.dumps(back.to_json_dict()) == json.dumps(data)


@pytest.mark.parametrize("n", range(11))
def test_indicator_functional_matches_dict(n):
    oracle = DictTable({FiniteSubset(m): 1.0 + 0j for m in range(1 << (n + 1))}, n)
    same(indicator_functional(n), oracle)


def test_table_items_ascend_whatever_the_insertion_order():
    table = {FiniteSubset(m): complex(m) for m in (TOP, 5, 0, 1 << 40, 3)}
    phi = FockCoefficients(table)
    assert [s.mask for s, _ in phi.table_items()] == sorted(s.mask for s in table)
    assert phi.support_bound == 63
    assert np.array_equal(phi.values_on(TruncatedDomain(2)),
                          np.array([0, 0, 0, 3, 0, 5, 0, 0], dtype=complex))


def test_table_and_rule_together_are_refused():
    with pytest.raises(TypeError):  # no rule= argument: from_rule is the one entry
        FockCoefficients({FiniteSubset(0): 1.0}, rule=lambda s: 1.0)


def test_table_keys_must_be_subsets():
    with pytest.raises(TypeError):
        FockCoefficients({0: 1.0})


def test_table_paths_make_no_subset_objects(monkeypatch):
    phi = FockCoefficients.from_vector(np.arange(512, dtype=np.complex128), 8)
    data = json.loads(json.dumps(phi.to_json_dict()))
    made = []
    original = FiniteSubset.__post_init__
    monkeypatch.setattr(FiniteSubset, "__post_init__",
                        lambda self: (made.append(self.mask), original(self)))
    FockCoefficients.from_vector(np.ones(512, dtype=np.complex128), 8)
    phi.values_on(TruncatedDomain(8))
    phi.restricted(TruncatedDomain(6))
    convolve(phi, phi)
    indicator_functional(8)
    approximate(phi, 5)
    phi + 2.0 * phi - phi
    phi.to_json_dict()
    FockCoefficients.from_json_dict(data)
    assert made == []

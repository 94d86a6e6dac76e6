"""martfock.formats against independent references: the canonical writer
against json.dumps of a dict built here from table_items() or .values, and
the vectorised mask decoder against json_mask, the per-subset decoder it
replaced, kept below as the oracle."""

import contextlib
import io
import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from martfock import formats
from martfock.functionals import FockCoefficients, GrowthCertificate
from martfock.rademacher import RandomFunctional, SampleSpace
from martfock.sequences import ConvergenceStatus, ConvergenceVerdict
from martfock.subsets import FiniteSubset

TOP = (1 << 64) - 1


def json_mask(data) -> int:
    """Bitmask of one subset in JSON form: a strictly ascending list of ints
    (bools excluded) in 0..63.  Raises ValueError for anything else."""
    if type(data) is not list:
        raise ValueError(f"subset must be a JSON array of ints, got {data!r}")
    mask = 0
    for k in data:
        if type(k) is not int:
            raise ValueError(f"subset element {k!r} is not an int")
        if not 0 <= k <= 63:
            raise ValueError(f"element {k} outside supported index range 0..63")
        if mask >> k:
            raise ValueError(f"subset array must be strictly ascending: {data!r}")
        mask |= 1 << k
    return mask


def canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def written(doc: dict) -> str:
    """What formats.write puts on stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        formats.write(doc)
    return out.getvalue()


def fock_dict(phi: FockCoefficients) -> dict:
    return {"format": "fock-coefficients/v1", "support_bound": phi.support_bound,
            "coefficients": [{"sigma": s.to_json(), "re": v.real, "im": v.imag}
                             for s, v in phi.table_items() if v != 0]}


def values_dict(f: RandomFunctional) -> dict:
    return {"format": "random-functional/v1", "horizon": f.space.horizon,
            "values": [{"re": v.real, "im": v.imag} for v in f.values.tolist()]}


SUBNORMAL = 2.2250738585072014e-308 / 3
FINITE = [0.0, -0.0, 5e-324, -5e-324, SUBNORMAL, -SUBNORMAL, 1e308, -1e308,
          1.7976931348623157e308, 1.0, -3.0, 0.1, 1e16, 1e-7, 2.0 ** 53]
parts = st.one_of(st.sampled_from(FINITE), st.floats(allow_nan=False, allow_infinity=False),
                  st.integers(-2 ** 53, 2 ** 53).map(float))
special = st.sampled_from([math.nan, math.inf, -math.inf])
values = st.builds(complex, parts, parts)
bad_values = st.one_of(st.builds(complex, special, parts), st.builds(complex, parts, special))
# Runs of masks that share the bits above the low table, and masks up to bit 63.
LOW = 1 << formats._LOW_BITS
masks = st.one_of(st.integers(0, 8 * LOW), st.integers(0, TOP),
                  st.sampled_from([0, LOW - 1, LOW, LOW + 1, LOW | 1 << 40, 1 << 63, TOP]))
tables = st.dictionaries(masks, values, max_size=40).map(
    lambda t: {FiniteSubset(m): v for m, v in t.items()})
# Blocks of a few rows put block edges inside small tables.
blocks = st.sampled_from([1, 2, 3, formats.BLOCK_ROWS])


@settings(max_examples=120)
@given(tables, st.one_of(st.none(), st.integers(63, 70)), blocks)
@example({}, None, formats.BLOCK_ROWS)
@example({FiniteSubset(m): 0j for m in range(5)}, None, 2)
@example({FiniteSubset(0): 1.0, FiniteSubset(1): 0j, FiniteSubset(2): 0j,
          FiniteSubset(3): -0.0, FiniteSubset(4): 2.0}, None, 2)
def test_coefficient_document_is_json_dumps_of_table_items(table, bound, block):
    phi = FockCoefficients(table, support_bound=bound)
    with mock.patch.object(formats, "BLOCK_ROWS", block):
        text = written(phi.to_document())
    assert text == canonical(fock_dict(phi))
    assert phi.to_json_dict() == json.loads(text)


@settings(max_examples=100)
@given(st.integers(0, 3).flatmap(lambda h: st.tuples(
    st.just(h), st.lists(values, min_size=2 << h, max_size=2 << h))), blocks)
def test_value_document_is_json_dumps_of_values(case, block):
    horizon, points = case
    f = RandomFunctional(SampleSpace(horizon), np.array(points, dtype=np.complex128))
    with mock.patch.object(formats, "BLOCK_ROWS", block):
        text = written(f.to_document())
    assert text == canonical(values_dict(f))


@settings(max_examples=100)
@given(tables, st.floats(0, 1e300), st.floats(0, 8), st.integers(0, 9),
       st.one_of(st.none(), masks), blocks)
def test_verdict_limit_is_streamed_inside_the_report(table, scale, order, tail_start,
                                                     witness, block):
    phi = FockCoefficients(table)
    verdict = ConvergenceVerdict(
        ConvergenceStatus.CONVERGED, limit=phi,
        uniform_certificate=GrowthCertificate(scale, order), tail_start=tail_start,
        witness=None if witness is None else (FiniteSubset(witness), "a reason"))
    want = {"status": "CONVERGED", "tail_start": tail_start, "limit": fock_dict(phi),
            "certificate": {"scale": scale, "order": order}}
    if witness is not None:
        want["witness"] = {"sigma": FiniteSubset(witness).to_json(), "reason": "a reason"}
    with mock.patch.object(formats, "BLOCK_ROWS", block):
        assert written(verdict.to_document()) == canonical(want)


@settings(max_examples=100)
@given(tables, bad_values, masks)
def test_non_finite_values_are_refused_on_both_sides(table, bad, mask):
    table = {**table, FiniteSubset(mask): bad}
    phi = FockCoefficients(table)
    documents = [(phi.to_document(), fock_dict(phi))]
    f = RandomFunctional(SampleSpace(1), [1.0, bad, 0.0, 2j])
    documents.append((f.to_document(), values_dict(f)))
    verdict = ConvergenceVerdict(ConvergenceStatus.CONVERGED, limit=FockCoefficients(),
                                 uniform_certificate=GrowthCertificate(math.inf, 1.0))
    documents.append((verdict.to_document(), {"certificate": {"scale": math.inf}}))
    for doc, reference in documents:
        with pytest.raises(ValueError):
            canonical(reference)
        with pytest.raises(ValueError):
            written(doc)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            with pytest.raises(ValueError):
                formats.write(doc)
        assert out.getvalue() == ""  # nothing was written before the refusal


def test_a_non_finite_value_through_the_api_leaves_no_file(tmp_path):
    phi = FockCoefficients({FiniteSubset(0): 1.0, FiniteSubset(3): complex(math.nan, 0.0)})
    f = RandomFunctional(SampleSpace(0), [1.0, math.inf])
    for doc in (phi.to_document(), f.to_document()):
        with pytest.raises(ValueError):
            formats.write(doc, str(tmp_path / "out.json"))
    assert list(tmp_path.iterdir()) == []


def test_file_and_stdout_bytes_agree_across_blocks(tmp_path):
    # three blocks, the middle one all zeros, and masks above bit 11
    n = 3 * formats.BLOCK_ROWS
    vector = np.arange(n, dtype=np.complex128) + 0.5j
    vector[formats.BLOCK_ROWS:2 * formats.BLOCK_ROWS] = 0
    masks = np.arange(n, dtype=np.uint64) * np.uint64(1 << 20) + np.uint64(1 << 63)
    phi = FockCoefficients._from_arrays(masks, vector, None, drop_zeros=False)
    path = tmp_path / "phi.json"
    formats.write(phi.to_document(), str(path))
    assert path.read_text() == written(phi.to_document()) == canonical(fock_dict(phi))


well_formed = st.lists(st.integers(0, 63), unique=True, max_size=8).map(sorted)
elements = st.one_of(st.integers(-3, 70), st.sampled_from(
    [True, False, 0.0, 1.5, "1", None, [1], 2 ** 64, -2 ** 70, 2 ** 63]))
any_subset = st.one_of(well_formed, st.lists(elements, max_size=5),
                       st.sampled_from([None, 3, "abc", {}, True, (0, 1)]))


@settings(max_examples=150)
@given(st.one_of(st.lists(well_formed, max_size=12), st.lists(any_subset, max_size=8)), blocks)
@example([], formats.BLOCK_ROWS)
@example([[], [63], [], [0, 63], []], 2)
@example([[0, 5], [1], [3, 2]], formats.BLOCK_ROWS)
@example([[0, 5], [6, 6]], 1)
@example([[5], [0], [2 ** 64]], 2)
@example([[0, 63], [64]], formats.BLOCK_ROWS)
@example([[2, 70]], 1)
@example([[-1, 3]], formats.BLOCK_ROWS)
@example([[1], [True]], formats.BLOCK_ROWS)
def test_mask_decoder_refuses_and_decodes_as_json_mask(subsets, block):
    try:
        want = [json_mask(s) for s in subsets]
    except ValueError:
        with mock.patch.object(formats, "BLOCK_ROWS", block), pytest.raises(ValueError):
            formats.json_masks(subsets)
        return
    with mock.patch.object(formats, "BLOCK_ROWS", block):
        got = formats.json_masks(subsets)
    assert got.dtype == np.uint64 and got.tolist() == want

"""martfock.formats against independent references: the canonical writer
against json.dumps of a dict built here from table_items() or .values, the
vectorised mask decoder against json_mask, the per-subset decoder it
replaced, and the streamed reader against json.loads plus json_complex and
json_masks over each whole table, the reading it replaced.  The replaced
decoders are kept below as the oracles."""

import contextlib
import io
import json
import math
import os
import tempfile
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from martfock import formats, subsets
from martfock.functionals import FockCoefficients, GrowthCertificate
from martfock.rademacher import RandomFunctional, SampleSpace
from martfock.sequences import ConvergenceStatus, ConvergenceVerdict, FunctionalSequence
from martfock.subsets import DomainTooLargeError, FiniteSubset

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


@pytest.mark.parametrize("block", [1, 3, formats.BLOCK_ROWS])
def test_a_table_writes_every_row_it_is_handed(block):
    # zeros included, in the order handed: functionals leaves zeros out
    masks = np.array([0, 1, 3, 5], dtype=np.uint64)
    values = np.array([1.0, 0.0, -0.0, 2j])
    rows = [{"sigma": FiniteSubset(m).to_json(), "re": v.real, "im": v.imag}
            for m, v in zip(masks.tolist(), values.tolist())]
    with mock.patch.object(formats, "BLOCK_ROWS", block):
        for table, want in [(formats.Table(values, masks), rows),
                            (formats.Table(values), [{"re": r["re"], "im": r["im"]} for r in rows]),
                            (formats.Table(values[:0], masks[:0]), [])]:
            assert "".join(table) == canonical(want)[:-1]


def test_a_value_table_builds_no_sigma_texts():
    # the 1,024-text table of _sigma_texts serves only rows with a sigma
    values = np.array([1.0, 0.0, -0.0, 2j])
    want = canonical([{"re": v.real, "im": v.imag} for v in values.tolist()])[:-1]
    with mock.patch.object(formats, "_sigma_texts", side_effect=AssertionError("built")):
        assert "".join(formats.Table(values)) == want


def held_document(table: dict) -> tuple[dict, dict]:
    """The fock-coefficients/v1 document of a table as FockCoefficients
    would hold it (its constructor refuses a value that is not finite), and
    the reference dict of the document."""
    masks = np.array(sorted(s.mask for s in table), dtype=np.uint64)
    values = np.array([table[FiniteSubset(m)] for m in masks.tolist()], dtype=np.complex128)
    doc = {"format": "fock-coefficients/v1", "support_bound": 63,
           "coefficients": formats.Table(values, masks)}
    rows = [{"sigma": FiniteSubset(m).to_json(), "re": v.real, "im": v.imag}
            for m, v in zip(masks.tolist(), values.tolist())]
    return doc, {**doc, "coefficients": rows}


@settings(max_examples=100)
@given(tables, bad_values, masks)
def test_non_finite_values_are_refused_on_both_sides(table, bad, mask):
    table = {**table, FiniteSubset(mask): bad}
    with pytest.raises(ValueError, match="is not finite"):
        FockCoefficients(table)  # the constructor refuses it too
    documents = [held_document(table)]
    f = RandomFunctional(SampleSpace(1), [1.0, bad, 0.0, 2j])
    documents.append((f.to_document(), values_dict(f)))
    verdict = ConvergenceVerdict(ConvergenceStatus.CONVERGED, limit=FockCoefficients(),
                                 uniform_certificate=GrowthCertificate(1.0, 1.0))
    report = verdict.to_document()
    report["certificate"]["scale"] = math.inf  # GrowthCertificate refuses an infinite scale
    documents.append((report, {"certificate": {"scale": math.inf}}))
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
    table = {FiniteSubset(0): 1.0, FiniteSubset(3): complex(math.nan, 0.0)}
    with pytest.raises(ValueError, match="is not finite"):
        FockCoefficients(table)
    f = RandomFunctional(SampleSpace(0), [1.0, math.inf])
    for doc in (held_document(table)[0], f.to_document()):
        with pytest.raises(ValueError):
            formats.write(doc, str(tmp_path / "out.json"))
    assert list(tmp_path.iterdir()) == []


def test_file_and_stdout_bytes_agree_across_blocks(tmp_path):
    # three blocks, the middle one all zeros, and masks above bit 11
    n = 3 * formats.BLOCK_ROWS
    vector = np.arange(n, dtype=np.complex128) + 0.5j
    vector[formats.BLOCK_ROWS:2 * formats.BLOCK_ROWS] = 0
    masks = np.arange(n, dtype=np.uint64) * np.uint64(1 << 20) + np.uint64(1 << 63)
    phi = FockCoefficients({FiniteSubset(m): v for m, v in zip(masks.tolist(), vector.tolist())})
    path = tmp_path / "phi.json"
    formats.write(phi.to_document(), str(path))
    assert path.read_text() == written(phi.to_document()) == canonical(fock_dict(phi))


well_formed = st.lists(st.integers(0, 63), unique=True, max_size=8).map(sorted)
elements = st.one_of(st.integers(-3, 70), st.sampled_from(
    [True, False, 0.0, 1.5, "1", None, [1], 2 ** 64, -2 ** 70, 2 ** 63]))
any_subset = st.one_of(well_formed, st.lists(elements, max_size=5),
                       st.sampled_from([None, 3, "abc", {}, True, (0, 1)]))


@settings(max_examples=150)
@given(st.one_of(st.lists(well_formed, max_size=12), st.lists(any_subset, max_size=8)))
@example([])
@example([[], [63], [], [0, 63], []])
@example([[0, 5], [1], [3, 2]])
@example([[0, 5], [6, 6]])
@example([[5], [0], [2 ** 64]])
@example([[0, 63], [64]])
@example([[2, 70]])
@example([[-1, 3]])
@example([[1], [True]])
def test_mask_decoder_refuses_and_decodes_as_json_mask(subsets):
    try:
        want = [json_mask(s) for s in subsets]
    except ValueError:
        with pytest.raises(ValueError):
            formats.json_masks(subsets)
        return
    got = formats.json_masks(subsets)
    assert got.dtype == np.uint64 and got.tolist() == want


class Obj(list):
    """A JSON object as its (key, value) pairs in text order; a key may repeat."""


def dumps(value) -> str:
    if isinstance(value, Obj):
        return "{" + ",".join(f"{json.dumps(k)}:{dumps(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ",".join(map(dumps, value)) + "]"
    return json.dumps(value)  # NaN and Infinity as json.dumps writes them


def oracle_table(rows, name, sigma):
    """The reading load_json replaced: every row of the list at once."""
    rows = formats.json_typed(rows, list, name)
    values = formats.json_complex(rows)
    return values, formats.json_masks([row["sigma"] for row in rows]) if sigma else None


def streamed_table(rows, name, sigma):
    table = formats.json_table(rows, name, sigma)
    return table.values, table.masks


def tables(data, sigma, read):
    """The tables of a document as the readers take them: the values of a
    random-functional/v1 document without sigma; else the coefficients of a
    fock-sequence/v1 document's terms, or of a fock-coefficients/v1 one."""
    if not sigma:
        return [read(formats.json_document(data, formats.RANDOM_FUNCTIONAL_FORMAT)["values"],
                     "values", False)]
    if type(data) is dict and data.get("format") == formats.SEQUENCE_FORMAT:
        terms = formats.json_typed(data["terms"], list, "terms")
    else:
        terms = [data]
    return [read(formats.json_document(t, formats.FOCK_FORMAT)["coefficients"],
                 "coefficients", True) for t in terms]


def outcome(call, messages=False):
    """What call gives, as bits, or that it refused (and, given messages, why)."""
    try:
        result = call()
    except (KeyError, ValueError) as exc:
        return f"refused {exc!r}" if messages else "refused"
    if isinstance(result, list):
        return [(v.view(np.uint64).tolist(), None if m is None else m.tolist())
                for v, m in result]
    return json.dumps(result.to_json_dict())


def load(text: str, sigma: bool):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        path.write_text(text)
        return formats.load_json(str(path), sigma=sigma)


numbers = st.one_of(parts, st.sampled_from([1, -7, 2 ** 70, 10 ** 400, True, "1", None,
                                            math.nan, -math.inf]))
good_rows = st.builds(lambda re, im, sigma: Obj([("re", re), ("im", im), ("sigma", sigma)]),
                      parts, parts, well_formed)
row_keys = st.sampled_from(["re", "im", "sigma", "note"])
odd_rows = st.recursive(
    st.lists(st.tuples(row_keys, st.one_of(numbers, any_subset)), max_size=5).map(Obj),
    lambda inner: st.lists(st.tuples(row_keys, st.one_of(numbers, any_subset, inner)),
                           max_size=5).map(Obj), max_leaves=6)
rows = st.one_of(st.lists(good_rows, max_size=10),
                 st.lists(st.one_of(good_rows, odd_rows, numbers, any_subset), max_size=6))


@st.composite
def documents(draw, fmt, key):
    """A document of rows, now and then with a pair moved, repeated, or added
    (a row-shaped object outside the table, a second table)."""
    pairs = [("format", fmt), ("support_bound", 5), ("horizon", 1), (key, draw(rows))]
    pairs += draw(st.lists(st.tuples(st.sampled_from([key, "note"]),
                                     st.one_of(rows, good_rows, odd_rows)), max_size=2))
    return Obj(draw(st.permutations(pairs)))


sequences = st.builds(
    lambda terms: Obj([("format", formats.SEQUENCE_FORMAT), ("terms", terms)]),
    st.lists(st.one_of(documents(formats.FOCK_FORMAT, "coefficients"), good_rows,
                       odd_rows), max_size=4))
inputs = st.one_of(
    st.tuples(st.one_of(documents(formats.FOCK_FORMAT, "coefficients"), sequences,
                        documents(formats.RANDOM_FUNCTIONAL_FORMAT, "coefficients"),
                        good_rows, odd_rows, rows), st.just(True)),
    st.tuples(st.one_of(documents(formats.RANDOM_FUNCTIONAL_FORMAT, "values"),
                        documents(formats.FOCK_FORMAT, "values"), good_rows), st.just(False)))
READERS = {formats.FOCK_FORMAT: FockCoefficients, formats.SEQUENCE_FORMAT: FunctionalSequence,
           formats.RANDOM_FUNCTIONAL_FORMAT: RandomFunctional}
ROW = Obj([("re", 1.5), ("im", -0.0), ("sigma", [0, 2])])


def fock_doc(*pairs):
    return Obj([("format", formats.FOCK_FORMAT), *pairs])


@settings(max_examples=250, deadline=None)
@given(inputs, blocks)
@example((fock_doc(("coefficients", [ROW, Obj(), ROW])), True), 1)  # {} as a row
@example((fock_doc(("coefficients", [ROW, 3, ROW])), True), 2)  # not an object
@example((fock_doc(("coefficients", [Obj([("re", 1), ("sigma", [])])])), True), 3)  # no im
@example((fock_doc(("coefficients", [Obj([("re", 1), ("im", 0)])])), True), 1)  # no sigma
@example((fock_doc(("coefficients", [Obj([*ROW, ("re", 2), ("sigma", [5])])])), True), 2)
@example((fock_doc(("coefficients", [ROW]), ("coefficients", [ROW, ROW])), True), 1)
@example((fock_doc(("note", ROW), ("coefficients", [ROW, ROW, ROW])), True), 3)
@example((fock_doc(("note", ROW), ("coefficients", [3])), True), 2)
@example((fock_doc(("coefficients", [ROW] * 3), ("note", Obj([("re", "x")]))), True), 2)
@example((fock_doc(("coefficients", [Obj([*ROW, ("note", ROW)])] * 2)), True), 2)
@example((ROW, True), formats.BLOCK_ROWS)  # a row where a document belongs
@example((Obj([("format", formats.SEQUENCE_FORMAT), ("terms", [
    fock_doc(("coefficients", [ROW] * n)) for n in (3, 0, 2, 5)])]), True), 2)
@example((Obj([("format", formats.SEQUENCE_FORMAT), ("note", ROW), ("terms", [
    fock_doc(("coefficients", [ROW] * 2))])]), True), 3)
def test_streamed_reader_decodes_and_refuses_as_whole_tables(case, block):
    tree, sigma = case
    text = dumps(tree)
    plain = json.loads(text)
    with mock.patch.object(formats, "BLOCK_ROWS", block):
        streamed = load(text, sigma)
        want = outcome(lambda: tables(plain, sigma, oracle_table))
        assert outcome(lambda: tables(streamed, sigma, streamed_table)) == want
        # the classes, on the streamed value and on the plain dict: the same
        # object, or the same refusal
        fmt = plain.get("format") if type(plain) is dict else None
        reader = READERS.get(fmt, FockCoefficients) if sigma else RandomFunctional
        assert (outcome(lambda: reader.from_json_dict(streamed), messages=True)
                == outcome(lambda: reader.from_json_dict(plain), messages=True))


def test_well_formed_tables_are_decoded_while_parsing(tmp_path):
    # each term keeps its own rows, across block edges
    terms = [FockCoefficients({FiniteSubset(m): m + 0.5j for m in range(n)})
             for n in (5, 0, 3)]
    path = tmp_path / "seq.json"
    path.write_text(json.dumps(FunctionalSequence(terms).to_json_dict()))
    with mock.patch.object(formats, "BLOCK_ROWS", 2):
        data = formats.load_json(str(path), sigma=True)
    assert data["terms"][1]["coefficients"] == []  # no rows: the list stays
    for term, phi in zip(data["terms"][::2], terms[::2]):
        table = term["coefficients"]
        assert isinstance(table, formats.Table)
        assert table.masks.tolist() == phi._masks.tolist()
        assert table.values.tolist() == phi._values.tolist()


def test_a_document_read_as_the_other_kind_is_parsed_again(tmp_path):
    # its rows lie outside the table that kind looks for: plain dicts, read
    # as the readers read any dict
    path = tmp_path / "phi.json"
    phi = FockCoefficients({FiniteSubset(3): 1.0, FiniteSubset(0): 2j})
    formats.write(phi.to_document(), str(path))
    data = formats.load_json(str(path), sigma=False)
    assert type(data["coefficients"]) is list
    assert FockCoefficients.from_json_dict(data).to_json_dict() == phi.to_json_dict()


class Unread(io.BufferedReader):
    def read(self, *size):
        raise AssertionError("the file was read")


def test_a_file_is_admitted_from_its_size_before_it_is_read(tmp_path, monkeypatch):
    # at formats.READ_BYTES (2) bytes per byte of the file, by subsets.admit
    path = tmp_path / "phi.json"
    formats.write(FockCoefficients({FiniteSubset(3): 1.0}).to_document(), str(path))
    size = path.stat().st_size
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", 2 * size)  # exactly the plan
    assert formats.load_json(str(path), sigma=True)["support_bound"] == 1
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", 2 * size - 1)
    monkeypatch.setattr(formats, "open", lambda path, mode: Unread(io.FileIO(path, mode)),
                        raising=False)
    with pytest.raises(DomainTooLargeError) as refused:
        formats.load_json(str(path), sigma=True)
    assert str(refused.value) == (f"{size} bytes of {path} at 2 bytes each need {2 * size} "
                                  f"bytes, over the memory budget of {2 * size - 1} bytes")


def test_a_file_with_no_size_is_read_up_to_the_bound(tmp_path, monkeypatch):
    # A pipe has no size: it is read until it ends or passes the bound (half
    # the budget), and refused past it.
    text = json.dumps(FockCoefficients({FiniteSubset(3): 1.0}).to_json_dict())
    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    for budget in (2 * len(text), 2 * len(text) - 2):
        monkeypatch.setattr(subsets, "MEMORY_BUDGET", budget)
        writer = threading.Thread(target=pipe.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            outcome = formats.load_json(str(pipe), sigma=True)["support_bound"]
        except DomainTooLargeError as exc:
            outcome = str(exc)
        writer.join(timeout=30)
        assert not writer.is_alive()
        assert outcome == (1 if budget == 2 * len(text) else
                           f"{len(text)} bytes of {pipe} at 2 bytes each need {2 * len(text)} "
                           f"bytes, over the memory budget of {budget} bytes")

"""The */v1 documents: every one is read and written here.

Reading.  load_json admits the read first, by subsets.admit at READ_BYTES
per byte of the file: a regular file from its size before it is read, a
file with no size (a pipe, a device, a /proc file) once it has been read, a
MiB at a time, until it ends or passes the bound (half the budget).  What
json.loads builds from a value that is not a document is not costed.
json.loads is the only parser.  The json_* readers check what it
returns strictly: wrong JSON types (a bool is not an int), malformed subsets
and non-finite numbers raise ValueError.  json_table decodes a table's rows
BLOCK_ROWS at a time, by json_complex and json_masks, into the columns of a
Table.  load_json does so while json.loads runs: its object_hook moves each
row object into a buffer and leaves one shared placeholder in its place, so
no row dict outlives its block, and each object with a format field takes
as its table the columns of the rows parsed since the previous one.  A file
read so peaks at about twice its size: its bytes and its text, for a moment.
When a row lies outside its document's table, or a block is refused, the
text is parsed again plainly, and json_table then reads (or refuses) the
lists as it would a dict built by hand.  JSON nested too deeply for
json.loads raises ValueError, not RecursionError.

Writing.  A document is a dict of JSON values in which a table is given as
a Table.  canonical gives its canonical form as an iterator of strings: the
bytes of json.dumps(doc, sort_keys=True, separators=(",", ":"),
allow_nan=False) followed by a newline.  Small values go through json.dumps;
rows come BLOCK_ROWS at a time from %-templates over .tolist() columns, so
no text as long as the table is ever held.  A Table writes every row it is
handed, in order: the caller hands it ascending masks and the values to be
written (functionals leaves out zero coefficients, not this module).  Every
check runs before the first string is taken.  The CLI's two CSVs are
rendered here too, as csv.writer writes them: diagnostics_csv (converge
--csv), BLOCK_ROWS subsets at a time, and residuals_csv (approx --csv).
write_all writes a command's outputs, each a path (None for stdout) and its
strings, all or none; write is its one-document case.
"""

from __future__ import annotations

import json
import os
import sys
from contextlib import nullcontext, suppress
from itertools import chain, islice

import numpy as np

from . import subsets

FOCK_FORMAT = "fock-coefficients/v1"
RANDOM_FUNCTIONAL_FORMAT = "random-functional/v1"
SEQUENCE_FORMAT = "fock-sequence/v1"

BLOCK_ROWS = 1024
# What reading a file holds per byte of it, at its peak: its bytes and its
# text, for a moment (2.00 traced bytes per byte for each kind of document).
READ_BYTES = 2
_LOW_BITS = 10  # sigma texts of the low bits come from one table of 2^10
_FOCK_ROW = '{"im":%r,"re":%r,"sigma":[%s]}'
_VALUE_ROW = '{"im":%r,"re":%r}'
_INDICES = set(range(64))  # a subset's elements: the bits of a uint64 mask


def load_json(path: str, sigma: bool):
    """The JSON value in the file at path, in which each document's table
    (its "coefficients" rows, each with a sigma, or else its "values" rows)
    is a Table, decoded a block of rows at a time while json.loads runs.
    The read is admitted by subsets.admit at READ_BYTES per byte of the
    file: from its size before it is read, or, for a file with no size (a
    pipe, a device, a /proc file), once it has been read up to the bound."""
    with open(path, "rb") as file:
        size = os.fstat(file.fileno()).st_size  # 0 for a file with no size
        subsets.admit(f"{size} bytes of {path}", size, READ_BYTES)
        if size:
            text = file.read()
        else:  # a MiB at a time (read(n) would take n bytes at once), past the bound
            chunks = iter(lambda: file.read(1 << 20), b"")
            text = b"".join(islice(chunks, (subsets.MEMORY_BUDGET // READ_BYTES >> 20) + 1))
    subsets.admit(f"{len(text)} bytes of {path}", len(text), READ_BYTES)
    text, pending, blocks = text.decode(), [], []  # the bytes are dropped once decoded
    key = "coefficients" if sigma else "values"  # where a document holds its table

    def hook(obj: dict):
        if "format" not in obj:  # a row, or else the file is parsed again
            pending.append(obj)
            if len(pending) == BLOCK_ROWS:
                blocks.append(_decode(pending, sigma))
                pending.clear()
            return _ROW
        if pending or blocks:  # its table holds exactly the rows since the last one
            blocks.append(_decode(pending, sigma))
            n = sum(values.size for values, _ in blocks)
            if type(rows := obj.get(key)) is not list or len(rows) != n or rows.count(_ROW) != n:
                raise ValueError("a row outside its document's table")
            obj[key] = _table(blocks, sigma)
            del blocks[:], pending[:]
        return obj

    try:
        try:
            data = json.loads(text, object_hook=hook)
        except (KeyError, ValueError):  # a row outside its table, a refused block, bad JSON
            return json.loads(text)
        return json.loads(text) if pending or blocks else data  # rows outside every document
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


_ROW = object()  # what load_json's parse keeps of a row once it is buffered


def json_document(data, fmt: str) -> dict:
    """data, checked to be a JSON object whose format field is fmt."""
    if type(data) is not dict:
        raise ValueError(f"a {fmt} document must be a JSON object")
    if data.get("format") != fmt:
        raise ValueError(f"unexpected format field: {data.get('format')!r}")
    return data


def json_typed(value, kind: type, name: str):
    """value, checked to be of this JSON type (a bool is not an int)."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be a JSON {kind.__name__}, "
                         f"got {type(value).__name__}")
    return value


def json_complex(rows: list) -> np.ndarray:
    """complex128 vector from JSON rows {"re": x, "im": y}.  Each part must be
    an int or a float (not a bool) and finite."""
    try:
        parts = [x for row in rows for x in (row["re"], row["im"])]
    except TypeError:
        raise ValueError("every row must be a JSON object") from None
    if any(t is bool or not issubclass(t, (int, float)) for t in set(map(type, parts))):
        raise ValueError("re and im must be JSON numbers")
    try:
        flat = np.array(parts, dtype=np.float64)
    except OverflowError:
        raise ValueError("re or im exceeds the float range") from None
    if not np.isfinite(flat).all():
        raise ValueError("re and im must be finite")
    return flat.view(np.complex128)


def json_masks(subsets: list) -> np.ndarray:
    """uint64 bitmasks of a block of subsets in JSON form.  Each must be a
    strictly ascending list of ints (bools excluded) in 0..63; anything else
    raises ValueError."""
    if not set(map(type, subsets)) <= {list}:
        raise ValueError("every subset must be a JSON array")
    flat = list(chain.from_iterable(subsets))
    if not (set(map(type, flat)) <= {int} and set(flat) <= _INDICES):
        raise ValueError("subset elements must be JSON ints in 0..63")
    elements = np.frombuffer(bytes(flat), dtype=np.uint8)
    lengths = np.fromiter(map(len, subsets), np.intp, len(subsets))
    rows = np.repeat(np.arange(len(subsets)), lengths)
    # Row r's element k has key 64r + k: keys ascend iff each row does.
    if np.any(np.diff(rows * 64 + elements) <= 0):
        raise ValueError("subset arrays must be strictly ascending")
    bits = np.left_shift(np.uint64(1), elements.astype(np.uint64))
    masks, starts = np.zeros(len(subsets), dtype=np.uint64), np.cumsum(lengths) - lengths
    masks[lengths > 0] = np.bitwise_or.reduceat(bits, starts[lengths > 0])
    return masks


def _decode(rows: list, sigma: bool) -> tuple:
    """The values and (given sigma) the masks of one block of rows."""
    return json_complex(rows), json_masks([row["sigma"] for row in rows]) if sigma else None


def _table(blocks: list, sigma: bool) -> "Table":
    values, masks = zip(*blocks or [_decode([], sigma)])
    return Table(np.concatenate(values), np.concatenate(masks) if sigma else None)


def json_table(rows, name: str, sigma: bool) -> "Table":
    """The columns of a document's table: rows as load_json gives them, or a
    JSON list of row objects {"re", "im"} (and "sigma", given sigma),
    decoded here a block at a time."""
    if isinstance(rows, Table):
        return rows
    json_typed(rows, list, name)
    return _table([_decode(rows[i:i + BLOCK_ROWS], sigma)
                   for i in range(0, len(rows), BLOCK_ROWS)], sigma)


class Table:
    """A table of a document as columns: complex values and, for rows with a
    sigma, their uint64 masks.  Iterated, it is the rows' text a block of
    rows at a time: one row for every value it is handed, in order,
    {"im", "re", "sigma"} rows when there are masks, else {"im", "re"} rows.
    It tests no value: a writer hands it ascending masks and the values to
    be written (FockCoefficients.to_document leaves out the zeros)."""

    def __init__(self, values: np.ndarray, masks: np.ndarray | None = None):
        self.values, self.masks = values, masks

    def __iter__(self):
        template = _VALUE_ROW if self.masks is None else _FOCK_ROW
        texts = None if self.masks is None else _sigma_texts(",")
        yield "["
        for start in range(0, self.values.size, BLOCK_ROWS):
            values = self.values[start:start + BLOCK_ROWS]
            sigmas = [] if texts is None else [texts(self.masks[start:start + BLOCK_ROWS])]
            rows = zip(values.imag.tolist(), values.real.tolist(), *sigmas)
            yield "," * (start > 0) + ",".join(map(template.__mod__, rows))
        yield "]"


def _sigma_texts(sep: str):
    """A function from ascending uint64 masks to their elements' texts, each
    joined by sep: the low bits' text from a table of 2^10 built by doubling,
    then the elements of the higher bits appended, once per run of masks
    that share them."""
    low = [""]
    for k in map(str, range(_LOW_BITS)):  # [2^k, 2^(k+1)): those below, and k
        low += [k] + [t + sep + k for t in low[1:]]

    def texts(masks: np.ndarray) -> list[str]:
        out = [low[m] for m in (masks & ((1 << _LOW_BITS) - 1)).tolist()]
        high = masks >> _LOW_BITS
        edges = [0, *(np.flatnonzero(high[1:] != high[:-1]) + 1).tolist(), len(out)]
        for a, b in zip(edges, edges[1:]) if out else ():
            h = int(high[a])
            if h:
                tail = "".join(f"{sep}{k + _LOW_BITS}"
                               for k in range(h.bit_length()) if h >> k & 1)
                out[a:b] = [t + tail for t in out[a:b]]
                out[a] = out[a].removeprefix(sep)  # a mask whose low bits are all 0
        return out
    return texts


def diagnostics_csv(diagnostics):
    """converge --csv's rows, BLOCK_ROWS masks at a time: a sigma cell is
    json.dumps of the element list, quoted once it holds a comma."""
    columns = (diagnostics.stabilization_index, diagnostics.sup_abs,
               diagnostics.certificate_margin)
    texts = _sigma_texts(", ")
    yield "sigma,stabilization_index,sup_abs,certificate_margin\r\n"
    for start in range(0, len(diagnostics), BLOCK_ROWS):
        masks = np.arange(start, min(start + BLOCK_ROWS, len(diagnostics)), dtype=np.uint64)
        rows = zip(texts(masks), *(c[start:start + BLOCK_ROWS].tolist() for c in columns))
        yield "".join([
            ('"[%s]",%d,%.17g,%.17g\r\n' if "," in row[0] else "[%s],%d,%.17g,%.17g\r\n")
            % row for row in rows])


def residuals_csv(residuals):
    """approx --csv's rows: each level n from 0 and its residual."""
    return chain(["n,residual\r\n"], ("%d,%.17g\r\n" % row for row in enumerate(residuals)))


def _pieces(value) -> list:
    """The canonical text of value, as a list of iterables of strings (a Table
    is one).  Every check of the document runs here, before any is written."""
    if isinstance(value, Table):
        if not np.isfinite(value.values).all():
            raise ValueError("a JSON document cannot hold a non-finite value")
        return [value]
    if not isinstance(value, dict):
        return [(json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False),)]
    pieces = [("{",)]
    for i, key in enumerate(sorted(value)):
        pieces += [("," * (i > 0) + json.dumps(key) + ":",), *_pieces(value[key])]
    return pieces + [("}",)]


def canonical(doc: dict):
    """The canonical form of doc, as an iterator of strings.  Every check of
    the document runs here, before the first string is taken."""
    return chain.from_iterable(_pieces(doc) + [("\n",)])


def write(doc: dict, path: str | None = None) -> None:
    """Write the canonical form of doc to the file at path, or to stdout, as
    write_all does.  A document that fails a check writes nothing and opens
    no file."""
    write_all([(path, canonical(doc))])


def as_dict(obj) -> dict:
    """The JSON object that write writes for obj.to_document(): the
    to_json_dict of every class with a document."""
    return json.loads("".join(canonical(obj.to_document())))


def write_all(outputs: list) -> None:
    """Write each (path, strings) output, all or none: the files in the order
    given, then the outputs to stdout (a path of None or ""), then the files
    move into place.  A regular or new file is written to a temporary file
    beside it (beside a symlink's target, not the link), which replaces it
    with os.replace; a special file such as a device or a pipe cannot be
    replaced and is written in place.  Two outputs to one replaceable file
    raise ValueError, since one would replace the other.  On any failure
    the temporary files are removed; an OSError that names one names the
    path given instead."""
    targets, staged = {}, []
    for path, strings in outputs:
        temp = path
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            target = os.path.realpath(path)
            if target in targets.values():
                raise ValueError(f"two outputs name one file: {target}")
            temp = f"{target}.{os.urandom(4).hex()}.tmp"
            targets[temp] = target
        staged.append((path, temp, strings))
    try:
        for path, temp, strings in sorted(staged, key=lambda output: not output[0]):
            try:
                with open(temp, "w", newline="") if path else nullcontext(sys.stdout) as out:
                    out.writelines(strings)
            except OSError as exc:
                if exc.filename == temp:
                    exc.filename = path
                raise
        for temp, target in targets.items():
            os.replace(temp, target)
    finally:
        for temp in targets:
            with suppress(FileNotFoundError):
                os.remove(temp)

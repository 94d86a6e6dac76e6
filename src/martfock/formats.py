"""The */v1 documents: every one is read and written here.

Reading.  json.loads is the only parser.  The json_* readers check what it
returns strictly: wrong JSON types (a bool is not an int), malformed subsets
and non-finite numbers raise ValueError.  json_masks decodes every subset of
a table at once.

Writing.  A document is a dict of JSON values in which a table's rows are
given as Rows.  write emits its canonical form: the bytes of
json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
followed by a newline.  Small values go through json.dumps; rows are written
BLOCK_ROWS at a time from %-templates over .tolist() columns, so no text as
long as the table is ever held.  Every check runs before the first byte is
written.  staged writes a command's output files all or none.
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
from itertools import chain
from pathlib import Path

import numpy as np

FOCK_FORMAT = "fock-coefficients/v1"
RANDOM_FUNCTIONAL_FORMAT = "random-functional/v1"
SEQUENCE_FORMAT = "fock-sequence/v1"

BLOCK_ROWS = 1024
_LOW_BITS = 10  # sigma texts of the low bits come from one table of 2^10
_FOCK_ROW = '{"im":%r,"re":%r,"sigma":[%s]}'
_VALUE_ROW = '{"im":%r,"re":%r}'
_INDICES = set(range(64))  # a subset's elements: the bits of a uint64 mask


def load_json(path: str):
    """The JSON value in the file at path."""
    return json.loads(Path(path).read_text())


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
    """uint64 bitmasks of subsets in JSON form, decoded BLOCK_ROWS at a time
    (so the temporaries stay small).  Each must be a strictly ascending list
    of ints (bools excluded) in 0..63; anything else raises ValueError."""
    masks = np.zeros(len(subsets), dtype=np.uint64)
    for start in range(0, len(subsets), BLOCK_ROWS):
        block = subsets[start:start + BLOCK_ROWS]
        if not set(map(type, block)) <= {list}:
            raise ValueError("every subset must be a JSON array")
        flat = list(chain.from_iterable(block))
        if not (set(map(type, flat)) <= {int} and set(flat) <= _INDICES):
            raise ValueError("subset elements must be JSON ints in 0..63")
        elements = np.frombuffer(bytes(flat), dtype=np.uint8)
        lengths = np.fromiter(map(len, block), np.intp, len(block))
        rows = np.repeat(np.arange(len(block)), lengths)
        # Row r's element k has key 64r + k: keys ascend iff each row does.
        if np.any(np.diff(rows * 64 + elements) <= 0):
            raise ValueError("subset arrays must be strictly ascending")
        bits = np.left_shift(np.uint64(1), elements.astype(np.uint64))
        out, starts = masks[start:start + BLOCK_ROWS], np.cumsum(lengths) - lengths
        out[lengths > 0] = np.bitwise_or.reduceat(bits, starts[lengths > 0])
    return masks


class Rows:
    """A table's rows in a document, iterated as text a block of rows at a
    time: {"im", "re", "sigma"} rows of the nonzero values when their
    ascending uint64 masks are given, else {"im", "re"} rows of every value."""

    def __init__(self, values: np.ndarray, masks: np.ndarray | None = None):
        self.values, self.masks = values, masks

    def __iter__(self):
        template = _VALUE_ROW if self.masks is None else _FOCK_ROW
        low, opening = [""], "["
        if self.masks is not None:  # low[m]: the sigma text of m < 2^10, by doubling
            for k in map(str, range(_LOW_BITS)):  # [2^k, 2^(k+1)): those below, and k
                low += [k] + [t + "," + k for t in low[1:]]
        for start in range(0, self.values.size, BLOCK_ROWS):
            values, sigmas = self.values[start:start + BLOCK_ROWS], []
            if self.masks is not None:
                keep = np.flatnonzero(values)
                values = values[keep]
                sigmas = [_sigma_texts(self.masks[start:start + BLOCK_ROWS][keep], low)]
            rows = zip(values.imag.tolist(), values.real.tolist(), *sigmas)
            text = ",".join(map(template.__mod__, rows))
            if text:
                yield opening + text
                opening = ","
        yield "]" if opening == "," else "[]"


def _sigma_texts(masks: np.ndarray, low: list[str]) -> list[str]:
    """The elements of each ascending mask, comma-separated: the low bits'
    text from the table, then the elements of the higher bits appended, once
    per run of masks that share them."""
    texts = [low[m] for m in (masks & ((1 << _LOW_BITS) - 1)).tolist()]
    high = masks >> _LOW_BITS
    edges = [0, *(np.flatnonzero(high[1:] != high[:-1]) + 1).tolist(), len(texts)]
    for a, b in zip(edges, edges[1:]) if texts else ():
        h = int(high[a])
        if h:
            tail = "".join(f",{k + _LOW_BITS}" for k in range(h.bit_length()) if h >> k & 1)
            texts[a:b] = [t + tail for t in texts[a:b]]
            texts[a] = texts[a].removeprefix(",")  # a mask whose low bits are all 0
    return texts


def _pieces(value) -> list:
    """The canonical text of value, as a list of iterables of strings (a Rows
    is one).  Every check of the document runs here, before any is written."""
    if isinstance(value, Rows):
        if not np.isfinite(value.values).all():
            raise ValueError("a JSON document cannot hold a non-finite value")
        return [value]
    if not isinstance(value, dict):
        return [(json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False),)]
    pieces = [("{",)]
    for i, key in enumerate(sorted(value)):
        pieces += [("," * (i > 0) + json.dumps(key) + ":",), *_pieces(value[key])]
    return pieces + [("}",)]


def write(doc: dict, path: str | None = None) -> None:
    """Write the canonical form of doc to the file at path, or to stdout.  A
    document that fails a check writes nothing and opens no file."""
    pieces = _pieces(doc) + [("\n",)]
    with open(path, "w") if path else contextlib.nullcontext(sys.stdout) as handle:
        handle.writelines(chain.from_iterable(pieces))


def as_dict(obj) -> dict:
    """The JSON object that write writes for obj.to_document(): the
    to_json_dict of every class with a document."""
    return json.loads("".join(chain.from_iterable(_pieces(obj.to_document()))))


@contextlib.contextmanager
def staged(*paths: str | None):
    """The paths to write for the given output paths: a temporary file beside
    a regular or new file (beside a symlink's target, not the link), else
    the path itself (None, for stdout, and a special file such as a device
    or a pipe, which cannot be replaced).  When the block ends, every
    temporary file replaces its target with os.replace; when it raises, they
    are removed."""
    targets, out = {}, []
    for path in paths:
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            target = os.path.realpath(path)
            path = f"{target}.{os.urandom(4).hex()}.tmp"
            targets[path] = target
        out.append(path)
    try:
        yield out
        for temp, target in targets.items():
            os.replace(temp, target)
    finally:
        for temp in targets:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)

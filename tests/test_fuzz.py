"""Exit-code fuzz: the three loaders and the CLI argv, driven in process.

Each input document is valid, or valid but for one node replaced by a wrong
JSON value or removed; numbers run up to 1e308, and option values lie at and
past their limits.  The memory budget is 4 MiB.  Property: main returns 0, 1
or 2 and raises nothing (argparse's own usage errors exit through
SystemExit); no warning is emitted; stderr holds at most one line, except
argparse's usage text; only the verdict commands (series,
martingale-check, converge) exit 1; an exit 2 prints nothing on stdout and
leaves neither the --out nor the --csv file behind; and a NaN or infinite
--tol, or a NaN --q with --csv, exits 2.
"""

import contextlib
import copy
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from martfock import subsets
from martfock.cli import main

VERDICT_COMMANDS = {"series", "martingale-check", "converge"}
REMOVE = object()

numbers = st.one_of(
    st.integers(-3, 3),
    st.floats(-4.0, 4.0),
    st.sampled_from([0.0, -0.0, 1e200, -1e200, 1e308, -1e308, 5e-324, 2 ** 70]),
    st.sampled_from([1e308, -1e308]),
)
wrong_values = st.sampled_from([None, True, "", [], {}, [-1], [3, 1], [64],
                                float("nan"), float("inf"), -1, 64])
sigmas = st.lists(st.integers(0, 5), unique=True, max_size=4).map(sorted)


def fock_document(bounds=st.one_of(st.none(), st.integers(5, 7))):
    rows = st.lists(st.fixed_dictionaries({"sigma": sigmas, "re": numbers, "im": numbers}),
                    max_size=5, unique_by=lambda row: tuple(row["sigma"]))
    return st.fixed_dictionaries({"format": st.just("fock-coefficients/v1"),
                                  "support_bound": bounds, "coefficients": rows})


@st.composite
def martingale_terms(draw):
    """The truncations of one table to {0..n}, n = 0..length-1."""
    table = draw(fock_document())
    return [{**table, "support_bound": n,
             "coefficients": [row for row in table["coefficients"]
                              if all(k <= n for k in row["sigma"])]}
            for n in range(draw(st.integers(1, 7)))]


@st.composite
def moving_terms(draw):
    """Terms with one support and values drawn afresh for each term."""
    support = draw(st.lists(sigmas, min_size=1, max_size=3, unique_by=tuple))
    return [{"format": "fock-coefficients/v1", "support_bound": 5,
             "coefficients": [{"sigma": sigma, "re": draw(numbers), "im": draw(numbers)}
                              for sigma in support]}
            for _ in range(draw(st.integers(1, 12)))]


sample_documents = st.integers(0, 4).flatmap(lambda h: st.fixed_dictionaries({
    "format": st.just("random-functional/v1"),
    "horizon": st.just(h),
    "values": st.lists(st.fixed_dictionaries({"re": numbers, "im": numbers}),
                       min_size=2 << h, max_size=2 << h),
}))
sequence_documents = st.fixed_dictionaries({
    "format": st.just("fock-sequence/v1"),
    "terms": st.one_of(martingale_terms(), moving_terms(),
                       st.lists(fock_document(), min_size=1, max_size=12)),
})


def nodes(doc, path=()):
    """Paths to every node below the root of a JSON document."""
    children = (doc.items() if isinstance(doc, dict)
                else enumerate(doc) if isinstance(doc, list) else ())
    for key, child in children:
        yield path + (key,)
        yield from nodes(child, path + (key,))


@st.composite
def damaged(draw, documents):
    """A valid document, or one with a single node replaced or removed."""
    doc = draw(documents)
    paths = list(nodes(doc))
    if not paths or draw(st.booleans()):
        return doc
    *parent_path, key = draw(st.sampled_from(paths))
    doc = copy.deepcopy(doc)
    parent = doc
    for step in parent_path:
        parent = parent[step]
    value = draw(st.one_of(wrong_values, st.just(REMOVE)))
    if value is REMOVE:
        del parent[key]
    else:
        parent[key] = value
    return doc


ints = st.one_of(st.integers(-1, 22), st.sampled_from([40, 63, 64])).map(str)
floats = st.sampled_from(["0", "0.5", "1", "2", "-1", "1e-300", "1e308",
                          "nan", "inf", "-inf"])
pgrids = st.sampled_from(["0,1,2", "0", "2,1", "0,nan", "inf", "1e308", ""])


def options(**choices):
    """argv fragments: each named option present or absent."""
    return st.tuples(*[st.one_of(st.just([]), value.map(lambda v, n=name: [n, v]))
                       for name, value in choices.items()]).map(
        lambda parts: [x for part in parts for x in part])


commands = st.one_of(
    st.tuples(st.just("lambda"), st.none(),
              st.one_of(sigmas, wrong_values).map(lambda s: [json.dumps(s)])),
    st.tuples(st.just("series"), st.none(),
              st.tuples(floats, ints).map(lambda pv: ["--p", pv[0], "--horizon", pv[1]])),
    st.tuples(st.just("expand"), damaged(sample_documents), st.just([])),
    st.tuples(st.just("synthesize"), damaged(fock_document()), options(**{"--horizon": ints})),
    st.tuples(st.just("martingale-check"), damaged(sequence_documents),
              options(**{"--tol": floats, "--horizon": ints})),
    st.tuples(st.just("converge"), damaged(sequence_documents),
              options(**{"--tol": floats, "--pgrid": pgrids, "--horizon": ints,
                         "--csv": st.just("c")})),
    st.tuples(st.just("approx"), damaged(fock_document()),
              st.tuples(ints, options(**{"--q": floats, "--horizon": ints,
                                         "--csv": st.just("c")})).map(
                  lambda nq: ["--n", nq[0], *nq[1]])),
)


def coefficients(rows, bound=None):
    return {"format": "fock-coefficients/v1", "support_bound": bound,
            "coefficients": [{"sigma": sigma, "re": re, "im": 0} for sigma, re in rows]}


# Twelve terms {[]: (n+1)^3}: DIVERGED with exit 1 at the default tol.
CUBIC = {"format": "fock-sequence/v1",
         "terms": [coefficients([([], (n + 1) ** 3)], 2) for n in range(12)]}
TWO_ROWS = coefficients([([3], 2), ([], 1)])
# Three terms {[]: 1.5e308 + 1.5e308i}: |F| overflows, exit 2.
HUGE = {"format": "fock-sequence/v1", "terms": [
    {**coefficients([], 1), "coefficients": [{"sigma": [], "re": 1.5e308, "im": 1.5e308}]}] * 3}


@settings(max_examples=200, deadline=None, derandomize=True)
@example(("converge", CUBIC, ["--tol", "nan"]))
@example(("converge", CUBIC, ["--tol", "inf"]))
@example(("approx", TWO_ROWS, ["--n", "1", "--q", "nan", "--csv", "c"]))
@example(("approx", TWO_ROWS, ["--n", "1", "--q", "0.5", "--csv", "c"]))
@example(("converge", HUGE, ["--csv", "c"]))
@example(("series", None, ["--p", "1.0001", "--horizon", "3"]))
@given(commands)
def test_exit_codes_and_stderr(case):
    name, doc, extra = case
    opts = dict(zip(extra[::2], extra[1::2]))
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(subsets, "MEMORY_BUDGET", 4 << 20)
        outputs = [Path(tmp, "out.json"), Path(tmp, "c")]
        argv = [name]
        if doc is not None:
            source = Path(tmp, "in.json")
            source.write_text(json.dumps(doc))
            argv += ["--in", str(source), "--out", str(outputs[0])]
        argv += [str(outputs[1]) if x == "c" else x for x in extra]
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except SystemExit as usage:  # argparse rejected the argv
                assert usage.code == 2 and "usage:" in stderr.getvalue()
                return
        written = [path.name for path in outputs if path.exists()]
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2)
    assert len(stderr.getvalue().splitlines()) <= 1, stderr.getvalue()
    assert code != 1 or name in VERDICT_COMMANDS
    assert code != 2 or not written, written
    assert code != 2 or stdout.getvalue() == "", stdout.getvalue()
    if opts.get("--tol") in ("nan", "inf") or (opts.get("--q") == "nan" and "--csv" in opts):
        assert code == 2

"""The one memory check: TruncatedDomain.plan against subsets.MEMORY_BUDGET.

tests/conftest.py pins the budget to 256 MiB for every test.  Here the
budget is set lower to show that each whole-domain path plans before it
allocates, and a recording wrapper shows that each path peaks at no more
than 4x its largest planned request.
"""

import contextlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from martfock import cli, formats, sequences, subsets
from martfock.convolution import (
    all_ones,
    approximate,
    approximation_residual,
    convolve,
    indicator_functional,
    residual_curve,
)
from martfock.functionals import FockCoefficients, fit_growth, pairing, sobolev_norm
from martfock.rademacher import (
    RandomFunctional,
    SampleSpace,
    chaos_expand,
    conditional_expectation,
    synthesize,
    verify_normal_martingale,
)
from martfock.sequences import (
    FunctionalSequence,
    InsufficientLengthError,
    SigmaDiagnostics,
    classical_to_sequence,
    is_generalized_martingale,
    martingale_limit,
    strong_convergence_test,
    uniform_boundedness,
)
from martfock.subsets import (
    DomainTooLargeError,
    FiniteSubset,
    TruncatedDomain,
    weight_vector,
    weighted_series,
)

SRC = Path(__file__).resolve().parent.parent / "src"
HORIZON = 16
DOMAIN = TruncatedDomain(HORIZON)
FLOAT_VECTOR = 8 * DOMAIN.size  # bytes of one float64 domain vector


def sparse_table():
    """64 nonzeros spread over the domain, as in a wide sparse input."""
    masks = np.unique(np.random.default_rng(0).integers(0, DOMAIN.size, 64))
    return FockCoefficients._from_arrays(masks.astype(np.uint64),
                                         np.linspace(1.0, 2.0, masks.size) + 0j, None)


def table_sequence(length=3):
    return FunctionalSequence([sparse_table() * (n + 1) for n in range(length)])


def sample_values():
    return np.random.default_rng(1).standard_normal(DOMAIN.size) + 0j


# name -> (inputs, call).  The inputs are built before the budget changes;
# the call is every public path that allocates something domain-sized.
PATHS = {
    "masks": (lambda: (), lambda: DOMAIN.masks()),
    "iter": (lambda: (), lambda: list(DOMAIN)),
    "weight_vector": (lambda: (), lambda: weight_vector(DOMAIN)),
    "weighted_series": (lambda: (), lambda: weighted_series(2.0, DOMAIN)),
    "values_on table": (lambda: (sparse_table(),), lambda phi: phi.values_on(DOMAIN)),
    "values_on rule": (lambda: (all_ones(),), lambda phi: phi.values_on(DOMAIN)),
    "values_on scalar rule": (lambda: (FockCoefficients.from_rule(lambda s: 0.5 * s.mask),),
                              lambda phi: phi.values_on(DOMAIN)),
    "values_on nested composite": (
        lambda: (approximate(3 * convolve(2 * all_ones() + all_ones(), all_ones()), 12),),
        lambda phi: phi.values_on(DOMAIN)),
    "indicator_functional": (lambda: (), lambda: indicator_functional(HORIZON)),
    "restricted rule": (lambda: (all_ones(),), lambda phi: phi.restricted(DOMAIN)),
    "residual_curve table": (lambda: (sparse_table(),),
                             lambda phi: residual_curve(phi, 12, 1.0, DOMAIN)),
    "residual_curve dense table": (
        lambda: (FockCoefficients.from_vector(sample_values(), HORIZON),),
        lambda phi: residual_curve(phi, 12, 1.0, DOMAIN)),
    "residual_curve rule": (lambda: (all_ones(),),
                            lambda phi: residual_curve(phi, 12, 1.0, DOMAIN)),
    "approximation_residual": (lambda: (sparse_table(),),
                               lambda phi: approximation_residual(phi, 3, 1.0, DOMAIN)),
    "values_matrix": (lambda: (table_sequence(),), lambda seq: seq.values_matrix(DOMAIN)),
    "is_generalized_martingale": (lambda: (table_sequence(),),
                                  lambda seq: is_generalized_martingale(seq, DOMAIN)),
    "strong_convergence_test": (lambda: (table_sequence(),),
                                lambda seq: strong_convergence_test(seq, DOMAIN)),
    "strong_convergence_test classical": (
        lambda: (classical_to_sequence(RandomFunctional(SampleSpace(HORIZON),
                                                        sample_values())),),
        lambda seq: strong_convergence_test(seq, DOMAIN)),
    "martingale_limit": (
        lambda: (classical_to_sequence(RandomFunctional(SampleSpace(HORIZON),
                                                        sample_values())),),
        lambda seq: martingale_limit(seq, DOMAIN)),
    "uniform_boundedness": (lambda: (table_sequence().terms,),
                            lambda family: uniform_boundedness(family, DOMAIN)),
    "verify_normal_martingale": (lambda: (SampleSpace(HORIZON),), verify_normal_martingale),
    "SampleSpace": (lambda: (), lambda: SampleSpace(HORIZON)),
    "expand": (lambda: (sample_values(),),
               lambda v: chaos_expand(RandomFunctional(SampleSpace(HORIZON), v))),
    "synthesize": (lambda: (FockCoefficients.from_vector(sample_values(), HORIZON),),
                   lambda phi: synthesize(phi, SampleSpace(HORIZON))),
    "conditional_expectation": (
        lambda: (sample_values(),),
        lambda v: conditional_expectation(RandomFunctional(SampleSpace(HORIZON), v), 5)),
    "fit_growth": (lambda: (sparse_table(),), lambda phi: fit_growth(phi, DOMAIN, (0, 1, 2))),
    "sobolev_norm": (lambda: (sparse_table(),), lambda phi: sobolev_norm(phi, 1.0, DOMAIN)),
    "pairing": (lambda: (sparse_table(),), lambda phi: pairing(phi, phi, DOMAIN)),
}


def traced(call, *inputs):
    """(peak, held): bytes traced while call(*inputs) runs, and still traced
    once it has returned and its result is dropped, over what was live
    before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        call(*inputs)
        current, peak = tracemalloc.get_traced_memory()
        return peak - base, current - base
    finally:
        tracemalloc.stop()


def traced_peak(call, *inputs):
    """Peak bytes traced while call(*inputs) runs, over what was live before."""
    return traced(call, *inputs)[0]


def test_budget_is_an_eighth_of_physical_memory(monkeypatch):
    # A fresh copy of the module, since conftest.py pins the loaded one's.
    spec = importlib.util.spec_from_file_location("fresh_subsets", subsets.__file__)
    fresh = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "fresh_subsets", fresh)
    spec.loader.exec_module(fresh)
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert fresh.MEMORY_BUDGET == physical // 8
    assert subsets.MEMORY_BUDGET == 256 << 20


def test_plan_arithmetic(monkeypatch):
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", 1024)
    TruncatedDomain(6).plan(8)  # 128 masks * 8 bytes: exactly the budget
    with pytest.raises(DomainTooLargeError, match="2\\^7 subsets at 9 bytes each need "
                                                  "1152 bytes, over the memory budget "
                                                  "of 1024 bytes"):
        TruncatedDomain(6).plan(9)
    TruncatedDomain(63).plan(0)  # 2^64 masks at 0 bytes


@pytest.mark.parametrize("name", PATHS)
def test_one_byte_budget_refuses_before_allocating(name, monkeypatch):
    setup, call = PATHS[name]
    inputs = setup()
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", 1)

    def refused():
        with pytest.raises(DomainTooLargeError, match="over the memory budget of 1 bytes"):
            call(*inputs)

    assert traced_peak(refused) < FLOAT_VECTOR


def test_table_prefix_paths_plan_no_bytes(monkeypatch):
    phi = sparse_table()
    monkeypatch.setattr(subsets, "MEMORY_BUDGET", 1)
    for domain in (DOMAIN, TruncatedDomain(40), TruncatedDomain(63)):
        assert phi.restricted(domain).support_bound == domain.max_index
    assert approximate(phi, 12).support_bound == 12
    top = int(phi._masks[-1])
    assert phi.evaluate(FiniteSubset(top)) == phi._values[-1]


@pytest.mark.parametrize("name", PATHS)
def test_peak_within_four_times_the_largest_plan(name, monkeypatch):
    setup, call = PATHS[name]
    inputs = setup()
    requests = []
    plan = TruncatedDomain.plan

    def recording_plan(domain, bytes_per_mask):
        requests.append(domain.size * bytes_per_mask)
        plan(domain, bytes_per_mask)

    monkeypatch.setattr(TruncatedDomain, "plan", recording_plan)
    peak = traced_peak(call, *inputs)
    assert requests and peak <= 4 * max(requests)


def truncations(length):
    """A truncation martingale of length terms: the sparse table cut to the
    masks below 2^(n+1), n = 0..length-1 (the whole table from n = HORIZON)."""
    phi = sparse_table()
    return FunctionalSequence([phi.restricted(TruncatedDomain(min(n, HORIZON)))
                               for n in range(length)])


RULE_READ_BYTES = 200  # what reading any rule over a domain plans per mask


def rule_truncations(length):
    """Rule-backed terms: the approximants of all_ones at levels
    min(n, HORIZON), n = 0..length-1."""
    return FunctionalSequence([approximate(all_ones(), min(n, HORIZON)) for n in range(length)])


def limit_of_every_term(seq):
    # Under HORIZON + 1 terms the domain is longer than the sequence: the
    # limit is refused once every term has been read and checked.
    with contextlib.suppress(InsufficientLengthError):
        martingale_limit(seq, DOMAIN)


# name -> (sequence of a given length, call, bytes per mask the call plans):
# each streamed path reads every term.
STREAMED = {
    "is_generalized_martingale": (truncations, lambda seq: is_generalized_martingale(seq, DOMAIN),
                                  sequences.PREDICATE_BYTES),
    "strong_convergence_test martingale": (
        truncations, lambda seq: strong_convergence_test(seq, DOMAIN), sequences.VERDICT_BYTES),
    "strong_convergence_test rules": (rule_truncations,
                                      lambda seq: strong_convergence_test(seq, DOMAIN),
                                      sequences.VERDICT_BYTES + RULE_READ_BYTES),
    "strong_convergence_test scan": (table_sequence,
                                     lambda seq: strong_convergence_test(seq, DOMAIN),
                                     sequences.VERDICT_BYTES),
    "martingale_limit": (truncations, limit_of_every_term, sequences.LIMIT_BYTES),
    "uniform_boundedness": (table_sequence, lambda seq: uniform_boundedness(seq.terms, DOMAIN),
                            sequences.UNIFORM_BYTES),
}


@pytest.mark.parametrize("name", STREAMED)
def test_streamed_peak_does_not_grow_with_the_terms(name):
    # Two rows are read at a time: 4 terms and 32 terms peak alike per mask
    # (the matrix they replaced held 16 bytes per term and mask), and within
    # the bytes the path plans.
    build, call, planned = STREAMED[name]
    short, long = (traced_peak(call, build(length)) / DOMAIN.size for length in (4, 32))
    assert abs(long - short) < 16, (short, long)
    assert max(short, long) <= planned, (short, long, planned)


def test_rule_terms_hold_nothing_after_the_verdict():
    # A built-in rule keeps no values between reads, so nothing per term or
    # per mask outlives the verdict.
    for length in (4, 32):
        seq = rule_truncations(length)
        _, held = traced(lambda: strong_convergence_test(seq, DOMAIN))
        assert held < DOMAIN.size, (length, held / DOMAIN.size)


@pytest.mark.parametrize("kind", ["coefficients", "values"])
def test_writing_a_document_holds_at_most_half_its_size(kind, tmp_path):
    # 2^16 rows, written a block of rows at a time: the traced peak is a few
    # blocks, not the document's text.
    rng = np.random.default_rng(2)
    values = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    table = (FockCoefficients.from_vector(values, 15) if kind == "coefficients"
             else RandomFunctional(SampleSpace(15), values))
    path = tmp_path / "doc.json"
    peak = traced_peak(lambda: formats.write(table.to_document(), str(path)))
    assert peak <= path.stat().st_size / 2


def test_writing_the_diagnostics_csv_holds_a_tenth_of_it(tmp_path):
    # 2^17 rows, BLOCK_ROWS masks at a time: no whole-domain column of text
    rng = np.random.default_rng(4)
    diagnostics = SigmaDiagnostics(rng.integers(0, 12, DOMAIN.size), rng.random(DOMAIN.size),
                                   rng.standard_normal(DOMAIN.size))
    path = tmp_path / "diag.csv"
    peak = traced_peak(lambda: cli._write_diagnostics_csv(str(path), diagnostics))
    assert peak <= path.stat().st_size / 10


def rows_document(kind: str, path: Path) -> int:
    """Write a document of 2^16 rows (a sequence: four terms of 2^14) to path;
    its size in bytes."""
    rng = np.random.default_rng(3)
    values = rng.standard_normal(1 << 16) + 1j * rng.standard_normal(1 << 16)
    if kind == "values":
        formats.write(RandomFunctional(SampleSpace(15), values).to_document(), str(path))
    elif kind == "coefficients":
        formats.write(FockCoefficients.from_vector(values, 15).to_document(), str(path))
    else:
        terms = []
        for part in np.split(values, 4):
            formats.write(FockCoefficients.from_vector(part, 13).to_document(), str(path))
            terms.append(path.read_text().rstrip())
        path.write_text('{"format":"fock-sequence/v1","terms":[' + ",".join(terms) + "]}")
    return path.stat().st_size


READERS = {"coefficients": (FockCoefficients, True), "values": (RandomFunctional, False),
           "sequence": (FunctionalSequence, True)}


@pytest.mark.parametrize("kind", READERS)
def test_reading_a_document_peaks_near_twice_its_size(kind, tmp_path):
    # the file's bytes and text, for a moment; the rows are decoded a block
    # at a time while json.loads runs, so no row dict outlives its block
    path = tmp_path / "doc.json"
    size = rows_document(kind, path)
    cls, sigma = READERS[kind]
    peak = traced_peak(lambda: cls.from_json_dict(formats.load_json(str(path), sigma)))
    assert peak <= 2.1 * size


HWM_CHILD = textwrap.dedent("""
    import atexit, sys
    def report():
        with open("/proc/self/status") as status:
            sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
    atexit.register(report)
    sys.path.insert(0, sys.argv[1])
    from martfock.cli import main
    sys.exit(main(sys.argv[2:]))
""")


def child_vmhwm(*argv: str) -> int:
    """The resident high-water mark, in bytes, of a CLI child running argv."""
    done = subprocess.run([sys.executable, "-c", HWM_CHILD, str(SRC), *argv],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return 1024 * int(done.stderr.splitlines()[-1].split()[1])


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc VmHWM")
def test_synthesize_peaks_near_a_bare_child_plus_its_input(tmp_path):
    src = tmp_path / "phi.json"
    size = rows_document("coefficients", src)
    bare = child_vmhwm("lambda", "[0]")
    peak = child_vmhwm("synthesize", "--in", str(src), "--out", str(tmp_path / "f.json"))
    assert peak <= bare + 3 * size, (bare, peak, size)


CHILD = textwrap.dedent("""
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
    sys.path.insert(0, sys.argv[1])
    from martfock import formats, subsets
    subsets.MEMORY_BUDGET = 256 << 20
    from martfock.cli import main
    sys.exit(main(sys.argv[2:]))
""")


def test_crash_reproductions_exit_2_under_an_address_space_limit(tmp_path):
    # Unplanned, each call dies in a MemoryError traceback with exit 1 at
    # 2 GiB of address space: a 2 GiB weight vector, and a 1.5 GiB matrix of
    # three terms over 2^25 masks.
    term = {"format": "fock-coefficients/v1", "support_bound": 24,
            "coefficients": [{"sigma": [], "re": 1.0, "im": 0.0}]}
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"format": "fock-sequence/v1", "terms": [term] * 3}))
    for argv in (["series", "--p", "2", "--horizon", "27"],
                 ["converge", "--in", str(seq)],
                 ["martingale-check", "--in", str(seq)]):
        done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert "over the memory budget of 268435456 bytes" in lines[0]

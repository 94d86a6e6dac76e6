"""The one memory check: TruncatedDomain.plan against subsets.MEMORY_BUDGET.

tests/conftest.py pins the budget to 256 MiB for every test.  Here the
budget is set lower to show that each whole-domain path plans before it
allocates, and a recording wrapper shows that each path peaks at no more
than 4x its largest planned request.
"""

import ast
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

from martfock import formats, functionals, sequences, subsets
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
    fwht,
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
    "is_generalized_martingale": (lambda: (table_sequence(),),
                                  lambda seq: is_generalized_martingale(seq, DOMAIN)),
    "strong_convergence_test": (lambda: (table_sequence(),),
                                lambda seq: strong_convergence_test(seq, DOMAIN)),
    "strong_convergence_test classical": (
        lambda: (classical_to_sequence(RandomFunctional(SampleSpace(HORIZON),
                                                        sample_values())),),
        lambda seq: strong_convergence_test(seq, DOMAIN)),
    "classical_to_sequence": (
        lambda: (sample_values(),),
        lambda v: classical_to_sequence(RandomFunctional(SampleSpace(HORIZON), v))),
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
    "sobolev_norm dense table": (lambda: (FockCoefficients.from_vector(sample_values(), HORIZON),),
                                 lambda phi: sobolev_norm(phi, 1.0, DOMAIN)),
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


def planned_peak(call, *inputs):
    """(peak, planned): the bytes traced while call(*inputs) runs, over what
    was live before, and the largest request it made of TruncatedDomain.plan
    (None if it made none)."""
    requests = []
    plan = TruncatedDomain.plan

    def recording_plan(domain, bytes_per_mask):
        requests.append(domain.size * bytes_per_mask)
        plan(domain, bytes_per_mask)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TruncatedDomain, "plan", recording_plan)
        peak = traced_peak(call, *inputs)
    return peak, max(requests, default=None)


@pytest.mark.parametrize("name", PATHS)
def test_peak_within_four_times_the_largest_plan(name):
    setup, call = PATHS[name]
    peak, planned = planned_peak(call, *setup())
    assert planned is not None and peak <= 4 * planned


def test_every_plan_passes_a_constant():
    # Each whole-domain path plans a constant number of bytes per mask: a
    # plan that grows with the terms or the horizon is a path that holds
    # them all.  Every .plan argument is an int literal or an UPPER_CASE
    # constant assigned at module level.
    calls, offenders = 0, []
    for path in sorted((SRC / "martfock").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        constants = {name.id for node in tree.body if isinstance(node, ast.Assign)
                     for target in node.targets for name in ast.walk(target)
                     if isinstance(name, ast.Name) and name.id.isupper()}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "plan"):
                continue
            calls += 1
            for arg in [*node.args, *(keyword.value for keyword in node.keywords)]:
                literal = isinstance(arg, ast.Constant) and type(arg.value) is int
                if not (literal or (isinstance(arg, ast.Name) and arg.id in constants)):
                    offenders.append(f"{path.name}:{node.lineno}")
    assert calls and offenders == []


def truncations(length):
    """A truncation martingale of length terms: the sparse table cut to the
    masks below 2^(n+1), n = 0..length-1 (the whole table from n = HORIZON)."""
    phi = sparse_table()
    return FunctionalSequence([phi.restricted(TruncatedDomain(min(n, HORIZON)))
                               for n in range(length)])


def rule_truncations(length):
    """Rule-backed terms: the approximants of all_ones at levels
    min(n, HORIZON), n = 0..length-1."""
    return FunctionalSequence([approximate(all_ones(), min(n, HORIZON)) for n in range(length)])


# name -> (sequence of a given length, call, bytes per mask the call plans):
# each streamed path reads every term.
STREAMED = {
    "is_generalized_martingale": (truncations, lambda seq: is_generalized_martingale(seq, DOMAIN),
                                  sequences.PREDICATE_BYTES),
    "strong_convergence_test martingale": (
        truncations, lambda seq: strong_convergence_test(seq, DOMAIN), sequences.VERDICT_BYTES),
    "strong_convergence_test rules": (rule_truncations,
                                      lambda seq: strong_convergence_test(seq, DOMAIN),
                                      sequences.VERDICT_BYTES + functionals.RULE_READ_BYTES),
    "strong_convergence_test scan": (table_sequence,
                                     lambda seq: strong_convergence_test(seq, DOMAIN),
                                     sequences.VERDICT_BYTES),
    # HORIZON + 4 and HORIZON + 32 terms: the limit needs a term per index.
    "martingale_limit": (lambda length: truncations(HORIZON + length),
                         lambda seq: martingale_limit(seq, DOMAIN), sequences.LIMIT_BYTES),
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


def test_martingale_limit_refuses_a_short_sequence_before_the_plan():
    # 3 terms over a horizon-20 domain: the lengths alone decide the
    # refusal, so neither the 128 MiB plan nor a row is made.
    seq = truncations(3)

    def refused():
        with pytest.raises(InsufficientLengthError, match="index 20, sequence has 3$"):
            martingale_limit(seq, TruncatedDomain(20))

    assert traced_peak(refused) < 1 << 20


def test_uniform_boundedness_reads_a_lazy_family_one_term_at_a_time():
    # A generator of dense approximants, each term from HORIZON on the whole
    # table.  The term read and the next one being built are live together,
    # so 20 terms and 40 peak alike per mask, within 4x the plan.
    dense = FockCoefficients.from_vector(sample_values(), HORIZON)
    per_mask = []
    for length in (20, 40):
        family = (approximate(dense, min(n, HORIZON)) for n in range(length))
        peak, planned = planned_peak(uniform_boundedness, family, DOMAIN)
        assert peak <= 4 * planned, (length, peak / DOMAIN.size)
        per_mask.append(peak / DOMAIN.size)
    assert abs(per_mask[1] - per_mask[0]) < 16, per_mask


def test_indicator_functional_peaks_within_its_plan():
    # the ones and the masks are held as built, not copied: 26 bytes per
    # mask with the finite check, against a plan of 32
    peak, planned = planned_peak(indicator_functional, HORIZON)
    assert peak <= planned, (peak / DOMAIN.size, planned / DOMAIN.size)


def test_nonzero_tests_a_zero_free_vector_in_a_fixed_buffer():
    # values.all() reduces in numpy's fixed buffer; one bool per entry
    # would take 128 KB here
    values = np.ones(1 << 17, np.complex128)
    masks = np.arange(values.size, dtype=np.uint64)
    assert traced_peak(functionals._nonzero, masks, values) < 16 << 10


def test_fwht_holds_at_most_two_vectors_and_half_a_scratch():
    # 16 bytes per point for the transposed copy, 16 for the result (each is
    # the other's scratch): within two complex vectors and a half-size float
    # scratch, 40.
    values = sample_values()
    assert traced_peak(fwht, values) <= 40 * values.size


def test_fwht_callers_hold_no_second_input():
    # synthesize hands values_on's vector straight to fwht, and
    # conditional_expectation its truncated coefficients; fwht drops its
    # input once it is copied, so each peaks as fwht alone does: 33.5 bytes
    # per point (49.5 while the caller kept the input).
    space = SampleSpace(HORIZON)
    phi = FockCoefficients.from_vector(sample_values(), HORIZON)
    f = RandomFunctional(space, sample_values())
    for call in (lambda: synthesize(phi, space), lambda: conditional_expectation(f, 5)):
        assert traced_peak(call) <= 34 * DOMAIN.size


def test_sobolev_norm_plans_one_float_per_mask():
    # It reads the entries, not the dense vectors (40 bytes per mask): a
    # sparse table holds the lanes of its block tree, a dense one the
    # weights, the terms and the squares.
    dense = FockCoefficients.from_vector(sample_values(), HORIZON)
    for phi, per_mask in ((sparse_table(), 9), (dense, 25)):
        peak, planned = planned_peak(lambda: sobolev_norm(phi, 1.0, DOMAIN))
        assert planned == FLOAT_VECTOR
        assert peak <= per_mask * DOMAIN.size, peak / DOMAIN.size


def test_sparse_sums_cost_their_entries():
    # 4,096 entries at horizon 18: each sum reads the entries' terms and
    # the lanes of its block tree (at most 1 byte per mask), not a zeroed
    # float per mask of the range (8.27 bytes per mask before); the plan
    # stays one float per mask.
    domain = TruncatedDomain(18)
    rng = np.random.default_rng(8)
    masks = np.sort(rng.choice(domain.size, 4096, replace=False)).astype(np.uint64)
    phi = FockCoefficients._from_arrays(masks, rng.standard_normal(4096) + 1j, 18)
    subsets._low_weights()  # built once per process, not per call
    for call in (lambda: residual_curve(phi, 12, 1.0, domain),
                 lambda: sobolev_norm(phi, 1.0, domain)):
        peak, planned = planned_peak(call)
        assert planned == 8 * domain.size
        assert peak <= 3 * domain.size, peak / domain.size
    # The tables the sums keep (the low weights and the byte reversal that
    # their tree layouts compose) are built on first use, not at import, and
    # stay read-only and one size whatever the horizon: layouts of 2^5 to
    # 2^17 blocks leave the same tables behind.
    done = subprocess.run([sys.executable, "-c", CACHED_TABLES_CHILD, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"_byte_reversal": 0, "_low_weights": 0}
    tables = cached_tables()
    for horizon in (12, 16, 24):
        small = FockCoefficients._from_arrays(np.array([3, 1 << horizon], np.uint64),
                                              np.array([1.0, 2.0j]), horizon)
        sobolev_norm(small, 1.0, TruncatedDomain(horizon))
        assert cached_tables() == tables, horizon
    assert tables["_byte_reversal"] == (1, 256 * 8, False)


CACHED_TABLES_CHILD = textwrap.dedent("""
    import json, sys
    sys.path.insert(0, sys.argv[1])
    import martfock
    from martfock import subsets
    print(json.dumps({name: f.cache_info().currsize for name, f in vars(subsets).items()
                      if hasattr(f, "cache_info")}))
""")


def cached_tables():
    """(entries, bytes, writeable) of each cached table in subsets."""
    return {name: (f.cache_info().currsize, f().nbytes, f().flags.writeable)
            for name, f in vars(subsets).items() if hasattr(f, "cache_info")}


def test_verifier_peak_does_not_grow_with_the_horizon():
    # The measure is folded a coordinate at a time, beside one walk of
    # 2^N values: the peak per mask is the same at horizon 12 as at 16, and
    # within the plan.
    per_mask = []
    for horizon in (12, 16):
        space = SampleSpace(horizon)
        peak, planned = planned_peak(verify_normal_martingale, space)
        assert peak <= planned, (horizon, peak / space.size, planned / space.size)
        per_mask.append(peak / space.size)
    assert abs(per_mask[1] - per_mask[0]) < 16, per_mask


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
    rows = formats.diagnostics_csv(diagnostics)
    peak = traced_peak(lambda: formats.write_all([(str(path), rows)]))
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
    # 2 GiB of address space: a 2 GiB weight vector, a 1.5 GiB matrix of
    # three terms over 2^25 masks, a device with no end, and a 3 GiB file
    # (sparse: it takes no disk), refused from its size before any read.
    term = {"format": "fock-coefficients/v1", "support_bound": 24,
            "coefficients": [{"sigma": [], "re": 1.0, "im": 0.0}]}
    seq = tmp_path / "seq.json"
    seq.write_text(json.dumps({"format": "fock-sequence/v1", "terms": [term] * 3}))
    sparse = tmp_path / "sparse.json"
    sparse.touch()
    os.truncate(sparse, 3 << 30)
    for argv in (["series", "--p", "2", "--horizon", "27"],
                 ["converge", "--in", str(seq)],
                 ["martingale-check", "--in", str(seq)],
                 ["expand", "--in", "/dev/zero"],
                 ["expand", "--in", str(sparse)]):
        done = subprocess.run([sys.executable, "-c", CHILD, str(SRC), *argv],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 2, (argv, done.stderr)
        assert done.stdout == ""
        lines = done.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
        assert lines[0].endswith("over the memory budget of 268435456 bytes"), lines
    assert lines[0] == (f"error: 3221225472 bytes of {sparse} at 2 bytes each need "
                        "6442450944 bytes, over the memory budget of 268435456 bytes")

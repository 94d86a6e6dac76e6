"""Malformed input files and subset arguments end in exit 2 with one
`error:` line on stderr: never a traceback, never exit 1 (which means a
failing verdict), never output.  The readers behind the commands refuse
the same files with the same messages."""

import importlib
import inspect
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import martfock
from martfock import functionals
from martfock.cli import main
from martfock.functionals import (FockCoefficients, GrowthCertificate, fit_growth,
                                  fit_growth_values, verify_certificate)
from martfock.rademacher import RandomFunctional, SampleSpace, verify_normal_martingale
from martfock.sequences import (FunctionalSequence, is_generalized_martingale,
                                martingale_limit, strong_convergence_test,
                                uniform_boundedness)
from martfock.subsets import FiniteSubset, TruncatedDomain

FOCK = '"format":"fock-coefficients/v1"'
SEQ = '"format":"fock-sequence/v1"'
SAMPLES = '"format":"random-functional/v1"'
ROW = '{"re":1,"im":0}'


def fock(coefficients='[{"sigma":[0],"re":1,"im":0}]', bound="1"):
    return f'{{{FOCK},"support_bound":{bound},"coefficients":{coefficients}}}'


def samples(values=f"[{ROW},{ROW}]", horizon="0"):
    return f'{{{SAMPLES},"horizon":{horizon},"values":{values}}}'


MALFORMED_FILES = {
    "fock-not-an-object": ("synthesize", "[1,2]"),
    "fock-re-string": ("synthesize", fock('[{"sigma":[0],"re":"x","im":0}]')),
    "fock-im-bool": ("synthesize", fock('[{"sigma":[0],"re":1,"im":true}]')),
    "fock-re-nan": ("synthesize", fock('[{"sigma":[0],"re":NaN,"im":0}]')),
    "fock-im-infinity": ("synthesize", fock('[{"sigma":[0],"re":1,"im":-Infinity}]')),
    "fock-re-beyond-float": ("synthesize", fock('[{"sigma":[0],"re":1' + "0" * 400
                                                + ',"im":0}]')),
    "fock-sigma-float": ("synthesize", fock('[{"sigma":[0.5],"re":1,"im":0}]')),
    "fock-sigma-bool": ("synthesize", fock('[{"sigma":[true],"re":1,"im":0}]')),
    "fock-sigma-not-a-list": ("synthesize", fock('[{"sigma":3,"re":1,"im":0}]')),
    "fock-row-not-an-object": ("synthesize", fock("[[0,1,0]]")),
    "fock-coefficients-object": ("synthesize", fock("{}")),
    "fock-support-bound-string": ("synthesize", fock(bound='"2"')),
    "fock-support-bound-bool": ("synthesize", fock(bound="true")),
    "fock-support-bound-negative": ("approx", fock("[]", bound="-1")),
    "sequence-not-an-object": ("converge", "[1,2]"),
    "sequence-terms-object": ("converge", f'{{{SEQ},"terms":{{"a":1}}}}'),
    "sequence-term-not-an-object": ("martingale-check", f'{{{SEQ},"terms":[1,2]}}'),
    "samples-not-an-object": ("expand", '"samples"'),
    "samples-horizon-string": ("expand", samples(horizon='"0"')),
    "samples-horizon-bool": ("expand", samples(horizon="true")),
    "samples-values-object": ("expand", samples(values="{}")),
    "samples-row-not-an-object": ("expand", samples(values="[1,2]")),
    "samples-re-nan": ("expand", samples(values=f'[{{"re":NaN,"im":0}},{ROW}]')),
    "samples-re-infinity": ("expand", samples(values=f'[{{"re":Infinity,"im":0}},{ROW}]')),
    "samples-re-bool": ("expand", samples(values=f'[{{"re":false,"im":0}},{ROW}]')),
    "fock-format-v2": ("synthesize", fock().replace("/v1", "/v2")),
    "samples-im-minus-infinity": ("expand", samples(values=f'[{ROW},{{"re":0,"im":-Infinity}}]')),
    "samples-too-few-values": ("expand", samples(horizon="1")),
    "samples-too-many-values": ("expand", samples(values=f"[{','.join([ROW] * 8)}]",
                                                  horizon="1")),
    "sequence-no-terms": ("martingale-check", f'{{{SEQ},"terms":[]}}'),
}

# The error lines of these cases are pinned: without the check that gives
# each, its command exits 0 or fails later with another message.
MESSAGES = {
    "fock-format-v2": "unexpected format field: 'fock-coefficients/v2'",
    "samples-re-nan": "re and im must be finite",
    "samples-re-infinity": "re and im must be finite",
    "samples-im-minus-infinity": "re and im must be finite",
    "samples-too-few-values": "expected 4 values, got shape (2,)",
    "samples-too-many-values": "expected 4 values, got shape (8,)",
    "sequence-no-terms": "a functional sequence must have at least one term",
}

MALFORMED_SUBSETS = ['"abc"', "[1.5]", "null", "[true]", "{}", "[-1]", "[64]", "[2,2]"]


def assert_input_error(code, capsys):
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    return err


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(case, tmp_path, capsys):
    command, text = MALFORMED_FILES[case]
    src = tmp_path / "in.json"
    src.write_text(text)
    argv = [command, "--in", str(src)] + (["--n", "1"] if command == "approx" else [])
    err = assert_input_error(main(argv), capsys)
    if case in MESSAGES:
        assert err == f"error: {MESSAGES[case]}\n"


@pytest.mark.parametrize("reader, text", [
    (FockCoefficients, fock()), (RandomFunctional, samples()),
    (FunctionalSequence, f'{{{SEQ},"terms":[{fock()}]}}')], ids=["fock", "samples", "sequence"])
def test_readers_refuse_another_format(reader, text):
    data = json.loads(text)
    reader.from_json_dict(data)  # valid as given
    fmt = data["format"].replace("/v1", "/v2")
    with pytest.raises(ValueError, match=re.escape(f"unexpected format field: '{fmt}'")):
        reader.from_json_dict({**data, "format": fmt})


@pytest.mark.parametrize("special", ["NaN", "Infinity", "-Infinity"])
def test_readers_refuse_non_finite_numbers(special):
    for reader, text in [(RandomFunctional, samples(values=f'[{ROW},{{"re":1,"im":{special}}}]')),
                         (FockCoefficients, fock(f'[{{"sigma":[0],"re":1,"im":{special}}}]'))]:
        with pytest.raises(ValueError, match="re and im must be finite"):
            reader.from_json_dict(json.loads(text))


@pytest.mark.parametrize("size", [2, 8])
def test_a_sample_function_holds_one_value_per_point(size):
    with pytest.raises(ValueError, match=re.escape(f"expected 4 values, got shape ({size},)")):
        RandomFunctional(SampleSpace(1), np.ones(size))


@pytest.mark.parametrize("text", MALFORMED_SUBSETS)
def test_malformed_subset_exits_2(text, capsys):
    assert_input_error(main(["lambda", text]), capsys)
    with pytest.raises(ValueError):
        FiniteSubset.from_json(json.loads(text))


@pytest.mark.parametrize("command", ["expand", "synthesize", "converge", "lambda"])
@pytest.mark.parametrize("opening, closing", [("[", "]"), ('{"a":', "}")],
                         ids=["arrays", "objects"])
def test_deep_nesting_exits_2(command, opening, closing, tmp_path, capsys):
    # json.loads raised RecursionError here: a traceback and exit 1
    text = opening * 100_000 + "0" + closing * 100_000
    if command == "lambda":
        assert_input_error(main(["lambda", text]), capsys)
        return
    src = tmp_path / "deep.json"
    src.write_text(text)
    assert_input_error(main([command, "--in", str(src)]), capsys)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the FWHT overflows
def test_overflow_is_not_written_as_nonstandard_json(tmp_path, capsys):
    src, out = tmp_path / "f.json", tmp_path / "c.json"
    src.write_text(samples(values='[{"re":1e308,"im":0},{"re":1e308,"im":0}]'))
    assert_input_error(main(["expand", "--in", str(src), "--out", str(out)]), capsys)
    assert not out.exists()


def test_overflow_is_one_error_line_in_a_fresh_process(tmp_path):
    # a fresh interpreter with default warning filters: numpy's overflow
    # warnings would reach stderr there
    src = tmp_path / "f.json"
    src.write_text(samples(values='[{"re":1e308,"im":0},{"re":1e308,"im":0}]'))
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONWARNINGS": "default",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-m", "martfock.cli", "expand", "--in", str(src)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_well_formed_numbers_still_load(tmp_path, capsys):
    # ints are numbers too, and an absent support bound is inferred; the
    # Walsh function of {1} is -1 exactly where bit 1 of the point is set
    src = tmp_path / "phi.json"
    src.write_text(f'{{{FOCK},"coefficients":[{{"sigma":[1],"re":2,"im":-1}}]}}')
    assert main(["synthesize", "--in", str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["horizon"] == 1
    assert [complex(v["re"], v["im"]) for v in data["values"]] == [2 - 1j, 2 - 1j, -2 + 1j, -2 + 1j]


# Every public function of the package that takes a tolerance or a grid of
# growth orders, called with NaN there and valid arguments elsewhere.
PHI = FockCoefficients({FiniteSubset(0): 1.0})
SEQUENCE, DOMAIN, SPACE = FunctionalSequence([PHI] * 3), TruncatedDomain(2), SampleSpace(2)
NAN = float("nan")
ARGUMENT_RULES = {
    "functionals.FockCoefficients.equal_on(tol)": lambda: PHI.equal_on(PHI, DOMAIN, NAN),
    "functionals.fit_growth(p_grid)": lambda: fit_growth(PHI, DOMAIN, [NAN]),
    "functionals.growth_orders(p_grid)": lambda: functionals.growth_orders([NAN]),
    "functionals.fit_growth_values(p_grid)":
        lambda: fit_growth_values(np.empty(0), np.empty(0), [NAN]),
    "functionals.verify_certificate(rtol)":
        lambda: verify_certificate(PHI, GrowthCertificate(1.0, 0.0), DOMAIN, NAN),
    "rademacher.verify_normal_martingale(tol)": lambda: verify_normal_martingale(SPACE, tol=NAN),
    "sequences.is_generalized_martingale(tol)":
        lambda: is_generalized_martingale(SEQUENCE, DOMAIN, NAN),
    "sequences.martingale_limit(tol)": lambda: martingale_limit(SEQUENCE, DOMAIN, NAN),
    "sequences.strong_convergence_test(tol)":
        lambda: strong_convergence_test(SEQUENCE, DOMAIN, NAN),
    "sequences.strong_convergence_test(p_grid)":
        lambda: strong_convergence_test(SEQUENCE, DOMAIN, p_grid=[NAN]),
    "sequences.uniform_boundedness(p_grid)": lambda: uniform_boundedness([PHI], DOMAIN, [NAN]),
}
RULE_MESSAGES = {"tol": "tol must be finite and nonnegative, got nan",
                 "rtol": "rtol must be finite and nonnegative, got nan",
                 "p_grid": "growth orders must be finite and nonnegative"}


def public_rule_arguments() -> set[str]:
    """"module.function(argument)" for each tol, rtol or p_grid argument of
    a public function or method defined in any module of the package."""
    found = set()
    for info in pkgutil.iter_modules(martfock.__path__):
        module = importlib.import_module(f"martfock.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = ([(f"{name}.{m}", getattr(obj, m)) for m in vars(obj) if m[0] != "_"]
                       if inspect.isclass(obj) else [(name, obj)])
            for qualname, member in members:
                if inspect.isroutine(member):
                    found.update(f"{info.name}.{qualname}({arg})"
                                 for arg in inspect.signature(member).parameters
                                 if arg in RULE_MESSAGES)
    return found


def test_every_tolerance_and_grid_refuses_nan_before_the_plan(no_plan):
    # The table lists every such argument, so a path added later cannot
    # skip the check.  equal_on returned False, verify_normal_martingale a
    # failed report, and the three growth paths refused only after a plan.
    assert public_rule_arguments() == set(ARGUMENT_RULES)
    refused = {}
    for case, call in ARGUMENT_RULES.items():
        try:
            call()
        except Exception as error:  # every outcome is compared below
            refused[case] = f"{type(error).__name__}: {error}"
    assert refused == {case: "ValueError: " + RULE_MESSAGES[case[case.index("(") + 1:-1]]
                       for case in ARGUMENT_RULES}

"""Malformed input files and subset arguments end in exit 2 with one
`error:` line on stderr: never a traceback, never exit 1 (which means a
failing verdict), never output."""

import json

import pytest

from martfock.cli import main
from martfock.subsets import FiniteSubset

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
}

MALFORMED_SUBSETS = ['"abc"', "[1.5]", "null", "[true]", "{}", "[-1]", "[64]", "[2,2]"]


def assert_input_error(code, capsys):
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("case", sorted(MALFORMED_FILES))
def test_malformed_file_exits_2(case, tmp_path, capsys):
    command, text = MALFORMED_FILES[case]
    src = tmp_path / "in.json"
    src.write_text(text)
    argv = [command, "--in", str(src)] + (["--n", "1"] if command == "approx" else [])
    assert_input_error(main(argv), capsys)


@pytest.mark.parametrize("text", MALFORMED_SUBSETS)
def test_malformed_subset_exits_2(text, capsys):
    assert_input_error(main(["lambda", text]), capsys)
    with pytest.raises(ValueError):
        FiniteSubset.from_json(json.loads(text))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the FWHT overflows
def test_overflow_is_not_written_as_nonstandard_json(tmp_path, capsys):
    src, out = tmp_path / "f.json", tmp_path / "c.json"
    src.write_text(samples(values='[{"re":1e308,"im":0},{"re":1e308,"im":0}]'))
    assert_input_error(main(["expand", "--in", str(src), "--out", str(out)]), capsys)
    assert not out.exists()


def test_well_formed_numbers_still_load(tmp_path, capsys):
    # ints are numbers too, and an absent support bound is inferred; the
    # Walsh function of {1} is -1 exactly where bit 1 of the point is set
    src = tmp_path / "phi.json"
    src.write_text(f'{{{FOCK},"coefficients":[{{"sigma":[1],"re":2,"im":-1}}]}}')
    assert main(["synthesize", "--in", str(src)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["horizon"] == 1
    assert [complex(v["re"], v["im"]) for v in data["values"]] == [2 - 1j, 2 - 1j, -2 + 1j, -2 + 1j]

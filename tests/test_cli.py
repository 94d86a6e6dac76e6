import csv
import errno
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from martfock import cli, formats
from martfock.cli import main
from martfock.convolution import (all_ones, approximation_residual, approximation_sequence,
                                  indicator_functional, residual_curve)
from martfock.functionals import FockCoefficients
from martfock.rademacher import RandomFunctional, SampleSpace, constant, random_functional
from martfock.sequences import FunctionalSequence, SigmaDiagnostics, strong_convergence_test
from martfock.subsets import FiniteSubset, TruncatedDomain

SRC = Path(__file__).resolve().parent.parent / "src"


def write_json(path, data):
    path.write_text(json.dumps(data))


def run_fresh(*argv):
    """The CLI in a fresh interpreter that reports every warning."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONWARNINGS": "default"}
    return subprocess.run([sys.executable, "-m", "martfock.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


class TestLambda:
    def test_empty(self, capsys):
        assert main(["lambda", "[]"]) == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_multi(self, capsys):
        assert main(["lambda", "[0,1,3]"]) == 0
        assert capsys.readouterr().out.strip() == "8"

    def test_singleton(self, capsys):
        assert main(["lambda", "[2]"]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_parse_error(self, capsys):
        assert main(["lambda", "[2,1]"]) == 2


class TestSeries:
    def test_small(self, capsys):
        assert main(["series", "--p", "2", "--horizon", "1"]) == 0
        out = capsys.readouterr().out
        assert "truncated_sum 2.5" in out
        assert "verdict PASS" in out

    def test_bounded(self, capsys):
        assert main(["series", "--p", "2", "--horizon", "12"]) == 0
        out = capsys.readouterr().out
        truncated = float(out.splitlines()[0].split()[1])
        bound = float([l for l in out.splitlines() if l.startswith("bound")][0].split()[1])
        assert truncated <= bound <= 5.1811

    def test_cubic(self, capsys):
        assert main(["series", "--p", "3", "--horizon", "8"]) == 0
        assert "verdict PASS" in capsys.readouterr().out

    def test_no_bound_mode(self, capsys):
        assert main(["series", "--p", "0.8", "--horizon", "4"]) == 0
        assert "no-bound mode" in capsys.readouterr().out

    @pytest.mark.parametrize("p", ["nan", "0", "-1"])
    def test_exponent_not_positive_is_input_error(self, p, capsys):
        assert main(["series", "--p", p, "--horizon", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: series exponent must be positive")

    @pytest.mark.parametrize("p", ["1.0001", "1.000000001"])
    def test_overflowing_bound_is_one_error_line(self, p, capsys):
        # exp(zeta(p)) passes the float range just above p = 1: nothing is
        # printed before the error.
        assert main(["series", "--p", p, "--horizon", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: upper bound at p={p} overflows the float range\n"

    def test_infinite_exponent(self, capsys):
        assert main(["series", "--p", "inf", "--horizon", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "truncated_sum 2", "factorized_oracle 2", "bound 2.7182818284590451",
            "verdict PASS"]


class TestExpandSynthesize:
    def test_constant_expands_to_single_coefficient(self, tmp_path, capsys):
        src = tmp_path / "f.json"
        write_json(src, constant(SampleSpace(3)).to_json_dict())
        assert main(["expand", "--in", str(src)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coefficients"] == [{"im": 0.0, "re": 1.0, "sigma": []}]

    def test_product_pair(self, tmp_path, capsys):
        sp = SampleSpace(2)
        f = RandomFunctional(sp, sp.signs(0) * sp.signs(1))
        src = tmp_path / "f.json"
        write_json(src, f.to_json_dict())
        assert main(["expand", "--in", str(src)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["coefficients"] == [{"im": 0.0, "re": 1.0, "sigma": [0, 1]}]

    def test_roundtrip(self, tmp_path):
        sp = SampleSpace(4)
        f = random_functional(sp, 55)
        a, b, c = (tmp_path / n for n in ("f.json", "c.json", "g.json"))
        write_json(a, f.to_json_dict())
        assert main(["expand", "--in", str(a), "--out", str(b)]) == 0
        assert main(["synthesize", "--in", str(b), "--horizon", "4",
                     "--out", str(c)]) == 0
        back = RandomFunctional.from_json_dict(json.loads(c.read_text()))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12

    def test_byte_identical_reruns(self, tmp_path):
        src = tmp_path / "f.json"
        write_json(src, random_functional(SampleSpace(3), 7).to_json_dict())
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["expand", "--in", str(src), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file(self, capsys):
        assert main(["expand", "--in", "/nonexistent.json"]) == 2


class TestMartingaleCheck:
    def test_indicator_sequence_passes(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        seq = FunctionalSequence([indicator_functional(n) for n in range(5)])
        write_json(src, seq.to_json_dict())
        assert main(["martingale-check", "--in", str(src), "--tol", "0"]) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_corrupted_term_fails_with_witness(self, tmp_path, capsys):
        terms = [indicator_functional(n) for n in range(5)]
        terms[2] = FockCoefficients({FiniteSubset.from_elements([4]): 9.0})
        src = tmp_path / "seq.json"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        assert main(["martingale-check", "--in", str(src), "--tol", "0",
                     "--horizon", "4"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert "witness" in report


class TestConverge:
    def test_indicator_sequence_converges(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        seq = FunctionalSequence([indicator_functional(n) for n in range(7)])
        write_json(src, seq.to_json_dict())
        csv_path = tmp_path / "diag.csv"
        assert main(["converge", "--in", str(src), "--tol", "0",
                     "--csv", str(csv_path)]) == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "CONVERGED"
        assert verdict["certificate"] == {"order": 0.0, "scale": 1.0}
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 128
        assert rows[0]["sup_abs"] == "1"
        # Empty set, singletons and multi-element subsets, in mask order,
        # each written exactly as json.dumps writes the subset's array.
        assert [r["sigma"] for r in rows] == [
            json.dumps(FiniteSubset(m).to_json()) for m in range(128)]

    # Per template, coefficients {mask: value} of a truncation martingale or
    # of every term of a table sequence; each is cut to the domain.
    CSV_TEMPLATES = {
        # CONVERGED with order 1: the margin at mask 4 is -1.8e-15.
        "negative-margin": ("martingale", {4: 10.1, 7: 15.15, 1: 5e-324, 2: 0.5j}),
        # At max_index 2 the order-1 bound scale * weight overflows: exit 2.
        "huge": ("martingale", {4: 1e308, 7: 1.5e308, 1: 5e-324, 3: -2.0}),
        "diverged": ("terms", lambda n: {0: float((n + 1) ** 3), 1: 5e-324, 3: 1e308}),
        "inconclusive": ("terms", lambda n: {0: 1.0 + 0.5 * (-1) ** n, 2: 1e308}),
    }

    @staticmethod
    def csv_reference(rows) -> bytes:
        buffer = io.StringIO(newline="")
        writer = csv.writer(buffer)
        writer.writerow(["sigma", "stabilization_index", "sup_abs", "certificate_margin"])
        for row in rows:
            writer.writerow([json.dumps(row.sigma.to_json()), row.stabilization_index,
                             "%.17g" % row.sup_abs, "%.17g" % row.certificate_margin])
        return buffer.getvalue().encode()

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        statuses, margins, overflowed = set(), [], []
        for max_index in range(7):
            for name, (kind, coefficients) in self.CSV_TEMPLATES.items():
                if kind == "martingale":
                    phi = FockCoefficients({FiniteSubset(m): v for m, v in
                                            coefficients.items() if m < 2 << max_index})
                    seq = approximation_sequence(phi, max(max_index, 2))
                else:
                    seq = FunctionalSequence([
                        FockCoefficients({FiniteSubset(m): v for m, v in
                                          coefficients(n).items() if m < 2 << max_index},
                                         support_bound=max_index)
                        for n in range(12)])
                data = seq.to_json_dict()
                top = list(range(max_index + 1))
                for term in data["terms"]:  # an explicit -0.0 at the top mask
                    if (term["support_bound"] == max_index
                            and all(row["sigma"] != top for row in term["coefficients"])):
                        term["coefficients"].append({"sigma": top, "re": -0.0, "im": -0.0})
                src, out, csv_path = (tmp_path / f"{name}{max_index}.{ext}"
                                      for ext in ("json", "out.json", "csv"))
                write_json(src, data)
                code = main(["converge", "--in", str(src), "--horizon", str(max_index),
                             "--out", str(out), "--csv", str(csv_path)])
                try:
                    verdict = strong_convergence_test(
                        FunctionalSequence.from_json_dict(data), TruncatedDomain(max_index))
                except ValueError as exc:
                    assert "overflows" in str(exc)
                    assert code == 2 and not out.exists() and not csv_path.exists()
                    overflowed.append((name, max_index))
                    continue
                assert code == (0 if verdict.status.value == "CONVERGED" else 1)
                assert csv_path.read_bytes() == self.csv_reference(verdict.diagnostics)
                statuses.add(verdict.status.value)
                margins.extend(verdict.diagnostics.certificate_margin.tolist())
        assert statuses == {"CONVERGED", "DIVERGED", "INCONCLUSIVE"}
        assert any(m < 0 for m in margins) and any(m > 0 for m in margins)
        assert all(math.isfinite(m) or math.isnan(m) for m in margins)
        assert any(math.isnan(m) for m in margins)
        assert overflowed == [("huge", 2)]

    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_csv_blocks_and_high_bits_match_csv_writer(self, block, tmp_path):
        # sigma texts past the 2^10 low-bit table, written a few masks at a time
        rng = np.random.default_rng(block)
        for max_index in (0, 9, 11):
            n = 2 << max_index
            margins = rng.standard_normal(n)
            margins[::7] = math.nan
            diagnostics = SigmaDiagnostics(rng.integers(0, 12, n), rng.random(n) * 1e300,
                                           margins)
            path = tmp_path / f"diag{max_index}.csv"
            with mock.patch.object(formats, "BLOCK_ROWS", block):
                formats.write_all([(str(path), formats.diagnostics_csv(diagnostics))])
            assert path.read_bytes() == self.csv_reference(diagnostics)

    def test_diverging_sequence(self, tmp_path, capsys):
        terms = [FockCoefficients({FiniteSubset(0): float(n)}, support_bound=2)
                 for n in range(12)]
        src = tmp_path / "seq.json"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        assert main(["converge", "--in", str(src)]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "DIVERGED"
        assert verdict["witness"]["sigma"] == []

    def test_overflowing_growth_bound_is_one_error_line(self, tmp_path, capsys):
        phi = FockCoefficients({FiniteSubset.from_elements([2]): 1e308,
                                FiniteSubset.from_elements([0, 1, 2]): 1.5e308})
        src, csv_path = tmp_path / "seq.json", tmp_path / "diag.csv"
        write_json(src, approximation_sequence(phi, 4).to_json_dict())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["converge", "--in", str(src), "--csv", str(csv_path)])
        assert code == 2 and caught == []
        captured = capsys.readouterr()
        assert captured.out == "" and not csv_path.exists()
        assert captured.err.startswith("error: growth bound ")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")

    def test_overflowing_divergence_bound_is_silent(self, tmp_path):
        # The scan's bound c * weight^p overflows to inf at the weights of
        # this domain; nothing exceeds an infinite bound, and no warning is
        # printed for it.
        terms = [FockCoefficients({FiniteSubset(0): float((n + 1) ** 3),
                                   FiniteSubset.from_elements([0, 1]): 1e308})
                 for n in range(12)]
        src = tmp_path / "seq.json"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        done = run_fresh("converge", "--in", str(src))
        assert done.returncode == 1 and done.stderr == ""
        assert json.loads(done.stdout) == {"status": "INCONCLUSIVE", "tail_start": 7}

    def test_pgrid_must_be_ascending(self, tmp_path, capsys):
        src = tmp_path / "seq.json"
        write_json(src, approximation_sequence(indicator_functional(2), 3).to_json_dict())
        with pytest.raises(SystemExit) as done:
            main(["converge", "--in", str(src), "--pgrid=2,1"])
        assert done.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("argument --pgrid: p-grid must be ascending\n")

    @pytest.mark.parametrize("pgrid", ["inf", "0,nan", "-1,0"])
    def test_growth_orders_must_be_finite_and_nonnegative(self, pgrid, tmp_path, capsys):
        src = tmp_path / "seq.json"
        write_json(src, approximation_sequence(indicator_functional(2), 3).to_json_dict())
        assert main(["converge", "--in", str(src), f"--pgrid={pgrid}"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: growth orders must be finite and nonnegative\n"

    def test_overflowing_differences_are_silent(self, tmp_path):
        # Consecutive terms at -1e308 and 1e308 differ by more than the float
        # range; an infinite difference exceeds every tol.
        terms = [FockCoefficients({FiniteSubset(0): (-1.0) ** n * 1e308}, support_bound=1)
                 for n in range(4)]
        src = tmp_path / "seq.json"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        for command in ("converge", "martingale-check"):
            done = run_fresh(command, "--in", str(src))
            assert done.returncode == 1 and done.stderr == ""


    def test_overflowing_magnitude_is_one_error_line(self, tmp_path):
        # |1.5e308 + 1.5e308i| overflows to inf, and np.abs raises no flag
        # for it: numpy warnings, then a non-JSON inf or a NaN comparison,
        # before the magnitudes were checked.
        terms = [FockCoefficients({FiniteSubset(0): complex(1.5e308, 1.5e308)},
                                  support_bound=1)] * 3
        src, out, csv_path = tmp_path / "seq.json", tmp_path / "out.json", tmp_path / "d.csv"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        done = run_fresh("converge", "--in", str(src), "--out", str(out), "--csv", str(csv_path))
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("error: coefficient magnitude of term 0 at FiniteSubset({}) "
                               "overflows the float range\n")
        assert not out.exists() and not csv_path.exists()

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tol_must_be_finite_and_nonnegative(self, tol, tmp_path, capsys):
        # With the default tol this sequence is DIVERGED (exit 1); a NaN or
        # infinite tol used to pass it as CONVERGED with exit 0.
        terms = [FockCoefficients({FiniteSubset(0): float((n + 1) ** 3)}, support_bound=2)
                 for n in range(12)]
        src, out = tmp_path / "seq.json", tmp_path / "out.json"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        for command in ("converge", "martingale-check"):
            assert main([command, "--in", str(src), f"--tol={tol}", "--out", str(out)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and not out.exists()
            assert captured.err == f"error: tol must be finite and nonnegative, got {float(tol)}\n"


class TestOutputFiles:
    @staticmethod
    def file_argv(command, tmp_path):
        """argv of a passing call of command on tmp_path/in.json, which it writes."""
        src = tmp_path / "in.json"
        if command == "expand":
            write_json(src, random_functional(SampleSpace(3), 1).to_json_dict())
            return ["expand", "--in", str(src)]
        if command in ("synthesize", "approx"):
            write_json(src, indicator_functional(2).to_json_dict())
            return [command, "--in", str(src), *(["--n", "1"] if command == "approx" else [])]
        terms = [indicator_functional(n) for n in range(4)]
        write_json(src, FunctionalSequence(terms).to_json_dict())
        return [command, "--in", str(src)]

    @pytest.mark.parametrize("command", ["approx", "converge"])
    @pytest.mark.parametrize("missing", ["--csv", "--out"])
    def test_two_outputs_are_written_or_neither(self, command, missing, tmp_path, capsys):
        argv = self.file_argv(command, tmp_path)
        paths = {"--out": tmp_path / "a.json", "--csv": tmp_path / "r.csv"}
        unwritable = {**paths, missing: tmp_path / "missing" / "dir" / "file"}
        assert main([*argv, *(str(x) for item in unwritable.items() for x in item)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]
        # Both land once both can be written, and no temporary file is left.
        assert main([*argv, *(str(x) for item in paths.items() for x in item)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "in.json", "r.csv"]

    @pytest.mark.parametrize("command", ["approx", "converge"])
    def test_an_unwritable_csv_is_named_as_given(self, command, tmp_path, capsys, monkeypatch):
        # Without --out the document goes to stdout, after the --csv file:
        # nothing is printed, and the error names the relative path given,
        # not the temporary file beside its absolute target.
        argv = self.file_argv(command, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main([*argv, "--csv", os.path.join("missing", "r.csv")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: [Errno 2] No such file or directory: "
                                f"{os.path.join('missing', 'r.csv')!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json"]

    @pytest.mark.parametrize(
        "command", ["expand", "synthesize", "martingale-check", "converge", "approx"])
    def test_a_write_that_fails_midway_keeps_the_old_files(self, command, tmp_path, capsys):
        # Every document is streamed from formats.canonical: its first
        # string is written, then the disk fills.  The files named keep their
        # old bytes, and no temporary file is left.
        argv = self.file_argv(command, tmp_path)
        paths = {"--out": tmp_path / "out.json"}
        if command in ("approx", "converge"):
            paths["--csv"] = tmp_path / "r.csv"
        for path in paths.values():
            path.write_text("old\n")
        canonical = formats.canonical

        def failing(doc):
            strings = canonical(doc)
            yield next(strings)
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        with mock.patch.object(formats, "canonical", failing):
            assert main([*argv, *(str(x) for item in paths.items() for x in item)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n"
        assert all(path.read_text() == "old\n" for path in paths.values())
        assert len(list(tmp_path.iterdir())) == 1 + len(paths)
        # Unpatched, the same call replaces them.
        assert main([*argv, *(str(x) for item in paths.items() for x in item)]) in (0, 1)
        assert all(path.read_text() != "old\n" for path in paths.values())

    @pytest.mark.parametrize("command", ["approx", "converge"])
    def test_two_outputs_naming_one_file_are_refused(self, command, tmp_path, capsys):
        argv = self.file_argv(command, tmp_path)
        (tmp_path / "link").symlink_to(tmp_path / "x")
        for out, csv_path in (("x", "x"), ("x", "./x"), ("link", "x")):
            assert main([*argv, "--out", os.path.join(tmp_path, out),
                         "--csv", os.path.join(tmp_path, csv_path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert captured.err.startswith("error: ")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["in.json", "link"]
        # A device is written in place, not staged, so it may be named twice.
        assert main([*argv, "--out", os.devnull, "--csv", os.devnull]) == 0

    def test_links_and_special_files_are_written_through(self, tmp_path):
        # A symlink keeps pointing at its target, which gets the bytes; a pipe
        # is written in place, never replaced by a regular file.
        src, real, link = tmp_path / "in.json", tmp_path / "real.json", tmp_path / "link.json"
        write_json(src, indicator_functional(2).to_json_dict())
        link.symlink_to(real)
        argv = ["approx", "--in", str(src), "--n", "1"]
        assert main([*argv, "--out", str(link), "--csv", str(tmp_path / "r.csv")]) == 0
        assert link.is_symlink() and json.loads(real.read_text())["support_bound"] == 2
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        read = []
        reader = threading.Thread(target=lambda: read.append(pipe.read_text()), daemon=True)
        reader.start()
        assert main([*argv, "--out", str(pipe), "--csv", str(tmp_path / "r.csv")]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive() and read == [real.read_text()]
        assert stat.S_ISFIFO(os.lstat(pipe).st_mode)


class TestApprox:
    def test_residual_curve_decreases(self, tmp_path, capsys):
        phi = all_ones().restricted(TruncatedDomain(6))
        src = tmp_path / "phi.json"
        write_json(src, phi.to_json_dict())
        csv_path = tmp_path / "resid.csv"
        out = tmp_path / "approx.json"
        assert main(["approx", "--in", str(src), "--n", "6", "--q", "1",
                     "--out", str(out), "--csv", str(csv_path)]) == 0
        with open(csv_path) as handle:
            residuals = [float(r["residual"]) for r in csv.DictReader(handle)]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] == 0.0

    def test_identity_on_truncation(self, tmp_path):
        phi = FockCoefficients({FiniteSubset(0): 2.0, FiniteSubset(5): -1.0})
        src = tmp_path / "phi.json"
        out = tmp_path / "approx.json"
        write_json(src, phi.to_json_dict())
        assert main(["approx", "--in", str(src), "--n", "2", "--out", str(out)]) == 0
        approx = FockCoefficients.from_json_dict(json.loads(out.read_text()))
        assert approx.equal_on(phi, TruncatedDomain(2), tol=0.0)

    def test_level_outside_the_index_range_is_input_error(self, tmp_path, capsys):
        # A level is a domain index: 0..63, whatever the memory.
        src = tmp_path / "phi.json"
        write_json(src, FockCoefficients({FiniteSubset(5): 1.0}).to_json_dict())
        for level in (-1, 64):
            assert main(["approx", "--in", str(src), "--n", str(level)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: max_index must lie in 0..63, got {level}\n"
        for level in (21, 63):
            assert main(["approx", "--in", str(src), "--n", str(level), "--csv",
                         str(tmp_path / "r.csv")]) == 0
            doc = json.loads(capsys.readouterr().out)
            assert doc["support_bound"] == 2
            assert doc["coefficients"] == [{"sigma": [0, 2], "re": 1.0, "im": 0.0}]
            with open(tmp_path / "r.csv") as handle:
                residuals = [float(row["residual"]) for row in csv.DictReader(handle)]
            assert residuals == [1 / 3, 1 / 3] + [0.0] * (level - 1)

    def test_a_sparse_table_at_horizon_39(self, tmp_path, capsys):
        # Its approximant at level 39 allocates nothing domain-sized: both
        # rows are written.  Its residuals plan 8 bytes per mask over 2^40
        # masks, which plan refuses on one line.
        src = tmp_path / "phi.json"
        write_json(src, FockCoefficients({FiniteSubset.from_elements([0, 2, 39]): 2.0,
                                          FiniteSubset.from_elements([0, 1]): 1j}).to_json_dict())
        assert main(["approx", "--in", str(src), "--n", "39"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["support_bound"] == 39
        assert doc["coefficients"] == [{"sigma": [0, 1], "re": 0.0, "im": 1.0},
                                       {"sigma": [0, 2, 39], "re": 2.0, "im": 0.0}]
        csv_path = tmp_path / "r.csv"
        assert main(["approx", "--in", str(src), "--n", "39", "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not csv_path.exists()
        assert captured.err == ("error: 2^40 subsets at 8 bytes each need 8796093022208 bytes, "
                                "over the memory budget of 268435456 bytes\n")

    def test_overflowing_residual_is_one_error_line(self, tmp_path):
        # 1e200 squares past the float range: one error line, no inf
        # residuals and no warning.
        phi = FockCoefficients({FiniteSubset.from_elements([3]): 1e200, FiniteSubset(0): 1.0})
        src, csv_path = tmp_path / "phi.json", tmp_path / "resid.csv"
        write_json(src, phi.to_json_dict())
        done = run_fresh("approx", "--in", str(src), "--n", "1", "--csv", str(csv_path))
        assert done.returncode == 2 and not csv_path.exists()
        assert done.stderr == ("error: a residual term or sum at order q=1.0 overflows "
                               "the float range\n")

    def test_an_infinite_magnitude_in_a_dense_sum_is_one_error(self, tmp_path, capsys):
        # |1.7e308 (1+i)| passes the float range in np.abs, which raises no
        # float flag; the dense sums refuse the infinite sum themselves.
        phi = FockCoefficients({FiniteSubset.from_elements([1]): 1.7e308 + 1.7e308j,
                                FiniteSubset.from_elements([0, 1]): 1.0}, support_bound=1)
        domain = TruncatedDomain(1)
        src, csv_path = tmp_path / "big.json", tmp_path / "r.csv"
        write_json(src, phi.to_json_dict())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError):
                approximation_residual(phi, 0, 1.0, domain)
            with pytest.raises(ValueError):
                residual_curve(phi, 1, 1.0, domain)
            assert main(["approx", "--in", str(src), "--n", "0", "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not csv_path.exists()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("q, value", [("0.5", 2.0), ("nan", 2.0), ("1", 1e200)])
    def test_failing_residuals_write_nothing(self, q, value, tmp_path, capsys):
        # The residuals are computed before the approximant is written, so a
        # refused order or an overflow leaves neither file behind.
        phi = FockCoefficients({FiniteSubset.from_elements([3]): value, FiniteSubset(0): 1.0})
        src, out, csv_path = tmp_path / "phi.json", tmp_path / "a.json", tmp_path / "r.csv"
        write_json(src, phi.to_json_dict())
        for extra in ([], ["--out", str(out)]):
            assert main(["approx", "--in", str(src), "--n", "1", "--q", q,
                         "--csv", str(csv_path), *extra]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1
            assert not out.exists() and not csv_path.exists()

    def test_explicit_zero_rows_change_no_byte(self, tmp_path):
        rows = [([0], 1.0), ([1, 3], -2.0), ([2], 0.5)]
        zeros = [([], 0.0), ([0, 1], 0.0), ([3], -0.0)]
        written = []
        for name, table in (("plain", rows), ("zeros", zeros[:1] + rows + zeros[1:])):
            src, out, csv_path = (tmp_path / f"{name}{suffix}" for suffix in
                                  (".json", ".out.json", ".csv"))
            write_json(src, {"format": "fock-coefficients/v1", "support_bound": 3,
                             "coefficients": [{"sigma": s, "re": v, "im": 0.0}
                                              for s, v in table]})
            assert main(["approx", "--in", str(src), "--n", "3", "--q", "1",
                         "--out", str(out), "--csv", str(csv_path)]) == 0
            written.append((out.read_bytes(), csv_path.read_bytes()))
        assert written[0] == written[1]
        assert len(json.loads(written[0][0])["coefficients"]) == len(rows)

    def test_single_coefficient_residual_hits_zero(self, tmp_path):
        phi = FockCoefficients({FiniteSubset.from_elements([3]): 1.0})
        src = tmp_path / "phi.json"
        csv_path = tmp_path / "resid.csv"
        write_json(src, phi.to_json_dict())
        assert main(["approx", "--in", str(src), "--n", "4", "--q", "1",
                     "--horizon", "4", "--csv", str(csv_path)]) == 0
        with open(csv_path) as handle:
            residuals = [float(r["residual"]) for r in csv.DictReader(handle)]
        assert residuals[2] > 0
        assert residuals[3] == residuals[4] == 0.0


class TestParser:
    # Every subcommand's option strings, and what parse_args gives for its
    # required arguments alone.
    INVENTORY = {
        "lambda": (set(), ["[]"], {"sigma": "[]"}),
        "series": ({"--p", "--horizon"}, ["--p", "2", "--horizon", "3"],
                   {"p": 2.0, "horizon": 3}),
        "expand": ({"--in", "--out"}, ["--in", "f"], {"input": "f", "out": None}),
        "synthesize": ({"--in", "--out", "--horizon"}, ["--in", "f"],
                       {"input": "f", "out": None, "horizon": None}),
        "martingale-check": ({"--in", "--out", "--horizon", "--tol"}, ["--in", "f"],
                             {"input": "f", "out": None, "horizon": None, "tol": 1e-9}),
        "converge": ({"--in", "--out", "--horizon", "--tol", "--pgrid", "--csv"},
                     ["--in", "f"], {"input": "f", "out": None, "horizon": None,
                                     "tol": 1e-9, "pgrid": (0.0, 1.0, 2.0), "csv": None}),
        "approx": ({"--in", "--out", "--horizon", "--n", "--q", "--csv"},
                   ["--in", "f", "--n", "2"], {"input": "f", "out": None, "horizon": None,
                                                "level": 2, "q": 1.0, "csv": None}),
    }

    def test_every_subcommand_accepts_its_options_with_their_defaults(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if a.dest == "command").choices
        assert set(commands) == set(self.INVENTORY)
        for name, (options, argv, defaults) in self.INVENTORY.items():
            accepted = {s for a in commands[name]._actions for s in a.option_strings}
            assert accepted == options | {"-h", "--help"}, name
            parsed = vars(parser.parse_args([name, *argv]))
            assert parsed.pop("command") == name
            assert parsed.pop("func") is getattr(cli, "cmd_" + name.replace("-", "_"))
            if "pgrid" in parsed:
                parsed["pgrid"] = tuple(parsed["pgrid"])
            assert parsed == defaults, name

    def test_required_options(self, capsys):
        for argv in (["series", "--p", "2"], ["expand"], ["approx", "--in", "f"]):
            with pytest.raises(SystemExit) as exit_:
                cli.build_parser().parse_args(argv)
            assert exit_.value.code == 2
        assert capsys.readouterr().err.count("the following arguments are required") == 3

import csv
import io
import json
import math

import numpy as np
import pytest

from martfock.cli import main
from martfock.convolution import all_ones, approximation_sequence, indicator_functional
from martfock.functionals import FockCoefficients
from martfock.rademacher import RandomFunctional, SampleSpace, constant, random_functional
from martfock.sequences import FunctionalSequence, strong_convergence_test
from martfock.subsets import FiniteSubset, TruncatedDomain


def write_json(path, data):
    path.write_text(json.dumps(data))


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
        # CONVERGED with infinite margins where scale * weight overflows.
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

    # bound_at overflows to inf on the "huge" template (see CHANGES.md).
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_csv_bytes_match_csv_writer(self, tmp_path):
        statuses, margins = set(), []
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
                verdict = strong_convergence_test(
                    FunctionalSequence.from_json_dict(data), TruncatedDomain(max_index))
                assert code == (0 if verdict.status.value == "CONVERGED" else 1)
                assert csv_path.read_bytes() == self.csv_reference(verdict.diagnostics)
                statuses.add(verdict.status.value)
                margins.extend(verdict.diagnostics.certificate_margin.tolist())
        assert statuses == {"CONVERGED", "DIVERGED", "INCONCLUSIVE"}
        assert any(m < 0 for m in margins) and any(m > 0 for m in margins)
        assert any(math.isnan(m) for m in margins) and math.inf in margins

    def test_diverging_sequence(self, tmp_path, capsys):
        terms = [FockCoefficients({FiniteSubset(0): float(n)}, support_bound=2)
                 for n in range(12)]
        src = tmp_path / "seq.json"
        write_json(src, FunctionalSequence(terms).to_json_dict())
        assert main(["converge", "--in", str(src)]) == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["status"] == "DIVERGED"
        assert verdict["witness"]["sigma"] == []


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

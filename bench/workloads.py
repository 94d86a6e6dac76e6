"""The benchmark's four workloads.

Each workload makes its inputs from a seed, writes them as the files the
CLI reads, and builds the same inputs as API objects for the in-process
pass.  It names the CLI calls of one pass, and checks each call's output
files and each in-process result against the independent computations in
`oracles`.  `lib_repeats` is the number of API passes per round: fixed per
workload, so every run has the same mix of operations, and sized to about
a second of work.  Import this module only after `src/` is on `sys.path`.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import martfock as mf
from oracles import (
    CheckFailed,
    check_approximant,
    check_converged,
    check_diverged,
    check_expansion,
    check_residuals,
    check_roundtrip,
    mask_of,
    require,
    walsh_coefficient,
    walsh_transform,
)

FOCK_FORMAT = "fock-coefficients/v1"
SAMPLE_FORMAT = "random-functional/v1"
SEQUENCE_FORMAT = "fock-sequence/v1"
SAMPLED_COEFFICIENTS = 64


@dataclass(frozen=True)
class Call:
    """One CLI invocation: arguments after `martfock`, the exit code that
    counts as success, and the files it reads and writes."""

    argv: list[str]
    expect_exit: int
    inputs: tuple[Path, ...]
    outputs: tuple[Path, ...]


def rng_for(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def complex_gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def write_json(path: Path, data: dict) -> None:
    path.write_text(json.dumps(data, separators=(",", ":")))


def read_json(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{path.name}: unreadable output ({exc})") from None


def read_csv(path: Path, header: list[str]) -> list[list[str]]:
    try:
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
    except OSError as exc:
        raise CheckFailed(f"{path.name}: unreadable output ({exc})") from None
    require(rows and rows[0] == header, f"{path.name}: header {rows[:1]!r}")
    return rows[1:]


def coefficient_rows(masks: np.ndarray, values: np.ndarray) -> list[dict]:
    return [
        {"sigma": [k for k in range(m.bit_length()) if m >> k & 1],
         "re": v.real, "im": v.imag}
        for m, v in zip(masks.tolist(), values.tolist())
    ]


def fock_file(masks: np.ndarray, values: np.ndarray, support_bound: int) -> dict:
    return {"format": FOCK_FORMAT, "support_bound": support_bound,
            "coefficients": coefficient_rows(masks, values)}


def fock_object(masks: np.ndarray, values: np.ndarray, support_bound: int):
    table = {mf.FiniteSubset(m): complex(v)
             for m, v in zip(masks.tolist(), values.tolist())}
    return mf.FockCoefficients(table=table, support_bound=support_bound)


def file_coefficients(data: dict) -> tuple[np.ndarray, np.ndarray]:
    """(masks, values) of a fock-coefficients/v1 document, in file order."""
    require(data.get("format") == FOCK_FORMAT, f"format {data.get('format')!r}")
    rows = data["coefficients"]
    masks = np.array([mask_of(r["sigma"]) for r in rows], dtype=np.int64)
    values = np.array([complex(r["re"], r["im"]) for r in rows], dtype=np.complex128)
    return masks, values


def table_coefficients(phi) -> tuple[np.ndarray, np.ndarray]:
    """(masks, values) of a table-backed functional, ascending, zeros dropped."""
    items = sorted((s.mask, v) for s, v in phi.table_items() if v != 0)
    masks = np.array([m for m, _ in items], dtype=np.int64)
    values = np.array([v for _, v in items], dtype=np.complex128)
    return masks, values


def diagnostic_columns(rows: list[list[str]]):
    """(masks, stabilisation index, sup_abs, margin) of a converge CSV."""
    masks = np.array([mask_of(json.loads(r[0])) for r in rows], dtype=np.int64)
    stab = np.array([int(r[1]) for r in rows], dtype=np.int64)
    sup_abs = np.array([float(r[2]) for r in rows])
    margin = np.array([float(r[3]) for r in rows])
    return masks, stab, sup_abs, margin


def verdict_columns(verdict):
    rows = verdict.diagnostics
    return (np.array([d.sigma.mask for d in rows], dtype=np.int64),
            np.array([d.stabilization_index for d in rows], dtype=np.int64),
            np.array([d.sup_abs for d in rows]),
            np.array([d.certificate_margin for d in rows]))


class ChaosRoundtrip:
    """expand then synthesize a dense seeded sample file: every coefficient
    is nonzero, so per-subset objects and JSON rows dominate."""

    name = "chaos-roundtrip"
    horizon = 15
    lib_repeats = 8

    def __init__(self, seed: int, work: Path):
        rng = rng_for(seed, self.name)
        size = 1 << (self.horizon + 1)
        self.f = complex_gaussian(rng, size)
        self.samples = np.sort(rng.choice(size, SAMPLED_COEFFICIENTS, replace=False))
        f_path, c_path, g_path = work / "f.json", work / "c.json", work / "g.json"
        write_json(f_path, {
            "format": SAMPLE_FORMAT, "horizon": self.horizon,
            "values": [{"re": v.real, "im": v.imag} for v in self.f.tolist()],
        })
        self.calls = [
            Call(["expand", "--in", str(f_path), "--out", str(c_path)], 0,
                 (f_path,), (c_path,)),
            Call(["synthesize", "--in", str(c_path), "--out", str(g_path)], 0,
                 (c_path,), (g_path,)),
        ]
        self.space = mf.SampleSpace(self.horizon)
        self.functional = mf.RandomFunctional(self.space, self.f)

    def check_call(self, index: int) -> None:
        if index == 0:
            masks, values = file_coefficients(read_json(self.calls[0].outputs[0]))
            check_expansion(self.f, masks, values, self.samples)
        else:
            data = read_json(self.calls[1].outputs[0])
            require(data.get("format") == SAMPLE_FORMAT
                    and data.get("horizon") == self.horizon,
                    "synthesized file has the wrong format or horizon")
            g = np.array([complex(v["re"], v["im"]) for v in data["values"]])
            check_roundtrip(self.f, g)

    def lib_pass(self):
        c = mf.chaos_expand(self.functional)
        return c, mf.synthesize(c, self.space)

    def check_lib(self, result) -> None:
        c, g = result
        check_expansion(self.f, *table_coefficients(c), self.samples)
        check_roundtrip(self.f, g.values)


class _Approx:
    """approx --n level --q 1 --csv on one coefficient file."""

    horizon: int
    level: int
    q = 1.0

    def coefficients(self, rng) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def __init__(self, seed: int, work: Path):
        rng = rng_for(seed, self.name)
        self.masks, self.values = self.coefficients(rng)
        self.dense = np.zeros(1 << (self.horizon + 1), dtype=np.complex128)
        self.dense[self.masks] = self.values
        phi_path, out_path, csv_path = work / "phi.json", work / "a.json", work / "r.csv"
        write_json(phi_path, fock_file(self.masks, self.values, self.horizon))
        self.calls = [Call(
            ["approx", "--in", str(phi_path), "--n", str(self.level), "--q", "1",
             "--csv", str(csv_path), "--out", str(out_path)],
            0, (phi_path,), (out_path, csv_path))]
        self.phi = fock_object(self.masks, self.values, self.horizon)
        self.domain = mf.TruncatedDomain(self.horizon)

    def _check(self, support_bound, out_masks, out_values, residuals) -> None:
        require(isinstance(support_bound, int)
                and self.level <= support_bound <= self.horizon,
                f"approximant support bound {support_bound!r}")
        check_approximant(self.masks, self.values, self.level, out_masks, out_values)
        check_residuals(self.dense, self.q, self.level, np.asarray(residuals))

    def check_call(self, index: int) -> None:
        out_path, csv_path = self.calls[0].outputs
        data = read_json(out_path)
        masks, values = file_coefficients(data)
        rows = read_csv(csv_path, ["n", "residual"])
        require([r[0] for r in rows] == [str(n) for n in range(self.level + 1)],
                "residual CSV rows are not n = 0..level in order")
        self._check(data.get("support_bound"), masks, values,
                    [float(r[1]) for r in rows])

    def lib_pass(self):
        approx = mf.approximate(self.phi, self.level).restricted(self.domain)
        residuals = [mf.approximation_residual(self.phi, n, self.q, self.domain)
                     for n in range(self.level + 1)]
        return approx, residuals

    def check_lib(self, result) -> None:
        approx, residuals = result
        self._check(approx.support_bound, *table_coefficients(approx), residuals)


class ApproxDense(_Approx):
    """Every subset of {0..15} carries a coefficient; level 12 keeps 1/8."""

    name = "approx-dense"
    horizon = 15
    level = 12
    lib_repeats = 3

    def coefficients(self, rng):
        size = 1 << (self.horizon + 1)
        return np.arange(size, dtype=np.int64), complex_gaussian(rng, size)


class ApproxSparseWide(_Approx):
    """4,096 nonzeros at horizon 18, half of them inside {0..12}, so level 12
    keeps and drops coefficients while the domain holds 2^19 subsets."""

    name = "approx-sparse-wide"
    horizon = 18
    level = 12
    per_half = 2048
    lib_repeats = 1

    def coefficients(self, rng):
        kept = 1 << (self.level + 1)
        low = rng.choice(kept, self.per_half, replace=False)
        high = kept + rng.choice((1 << (self.horizon + 1)) - kept, self.per_half,
                                 replace=False)
        masks = np.sort(np.concatenate((low, high))).astype(np.int64)
        return masks, complex_gaussian(rng, masks.size)


class ConvergeVerdicts:
    """A classical martingale through martingale-check and converge, and a
    cubically growing non-martingale through converge."""

    name = "converge-verdicts"
    horizon_a = 13
    horizon_b = 12
    # (K / (K - K//3))^3 > 2 = the spread of the support magnitudes, so the
    # smallest-weight supported subset always outgrows every fitted bound.
    terms_b = 24
    support_b = 512
    lib_repeats = 6

    def __init__(self, seed: int, work: Path):
        rng = rng_for(seed, self.name)
        f = complex_gaussian(rng, 1 << (self.horizon_a + 1))
        self.coeffs = walsh_transform(f)
        for sigma in rng.choice(f.size, SAMPLED_COEFFICIENTS, replace=False):
            require(abs(self.coeffs[sigma] - walsh_coefficient(f, int(sigma)))
                    <= 1e-12 * np.max(np.abs(f)), "benchmark Walsh transform")
        masks = np.arange(f.size, dtype=np.int64)
        terms_a = [(masks[: 2 << n], self.coeffs[: 2 << n], n)
                   for n in range(self.horizon_a + 1)]

        domain_b = 1 << (self.horizon_b + 1)
        support = np.sort(rng.choice(domain_b, self.support_b, replace=False))
        base = rng.uniform(1.0, 2.0, support.size) * np.exp(
            2j * np.pi * rng.uniform(size=support.size))
        growth = [base * float((n + 1) ** 3) for n in range(self.terms_b)]
        self.magnitudes_b = np.zeros((self.terms_b, domain_b))
        self.magnitudes_b[:, support] = np.abs(growth)
        terms_b = [(support, values, self.horizon_b) for values in growth]

        seq_a, seq_b = work / "seq_a.json", work / "seq_b.json"
        for path, terms in ((seq_a, terms_a), (seq_b, terms_b)):
            write_json(path, {"format": SEQUENCE_FORMAT,
                              "terms": [fock_file(*t) for t in terms]})
        check = work / "check_a.json"
        conv_a, csv_a = work / "conv_a.json", work / "conv_a.csv"
        conv_b, csv_b = work / "conv_b.json", work / "conv_b.csv"
        self.calls = [
            Call(["martingale-check", "--in", str(seq_a), "--out", str(check)], 0,
                 (seq_a,), (check,)),
            Call(["converge", "--in", str(seq_a), "--csv", str(csv_a),
                  "--out", str(conv_a)], 0, (seq_a,), (conv_a, csv_a)),
            Call(["converge", "--in", str(seq_b), "--csv", str(csv_b),
                  "--out", str(conv_b)], 1, (seq_b,), (conv_b, csv_b)),
        ]
        self.seq_a = mf.FunctionalSequence([fock_object(*t) for t in terms_a])
        self.seq_b = mf.FunctionalSequence([fock_object(*t) for t in terms_b])
        self.domain_a = mf.TruncatedDomain(self.horizon_a)
        self.domain_b = mf.TruncatedDomain(self.horizon_b)

    def _check_converged(self, status, limit_masks, limit_values, scale, order,
                         columns) -> None:
        require(status == "CONVERGED", f"martingale verdict {status!r}")
        require(isinstance(scale, float) and isinstance(order, float),
                f"certificate ({scale!r}, {order!r})")
        masks, stab, sup_abs, margin = columns
        require(np.array_equal(masks, np.arange(self.coeffs.size)),
                "diagnostic rows are not every subset in ascending order")
        check_converged(self.coeffs, limit_masks, limit_values, scale, order,
                        stab, sup_abs, margin)

    def _check_diverged(self, status, witness, tail_start, columns) -> None:
        require(status == "DIVERGED", f"growing sequence verdict {status!r}")
        require(isinstance(tail_start, int), f"tail_start {tail_start!r}")
        masks, stab, sup_abs, _ = columns
        require(np.array_equal(masks, np.arange(self.magnitudes_b.shape[1])),
                "diagnostic rows are not every subset in ascending order")
        check_diverged(self.magnitudes_b, witness, tail_start, stab, sup_abs)

    def check_call(self, index: int) -> None:
        call = self.calls[index]
        data = read_json(call.outputs[0])
        if index == 0:
            require(data.get("passed") is True and data.get("horizon") == self.horizon_a,
                    f"martingale-check report {data!r}")
            return
        columns = diagnostic_columns(read_csv(
            call.outputs[1],
            ["sigma", "stabilization_index", "sup_abs", "certificate_margin"]))
        if index == 1:
            cert = data.get("certificate") or {}
            self._check_converged(data.get("status"),
                                  *file_coefficients(data.get("limit") or {}),
                                  cert.get("scale"), cert.get("order"), columns)
        else:
            witness = (data.get("witness") or {}).get("sigma", [])
            self._check_diverged(data.get("status"), mask_of(witness),
                                 data.get("tail_start"), columns)

    def lib_pass(self):
        passed, _ = mf.is_generalized_martingale(self.seq_a, self.domain_a, 1e-9)
        return (passed,
                mf.strong_convergence_test(self.seq_a, self.domain_a, 1e-9, [0.0, 1.0, 2.0]),
                mf.strong_convergence_test(self.seq_b, self.domain_b, 1e-9, [0.0, 1.0, 2.0]))

    def check_lib(self, result) -> None:
        passed, verdict_a, verdict_b = result
        require(passed is True, "martingale predicate rejected the classical martingale")
        cert = verdict_a.uniform_certificate
        require(verdict_a.limit is not None and cert is not None,
                "converged verdict without limit or certificate")
        self._check_converged(verdict_a.status.value,
                              *table_coefficients(verdict_a.limit),
                              cert.scale, cert.order, verdict_columns(verdict_a))
        require(verdict_b.witness is not None, "diverged verdict without witness")
        self._check_diverged(verdict_b.status.value, verdict_b.witness[0].mask,
                             verdict_b.tail_start, verdict_columns(verdict_b))


WORKLOADS = {w.name: w for w in
             (ChaosRoundtrip, ApproxDense, ApproxSparseWide, ConvergeVerdicts)}

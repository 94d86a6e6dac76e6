"""Command-line front end.

Subcommands wrap the library: subset weights, truncated series with their
factorized oracle and closed bound, chaos expansion / synthesis of sample
files, martingale checking, convergence verdicts, and truncation
approximants with residual curves.

Outputs are deterministic: JSON documents are read and written by formats
(canonical: sorted keys, compact separators), CSV rows in ascending order.
approx and converge write their --out and --csv files both or neither
(formats.staged).  Exit codes: 0 on success (and on a passing verdict), 1 on
a failing verdict, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import formats, subsets
from .convolution import approximate, residual_curve
from .functionals import FockCoefficients
from .rademacher import RandomFunctional, SampleSpace, chaos_expand, synthesize
from .sequences import (
    DEFAULT_P_GRID,
    DEFAULT_TOL,
    ConvergenceStatus,
    FunctionalSequence,
    is_generalized_martingale,
    strong_convergence_test,
)
from .subsets import FiniteSubset, TruncatedDomain

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _parse_pgrid(text: str) -> list[float]:
    grid = [float(x) for x in text.split(",") if x]
    if grid != sorted(grid):
        raise argparse.ArgumentTypeError("p-grid must be ascending")
    return grid


def _horizon(args, bound: int) -> int:
    """--horizon, or else the bound of the input's support."""
    return bound if args.horizon is None else args.horizon


def cmd_lambda(args) -> int:
    try:
        sigma = FiniteSubset.from_json(json.loads(args.sigma))
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    print(subsets.weight(sigma))
    return EXIT_OK


def cmd_series(args) -> int:
    domain = TruncatedDomain(args.horizon)
    truncated = subsets.weighted_series(args.p, domain)
    oracle = subsets.weighted_series_product(args.p, args.horizon)
    print(f"truncated_sum {truncated:.17g}")
    print(f"factorized_oracle {oracle:.17g}")
    ok = abs(truncated - oracle) <= 1e-12 * oracle
    if args.p <= 1:
        print("bound none (no-bound mode: exponent <= 1)")
    else:
        bound = subsets.series_upper_bound(args.p)
        print(f"bound {bound:.17g}")
        ok = ok and truncated <= bound
    print("verdict PASS" if ok else "verdict FAIL")
    return EXIT_OK if ok else EXIT_FAIL


def cmd_expand(args) -> int:
    f = RandomFunctional.from_json_dict(formats.load_json(args.input, sigma=False))
    formats.write(chaos_expand(f).to_document(), args.out)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    c = FockCoefficients.from_json_dict(formats.load_json(args.input, sigma=True))
    f = synthesize(c, SampleSpace(_horizon(args, c.support_bound)))
    formats.write(f.to_document(), args.out)
    return EXIT_OK


def _sequence_domain(seq: FunctionalSequence, args) -> TruncatedDomain:
    # A loaded table always has a support bound.
    return TruncatedDomain(_horizon(args, max(t.support_bound for t in seq.terms)))


def cmd_martingale_check(args) -> int:
    seq = FunctionalSequence.from_json_dict(formats.load_json(args.input, sigma=True))
    domain = _sequence_domain(seq, args)
    ok, witness = is_generalized_martingale(seq, domain, args.tol)
    report = {"passed": ok, "tol": args.tol, "horizon": domain.max_index}
    if witness is not None:
        n, sigma = witness
        report["witness"] = {"term": n, "sigma": sigma.to_json()}
    formats.write(report, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def _write_diagnostics_csv(path: str, diagnostics) -> None:
    """The rows csv.writer writes, BLOCK_ROWS masks at a time: a sigma cell
    is json.dumps of the element list, quoted once it holds a comma."""
    columns = (diagnostics.stabilization_index, diagnostics.sup_abs,
               diagnostics.certificate_margin)
    texts, block = formats.sigma_texts(", "), formats.BLOCK_ROWS
    with open(path, "w", newline="") as handle:
        handle.write("sigma,stabilization_index,sup_abs,certificate_margin\r\n")
        for start in range(0, len(diagnostics), block):
            masks = np.arange(start, min(start + block, len(diagnostics)), dtype=np.uint64)
            rows = zip(texts(masks), *(c[start:start + block].tolist() for c in columns))
            handle.write("".join([
                ('"[%s]",%d,%.17g,%.17g\r\n' if "," in row[0] else "[%s],%d,%.17g,%.17g\r\n")
                % row for row in rows]))


def cmd_converge(args) -> int:
    seq = FunctionalSequence.from_json_dict(formats.load_json(args.input, sigma=True))
    domain = _sequence_domain(seq, args)
    verdict = strong_convergence_test(seq, domain, args.tol, args.pgrid)
    with formats.staged(args.out, args.csv) as (out, csv):
        formats.write(verdict.to_document(), out)
        if csv:
            _write_diagnostics_csv(csv, verdict.diagnostics)
    return EXIT_OK if verdict.status is ConvergenceStatus.CONVERGED else EXIT_FAIL


def cmd_approx(args) -> int:
    phi = FockCoefficients.from_json_dict(formats.load_json(args.input, sigma=True))
    domain = TruncatedDomain(_horizon(args, phi.support_bound))
    approx = approximate(phi, args.level).restricted(domain)
    # The residuals come first, so a call that fails on them writes nothing.
    curve = residual_curve(phi, args.level, args.q, domain) if args.csv else None
    with formats.staged(args.out, args.csv) as (out, csv):
        formats.write(approx.to_document(), out)
        if csv:
            Path(csv).write_text("n,residual\r\n" + "".join(
                "%d,%.17g\r\n" % row for row in enumerate(curve)), newline="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martfock", description="Fock-coefficient calculus on the Rademacher cube.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The options the file commands share.
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--in", dest="input", required=True)
    files.add_argument("--out")
    bounded = argparse.ArgumentParser(add_help=False, parents=[files])
    bounded.add_argument("--horizon", type=int)
    checked = argparse.ArgumentParser(add_help=False, parents=[bounded])
    checked.add_argument("--tol", type=float, default=DEFAULT_TOL)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(func=func)
        return p

    p = command("lambda", cmd_lambda, "weight of a subset, given as a JSON array")
    p.add_argument("sigma", help='e.g. "[0,1,3]"')
    p = command("series", cmd_series, "truncated weighted series vs its oracles")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    command("expand", cmd_expand, "chaos-expand a random-functional file", files)
    command("synthesize", cmd_synthesize, "rebuild sample values from coefficients", bounded)
    command("martingale-check", cmd_martingale_check, "truncation-martingale predicate", checked)
    p = command("converge", cmd_converge, "strong-convergence verdict for a sequence", checked)
    p.add_argument("--pgrid", type=_parse_pgrid, default=DEFAULT_P_GRID)
    p.add_argument("--csv", help="per-subset diagnostics CSV")
    p = command("approx", cmd_approx, "truncation approximant and residual curve", bounded)
    p.add_argument("--n", dest="level", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--csv", help="residual curve CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

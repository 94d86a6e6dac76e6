"""Command-line front end.

Subcommands wrap the library: subset weights, truncated series with their
factorized oracle and closed bound, chaos expansion / synthesis of sample
files, martingale checking, convergence verdicts, and truncation
approximants with residual curves.

Each cmd_* computes: it returns its exit code and its outputs, each a path
(None for stdout) and the strings to write there, and writes nothing.  main
hands the outputs to formats.write_all, which writes every file or none and
stdout only once every file is complete, so a call that exits 2 prints
nothing on stdout and leaves no output file.  Outputs are deterministic:
JSON documents are read and written by formats (canonical: sorted keys,
compact separators), and the CSVs rendered there, rows in ascending order;
this module is argument plumbing only.  Exit codes: 0 on success
(and on a passing verdict), 1 on a failing verdict, 2 on usage or input
errors, reported on one error: line.
"""

from __future__ import annotations

import argparse
import json
import sys

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


def cmd_lambda(args):
    try:
        sigma = FiniteSubset.from_json(json.loads(args.sigma))
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    return EXIT_OK, [(None, [f"{subsets.weight(sigma)}\n"])]


def cmd_series(args):
    truncated = subsets.weighted_series(args.p, TruncatedDomain(args.horizon))
    oracle = subsets.weighted_series_product(args.p, args.horizon)
    ok = abs(truncated - oracle) <= 1e-12 * oracle
    bound = "none (no-bound mode: exponent <= 1)"
    if args.p > 1:
        value = subsets.series_upper_bound(args.p)
        ok, bound = ok and truncated <= value, f"{value:.17g}"
    return EXIT_OK if ok else EXIT_FAIL, [(None, [
        f"truncated_sum {truncated:.17g}\nfactorized_oracle {oracle:.17g}\n",
        f"bound {bound}\nverdict {'PASS' if ok else 'FAIL'}\n"])]


def cmd_expand(args):
    f = RandomFunctional.from_json_dict(formats.load_json(args.input, sigma=False))
    return EXIT_OK, [(args.out, formats.canonical(chaos_expand(f).to_document()))]


def cmd_synthesize(args):
    c = FockCoefficients.from_json_dict(formats.load_json(args.input, sigma=True))
    f = synthesize(c, SampleSpace(_horizon(args, c.support_bound)))
    return EXIT_OK, [(args.out, formats.canonical(f.to_document()))]


def _sequence_domain(seq: FunctionalSequence, args) -> TruncatedDomain:
    # A loaded table always has a support bound.
    return TruncatedDomain(_horizon(args, max(t.support_bound for t in seq.terms)))


def cmd_martingale_check(args):
    seq = FunctionalSequence.from_json_dict(formats.load_json(args.input, sigma=True))
    domain = _sequence_domain(seq, args)
    ok, witness = is_generalized_martingale(seq, domain, args.tol)
    report = {"passed": ok, "tol": args.tol, "horizon": domain.max_index}
    if witness is not None:
        n, sigma = witness
        report["witness"] = {"term": n, "sigma": sigma.to_json()}
    return EXIT_OK if ok else EXIT_FAIL, [(args.out, formats.canonical(report))]


def cmd_converge(args):
    seq = FunctionalSequence.from_json_dict(formats.load_json(args.input, sigma=True))
    domain = _sequence_domain(seq, args)
    verdict = strong_convergence_test(seq, domain, args.tol, args.pgrid)
    outputs = [(args.out, formats.canonical(verdict.to_document()))]
    if args.csv:
        outputs.append((args.csv, formats.diagnostics_csv(verdict.diagnostics)))
    return EXIT_OK if verdict.status is ConvergenceStatus.CONVERGED else EXIT_FAIL, outputs


def cmd_approx(args):
    phi = FockCoefficients.from_json_dict(formats.load_json(args.input, sigma=True))
    domain = TruncatedDomain(_horizon(args, phi.support_bound))
    approx = approximate(phi, args.level).restricted(domain)
    outputs = [(args.out, formats.canonical(approx.to_document()))]
    if args.csv:
        curve = residual_curve(phi, args.level, args.q, domain)
        outputs.append((args.csv, formats.residuals_csv(curve)))
    return EXIT_OK, outputs


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
        code, outputs = args.func(args)
        formats.write_all(outputs)
        return code
    except (ValueError, KeyError, OSError) as exc:  # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

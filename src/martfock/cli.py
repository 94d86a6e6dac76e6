"""Command-line front end.

Subcommands wrap the library: subset weights, truncated series with their
factorized oracle and closed bound, chaos expansion / synthesis of sample
files, martingale checking, convergence verdicts, and truncation
approximants with residual curves.

Outputs are deterministic: JSON is emitted with sorted keys and compact
separators, CSV rows in ascending order.  Exit codes: 0 on success (and on a
passing verdict), 1 on a failing verdict, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import subsets
from .convolution import approximate, residual_curve
from .functionals import FockCoefficients
from .rademacher import RandomFunctional, SampleSpace, chaos_expand, synthesize
from .sequences import (
    ConvergenceStatus,
    FunctionalSequence,
    is_generalized_martingale,
    strong_convergence_test,
)
from .subsets import FiniteSubset, TruncatedDomain

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _dump_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"),
                      allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _load_json(path: str) -> dict:
    return json.loads(Path(path).read_text())


def _parse_pgrid(text: str) -> list[float]:
    grid = [float(x) for x in text.split(",") if x]
    if grid != sorted(grid):
        raise argparse.ArgumentTypeError("p-grid must be ascending")
    return grid


def cmd_lambda(args) -> int:
    sigma = FiniteSubset.from_json(json.loads(args.sigma))
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
    f = RandomFunctional.from_json_dict(_load_json(args.input))
    _dump_json(chaos_expand(f).to_json_dict(), args.out)
    return EXIT_OK


def cmd_synthesize(args) -> int:
    c = FockCoefficients.from_json_dict(_load_json(args.input))
    horizon = args.horizon if args.horizon is not None else c.support_bound
    if horizon is None:
        print("error: rule-free input with no support bound needs --horizon",
              file=sys.stderr)
        return EXIT_ERROR
    f = synthesize(c, SampleSpace(horizon))
    _dump_json(f.to_json_dict(), args.out)
    return EXIT_OK


def _sequence_domain(seq: FunctionalSequence, horizon: int | None) -> TruncatedDomain:
    if horizon is not None:
        return TruncatedDomain(horizon)
    bounds = [t.support_bound for t in seq.terms if t.support_bound is not None]
    return TruncatedDomain(max(bounds) if bounds else 0)


def cmd_martingale_check(args) -> int:
    seq = FunctionalSequence.from_json_dict(_load_json(args.input))
    domain = _sequence_domain(seq, args.horizon)
    ok, witness = is_generalized_martingale(seq, domain, args.tol)
    report = {"passed": ok, "tol": args.tol, "horizon": domain.max_index}
    if witness is not None:
        n, sigma = witness
        report["witness"] = {"term": n, "sigma": sigma.to_json()}
    _dump_json(report, args.out)
    return EXIT_OK if ok else EXIT_FAIL


def _write_diagnostics_csv(path: str, diagnostics, max_index: int) -> None:
    """The rows csv.writer writes, one string per block of masks: a sigma cell
    is json.dumps of the element list, quoted once it holds a comma."""
    rows = zip(diagnostics.stabilization_index.tolist(), diagnostics.sup_abs.tolist(),
               diagnostics.certificate_margin.tolist())
    with open(path, "w", newline="") as handle:
        handle.write("sigma,stabilization_index,sup_abs,certificate_margin\r\n")
        handle.write("[],%d,%.17g,%.17g\r\n" % next(rows))
        # Masks in [2^k, 2^(k+1)) are the masks below 2^k with k added.
        elements = [""]
        for k in map(str, range(max_index + 1)):
            block = [k] + [s + ", " + k for s in elements[1:]]
            elements += block
            handle.write("".join([
                ('"[%s]",%d,%.17g,%.17g\r\n' if "," in s else "[%s],%d,%.17g,%.17g\r\n")
                % (s, *row) for s, row in zip(block, rows)]))


def cmd_converge(args) -> int:
    seq = FunctionalSequence.from_json_dict(_load_json(args.input))
    domain = _sequence_domain(seq, args.horizon)
    verdict = strong_convergence_test(seq, domain, args.tol, args.pgrid)
    _dump_json(verdict.to_json_dict(), args.out)
    if args.csv:
        _write_diagnostics_csv(args.csv, verdict.diagnostics, domain.max_index)
    return EXIT_OK if verdict.status is ConvergenceStatus.CONVERGED else EXIT_FAIL


def cmd_approx(args) -> int:
    phi = FockCoefficients.from_json_dict(_load_json(args.input))
    horizon = args.horizon
    if horizon is None:
        horizon = phi.support_bound if phi.support_bound is not None else args.level
    domain = TruncatedDomain(horizon)
    approx = approximate(phi, args.level).restricted(domain)
    _dump_json(approx.to_json_dict(), args.out)
    if args.csv:
        curve = residual_curve(phi, args.level, args.q, domain)
        with open(args.csv, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "residual"])
            for n, res in enumerate(curve):
                writer.writerow([n, f"{res:.17g}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="martfock",
        description="Fock-coefficient calculus on the Rademacher cube.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lambda", help="weight of a subset, given as a JSON array")
    p.add_argument("sigma", help='e.g. "[0,1,3]"')
    p.set_defaults(func=cmd_lambda)

    p = sub.add_parser("series", help="truncated weighted series vs its oracles")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("expand", help="chaos-expand a random-functional file")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("synthesize", help="rebuild sample values from coefficients")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("martingale-check", help="truncation-martingale predicate")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_martingale_check)

    p = sub.add_parser("converge", help="strong-convergence verdict for a sequence")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--pgrid", type=_parse_pgrid, default=[0.0, 1.0, 2.0])
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.add_argument("--csv", help="per-subset diagnostics CSV")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("approx", help="truncation approximant and residual curve")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--n", dest="level", type=int, required=True)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.add_argument("--csv", help="residual curve CSV")
    p.set_defaults(func=cmd_approx)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Four subcommands: ``curves`` and ``crossing`` emit CSV data for the
two standard plots, ``optimize`` cross-checks the closed-form optimum
against the brute-force grid search, and ``verify`` prints the bundle of
consistency checks of `sixstate.analysis.verify_checks` at one
parameter point, one PASS/FAIL line per check.

Data goes to stdout or the ``--out`` file; diagnostics go to stderr.
Exit codes: 0 success, 1 verification failure, 2 invalid arguments or
I/O failure, 3 crossing-search failure, 4 closed-form/grid mismatch.
An internal invariant failure (a `ConstraintError`) is not caught:
Python prints its traceback and exits 1.
"""

import argparse
import math
import operator
import sys

from . import analysis, attack, info, optimize, protocol
from .exceptions import AmbiguousCrossingError, DomainError, NoCrossingError

CURVES_HEADER = "q,i_ab,i_ae_opt,i_ae_alt,i_ab_pure,i_ae_pure,beta_sq"
CROSSING_HEADER = "p,q_cross,q_line,margin"
OPTIMIZE_HEADER = (
    "p,q,i_ae_closed,i_ae_grid,abs_diff,beta_sq_plus,beta_sq_minus,"
    "i_ae_antiphase,lagrange_residual"
)


def _fmt(x):
    """Format a float with 9 significant digits (locale-free)."""
    return format(float(x), ".9g")


def _write_lines(path, lines):
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _csv(header, rows):
    """The header line, then one line per row: a tuple of floats in header order.

    Each row is one ``%`` operation on a ``%.9g,...`` template, which for a
    float gives exactly the string `_fmt` gives.
    """
    template = ",".join(["%.9g"] * len(header.split(",")))
    return [header] + [template % row for row in rows]


def cmd_curves(args):
    rows = analysis._curve_rows(args.p, args.steps)
    _write_lines(args.out, _csv(CURVES_HEADER, rows))
    return 0


def cmd_crossing(args):
    results = analysis.crossing_sweep(args.p_min, args.p_max, args.steps, args.tol)
    fields = operator.attrgetter(*CROSSING_HEADER.split(","))
    _write_lines(args.out, _csv(CROSSING_HEADER, map(fields, results)))
    return 0


def cmd_optimize(args):
    p, q = args.p, args.q
    tol = protocol.check_range(args.tol, 0.0, math.inf, "tol")
    closed = info.i_ae_optimal(p, q)
    result = optimize.grid_refine_maximize(p, q, grid=args.grid, refine_iters=args.refine)
    diff = abs(closed - result.best_value)
    plus = info.beta_sq_optimal(p, q, "plus")
    minus = info.beta_sq_optimal(p, q, "minus")
    alt = info.i_ae_antiphase(p, q)
    lr = optimize.lagrange_residual(attack.optimal_parameters(p, q))
    report = [
        f"i_ae_closed = {_fmt(closed)}",
        f"i_ae_grid = {_fmt(result.best_value)}",
        f"abs_diff = {_fmt(diff)}",
        f"beta_sq_plus = {_fmt(plus)}",
        f"beta_sq_minus = {_fmt(minus)}",
        f"grid_beta_a_sq = {_fmt(result.best_params.beta_a_sq)}",
        f"i_ae_antiphase = {_fmt(alt)}",
        f"lagrange_residual = {_fmt(lr.residual_norm)}"
        + (" (degenerate point)" if lr.degenerate else ""),
        f"branch = {result.branch}",
        f"evaluations = {result.evaluations}",
    ]
    _write_lines(None, report)
    if args.out is not None:
        row = (p, q, closed, result.best_value, diff, plus, minus, alt, lr.residual_norm)
        _write_lines(args.out, _csv(OPTIMIZE_HEADER, [row]))
    if diff > tol:
        print(
            f"mismatch: |closed - grid| = {_fmt(diff)} exceeds tol {_fmt(tol)}",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_verify(args):
    checks, advantage = analysis.verify_checks(args.p, args.q)
    lines = [f"{'PASS' if ok else 'FAIL'} {name} ({detail})" for name, ok, detail in checks]
    _write_lines(None, lines + [f"i_ab - i_ae_opt = {_fmt(advantage)}"])
    return 0 if all(ok for _, ok, _ in checks) else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sixstate",
        description=(
            "Optimal individual eavesdropping on the six-state protocol "
            "with a noisy source: curves, thresholds, and cross-checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("curves", help="emit information-vs-error-rate curve data as CSV")
    c.add_argument("--p", type=float, required=True, help="source noise weight in [0, 1)")
    c.add_argument("--steps", type=int, default=200, help="grid points over [p/2, 1/2]")
    c.add_argument("--out", default=None, help="output CSV path (default stdout)")
    c.set_defaults(func=cmd_curves)

    c = sub.add_parser("crossing", help="emit crossing-threshold sweep as CSV")
    c.add_argument("--p-min", type=float, default=0.0, help="lowest noise weight")
    c.add_argument("--p-max", type=float, default=0.2, help="highest noise weight")
    c.add_argument("--steps", type=int, default=21, help="number of sweep points")
    c.add_argument("--tol", type=float, default=1e-9, help="bisection bracket width")
    c.add_argument("--out", default=None, help="output CSV path (default stdout)")
    c.set_defaults(func=cmd_crossing)

    c = sub.add_parser(
        "optimize", help="compare the closed-form optimum against the grid search"
    )
    c.add_argument("--p", type=float, required=True, help="source noise weight in [0, 1)")
    c.add_argument("--q", type=float, required=True, help="error rate in [p/2, 1/2]")
    c.add_argument("--grid", type=int, default=201, help="lattice points per axis")
    c.add_argument("--refine", type=int, default=6, help="refinement rounds")
    c.add_argument("--tol", type=float, default=1e-6, help="allowed |closed - grid|")
    c.add_argument("--out", default=None, help="optional CSV summary path")
    c.set_defaults(func=cmd_optimize)

    c = sub.add_parser("verify", help="run the consistency-check bundle at one point")
    c.add_argument("--p", type=float, required=True, help="source noise weight in [0, 1)")
    c.add_argument("--q", type=float, required=True, help="error rate in [p/2, 1/2]")
    c.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (NoCrossingError, AmbiguousCrossingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

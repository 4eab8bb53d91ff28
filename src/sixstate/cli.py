"""Command-line front end.

Four subcommands: ``curves`` and ``crossing`` emit CSV data for the
two standard plots, ``optimize`` cross-checks the closed-form optimum
against the brute-force grid search, and ``verify`` prints the bundle of
consistency checks of `sixstate.analysis.verify_checks` at one
parameter point, one PASS/FAIL line per check.  `COMMANDS` declares each
subcommand once: its help, its handler and its options.  A call builds
only its own subcommand, because building all four would cost more than
a ``verify`` does: the other three, which the call only lists, carry
their name and help only, with no options, not even ``-h``.  Help,
usage and error output are the same as with every subcommand built.

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
    lr = optimize.lagrange_residual(attack.optimal_parameters(p, q))
    values = {
        "p": p,
        "q": q,
        "i_ae_closed": closed,
        "i_ae_grid": result.best_value,
        "abs_diff": abs(closed - result.best_value),
        "beta_sq_plus": info.beta_sq_optimal(p, q, "plus"),
        "beta_sq_minus": info.beta_sq_optimal(p, q, "minus"),
        "grid_beta_a_sq": result.best_params.beta_a_sq,
        "i_ae_antiphase": info.i_ae_antiphase(p, q),
        "lagrange_residual": lr.residual_norm,
    }
    report = [f"{name} = {_fmt(x)}" for name, x in list(values.items())[2:]]
    if lr.degenerate:
        report[-1] += " (degenerate point)"
    report += [f"branch = {result.branch}", f"evaluations = {result.evaluations}"]
    _write_lines(None, report)
    if args.out is not None:
        row = operator.itemgetter(*OPTIMIZE_HEADER.split(","))(values)
        _write_lines(args.out, _csv(OPTIMIZE_HEADER, [row]))
    diff = values["abs_diff"]
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


_P = ("--p", dict(type=float, required=True, help="source noise weight in [0, 1)"))
_Q = ("--q", dict(type=float, required=True, help="error rate in [p/2, 1/2]"))
_OUT = ("--out", dict(default=None, help="output CSV path (default stdout)"))

# name -> (help, handler, options as (flag, add_argument kwargs)), in the
# order the top-level help lists them
COMMANDS = {
    "curves": ("emit information-vs-error-rate curve data as CSV", cmd_curves, [
        _P,
        ("--steps", dict(type=int, default=200, help="grid points over [p/2, 1/2]")),
        _OUT,
    ]),
    "crossing": ("emit crossing-threshold sweep as CSV", cmd_crossing, [
        ("--p-min", dict(type=float, default=0.0, help="lowest noise weight")),
        ("--p-max", dict(type=float, default=0.2, help="highest noise weight")),
        ("--steps", dict(type=int, default=21, help="number of sweep points")),
        ("--tol", dict(type=float, default=1e-9, help="bisection bracket width")),
        _OUT,
    ]),
    "optimize": ("compare the closed-form optimum against the grid search", cmd_optimize, [
        _P, _Q,
        ("--grid", dict(type=int, default=201, help="lattice points per axis")),
        ("--refine", dict(type=int, default=6, help="refinement rounds")),
        ("--tol", dict(type=float, default=1e-6, help="allowed |closed - grid|")),
        ("--out", dict(default=None, help="optional CSV summary path")),
    ]),
    "verify": ("run the consistency-check bundle at one point", cmd_verify, [_P, _Q]),
}


def build_parser(command=None):
    """The argument parser, with `command`'s subcommand built in full.

    Every subcommand is registered with its help, so the top-level help,
    usage and errors do not depend on `command`.  The others are only
    listed, never parsed (`main` passes ``argv[0]``), so they carry their
    name and help only: no options, not even ``-h``, and no handler.
    When `command` is None or not a subcommand name, every subcommand is
    built in full.
    """
    parser = argparse.ArgumentParser(
        prog="sixstate",
        description=(
            "Optimal individual eavesdropping on the six-state protocol "
            "with a noisy source: curves, thresholds, and cross-checks."
        ),
    )
    # prog given, so argparse does not build a help formatter to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    every = command not in COMMANDS
    for name, (help_, func, options) in COMMANDS.items():
        built = every or name == command
        c = sub.add_parser(name, help=help_, add_help=built)
        if built:
            for flag, kwargs in options:
                c.add_argument(flag, **kwargs)
            c.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
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

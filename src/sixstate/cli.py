"""Command-line front end.

Four subcommands: ``curves`` and ``crossing`` emit CSV data for the
two standard plots, ``optimize`` cross-checks the closed-form optimum
against the brute-force grid search, and ``verify`` prints the bundle of
consistency checks at one parameter point, one PASS/FAIL line per check.
``optimize`` and ``verify`` only format what one `sixstate.analysis`
call returns.  `COMMANDS` declares each subcommand once: its help, its
handler and its options.  A subcommand call is parsed by that
subcommand's own parser, because building the parsers of all four would
cost more than a ``verify`` does.  The full tree is built only for
top-level help, usage and errors, so those read the same as they would
from one parser holding every subcommand.

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

from . import analysis, protocol
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
    tol = protocol.check_range(args.tol, 0.0, math.inf, "tol")
    values, result, degenerate = analysis.compare_optimum(args.p, args.q, args.grid, args.refine)
    report = [f"{name} = {_fmt(x)}" for name, x in values.items()]
    if degenerate:
        report[-1] += " (degenerate point)"
    report += [f"branch = {result.branch}", f"evaluations = {result.evaluations}"]
    _write_lines(None, report)
    if args.out is not None:
        row = operator.itemgetter(*OPTIMIZE_HEADER.split(","))(dict(p=args.p, q=args.q, **values))
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
        ("--grid", dict(type=int, default=201, help="samples per boundary arc")),
        ("--refine", dict(type=int, default=6, help="refinement rounds")),
        ("--tol", dict(type=float, default=1e-6, help="allowed |closed - grid|")),
        ("--out", dict(default=None, help="optional CSV summary path")),
    ]),
    "verify": ("run the consistency-check bundle at one point", cmd_verify, [_P, _Q]),
}


def _add_command(parser, name):
    """`parser` with `name`'s options and handler added."""
    _, func, options = COMMANDS[name]
    for flag, kwargs in options:
        parser.add_argument(flag, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser(command=None):
    """The parser for subcommand `command` alone, or else the full tree.

    A subcommand's own parser is the one the full tree holds for it, with
    the same prog, ``sixstate <command>``, so it prints the same help and
    errors.  The full tree, built when `command` is None or not a
    subcommand name, holds all four in full; `main` needs it only for
    top-level help, usage and errors.
    """
    if command in COMMANDS:
        return _add_command(argparse.ArgumentParser(prog=f"sixstate {command}"), command)
    parser = argparse.ArgumentParser(
        prog="sixstate",
        description=(
            "Optimal individual eavesdropping on the six-state protocol "
            "with a noisy source: curves, thresholds, and cross-checks."
        ),
    )
    # prog given, so argparse does not build a help formatter to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, (help_, _, _) in COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_), name)
    return parser


def _run(args):
    """Run the parsed call's handler; its exit code, or 2 or 3 for its errors."""
    try:
        return args.func(args)
    except (NoCrossingError, AmbiguousCrossingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv else None
    parser = build_parser(command)
    if command in COMMANDS:
        # The full tree hands a subcommand everything after its name, so
        # its own parser sees what it would see there.  Arguments it leaves
        # over are the top level's error, which the full tree reports.
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            args = build_parser().parse_args(argv)
    else:
        args = parser.parse_args(argv)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())

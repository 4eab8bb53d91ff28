import argparse
import ast
import contextlib
import io
import dataclasses
import math
import pathlib
import sys
import warnings

import numpy as np
import pytest

from sixstate import analysis, attack, cli, info, optimize, protocol
from sixstate.exceptions import ConstraintError, NoCrossingError


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


class TestCurves:
    def test_writes_expected_header_and_rows(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert cli.main(["curves", "--p", "0.05", "--steps", "7", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["q", "i_ab", "i_ae_opt", "i_ae_alt", "i_ab_pure", "i_ae_pure", "beta_sq"]
        assert len(rows) == 7
        assert rows[0][0] == pytest.approx(0.025)
        assert rows[-1][0] == pytest.approx(0.5)

    def test_two_step_noiseless_endpoints(self, tmp_path):
        out = tmp_path / "edge.csv"
        assert cli.main(["curves", "--p", "0", "--steps", "2", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert rows[0][0] == 0.0 and rows[0][1] == 1.0
        assert rows[1][0] == 0.5 and rows[1][1] == 0.0

    def test_values_reparse_to_module_outputs(self, tmp_path):
        out = tmp_path / "check.csv"
        cli.main(["curves", "--p", "0.1", "--steps", "9", "--out", str(out)])
        _, rows = read_csv(out)
        for row in rows:
            q = row[0]
            # 9 significant digits of the library value
            assert row[1] == pytest.approx(info.i_ab(q), abs=1e-8)
            assert row[2] == pytest.approx(info.i_ae_optimal(0.1, q), abs=1e-8)

    def test_stdout_default(self, capsys):
        assert cli.main(["curves", "--p", "0.05", "--steps", "3"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("q,i_ab,")
        assert len(captured.out.strip().split("\n")) == 4

    def test_repeated_runs_byte_identical(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        cli.main(["curves", "--p", "0.05", "--steps", "50", "--out", str(a)])
        cli.main(["curves", "--p", "0.05", "--steps", "50", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_domain_error_exit_code(self, capsys):
        assert cli.main(["curves", "--p", "1.5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        assert cli.main(["curves", "--p", "0.05", "--out", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("cast", [float, np.float64], ids=["float", "float64"])
def test_csv_row_template_matches_fmt(cast):
    values = [-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 1 / 3, math.inf, math.nan]
    rows = [tuple(cast(v) for v in (values[k:] + values[:k])[:7]) for k in range(len(values))]
    lines = cli._csv(cli.CURVES_HEADER, rows)
    assert lines == [cli.CURVES_HEADER] + [",".join(map(cli._fmt, row)) for row in rows]


def test_headers_name_record_fields():
    # _csv writes rows by position, so the curves header must list the
    # CurvePoint fields in order, and the crossing header the leading
    # CrossingResult fields in order.
    curve_fields = [f.name for f in dataclasses.fields(analysis.CurvePoint)]
    assert cli.CURVES_HEADER.split(",") == curve_fields
    crossing_fields = [f.name for f in dataclasses.fields(analysis.CrossingResult)]
    assert cli.CROSSING_HEADER.split(",") == crossing_fields[:4]


_SEEDED_P = np.random.default_rng(1414).uniform(0.0, 0.999, 20).tolist()


@pytest.mark.parametrize(
    "p, steps", [(0.0, 2), (0.05, 3), (0.949, 1001)] + [(p, 200) for p in _SEEDED_P])
def test_curves_stdout_matches_curve_sweep(p, steps, capsys):
    assert cli.main(["curves", "--p", repr(p), "--steps", str(steps)]) == 0
    names = cli.CURVES_HEADER.split(",")
    expected = [cli.CURVES_HEADER] + [
        ",".join(cli._fmt(getattr(pt, name)) for name in names)
        for pt in analysis.curve_sweep(p, steps)
    ]
    assert capsys.readouterr().out == "\n".join(expected) + "\n"


class TestCrossing:
    def test_single_row(self, tmp_path):
        out = tmp_path / "one.csv"
        code = cli.main(
            ["crossing", "--p-min", "0", "--p-max", "0", "--steps", "1", "--out", str(out)]
        )
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["p", "q_cross", "q_line", "margin"]
        assert len(rows) == 1
        assert rows[0][1] == pytest.approx(0.15637, abs=5e-4)

    def test_default_sweep_margins(self, tmp_path):
        out = tmp_path / "fig2.csv"
        assert cli.main(["crossing", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 21
        assert all(row[3] >= -5e-4 for row in rows)
        assert all(row[3] > 0 for row in rows if row[0] >= 0.01)

    def test_row_consistency(self, tmp_path):
        out = tmp_path / "cons.csv"
        cli.main(["crossing", "--p-min", "0.05", "--p-max", "0.15", "--steps", "3",
                  "--out", str(out)])
        _, rows = read_csv(out)
        for p, q_cross, q_line, margin in rows:
            assert q_line == pytest.approx(0.15637 * (1 - p) + p / 2, abs=1e-8)
            assert margin == pytest.approx(q_cross - q_line, abs=1e-8)

    def test_bad_range_exit_code(self, capsys):
        assert cli.main(["crossing", "--p-min", "0.3", "--p-max", "0.1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert cli.main(["crossing", "--p-min", "0.1", "--p-max", "0.1", "--steps", "2"]) == 2
        assert "need p_min < p_max" in capsys.readouterr().err

    def test_search_failure_exit_code(self, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise NoCrossingError("forced for the test")

        # the search itself, which the CLI's rows and crossing_sweep both reach
        monkeypatch.setattr(analysis, "_crossings", boom)
        assert cli.main(["crossing"]) == 3
        assert "forced for the test" in capsys.readouterr().err

    def test_writes_rows_without_records(self, monkeypatch, capsys):
        # the CSV is written from the search's row tuples, not from records
        def refuse(*args, **kwargs):
            raise AssertionError("CrossingResult built for the CSV")

        monkeypatch.setattr(analysis, "CrossingResult", refuse)
        assert cli.main(["crossing"]) == 0
        golden = pathlib.Path(__file__).with_name("golden") / "crossing_default.txt"
        assert capsys.readouterr().out == golden.read_text()

    @pytest.mark.parametrize("tol", [1e-9, 1e-20])
    def test_sweep_fields_equal_rows(self, tol):
        # one full chunk of 64 rows, then the 65th alone on the scalar-p path
        rows = analysis._crossing_rows(0.0, 0.5, 65, tol)
        sweep = analysis.crossing_sweep(0.0, 0.5, 65, tol)
        assert [dataclasses.astuple(r) for r in sweep] == rows
        assert [type(r[-1]) for r in rows] == [int] * 65


def _wrap_everywhere(monkeypatch, source, name, wrap):
    """Replace every sixstate module binding of `source.name` by `wrap(real)`."""
    real = getattr(source, name)
    wrapper = wrap(real)
    for module in list(sys.modules.values()):
        if module.__name__.startswith("sixstate") and vars(module).get(name) is real:
            monkeypatch.setattr(module, name, wrapper)


def _count_validator_calls(monkeypatch, argv):
    """The calls to each `protocol` validator and to `info._noise` during one
    successful `main(argv)`, counted through every sixstate module binding of it."""
    sources = {"check_domain": protocol, "check_range": protocol, "_float": protocol,
               "_noise": info}
    calls = dict.fromkeys(sources, 0)
    for name, source in sources.items():
        def wrap(real, name=name):
            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper
        _wrap_everywhere(monkeypatch, source, name, wrap)
    assert cli.main(argv) == 0
    return calls


@pytest.mark.parametrize("argv", [["optimize", "--p", "0.05", "--q", "0.15"],
                                  ["verify", "--p", "0.05", "--q", "0.15"]],
                         ids=["optimize", "verify"])
def test_one_optimum_per_root(monkeypatch, argv):
    # One command evaluates the paper's optimum once at each root, counted
    # through every sixstate module binding of `info._optimum`, and the
    # optimal attack is built from the root the plus call returned.
    optima, roots = [], []

    def wrap_optimum(real):
        def optimum(noise, q, sign=1.0):
            out = real(noise, q, sign)
            optima.append((sign, out[0]))
            return out
        return optimum

    def wrap_parameters(real):
        def optimal_parameters(noise, q, root):
            roots.append(root)
            return real(noise, q, root)
        return optimal_parameters
    _wrap_everywhere(monkeypatch, info, "_optimum", wrap_optimum)
    _wrap_everywhere(monkeypatch, attack, "_optimal_parameters", wrap_parameters)
    assert cli.main(argv) == 0
    assert sorted(sign for sign, _ in optima) == [-1.0, 1.0]
    plus_root = next(root for sign, root in optima if sign > 0)
    assert len(roots) == 1 and float(roots[0]) == float(plus_root)


class TestOptimize:
    def test_agreement_exit_zero(self, capsys):
        code = cli.main(
            ["optimize", "--p", "0.05", "--q", "0.1", "--grid", "101", "--refine", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "i_ae_closed" in out
        assert "beta_sq_plus" in out
        assert "lagrange_residual" in out

    def test_no_interaction_report(self, capsys):
        assert cli.main(["optimize", "--p", "0", "--q", "0", "--grid", "51"]) == 0
        out = capsys.readouterr().out
        assert "i_ae_closed = 0" in out

    def test_csv_summary(self, tmp_path):
        out = tmp_path / "opt.csv"
        cli.main(["optimize", "--p", "0.05", "--q", "0.1", "--grid", "101",
                  "--refine", "5", "--out", str(out)])
        header, rows = read_csv(out)
        assert header[0] == "p"
        assert len(rows) == 1
        assert rows[0][2] == pytest.approx(info.i_ae_optimal(0.05, 0.1), abs=1e-8)

    def test_csv_file_pinned(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert cli.main(["optimize", "--p", "0.05", "--q", "0.1", "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"p,q,i_ae_closed,i_ae_grid,abs_diff,beta_sq_plus,beta_sq_minus,"
            b"i_ae_antiphase,lagrange_residual\n"
            b"0.05,0.1,0.166603338,0.166603338,1.11022302e-16,0.702534955,"
            b"0.297465045,0.0656320317,1.03107387e-15\n"
        )

    def test_mismatch_exit_code(self, capsys):
        # an impossible tolerance turns the tiny closed-vs-grid gap into
        # a reported mismatch
        code = cli.main(
            ["optimize", "--p", "0.05", "--q", "0.1", "--grid", "101",
             "--refine", "5", "--tol", "1e-16"]
        )
        assert code == 4
        assert "mismatch" in capsys.readouterr().err

    def test_tol_boundary(self, capsys):
        # the report fails exactly when |closed - grid| exceeds --tol
        diff = abs(info.i_ae_optimal(0.05, 0.1)
                   - optimize.grid_refine_maximize(0.05, 0.1).best_value)
        assert diff > 0.0
        for tol, code in ((diff / 2, 4), (diff * 2, 0)):
            assert cli.main(["optimize", "--p", "0.05", "--q", "0.1", "--tol", repr(tol)]) == code
            assert ("mismatch" in capsys.readouterr().err) == (code == 4)

    def test_validators_called_at_most(self, monkeypatch):
        # the grid search's check_domain is the one check of (p, q); the
        # check_range calls are --tol's, q's inside check_domain, and those
        # of grid and refine_iters; each converts with _float, as does p.
        # Both attacks are built on the checked pair, and the noise terms
        # are formed once for the closed forms and the optimal attack.
        calls = _count_validator_calls(monkeypatch, ["optimize", "--p", "0.05", "--q", "0.15"])
        assert calls["check_domain"] <= 1
        assert calls["check_range"] <= 4
        assert calls["_float"] <= 5
        assert calls["_noise"] == 1

    def test_invalid_point_exit_code(self, capsys):
        assert cli.main(["optimize", "--p", "0.05", "--q", "0.01"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_echoes_the_pair_as_given(self, tmp_path):
        # q is clamped to p/2 = 0 for the computation, not in the row
        out = tmp_path / "opt.csv"
        assert cli.main(["optimize", "--p", "0", "--q=-1e-13", "--grid", "51",
                         "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("0,-1e-13,")

    def test_options_checked_before_any_computation(self, capsys):
        # at p = 1 - 2**-53 and q = 1/2 the closed forms divide by zero, which
        # warns, and the overlap target raises ZeroDivisionError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["optimize", "--p", "0.9999999999999999", "--q", "0.5",
                             "--refine", "31"])
        assert code == 2
        assert "refine_iters=31.0 outside [0, 30]" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option", [["--refine", "31"], ["--tol", "nan"], ["--tol", "-1"]],
        ids=["refine_above_bound", "tol_nan", "tol_negative"],
    )
    def test_invalid_option_exit_code(self, option, capsys):
        assert cli.main(["optimize", "--p", "0.05", "--q", "0.1", "--grid", "51", *option]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_all_checks_pass(self, capsys):
        assert cli.main(["verify", "--p", "0.05", "--q", "0.15"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 7

    def test_crossing_point_report(self, capsys):
        assert cli.main(["verify", "--p", "0", "--q", "0.15637"]) == 0
        out = capsys.readouterr().out
        gap = float(out.strip().split("\n")[-1].split("=")[1])
        assert abs(gap) < 1e-4

    def test_extreme_noise_point(self, capsys):
        assert cli.main(["verify", "--p", "0.9", "--q", "0.46"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_half_error_rate_at_high_noise(self, capsys):
        assert cli.main(["verify", "--p", "0.9", "--q", "0.5"]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_one_failed_check_exits_one(self, monkeypatch, capsys):
        # a stationarity residual past its bound fails that check alone,
        # and one failed check is enough for exit code 1
        monkeypatch.setattr(analysis, "lagrange_residual",
                            lambda params: optimize.LagrangeResidual(1e-3))
        assert cli.main(["verify", "--p", "0.05", "--q", "0.15"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL stationarity (residual 1.000e-03)"
        ]
        assert sum(line.startswith("PASS") for line in lines) == 6

    def test_internal_error_is_not_an_argument_error(self, monkeypatch):
        def boom(*args, **kwargs):
            raise ConstraintError("forced for the test")

        monkeypatch.setattr(analysis, "build_isometry", boom)
        with pytest.raises(ConstraintError, match="forced for the test"):
            cli.main(["verify", "--p", "0.05", "--q", "0.15"])

    def test_validators_called_few_times(self, monkeypatch):
        # verify_checks' check_domain validates (p, q), and simulate's
        # check_domain(p, 0.5) checks p again as the oracle's entry point;
        # the check_range calls are q's in each of those and build_isometry's
        # of d; each converts with _float, as does p in each check_domain.
        # The optimal attack is built on the checked pair, and the noise
        # terms are formed once for it and the closed forms.
        calls = _count_validator_calls(monkeypatch, ["verify", "--p", "0.05", "--q", "0.15"])
        assert calls["check_domain"] <= 2
        assert calls["check_range"] <= 3
        assert calls["_float"] <= 5
        assert calls["_noise"] == 1

    def test_one_simulation_per_run(self, monkeypatch):
        # one joint-state tensor serves all three bases, and the isometry
        # is checked once when built and once when simulated
        calls = {"_joint_states": 0, "_gram_residual": 0}

        def counting(name):
            real = getattr(attack, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(attack, name, counting(name))
        assert cli.main(["verify", "--p", "0.05", "--q", "0.1"]) == 0
        assert calls == {"_joint_states": 1, "_gram_residual": 2}

    def test_no_interaction_point_degenerate_stationarity(self, capsys):
        assert cli.main(["verify", "--p", "0.1", "--q", "0.05"]) == 0
        assert "degenerate" in capsys.readouterr().out


def test_cli_uses_no_private_name_of_another_module():
    # cli formats what the library returns; a name it imports, or reads off
    # a sixstate module, is public, except the curves rows and the crossing
    # rows that the CSV writer takes straight from analysis as tuples.
    allowed = {("analysis", "_curve_rows"), ("analysis", "_crossing_rows")}
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("sixstate")):
            for alias in node.names:
                assert not alias.name.startswith("_"), alias.name
                modules.add(alias.asname or alias.name)
    used = {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in modules and node.attr.startswith("_")}
    assert used <= allowed


# help, missing, unknown, repeated, "=" and abbreviated options, an ambiguous
# prefix, a second command name later in argv, "--", an unknown command, the
# top-level help, and arguments a subcommand leaves over
_PARSE_CASES = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["--"], ["--", "verify"], ["bogus"], ["verif"],
    ["VERIFY"], ["--p", "0.1"], ["-x"],
    ["curves", "-h"], ["crossing", "-h"], ["optimize", "-h"], ["verify", "-h"],
    ["curves"], ["crossing", "--bogus"], ["optimize", "--p", "0.1"], ["verify"],
    ["verify", "--q", "0.1"], ["verify", "--p", "x", "--q", "0.1"], ["verify", "--bogus"],
    ["verify", "--p", "0.1", "--q"], ["crossing", "--p", "0.1"], ["optimize", "--grid", "x"],
    ["verify", "--p", "0.3", "--p", "0.05", "--q", "0.15"],
    ["curves", "--p", "0.05", "--steps", "3", "--steps", "2"],
    ["verify", "--p", "0.05", "--q", "0.15", "curves"], ["curves", "--p", "0.05", "verify"],
    ["verify", "verify"], ["crossing", "crossing", "--steps", "1"],
    ["verify", "--", "--p", "0.1"], ["verify", "--p", "0.05", "--q", "0.15", "--"],
    ["curves", "--p", "0.05", "--steps", "3", "-h"], ["verify", "--p", "0.05", "--q", "0.01"],
    ["verify", "--p=0.05", "--q=0.15"], ["crossing", "--p-mi", "0.1", "--p-ma", "0.2", "--steps", "2"],
    ["crossing", "--p-m", "0.1"], ["optimize", "--help"],
    ["verify", "--he"], ["verify", "--p", "0.05", "--q", "0.15", "--bogus", "1"],
    ["curves", "--p", "0.05", "--steps", "2", "--", "x"],
    ["optimize", "--p", "0.05", "--q", "0.1", "--grid", "51", "--refine", "1", "extra"],
]


def _outcome(run, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def _full_tree_main(argv):
    """`main` as it would be with one parser holding every subcommand."""
    return cli._run(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("columns", ["80", "200"])
def test_per_command_parser_matches_full_tree(columns, monkeypatch):
    # main parses a subcommand call with that subcommand's own parser; every
    # byte it prints and its exit code must be those of the full tree
    monkeypatch.setenv("COLUMNS", columns)
    assert ([_outcome(cli.main, argv) for argv in _PARSE_CASES]
            == [_outcome(_full_tree_main, argv) for argv in _PARSE_CASES])


def _shape(parser):
    """A parser's prog, option strings and `func` default."""
    return (parser.prog, [flag for a in parser._actions for flag in a.option_strings],
            parser.get_default("func"))


def _declared_shape(name):
    _, func, options = cli.COMMANDS[name]
    return f"sixstate {name}", ["-h", "--help"] + [flag for flag, _ in options], func


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_build_parser_builds_the_named_subcommand_alone(command):
    parser = cli.build_parser(command)
    assert not any(isinstance(a, argparse._SubParsersAction) for a in parser._actions)
    assert _shape(parser) == _declared_shape(command)


@pytest.mark.parametrize("other", [None, "-h", "--", "bogus"])
def test_build_parser_builds_the_full_tree_otherwise(other):
    parser = cli.build_parser(other)
    assert parser.prog == "sixstate"
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(action.choices) == ["curves", "crossing", "optimize", "verify"]
    for name, sub in action.choices.items():
        assert _shape(sub) == _declared_shape(name)
        assert sub.format_help() == cli.build_parser(name).format_help()


def _parsers_constructed(monkeypatch, argv):
    """The `argparse.ArgumentParser` instances one `main(argv)` constructs,
    and its exit code."""
    count = 0
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        nonlocal count
        count += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    return count, code


@pytest.mark.parametrize("argv", [
    ["verify", "--p", "0.05", "--q", "0.15"],
    ["curves", "--p", "0.05", "--steps", "3"],
    ["crossing", "--p-min", "0", "--p-max", "0", "--steps", "1"],
    ["optimize", "--p", "0.05", "--q", "0.1", "--grid", "51", "--refine", "1"],
], ids=lambda argv: argv[0])
def test_subcommand_call_constructs_one_parser(argv, monkeypatch, capsys):
    # the full tree would construct five: the top level and one per subcommand
    assert _parsers_constructed(monkeypatch, argv) == (1, 0)


def test_left_over_arguments_construct_the_full_tree(monkeypatch, capsys):
    argv = ["verify", "--p", "0.05", "--q", "0.15", "--bogus", "1"]
    assert _parsers_constructed(monkeypatch, argv) == (1 + 5, 2)
    assert capsys.readouterr().err.startswith("usage: sixstate [-h] {curves,")


def test_main_reads_sys_argv(monkeypatch, capsys):
    built = []
    real = cli.build_parser

    def recording(command=None):
        built.append(command)
        return real(command)

    monkeypatch.setattr(cli, "build_parser", recording)
    monkeypatch.setattr(sys, "argv", ["sixstate", "verify", "--p", "0.05", "--q", "0.15"])
    assert cli.main() == 0
    assert capsys.readouterr().out.count("PASS") == 7
    assert built == ["verify"]
    built.clear()
    monkeypatch.setattr(sys, "argv", sys.argv + ["extra"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    assert "unrecognized arguments: extra" in capsys.readouterr().err
    assert built == ["verify", None]

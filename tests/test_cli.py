import argparse
import ast
import contextlib
import io
import dataclasses
import math
import pathlib
import sys

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
    # CurvePoint fields in order; the crossing columns are picked by name.
    curve_fields = [f.name for f in dataclasses.fields(analysis.CurvePoint)]
    assert cli.CURVES_HEADER.split(",") == curve_fields
    crossing_fields = {f.name for f in dataclasses.fields(analysis.CrossingResult)}
    assert set(cli.CROSSING_HEADER.split(",")) <= crossing_fields


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

        monkeypatch.setattr(analysis, "crossing_sweep", boom)
        assert cli.main(["crossing"]) == 3
        assert "forced for the test" in capsys.readouterr().err


def _count_validator_calls(monkeypatch, argv):
    """The calls to each `protocol` validator during one successful `main(argv)`,
    counted through every sixstate module binding of it."""
    calls = {"check_domain": 0, "check_range": 0, "_float": 0}
    for name in calls:
        real = getattr(protocol, name)

        def wrapper(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)
        for module in list(sys.modules.values()):
            if module.__name__.startswith("sixstate") and vars(module).get(name) is real:
                monkeypatch.setattr(module, name, wrapper)
    assert cli.main(argv) == 0
    return calls


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
            b"0.05,0.1,0.166603338,0.166603338,1.03883568e-12,0.702534955,"
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
        # each library call cmd_optimize makes validates the same (p, q)
        # again; these ceilings are today's counts, which may only fall
        calls = _count_validator_calls(monkeypatch, ["optimize", "--p", "0.05", "--q", "0.15"])
        assert calls["check_domain"] <= 11
        assert calls["check_range"] <= 17
        assert calls["_float"] <= 38

    def test_invalid_point_exit_code(self, capsys):
        assert cli.main(["optimize", "--p", "0.05", "--q", "0.01"]) == 2
        assert "error:" in capsys.readouterr().err

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
        # (p, q) is validated first by optimal_parameters; the rest are the
        # checks of the public attack functions verify_checks builds on
        calls = _count_validator_calls(monkeypatch, ["verify", "--p", "0.05", "--q", "0.15"])
        assert calls["check_domain"] <= 6
        assert calls["check_range"] <= 7
        assert calls["_float"] <= 18

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
    # a sixstate module, is public, except the curves rows that the CSV
    # writer takes straight from the kernels.
    allowed = {("analysis", "_curve_rows")}
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
# prefix, a second command name later in argv, "--", an unknown command and
# the top-level help
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
]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


@pytest.mark.parametrize("columns", ["80", "200"])
def test_per_command_parser_matches_full_tree(columns, monkeypatch):
    # main builds only argv[0]'s options; every byte it prints and its exit
    # code must be those of the parser that holds every subcommand's options
    monkeypatch.setenv("COLUMNS", columns)
    per_command = [_outcome(argv) for argv in _PARSE_CASES]
    full = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
    assert per_command == [_outcome(argv) for argv in _PARSE_CASES]


def _subcommand_flags(parser):
    """Each subcommand's option strings and its `func` default, or None."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: ([flag for a in sub._actions for flag in a.option_strings],
                   sub.get_default("func"))
            for name, sub in action.choices.items()}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_build_parser_adds_only_the_named_options(command):
    # the other subcommands are only listed, never parsed: name and help only
    full = _subcommand_flags(cli.build_parser())
    assert list(full) == ["curves", "crossing", "optimize", "verify"]
    assert all(flags[:2] == ["-h", "--help"] and func is not None
               for flags, func in full.values())
    for other in (None, "-h", "--", "bogus"):
        assert _subcommand_flags(cli.build_parser(other)) == full
    only = _subcommand_flags(cli.build_parser(command))
    assert only == {name: entry if name == command else ([], None)
                    for name, entry in full.items()}


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

"""Golden CLI outputs: stdout and exit code of fixed runs, diffed against files.

The files under ``tests/golden/`` hold the stdout of each run in `CASES`
and ``exit_codes.json`` its exit code.  ``curves`` and ``crossing`` CSVs
must match byte for byte.  ``optimize`` and ``verify`` reports must match
byte for byte outside these round-off fields, which `mask` replaces by
``*`` on both sides before comparing:

- optimize: the values of ``abs_diff`` and ``lagrange_residual`` (a
  ``(degenerate point)`` suffix is still compared);
- verify: the parenthesised detail of every check line except
  ``branch dominance`` (the PASS/FAIL verdict and the check name are
  still compared).

Every exit code must match.  Regenerate the files only for an intended
change of the output, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

from sixstate import cli

GOLDEN = pathlib.Path(__file__).with_name("golden")

_POINTS = [
    ("0", "0"),
    ("0", "0.15637"),
    ("0.05", "0.1"),
    ("0.1", "0.05"),
    ("0.2", "0.3"),
    ("0.3", "0.49999"),
    ("0.5", "0.4"),
    ("0.9", "0.45"),
    ("0.9", "0.49999"),
]

CASES = {
    **{f"curves_p{p}": ["curves", "--p", p] for p in ("0", "0.05", "0.3", "0.9")},
    "curves_p0.05_steps2": ["curves", "--p", "0.05", "--steps", "2"],
    "curves_bad_p": ["curves", "--p", "1.5"],
    "crossing_default": ["crossing"],
    "crossing_0_0.5_51": ["crossing", "--p-min", "0", "--p-max", "0.5", "--steps", "51"],
    "crossing_p0.3_steps1": ["crossing", "--p-min", "0.3", "--p-max", "0.3", "--steps", "1"],
    **{f"optimize_p{p}_q{q}": ["optimize", "--p", p, "--q", q] for p, q in _POINTS},
    **{f"verify_p{p}_q{q}": ["verify", "--p", p, "--q", q] for p, q in _POINTS},
    "verify_bad_q": ["verify", "--p", "0.05", "--q", "0.01"],
}

_OPTIMIZE_ROUNDOFF = re.compile(r"^(abs_diff|lagrange_residual) = \S+", re.M)
_VERIFY_DETAIL = re.compile(r"^((?:PASS|FAIL) (?!branch dominance \()[^(\n]*)\(.*\)$", re.M)


def mask(name, text):
    """Blank out the round-off fields named in the module docstring."""
    if name.startswith("optimize"):
        return _OPTIMIZE_ROUNDOFF.sub(r"\1 = *", text)
    if name.startswith("verify"):
        return _VERIFY_DETAIL.sub(r"\1(*)", text)
    return text


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_mask_keeps_verdicts_and_branch_dominance():
    report = (
        "PASS constraints (max residual 1.2e-17)\n"
        "FAIL stationarity (residual 3.0e-01)\n"
        "PASS branch dominance (optimal 0.1 vs antiphase 0.05)\n"
    )
    assert mask("verify_x", report) == (
        "PASS constraints (*)\n"
        "FAIL stationarity (*)\n"
        "PASS branch dominance (optimal 0.1 vs antiphase 0.05)\n"
    )
    report = "abs_diff = 1e-13\nlagrange_residual = 0 (degenerate point)\nbranch = phase0\n"
    assert mask("optimize_x", report) == (
        "abs_diff = *\nlagrange_residual = * (degenerate point)\nbranch = phase0\n"
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    code, out = run(CASES[name])
    assert code == codes[name]
    assert mask(name, out) == mask(name, expected)


def test_noiseless_crossing_row():
    first = (GOLDEN / "crossing_default.txt").read_text().split("\n")[1]
    assert first == "0,0.156373463,0.15637,3.46347992e-06"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, argv in sorted(CASES.items()):
        codes[name], out = run(argv)
        (GOLDEN / f"{name}.txt").write_text(out, encoding="utf-8", newline="")
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")
    sys.exit(0)

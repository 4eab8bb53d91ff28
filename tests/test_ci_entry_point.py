"""The workflow's "Entry point" and "Demos" steps, run as CI runs them.

The "Entry point" step's byte pins of `sixstate` output (sha256 sums,
golden diffs, greps and exit codes) live in .github/workflows/tests.yml
alone, and so does the "Demos" step's loop over demos/*.py.  These tests
read each step's `run:` script from there and run it from the
repository root under ``bash -eo pipefail`` with warnings as errors, so
nothing is copied here and nothing can drift.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import textwrap

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
STEP = "Entry point"
TOOLS = ("bash", "sha256sum", "diff", "timeout")


def _indent(line):
    return len(line) - len(line.lstrip())


def step_script(name):
    """The `run:` script of the workflow step called name: one line, or a dedented `|` block."""
    lines = WORKFLOW.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == f"- name: {name}")
    step = _indent(lines[start])
    for i in range(start + 1, len(lines)):
        line = lines[i]
        if line.strip() and _indent(line) <= step:
            break
        key, _, value = line.strip().partition(": ")
        if key != "run":
            continue
        if value != "|":
            return value + "\n"
        block = []
        for body in lines[i + 1:]:
            if body.strip() and _indent(body) <= _indent(line):
                break
            block.append(body)
        return textwrap.dedent("\n".join(block)) + "\n"
    raise AssertionError(f"step {name!r} has no 'run:' script")


def _run_step(name, script, tmp_path):
    """Run script as the step called name runs it; fail with its output if it exits non-zero."""
    shims = tmp_path / "bin"
    shims.mkdir()
    python = shims / "python"
    python.write_text(f'#!/bin/sh\nexec "{sys.executable}" "$@"\n')
    python.chmod(0o755)
    path = tmp_path / "step.sh"
    path.write_text(script)
    env = dict(os.environ, PYTHONWARNINGS="error", RUNNER_TEMP=str(tmp_path),
               PATH=f"{shims}{os.pathsep}{os.environ.get('PATH', '')}")
    done = subprocess.run(["bash", "--noprofile", "--norc", "-eo", "pipefail", str(path)],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, (
        f"{name!r} step exited {done.returncode}\n"
        f"--- stdout (tail)\n{done.stdout[-3000:]}\n--- stderr (tail)\n{done.stderr[-3000:]}"
    )


def test_entry_point_step(tmp_path):
    missing = [tool for tool in TOOLS if shutil.which(tool) is None]
    if missing:
        pytest.fail(f"the {STEP!r} step needs {', '.join(missing)}, not found on PATH")
    script = step_script(STEP)
    assert "python -m sixstate.cli" in script
    _run_step(STEP, script, tmp_path)


def test_demos_step(tmp_path):
    # every demo runs the library end to end; optimizer_demo.py runs the
    # grid search and the branch scan
    if shutil.which("bash") is None:
        pytest.fail("the 'Demos' step needs bash, not found on PATH")
    script = step_script("Demos")
    assert "demos/*.py" in script
    _run_step("Demos", script, tmp_path)

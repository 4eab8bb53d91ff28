"""The library calls the benchmark makes, made once each.

`bench/workloads.py` checks every operation's output against `sixstate`,
and `bench/run.py` times the crossing search directly.  The benchmark's
own smoke test (`bench/test_smoke.py`, about 10 s) is not part of this
suite, so these calls keep a rename or a signature change of a name the
benchmark uses from passing here unseen.
"""

import importlib.util
import pathlib
import sys

import pytest

from sixstate import analysis, info

_WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("_bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses reads the defining module from sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_simulated_information_matches_closed_form(workloads):
    simulated = workloads.eve_information_simulated(0.05, 0.12)
    assert abs(simulated - info.i_ae_optimal(0.05, 0.12)) <= 1e-12


def test_threshold_checker_calls(workloads):
    assert workloads._advantage(0.05, 0.12) == info.i_ab(0.12) - info.i_ae_optimal(0.05, 0.12)
    # the pre-scan alone, as bench/run.py times it: a bracket wider than
    # the whole interval leaves bisection nothing to do
    result = analysis.crossing_point(0.05, tol=1.0)
    assert result.iterations == 0 and 0.025 < result.q_cross < 0.5

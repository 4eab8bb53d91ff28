"""Smoke test of the benchmark at a tiny size.

Run from the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import pytest

import run

BENCHMARK = run.BENCHMARK
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.fixture(autouse=True)
def tiny_runs(monkeypatch):
    monkeypatch.setattr(run, "SETUP_RUNS", 1)
    monkeypatch.setattr(run, "MIN_OPS", 1)


def bench(workload, seed=1, trace=0, cli_main=None):
    """One block of the workload, in-process; returns (run record, result)."""
    out = io.StringIO()
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace)]
    with contextlib.redirect_stdout(out):
        assert run.main(argv, cli_main=cli_main) == 0
    lines = out.getvalue().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed(workload, trace):
    record, result = bench(workload, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    assert record["env"]["cpu_count"] >= 1
    assert record["env"]["numpy"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_schedule_and_stdout(workload):
    first, _ = bench(workload, seed=7)
    again, _ = bench(workload, seed=7)
    other, _ = bench(workload, seed=8)
    for key in ("digest_ops", "schedule_sha256", "stdout_sha256"):
        assert first[key] == again[key]
    assert first["schedule_sha256"] != other["schedule_sha256"]


def _shift_column(text, col, delta):
    lines = text.splitlines()
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        fields[col] = repr(float(fields[col]) + delta)
        lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


CORRUPT = {
    "threshold": lambda text: _shift_column(text, 1, 1e-3),
    "curves": lambda text: _shift_column(text, 2, 1e-6),
    "oracle": lambda text: re.sub(r"i_ae_grid = (\S+)",
                                  lambda m: f"i_ae_grid = {float(m[1]) + 1e-3!r}", text),
    "verify": lambda text: text.replace("PASS", "FAIL", 1),
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_output_counted_as_failed(workload):
    real_main = run.load_program().cli.main

    def corrupted_main(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = real_main(argv)
        sys.stdout.write(CORRUPT[workload](buf.getvalue()))
        return code

    _, result = bench(workload, cli_main=corrupted_main)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_refused_input_is_failed_but_not_wrong():
    _, result = bench("verify", cli_main=lambda argv: 2)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is True


def test_edge_failures_reported_apart():
    real_main = run.load_program().cli.main
    import workloads

    def refuses_edge(argv):
        q = float(argv[argv.index("--q") + 1])
        return 2 if q > 0.5 - workloads.EDGE_BAND else real_main(argv)

    record, result = bench("verify", cli_main=refuses_edge)
    assert record["edge"]["ops"] == record["edge"]["failed"] == workloads.BLOCK
    assert result["failed"] == 0
    assert result["correct"] is True


def test_crash_is_wrong():
    def crashing_main(argv):
        raise RuntimeError("boom")

    _, result = bench("verify", cli_main=crashing_main)
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_exits_without_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout

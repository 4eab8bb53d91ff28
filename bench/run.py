"""Benchmark of the sixstate command-line tool.

Run from the repository root:

    python3 bench/run.py --workload threshold --seed 1 --seconds 15 --trace 0

One process, one caller, closed loop: the harness calls
``sixstate.cli.main(argv)`` in-process with stdout and stderr captured,
sends the next operation only when the previous one has returned, and
checks every output.  The argv schedule comes from ``--seed`` alone (see
``workloads.py``); operations run in whole blocks until ``--seconds`` have
passed and at least ``MIN_OPS`` operations are done.  BLAS threads are
pinned to 1 before numpy is imported.

``--trace 0`` prints the end-to-end metrics.  A shared host can change
speed by a third or more over tens of seconds, so every operation is
followed by a fixed reference kernel that uses no sixstate code, and
operation times are scaled by the host's speed over their block: an
operation's scaled time is its wall time times ``REF_MS`` over the median
reference time of its block.  ``items_per_s``, ``op_ms_p50`` and
``op_ms_p90`` are taken from scaled times; the run record keeps the wall
figures too.

``--trace 1`` runs each operation twice, back to back: untraced, then with
every public sixstate function wrapped (``tracing.py``), in whole blocks;
it prints the per-layer metrics of the traced runs and the tracing
overhead against the untraced ones.

On oracle and verify the points in the band by q = 1/2, where the program
refuses or fails many inputs (a known defect), are run once before the
timed operations and reported apart (``edge`` in the run record and the
``optimize.edge_failed`` per-layer metric), so every timed operation is
expected to succeed.

A failed operation is an exception, a non-zero exit or an output that
fails its workload's check.  ``correct`` is false when some operation gave
a wrong answer: exit 0 with an output that fails the check, or the
program's own verdict that its results disagree (exit 1 from ``verify``,
exit 4 from ``optimize``), or a crash (an exception out of ``main``).  A
refused input (exit 2 or 3) is counted as failed without a wrong answer.

The last line of stdout is the result JSON; the line before it records the
run (environment, sample counts, digests of the argv schedule and of the
program's stdout).  The same record, and the spans of a traced run, are
written under ``bench/out/``.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Pinned before anything imports numpy, so the figures measure the program
# and not the thread scheduler.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

# name -> unit of the metrics a run prints, as BENCHMARK.json declares them.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# Fresh interpreters timed per run for setup_s, after one untimed warm-up
# that also compiles the bytecode cache.
SETUP_RUNS = 15
SETUP_CODE = (
    "import time; t = time.perf_counter(); import sixstate; "
    "print(time.perf_counter() - t)"
)
# Wall ms of one `reference` call at the host's nominal speed: a scaled
# time is what the operation would have taken with the reference at REF_MS.
REF_MS = 0.5
# Operations a run completes at least, so op_ms_p90 has ten samples above it.
MIN_OPS = 100
# Operations whose argv and stdout go into the run's digests.
DIGEST_OPS = 100
# Shares of --seconds in a traced run: operations run untraced and traced
# in pairs, then the pre-scan/bisection split.
TRACED_SHARE, SPLIT_SHARE = 0.8, 0.2
# Spans kept in memory at most; a traced run stops after the block that
# crosses it.
SPAN_CAP = 1_000_000


@dataclasses.dataclass
class Outcome:
    """What one operation did, as the benchmark saw it."""

    ms: float
    items: int
    failed: bool
    wrong: bool
    reason: str
    stdout: str
    # Wall ms scaled to the host's nominal speed (see `run_blocks`).
    scaled_ms: float = math.nan


def load_program():
    """Import sixstate from this checkout's src/, or exit non-zero."""
    if not (SRC / "sixstate" / "__init__.py").is_file():
        raise SystemExit(f"error: no sixstate package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sixstate
    import sixstate.cli

    if Path(sixstate.__file__).resolve().parent != (SRC / "sixstate").resolve():
        raise SystemExit(f"error: imported sixstate from {sixstate.__file__}, not {SRC}")
    return sixstate


def reference():
    """Fixed scalar work that uses no sixstate code, to gauge the host's speed."""
    s = 0.0
    for i in range(1, 2000):
        x = i / 2001.0
        s += x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x)
    return s


def reference_ms():
    start = time.perf_counter_ns()
    reference()
    return (time.perf_counter_ns() - start) / 1e6


def time_setup(runs):
    """Seconds for fresh interpreters to finish ``import sixstate``."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    times = []
    for i in range(runs + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        if i:
            times.append(float(done.stdout))
    return times


def run_op(op, check, cli_main, tracer=None, op_id=-1):
    """Run one operation, then check its output outside the timed (and traced) call."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is not None:
            tracer.begin_op(op_id)
        start = time.perf_counter_ns()
        try:
            code = cli_main(list(op.argv))
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a crash is a failed operation, not the end of the run
            crash = f"{type(exc).__name__}: {exc}"
        finally:
            ms = (time.perf_counter_ns() - start) / 1e6
            if tracer is not None:
                tracer.end_op()
    text = out.getvalue()
    wrong = False
    if crash is not None:
        reason = f"crash: {crash}"
        wrong = True
    elif code != 0:
        reason = f"exit {code}: {err.getvalue().strip()[-200:]}"
        wrong = code in (1, 4)
    else:
        try:
            reason = check(op, text)
        except (ValueError, IndexError) as exc:
            reason = f"unparsable output: {exc}"
        wrong = reason is not None
    failed = reason is not None
    return Outcome(ms=ms, items=0 if failed else op.items, failed=failed, wrong=wrong,
                   reason=reason, stdout=text)


class Run:
    """Operations run so far, in schedule order, with their outcomes."""

    def __init__(self):
        self.ops = []
        self.outcomes = []
        self.ref_ms = []
        self._schedule = hashlib.sha256()
        self._stdout = hashlib.sha256()

    def add(self, op, outcome):
        if len(self.ops) < DIGEST_OPS:
            self._schedule.update(("\0".join(op.argv) + "\n").encode())
            self._stdout.update(outcome.stdout.encode())
        outcome.stdout = None
        self.ops.append(op)
        self.outcomes.append(outcome)

    def digests(self):
        return {"digest_ops": min(len(self.ops), DIGEST_OPS),
                "schedule_sha256": self._schedule.hexdigest(),
                "stdout_sha256": self._stdout.hexdigest()}


def run_blocks(blocks, check, cli_main, seconds, min_ops):
    """Run whole blocks until `seconds` have passed and `min_ops` are done.

    Stopping only between blocks keeps every run's mix of operations the same.
    Each operation is followed by one `reference` call, and the operations
    of a block get their wall times scaled by REF_MS over the median
    reference time of that block, which takes the host's changes of speed
    out of the scaled times.
    """
    run = Run()
    deadline = time.perf_counter() + seconds
    for block in blocks:
        refs = []
        for op in block:
            run.add(op, run_op(op, check, cli_main))
            refs.append(reference_ms())
        scale = REF_MS / statistics.median(refs)
        for outcome in run.outcomes[-len(block):]:
            outcome.scaled_ms = outcome.ms * scale
        run.ref_ms.extend(refs)
        if len(run.ops) >= min_ops and time.perf_counter() >= deadline:
            return run


def latency(run, field):
    """items_per_s, op_ms_p50 and op_ms_p90 of a run, from the given time field."""
    ms = sorted(getattr(o, field) for o in run.outcomes)
    return {
        "items_per_s": sum(o.items for o in run.outcomes) / (sum(ms) / 1e3),
        "op_ms_p50": statistics.median(ms),
        "op_ms_p90": ms[math.ceil(0.9 * len(ms)) - 1],
    }


def end_to_end(run, setup_times):
    n = len(run.outcomes)
    failed = sum(o.failed for o in run.outcomes)
    values = {
        "setup_s": statistics.median(setup_times),
        **latency(run, "scaled_ms"),
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {"setup_s": len(setup_times), "items_per_s": n,
               "op_ms_p50": n, "op_ms_p90": n, "ok_frac": n, "peak_rss_mb": 1}
    return values, samples


def run_edge(ops, check, cli_main):
    """Run the edge operations once, untimed, for the run record.

    Their failures are the known defect by q = 1/2 (``workloads.edge_points``)
    and are counted here, not in the result's attempted and failed.
    """
    outcomes = [(op, run_op(op, check, cli_main)) for op in ops]
    failed = [(list(op.argv), o.reason) for op, o in outcomes if o.failed]
    return {"ops": len(ops), "failed": len(failed),
            "wrong": sum(o.wrong for _, o in outcomes), "first_failed": failed[:3]}


def crossing_split(analysis, points, seconds):
    """Median ms of the pre-scan and of the bisection per crossing point.

    Each p is solved twice, untraced: with a tolerance wider than the whole
    bracket, so bisection runs no iteration, and with the default one.
    Returns zeros when there are no points, as on workloads without a
    crossing search.
    """
    wide, bisect = [], []
    deadline = time.perf_counter() + seconds
    for p in points:
        t0 = time.perf_counter_ns()
        analysis.crossing_point(p, tol=1.0)
        t1 = time.perf_counter_ns()
        analysis.crossing_point(p)
        t2 = time.perf_counter_ns()
        wide.append((t1 - t0) / 1e6)
        bisect.append((t2 - t1 - (t1 - t0)) / 1e6)
        if time.perf_counter() >= deadline:
            break
    if not wide:
        return 0.0, 0.0, 0
    return statistics.median(wide), statistics.median(bisect), len(wide)


def traced_pairs(tracer, blocks, check, cli_main, seconds):
    """Run each operation untraced and at once again traced, in whole blocks,
    until `seconds` have passed or SPAN_CAP spans are kept.

    Timing the two runs of an operation back to back keeps drift in the
    machine's speed out of the tracing overhead.
    """
    run, traced = Run(), []
    deadline = time.perf_counter() + seconds
    for block in blocks:
        for op in block:
            run.add(op, run_op(op, check, cli_main))
            tracer.install()
            try:
                outcome = run_op(op, check, cli_main, tracer, len(traced))
            finally:
                tracer.uninstall()
            outcome.stdout = None
            traced.append(outcome)
        if time.perf_counter() >= deadline or len(tracer) >= SPAN_CAP:
            return run, traced


def per_layer(tracer, run, traced, split):
    """Per-layer metrics from the traced operations and the crossing split."""
    values = tracer.layer_metrics(sum(op.items for op in run.ops))
    values["trace_overhead_frac"] = (
        sum(o.ms for o in traced) / sum(o.ms for o in run.outcomes) - 1.0)
    values["analysis.prescan_ms"], values["analysis.bisect_ms"], n_split = split
    samples = {name: len(traced) for name in PER_LAYER}
    samples["analysis.prescan_ms"] = samples["analysis.bisect_ms"] = n_split
    return values, samples


def environment(numpy_version):
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
        lines = top.stdout.split()
        commit = lines[1] if Path(lines[0]).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, IndexError):
        commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "sixstate").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": src.hexdigest(),
        "blas_threads": 1,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, cli_main=None):
    args = parse_args(argv)
    program = load_program()
    import numpy
    import tracing
    import workloads

    check = workloads.WORKLOADS[args.workload].check
    cli_main = cli_main or program.cli.main
    blocks = workloads.schedule(args.workload, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    edge = run_edge(workloads.edge_ops(args.workload, args.seed), check, cli_main)
    extra = {}
    if args.trace:
        tracer = tracing.Tracer()
        if cli_main is program.cli.main:
            # Look main up at each call, so traced runs go through its wrapper.
            cli_main = lambda argv: program.cli.main(argv)  # noqa: E731
        run, traced = traced_pairs(tracer, blocks, check, cli_main, TRACED_SHARE * args.seconds)
        points = ([p for op in run.ops for p in workloads.sweep_points(op)]
                  if args.workload == "threshold" else [])
        split = crossing_split(program.analysis, points, SPLIT_SHARE * args.seconds)
        metrics, samples = per_layer(tracer, run, traced, split)
        metrics["optimize.edge_failed"] = edge["failed"]
        samples["optimize.edge_failed"] = edge["ops"]
        tracer.write(OUT_DIR / f"spans-{args.workload}.npz")
        extra = {"traced_ops": len(traced), "spans": len(tracer),
                 "untimed_calls": tracer.nested_calls()}
        units = PER_LAYER
    else:
        setup_times = time_setup(SETUP_RUNS)
        run = run_blocks(blocks, check, cli_main, args.seconds, MIN_OPS)
        metrics, samples = end_to_end(run, setup_times)
        extra = {"wall": latency(run, "ms"), "ref_ms_median": statistics.median(run.ref_ms)}
        traced = []
        units = END_TO_END

    outcomes = run.outcomes + traced
    # In a traced run, run.ops[i] ran once untraced and once traced.
    failures = [(list(op.argv), o.reason) for op, o in zip(run.ops + run.ops, outcomes)
                if o.failed]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(numpy.__version__),
        "samples": samples,
        **run.digests(),
        **extra,
        "failures": failures[:20],
        "edge": edge,
    }
    result = {
        "correct": not any(o.wrong for o in outcomes),
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps({"run": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

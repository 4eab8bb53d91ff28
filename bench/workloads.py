"""Seeded argv schedules and output checks for the four benchmark workloads.

Each workload turns a seed into an endless stream of blocks of operations.
An operation is the argv handed to ``sixstate.cli.main`` plus what the
checker needs to know about it; the program sees only the argv.  Blocks are
stratified (every block holds the same mix of sizes and covers the domain
the same way), so two seeds give runs of the same composition and the
run-to-run spread measures the program rather than the draw.

A checker returns ``None`` for a correct output and a one-line reason
otherwise.
"""

import dataclasses
import math
import random

import numpy as np

from sixstate import attack, info, protocol

# Crossing-search bracket width the CLI uses when --tol is not given.
CROSSING_TOL = 1e-9
# Noiseless threshold the CLI uses for its straight-line baseline.
PURE_CROSSING_D = 0.15637
CURVE_STEPS = 200
CURVE_ROWS_CHECKED = 3
MI_TOL = 1e-9
# Largest source noise the curves, oracle and verify workloads draw.
P_MAX = 0.95
# Operations per block on the curves, oracle and verify workloads.
BLOCK = 20
# Width of the band below q = 1/2 that oracle and verify leave to their
# edge operations: ten times that of the refusals found there.
EDGE_BAND = 1e-5

CROSSING_HEADER = "p,q_cross,q_line,margin"
CURVES_HEADER = "q,i_ab,i_ae_opt,i_ae_alt,i_ab_pure,i_ae_pure,beta_sq"
OPTIMIZE_KEYS = (
    "i_ae_closed", "i_ae_grid", "abs_diff", "beta_sq_plus", "beta_sq_minus",
    "grid_beta_a_sq", "i_ae_antiphase", "lagrange_residual", "branch", "evaluations",
)
VERIFY_CHECKS = 7
# The CLI's default --tol for optimize.
OPTIMIZE_TOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI operation: its argv, the items it completes, and checker data."""

    argv: tuple
    items: int
    p: float
    p_max: float = math.nan
    rows: tuple = ()


def _fmt(x):
    return format(float(x), ".9g")


def _stratified(rng, n, lo, hi):
    """n values in [lo, hi), one per equal-width stratum, in random order."""
    width = (hi - lo) / n
    values = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(values)
    return values


def threshold_block(rng):
    """One crossing sweep of each length 1..21 over a random window of [0, 0.5]."""
    lengths = list(range(1, 22))
    rng.shuffle(lengths)
    ops = []
    for steps in lengths:
        if steps == 1:
            p_min = p_max = rng.uniform(0.0, 0.5)
        else:
            p_min, p_max = sorted((rng.uniform(0.0, 0.5), rng.uniform(0.0, 0.5)))
            if p_min == p_max:
                p_min, p_max = 0.0, 0.5
        argv = ("crossing", "--p-min", repr(p_min), "--p-max", repr(p_max),
                "--steps", str(steps))
        ops.append(Op(argv=argv, items=steps, p=p_min, p_max=p_max))
    return ops


def curves_block(rng):
    """Default-size information curves at noise levels stratified over [0, 0.95)."""
    ops = []
    for p in _stratified(rng, BLOCK, 0.0, P_MAX):
        rows = tuple(sorted(rng.sample(range(CURVE_STEPS), CURVE_ROWS_CHECKED)))
        argv = ("curves", "--p", repr(p), "--steps", str(CURVE_STEPS))
        ops.append(Op(argv=argv, items=CURVE_STEPS, p=p, rows=rows))
    return ops


def _domain_points(rng):
    """(p, q) pairs covering 0 <= p < 0.95, p/2 <= q <= 1/2 - EDGE_BAND.

    Stratified in p and in q's position between its bounds; in each block
    one point sits exactly on q = p/2.  The band next to q = 1/2 is left to
    `edge_points`: the program refuses many points in it (see there).
    """
    ps = _stratified(rng, BLOCK, 0.0, P_MAX)
    fracs = _stratified(rng, BLOCK, 0.0, 1.0)
    on_low = rng.randrange(BLOCK)
    return [(p, p / 2.0 if i == on_low else p / 2.0 + f * (0.5 - EDGE_BAND - p / 2.0))
            for i, (p, f) in enumerate(zip(ps, fracs))]


def edge_points(rng):
    """(p, q) pairs with p stratified over [0, 0.95) and q in the band by 1/2.

    Every other point sits exactly on q = 1/2, the rest at 10**-8 to 1 times
    EDGE_BAND below it.  For q within about 1e-6 of 1/2 and p above about
    0.3 the program exits 2 ("overlap condition violated"), a known defect.
    These points are run once per run, untimed, and their refusals are
    reported apart from the timed operations, every one of which must
    succeed.
    """
    ps = sorted(_stratified(rng, BLOCK, 0.0, P_MAX))
    return [(p, 0.5 if i % 2 == 0 else 0.5 - EDGE_BAND * 10.0 ** -rng.uniform(0.0, 8.0))
            for i, p in enumerate(ps)]


def _optimize_op(p, q):
    return Op(argv=("optimize", "--p", repr(p), "--q", repr(q), "--grid", "201",
                    "--refine", "6"), items=1, p=p)


def _verify_op(p, q):
    return Op(argv=("verify", "--p", repr(p), "--q", repr(q)), items=1, p=p)


def oracle_block(rng):
    """Closed form against the default grid search, over the whole domain."""
    return [_optimize_op(p, q) for p, q in _domain_points(rng)]


def verify_block(rng):
    """The consistency-check bundle, on the same distribution as oracle."""
    return [_verify_op(p, q) for p, q in _domain_points(rng)]


def _parse_csv(text, header, ncols):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"bad header {lines[:1]!r}")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != ncols:
            raise ValueError(f"row {line!r} has {len(fields)} fields")
        rows.append(fields)
    return rows


def _advantage(p, q):
    return info.i_ab(q) - info.i_ae_optimal(p, q)


def sweep_points(op):
    """The noise levels a crossing operation solves, as the CLI spaces them."""
    if op.items == 1:
        return [op.p]
    return [float(x) for x in np.linspace(op.p, op.p_max, op.items)]


def check_threshold(op, text):
    """Each threshold must bracket a sign change of i_ab - i_ae_optimal."""
    rows = _parse_csv(text, CROSSING_HEADER, 4)
    ps = sweep_points(op)
    if len(rows) != len(ps):
        return f"{len(rows)} rows for {len(ps)} points"
    for p, (p_s, qc_s, line_s, margin_s) in zip(ps, rows):
        if p_s != _fmt(p):
            return f"p column {p_s} != {_fmt(p)}"
        qc, q_line, margin = float(qc_s), float(line_s), float(margin_s)
        lo, hi = qc - CROSSING_TOL, qc + CROSSING_TOL
        if not (lo >= p / 2.0 and hi <= 0.5):
            return f"q_cross={qc_s} outside the search interval at p={p_s}"
        if not (_advantage(p, lo) > 0.0 > _advantage(p, hi)):
            return f"no sign change across q_cross={qc_s} +- tol at p={p_s}"
        if abs(q_line - (PURE_CROSSING_D * (1.0 - p) + p / 2.0)) > 1e-9:
            return f"q_line={line_s} off the baseline at p={p_s}"
        if abs(margin - (qc - q_line)) > 2e-9:
            return f"margin={margin_s} != q_cross - q_line at p={p_s}"
    return None


def eve_information_simulated(p, q):
    """Eve's optimal information from the density-matrix simulation.

    Mutual information of Alice's uniform bit and Eve's four outcomes,
    independent of the closed forms in ``sixstate.info``.
    """
    params = attack.optimal_parameters(p, q)
    iso = attack.build_isometry(protocol.d_from_qber(q, p), attack.build_ancillas(params))
    joint = 0.5 * attack.simulate_eve_distribution(iso, p).reshape(2, 4)
    return info.mutual_information(joint)


def check_curves(op, text):
    """Grid, Bob's curve, and sampled rows of Eve's curve against simulation."""
    rows = _parse_csv(text, CURVES_HEADER, 7)
    if len(rows) != CURVE_STEPS:
        return f"{len(rows)} rows, expected {CURVE_STEPS}"
    qs = np.linspace(op.p / 2.0, 0.5, CURVE_STEPS)
    for i, row in enumerate(rows):
        q = float(qs[i])
        if row[0] != _fmt(q):
            return f"row {i}: q column {row[0]} != {_fmt(q)}"
        h = 0.0 if q == 0.0 else q * math.log2(q) + (1.0 - q) * math.log2(1.0 - q)
        if abs(float(row[1]) - (1.0 + h)) > MI_TOL or row[4] != row[1]:
            return f"row {i}: i_ab columns {row[1]}, {row[4]} wrong at q={row[0]}"
    for i in op.rows:
        q = float(qs[i])
        expected = eve_information_simulated(op.p, q)
        if abs(float(rows[i][2]) - expected) > MI_TOL:
            return f"row {i}: i_ae_opt={rows[i][2]} but simulation gives {expected!r}"
    return None


def check_oracle(op, text):
    """A full report whose closed form and grid optimum agree within tol."""
    values = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            values[key] = value
    missing = [k for k in OPTIMIZE_KEYS if k not in values]
    if missing:
        return f"report lacks {missing}"
    closed = float(values["i_ae_closed"])
    grid = float(values["i_ae_grid"])
    if not abs(closed - grid) <= OPTIMIZE_TOL + 1e-9:
        return f"closed {closed!r} and grid {grid!r} differ beyond tol"
    if values["branch"] not in ("phase0", "phasepi"):
        return f"unknown branch {values['branch']!r}"
    if not int(values["evaluations"]) > 0:
        return "no objective evaluations reported"
    return None


def check_verify(op, text):
    """Every check of the bundle passes and the advantage line follows."""
    lines = text.splitlines()
    if len(lines) != VERIFY_CHECKS + 1:
        return f"{len(lines)} lines, expected {VERIFY_CHECKS + 1}"
    for line in lines[:-1]:
        if not line.startswith("PASS "):
            return f"check not passed: {line!r}"
    if not lines[-1].startswith("i_ab - i_ae_opt = "):
        return f"bad last line {lines[-1]!r}"
    float(lines[-1].rpartition(" = ")[2])
    return None


@dataclasses.dataclass(frozen=True)
class Workload:
    """How to make a workload's blocks and edge operations, and check outputs.

    Why each workload is in the benchmark is recorded in BENCHMARK.json.
    """

    block: object
    check: object
    make_op: object = None


WORKLOADS = {
    "threshold": Workload(threshold_block, check_threshold),
    "curves": Workload(curves_block, check_curves),
    "oracle": Workload(oracle_block, check_oracle, _optimize_op),
    "verify": Workload(verify_block, check_verify, _verify_op),
}


def schedule(workload, seed):
    """Endless stream of blocks for a workload; the same seed gives the same stream."""
    rng = random.Random(f"{workload}:{seed}")
    make_block = WORKLOADS[workload].block
    while True:
        yield make_block(rng)


def edge_ops(workload, seed):
    """The workload's operations on the edge q = 1/2, the same for the same seed."""
    make_op = WORKLOADS[workload].make_op
    if make_op is None:
        return []
    return [make_op(p, q) for p, q in edge_points(random.Random(f"{workload}:{seed}:edge"))]

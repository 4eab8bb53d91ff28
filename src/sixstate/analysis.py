"""Curve sweeps, key-rate crossing studies and the attack's self-checks.

Produces the data behind the two standard pictures of this analysis:
information-versus-error-rate curves at fixed noise (with the
noiseless curves alongside for comparison), and the error-rate
threshold where Bob's information stops exceeding Eve's, swept over
the noise weight and compared with a straight-line baseline anchored
at the noiseless threshold.  `verify_checks` (the attack's consistency
checks) and `compare_optimum` (the closed-form optimum beside the grid
search's) compute what ``sixstate verify`` and ``optimize`` print.
"""

import dataclasses
import math

import numpy as np

from .attack import (_overlap_target, build_ancillas, build_isometry,
                     eve_distribution_closed_form, optimal_parameters, simulate)
from .exceptions import AmbiguousCrossingError, DomainError, NoCrossingError
from .info import (_beta_sq, _i_ab, _i_ae_aligned, _i_ae_antiphase, _i_ae_optimal, _noise,
                   _optimum)
from .optimize import grid_refine_maximize, lagrange_residual
from .protocol import _disturbance, _float, check_count, check_domain, check_range

__all__ = [
    "PURE_CROSSING_D",
    "CurvePoint",
    "CrossingResult",
    "curve_sweep",
    "crossing_point",
    "crossing_sweep",
    "compare_optimum",
    "verify_checks",
]

# Noiseless-protocol threshold used for the straight-line baseline,
# kept at this published 5-digit value rather than recomputed; the
# recomputed number is available as crossing_point(0).q_cross.
PURE_CROSSING_D = 0.15637

# The crossing search brackets stay this far inside the open interval.
_EDGE = 1e-9
# Largest sweep sizes: they bound memory (one row of seven floats and one
# CSV line per curve step) and run time (one bisection per crossing step).
_MAX_CURVE_STEPS = 100_000
_MAX_CROSSING_STEPS = 10_000
# Bisection levels per kernel call, and rows per kernel call.  Five levels
# (31 midpoints a row) timed fastest of 4-10 on the benchmark's threshold
# schedule; 64 rows keep the kernel's temporaries near 1 MB however long
# the sweep.
_LEVELS = 5
_ROWS = 64
# The crossing search takes a rise of the advantage back above zero as a
# second sign change only past this bound, 64 ulps of 1.  Where the
# bracket nears the float spacing at the root, round-off alone flips the
# sign of this difference of two informations in [0, 1]: by up to
# 2.8e-16 over 501 p at tol=1e-20.
_ROUNDOFF = 64 * np.finfo(float).eps


@dataclasses.dataclass(frozen=True)
class CurvePoint:
    """One row of an information-curve sweep.

    i_ab/i_ae_opt/i_ae_alt are the noisy-source curves at the sweep's
    noise weight; i_ab_pure/i_ae_pure are the same formulas at zero
    noise on the same error-rate grid.  beta_sq is the optimal probe
    weight (plus branch) at this point.
    """

    q: float
    i_ab: float
    i_ae_opt: float
    i_ae_alt: float
    i_ab_pure: float
    i_ae_pure: float
    beta_sq: float


@dataclasses.dataclass(frozen=True)
class CrossingResult:
    """Where Bob's information advantage over Eve ends, at noise p.

    q_line is the straight-line baseline ``0.15637 (1 - p) + p/2`` and
    margin is ``q_cross - q_line``; a positive margin means the true
    threshold lies above the line.
    """

    p: float
    q_cross: float
    q_line: float
    margin: float
    iterations: int


def curve_sweep(p, steps=200):
    """Information curves on a uniform error-rate grid at noise p.

    Parameters
    ----------
    p : float
        Noise weight in [0, 1).
    steps : int
        Number of grid points over [p/2, 1/2], 2 to 100,000.

    Returns
    -------
    list of CurvePoint
    """
    return [CurvePoint(*row) for row in _curve_rows(p, steps)]


def _curve_rows(p, steps):
    """The rows of `curve_sweep`, as an iterator of float tuples in field order.

    p and steps are checked before it returns.  The CLI writes these
    tuples straight to CSV, without a CurvePoint per row.
    """
    p, _ = check_domain(p, 0.5)
    steps = check_count(steps, 2, _MAX_CURVE_STEPS, "steps")
    qs = np.linspace(p / 2.0, 0.5, steps)
    i_ab = _i_ab(qs).tolist()
    noise = _noise(p)
    beta_sq, i_ae = _optimum(noise, qs)
    return zip(
        qs.tolist(),
        i_ab,
        i_ae.tolist(),
        _i_ae_antiphase(noise, qs).tolist(),
        i_ab,
        _i_ae_optimal(_noise(0.0), qs).tolist(),
        beta_sq.tolist(),
    )


def _advantage(noise, q):
    """Bob's minus Eve's information at the terms of `_noise`; broadcasts, checks nothing."""
    value = _i_ab(q)
    value -= _i_ae_optimal(noise, q)
    return value


def crossing_point(p, tol=1e-9):
    """Error rate where Bob's and Eve's information curves cross.

    Locates the root of ``i_ab(q) - i_ae_optimal(p, q)`` by bisection
    on [p/2 + 1e-9, 1/2 - 1e-9].  The first bisection round certifies
    that the difference changes sign exactly once on 33 evenly spaced
    points, both ends included; each later round checks its own points
    again.  This is the one-row case of the lock-step search
    `crossing_sweep` runs, so both give the same result at the same p.

    Parameters
    ----------
    p : float
        Noise weight, restricted to [0, 0.5] (beyond that the curves
        stay uninformative for the key-rate question).
    tol : float
        Final bracket width.  The search also stops once the bracket
        cannot be split further in floating point, so a tol below the
        float spacing near the root returns the tightest bracket.

    Returns
    -------
    CrossingResult

    Raises
    ------
    NoCrossingError
        If the difference does not change sign on the interval.
    AmbiguousCrossingError
        If a bisection round sees more than one sign change.
    """
    return _crossings([check_range(p, 0.0, 0.5, "noise parameter p")], tol)[0]


def crossing_sweep(p_min, p_max, steps=21, tol=1e-9):
    """Crossing thresholds on a uniform noise grid.

    steps runs from 1 to 10,000.  steps == 1 degenerates to the single
    point p_min (p_max must then equal p_min); otherwise p_min < p_max
    is required.  Every row equals `crossing_point` at its p bit for
    bit; the rows are bisected in lock step, in chunks of 64.  Of the
    rows the first round refuses, the first in sweep order raises its
    error; a sign change that only a later round sees raises when that
    round runs.
    """
    steps = check_count(steps, 1, _MAX_CROSSING_STEPS, "steps")
    p_min = check_range(p_min, 0.0, 0.5, "noise parameter p_min")
    p_max = check_range(p_max, p_min, 0.5, "noise parameter p_max")
    if steps == 1:
        if not math.isclose(p_min, p_max, abs_tol=1e-15):
            raise DomainError("steps=1 requires p_min == p_max")
        ps = [p_min]
    else:
        if not p_min < p_max:
            raise DomainError("need p_min < p_max for a multi-point sweep")
        ps = np.linspace(p_min, p_max, steps).tolist()
    return _crossings(ps, tol)


def _splits(lo, mid, hi, tol):
    """Whether bisection goes on from [lo, hi] with midpoint mid.

    The second test stops a bracket that cannot split further in
    floating point, so a tol below the float spacing still ends.
    """
    return hi - lo > tol and lo < mid < hi


def _certify(ps, live, edges, values, first):
    """Raise for the first row, in sweep order, without one sign change.

    values holds the advantage f at a row's edges in round one and at
    its midpoints after.  Round one needs f(lo) > 0 > f(hi); a later
    bracket has f(lo) > 0 >= f(hi) already.  One sign change then means
    that f never rises above zero once it fell below: an exact zero is
    skipped, and a rise by less than _ROUNDOFF is round-off by the root.
    """
    fell = np.logical_or.accumulate(~(values >= 0.0), axis=1)
    refused = (fell & (values > _ROUNDOFF)).any(axis=1)
    if first:
        crosses = (values[:, 0] > 0.0) & (values[:, -1] < 0.0)
        refused |= ~crosses
    if not refused.any():
        return
    r = int(np.argmax(refused))
    lo, hi = edges[r, 0], edges[r, -1]
    if first and not crosses[r]:
        raise NoCrossingError(
            f"advantage does not change sign on [{lo}, {hi}]: "
            f"f(lo)={values[r, 0]}, f(hi)={values[r, -1]}"
        )
    raise AmbiguousCrossingError(
        f"advantage changes sign more than once on [{lo}, {hi}] for p={ps[live[r]]}"
    )


def _live_noise(ps, live):
    """The `_noise` terms of the live rows: of a Python float p for one, else of a column."""
    if len(live) == 1:
        return _noise(ps[live[0]])
    return _noise(np.array([ps[i] for i in live])[:, None])


def _crossings(ps, tol):
    """Bisect the crossing at every noise weight in ps, in lock step.

    Each row runs the scalar bisection ``mid = 0.5 * (lo + hi)`` while
    `_splits`.  One kernel call per round evaluates, for each of up to
    _ROWS live rows, every midpoint its next _LEVELS steps could visit,
    built from adjacent bracket ends by that same expression; each row
    then walks its own path through them.  So every bracket, count and
    result equals one-at-a-time bisection bit for bit, and a row whose
    next step would stop costs no call after round one.  The kernel takes
    the live rows' noise terms (`sixstate.info._noise`), formed once per
    chunk and again only when rows retire, for the rows still live; so
    each round runs only the passes that depend on q.  A lone live row's
    p (a one-point sweep, `crossing_point`, or the one row of a chunk
    still bisecting) is a Python float; more rows take a column.

    Round one takes every row, and its call also evaluates both bracket
    ends: the 33 signs certify one crossing, and each later round checks
    that its 31 midpoints still see only one (`_certify`).  That a 1/32
    grid suffices is physics: on (0, 1/2) Bob's information falls,
    ``I_AB'(q) = log2(q / (1-q)) < 0``, and Eve's optimum does not
    decrease in q, so the advantage falls strictly and crosses zero once
    (tests/test_domain.py checks this on 501 p by 20,001 q).  A row thus
    costs 33 + 31 (rounds - 1) kernel points.
    """
    tol = _float(tol, "tol")
    if not tol > 0.0:
        raise DomainError(f"tol={tol} must be positive")
    los = [p / 2.0 + _EDGE for p in ps]
    his = [0.5 - _EDGE] * len(ps)
    iterations = [0] * len(ps)
    width = 2 ** _LEVELS
    for start in range(0, len(ps), _ROWS):
        chunk = range(start, min(start + _ROWS, len(ps)))
        live, first = list(chunk), True
        noise = _live_noise(ps, live)
        while live:
            # Each row's bracket ends and midpoints in order; level k fills
            # the columns halfway between those filled before it.
            edges = np.empty((len(live), width + 1))
            edges[:, 0] = [los[i] for i in live]
            edges[:, -1] = [his[i] for i in live]
            for k in range(_LEVELS):
                s = width >> (k + 1)
                edges[:, s::2 * s] = 0.5 * (edges[:, : -s : 2 * s] + edges[:, 2 * s :: 2 * s])
            values = _advantage(noise, edges if first else edges[:, 1:-1])
            _certify(ps, live, edges, values, first)
            mids = values[:, 1:-1] if first else values
            for i, row, row_mids in zip(live, edges.tolist(), mids.tolist()):
                a, b = 0, width
                while b - a > 1 and _splits(row[a], row[(a + b) // 2], row[b], tol):
                    m = (a + b) // 2
                    if row_mids[m - 1] > 0.0:
                        a = m
                    else:
                        b = m
                    iterations[i] += 1
                los[i], his[i] = row[a], row[b]
            still = [i for i in live if _splits(los[i], 0.5 * (los[i] + his[i]), his[i], tol)]
            if still and len(still) < len(live):
                noise = _live_noise(ps, still)
            live, first = still, False
    results = []
    for p, lo, hi, n in zip(ps, los, his, iterations):
        q_cross = 0.5 * (lo + hi)
        q_line = PURE_CROSSING_D * (1.0 - p) + p / 2.0
        results.append(CrossingResult(
            p=p, q_cross=q_cross, q_line=q_line, margin=q_cross - q_line, iterations=n,
        ))
    return results


def compare_optimum(p, q, grid=201, refine_iters=6):
    """The closed-form optimum at (p, q) beside the grid search's.

    Returns ``(values, result, degenerate)``: the eight values ``sixstate
    optimize`` reports, by name and in its order, the search's
    `OptimizationResult` and the degenerate flag of the Lagrange residual
    of `optimal_parameters`.  The search validates (p, q), grid and
    refine_iters first; the rest takes the validated pair it holds.
    """
    result = grid_refine_maximize(p, q, grid=grid, refine_iters=refine_iters)
    p, q = result.best_params.p, result.best_params.q
    lr = lagrange_residual(optimal_parameters(p, q))
    noise = _noise(p)
    plus, closed = (float(x) for x in _optimum(noise, q))
    values = {
        "i_ae_closed": closed,
        "i_ae_grid": result.best_value,
        "abs_diff": abs(closed - result.best_value),
        "beta_sq_plus": plus,
        "beta_sq_minus": float(_beta_sq(noise, q, -1.0)),
        "grid_beta_a_sq": result.best_params.beta_a_sq,
        "i_ae_antiphase": float(_i_ae_antiphase(noise, q)),
        "lagrange_residual": lr.residual_norm,
    }
    return values, result, lr.degenerate


def verify_checks(p, q):
    """Check the optimal attack at (p, q) against the simulation and the optimum.

    Builds the attack of `optimal_parameters`, which validates (p, q),
    and its isometry, simulates it once, and evaluates the closed forms
    on the validated pair that the attack holds.  Returns ``(checks,
    advantage)``: ``checks`` is a list of seven ``(name, passed,
    detail)`` triples, in this order and with these bounds,

    - "constraints": ``|Re<a|c> - overlap_target|`` at most 1e-10;
    - "outcome distribution": closed-form against simulated outcomes of
      Eve, at most 1e-12;
    - "error rate all bases": simulated error rate against q in every
      basis, at most 1e-10;
    - "bob symmetry": ``|w1 - w0|`` in every basis, at most 1e-12;
    - "branch dominance": ``i_ae_optimal >= i_ae_antiphase - 1e-12``;
    - "branch symmetry": the closed form at the plus and minus roots of
      `sixstate.info.beta_sq_optimal`, within 1e-14;
    - "stationarity": Lagrange residual below 1e-6, or a degenerate point;

    and ``advantage`` is ``i_ab(q) - i_ae_optimal(p, q)``.

    Raises
    ------
    DomainError
        If (p, q) fails `sixstate.protocol.check_domain`.
    ConstraintError
        If building or checking the attack breaks an internal invariant.
    """
    params = optimal_parameters(p, q)
    p, q = params.p, params.q
    iso = build_isometry(_disturbance(q, p), build_ancillas(params))
    residual = abs(params.overlap - _overlap_target(p, q))
    closed = eve_distribution_closed_form(params)
    sim, flips = simulate(iso, p)
    dist_err = float(max(abs(closed - sim)))
    qber_err = max(abs(0.5 * (w0 + w1) - q) for w0, w1 in flips)
    sym_err = max(abs(w1 - w0) for w0, w1 in flips)
    noise = _noise(p)
    opt = float(_i_ae_optimal(noise, q))
    alt = float(_i_ae_antiphase(noise, q))
    swap = abs(float(_i_ae_aligned(noise, q, _beta_sq(noise, q, 1.0)))
               - float(_i_ae_aligned(noise, q, _beta_sq(noise, q, -1.0))))
    lr = lagrange_residual(params)
    checks = [
        ("constraints", residual <= 1e-10, f"max residual {residual:.3e}"),
        ("outcome distribution", dist_err <= 1e-12, f"max diff {dist_err:.3e}"),
        ("error rate all bases", qber_err <= 1e-10, f"max diff {qber_err:.3e}"),
        ("bob symmetry", sym_err <= 1e-12, f"max residual {sym_err:.3e}"),
        ("branch dominance", opt >= alt - 1e-12, f"optimal {opt:.9g} vs antiphase {alt:.9g}"),
        ("branch symmetry", swap <= 1e-14, f"diff {swap:.3e}"),
        ("stationarity", lr.degenerate or lr.residual_norm < 1e-6,
         "degenerate point" if lr.degenerate else f"residual {lr.residual_norm:.3e}"),
    ]
    return checks, float(_i_ab(q)) - opt

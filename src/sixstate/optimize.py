"""Brute-force maximization of Eve's information and stationarity checks.

The constrained seven-parameter attack family collapses to a search
over the two squared weights ``(beta_a_sq, beta_c_sq)`` in the unit
square: the unit-norm conditions fix the gamma radii, and the overlap
condition fixes the cosine of the phase difference wherever a feasible
phase exists.  Eve's information is convex in the two weights, so its
maximum over that feasible set lies on the set's boundary.  A
deterministic sweep of the boundary arcs with iterated window
refinement then serves as an oracle that is independent of every
closed form in `sixstate.info`: it uses no stationarity result, so the
closed forms and the paper's optimum play no part in the search.

The search maximizes `_i_ae`, Eve's information at two squared
weights, on the per-``(p, q)`` terms that `_terms` forms once per
search, as `sixstate.info`'s closed forms take the terms of `_noise`.
It is written apart from the paper's closed form in
`sixstate.info` and shares only `_xlog2`, `_scales` and `_mix` with it,
so the search's agreement with that form (within 2e-15 at aligned
weights, tests/test_info.py) tests the paper's formula, not one kernel
against itself.  Beside it sits the first-order optimality system
derived from it: the four radius derivatives of the objective against
the three constraint gradients, fitted by least squares.  A small
residual certifies a stationary point.
"""

import dataclasses
import math

import numpy as np

from .attack import AttackParameters, _from_squares, _overlap_target, overlap_target
from .exceptions import ConstraintError, DomainError
from .info import _mix, _scales, _xlog2, beta_sq_optimal
from .protocol import check_count, check_domain, check_range

__all__ = [
    "OptimizationResult",
    "LagrangeResidual",
    "feasible_phase",
    "grid_refine_maximize",
    "lagrange_residual",
    "phase_branch_scan",
    "verify_root_pair",
]

# Absolute slack when testing whether a weight pair admits a phase.
_FEAS_SLACK = 1e-12
# Most samples per boundary arc.  grid_refine_maximize samples both arcs
# in one block per round and holds a few arrays of 2 x grid floats, and
# _i_ae a few of 2 x 2 x grid, so its memory is linear in grid: at 2001
# its tracemalloc peak is ~0.53 MB.
_MAX_GRID = 2001
# Most refinement rounds.  Each costs one sweep of each arc; on 20 random
# (p, q) at grid 201, no result changed after round 13.
_MAX_REFINE = 30
# Most points per phase_branch_scan arc; each arc holds three such arrays.
_MAX_SAMPLES = 100_001
# Samples and location tolerance of the arc scan in verify_root_pair.
_PAIR_SAMPLES = 4001
_PAIR_LOC_TOL = 1e-3


@dataclasses.dataclass(frozen=True)
class OptimizationResult:
    """Outcome of `grid_refine_maximize`.

    branch is "phase0" when the best point sits on the aligned-phase
    side (cosine of the phase difference >= 0) and "phasepi" otherwise.
    evaluations counts the objective values the search computed:
    ``2 (refine_iters + 1) grid + 1``, the samples of both arcs in every
    round plus the corner.
    """

    best_params: AttackParameters
    best_value: float
    branch: str
    evaluations: int


@dataclasses.dataclass(frozen=True)
class LagrangeResidual:
    """Least-squares residual of the stationarity system.

    degenerate marks points where the system carries no information
    (the information surface is identically zero on the feasible set,
    q = p/2 within 1e-12); there the residual is reported as 0.
    """

    residual_norm: float
    degenerate: bool = False


def _products(ba, bc):
    """Products ``(pb, pg)`` of the beta and of the gamma radii; broadcasts."""
    return np.sqrt(ba * bc), np.sqrt((1.0 - ba) * (1.0 - bc))


def _feasible(t, pb, pg):
    """Whether some phase meets overlap target t; broadcasts.

    Tests ``pb - pg <= t <= pb + pg`` with an absolute slack of 1e-12.
    """
    return (pb - pg - _FEAS_SLACK <= t) & (t <= pb + pg + _FEAS_SLACK)


def _phase_cos(t, pb, pg):
    """Cosine ``(t - pb) / pg`` clamped to [-1, 1], or 1.0 if pg == 0 (scalars)."""
    return 1.0 if pg == 0.0 else min(max(float((t - pb) / pg), -1.0), 1.0)


def feasible_phase(r_beta_a_sq, r_beta_c_sq, p, q):
    """Cosine of the phase difference that meets the overlap condition.

    Solves ``pb + pg * cos = overlap_target(p, q)`` where pb and pg are
    the products of the beta and gamma radii.  Returns the cosine
    clamped to [-1, 1] when the point passes the feasibility test
    `_feasible`, and None otherwise.  When both gamma radii vanish the
    equation drops the cosine entirely; a (conventional) 1.0 is returned
    iff it already holds.

    The grid search samples only the feasible set's boundary and needs
    no such test; the optimizer demo, the stationarity acceptance test
    and two stationarity tests build feasible points with this one.
    """
    t = overlap_target(p, q)
    ba = check_range(r_beta_a_sq, 0.0, 1.0, "squared weight")
    bc = check_range(r_beta_c_sq, 0.0, 1.0, "squared weight")
    pb, pg = _products(ba, bc)
    if not _feasible(t, pb, pg):
        return None
    return _phase_cos(t, pb, pg)


def _tau(x, y):
    """x log2 x + y log2 y - (x + y) log2 (x + y); broadcasts, checks nothing."""
    s = _xlog2(x) + _xlog2(y)
    s -= _xlog2(x + y)
    return s


def _terms(p, q):
    """The per-``(p, q)`` terms of `_i_ae`: ``(p/2, pref/2, d _tau(1 - p/2, p/2))``.

    d and pref are those of `_scales`; broadcasts, checks nothing.  A
    search forms them once and passes them to every `_i_ae` call, as
    `sixstate.info`'s closed forms take the terms of its `_noise`.
    """
    half, d, pref = _scales(p, q)
    return half, 0.5 * pref, d * _tau(1.0 - half, half)


def _i_ae(terms, ba, bc):
    """Eve's information at squared weights (ba, bc); broadcasts, checks nothing.

    The search's objective over the unit-norm pairs ``(ba, 1 - ba)`` and
    ``(bc, 1 - bc)``: ``1 + (pref / 2) (_tau(*beta) + _tau(*gamma)) + d
    _tau(1 - p/2, p/2)`` at the `_terms` of (p, q) and the `_mix` pairs
    beta of (ba, bc) and gamma of (1 - ba, 1 - bc), both pairs stacked
    into one `_tau` call.  It never depends on the phases.  ba and bc
    share one shape, into which p and q broadcast, and so does the
    result.
    """
    half, half_pref, noise = terms
    t = _tau(*_mix(half, np.array([ba, 1.0 - ba]), np.array([bc, 1.0 - bc])))
    s = t[0] + t[1]
    s *= half_pref
    s += 1.0
    s += noise
    return s


def _arc(theta, cos_sign, base):
    """Squared weights ``(ba, bc)`` at angle offsets base on a pinned-phase arc.

    With ``ba = cos^2 alpha`` and ``bc = cos^2 chi`` for angles in
    [0, pi/2], the radius products are ``pb = cos alpha cos chi`` and
    ``pg = sin alpha sin chi``, so ``pb +- pg = cos(alpha -+ chi)``.  For
    ``theta = acos t`` the +1 arc ``pb + pg = t`` is ``alpha = chi +
    theta``, at offsets chi in [0, pi/2 - theta]; its mirror arc has the
    two angles exchanged.  The -1 arc ``pb - pg = t`` is ``alpha + chi =
    theta``, at offsets alpha in [0, theta].  cos_sign broadcasts against
    base: a column of signs gives one arc per row of base, each bit for
    bit as if sampled alone.
    """
    alpha = base + theta * (cos_sign > 0)
    chi = theta * (cos_sign < 0) + cos_sign * base
    return np.cos(alpha) ** 2, np.cos(chi) ** 2


def grid_refine_maximize(p, q, grid=201, refine_iters=6):
    """Maximize Eve's information by a sweep of the feasible set's boundary.

    Eve's information is convex in ``(beta_a_sq, beta_c_sq)``: `_tau` is
    minus the perspective of the binary entropy, so jointly convex, the
    weight pairs are affine in the squared weights, and the kept-signal
    weight is non-negative (tests/test_optimize.py bounds the computed
    values' round-off against it).  So the maximum over the feasible set
    lies on its boundary.  In the angles of `_arc` the set is the polygon
    ``|alpha - chi| <= theta <= alpha + chi``, whose sides are the +1 arc
    and its mirror, the -1 arc, and the straight edges beta_a_sq = 0 and
    beta_c_sq = 0, which end at arc ends and at the corner (0, 0).

    The +1 and -1 arcs are each sampled at grid evenly spaced offsets,
    ends included, then refine_iters times more in a window a tenth as
    wide around the arc's best sample so far, clipped to the arc; the
    corner is evaluated once.  Each round evaluates both arcs in one
    kernel call on a (2, grid) block, the -1 arc in row 0 and the +1 arc
    in row 1; each row keeps its own best sample and window, with the
    values of a search of that arc alone.  The mirror arc carries the +1
    arc's values bit for bit, since every product and sum of the
    objective commutes.  Within a row, ties go to the earliest sample of
    the earliest round; between the rows' bests and the corner, to the
    +1 arc, then the -1 arc, then the corner.  Of the best point's two
    mirror twins, the one with the larger beta_a_sq is reported.

    Parameters
    ----------
    p, q : float
        Noise weight and error rate.
    grid : int
        Samples per boundary arc and round, 51 to 2001.
    refine_iters : int
        Number of refinement rounds, 0 to 30.

    Returns
    -------
    OptimizationResult
    """
    p, q = check_domain(p, q)
    grid = check_count(grid, 51, _MAX_GRID, "grid")
    refine_iters = check_count(refine_iters, 0, _MAX_REFINE, "refine_iters")
    t = _overlap_target(p, q)
    theta = math.acos(min(t, 1.0))

    terms = _terms(p, q)
    best = (float(_i_ae(terms, 0.0, 0.0)), 0.0, 0.0)
    ends = (theta, math.pi / 2.0 - theta)
    # each row's window (lo, hi), as columns lo and hi that view it
    win = np.array([(0.0, end) for end in ends])
    lo, hi = win[:, :1], win[:, 1:]
    ramp = np.arange(grid, dtype=float)
    arcs, mids = [None, None], [0.0, 0.0]
    signs = np.array([[-1.0], [1.0]])
    for _ in range(refine_iters + 1):
        # np.linspace's arithmetic, row by row; on a zero-width window it
        # gives lo exactly, as linspace's zero-step branch does
        base = ramp * ((hi - lo) / (grid - 1))
        base += lo
        base[:, -1:] = hi
        ba, bc = _arc(theta, signs, base)
        vals = _i_ae(terms, ba, bc)
        for i, k in enumerate(vals.argmax(axis=1).tolist()):
            if arcs[i] is None or vals[i, k] > arcs[i][0]:
                arcs[i] = float(vals[i, k]), float(ba[i, k]), float(bc[i, k])
                mids[i] = float(base[i, k])
            span = (win[i, 1] - win[i, 0]) / 10.0
            win[i] = max(0.0, mids[i] - span / 2.0), min(ends[i], mids[i] + span / 2.0)
    for arc in arcs:
        if arc[0] >= best[0]:
            best = arc

    value, ba, bc = best
    ba, bc = max(ba, bc), min(ba, bc)
    cos = _phase_cos(t, *_products(ba, bc))
    return OptimizationResult(
        best_params=_from_squares(p, q, ba, bc, cos),
        best_value=value,
        branch="phase0" if cos >= 0.0 else "phasepi",
        evaluations=2 * (refine_iters + 1) * grid + 1,
    )


def _wlog2(w, x):
    """w log2 x, dropping the term when its weight is exactly zero."""
    if w == 0.0:
        return 0.0
    return w * math.log2(x)


def lagrange_residual(params):
    """First-order optimality check at a constrained parameter point.

    Builds the four stationarity equations (one per radius) in the
    three multipliers of the overlap and norm constraints, using Eve's
    outcome probabilities, and fits the multipliers in least squares.
    Only the residual 2-norm of that fit is returned: it is ~0 at a true
    constrained optimum and order one a short distance away.

    Raises
    ------
    ConstraintError
        If the point violates the overlap condition beyond 1e-8 (the
        norm conditions are enforced by `AttackParameters` itself).
    """
    p, q = params.p, params.q
    rba, rga = params.r_beta_a, params.r_gamma_a
    rbc, rgc = params.r_beta_c, params.r_gamma_c
    cos = params.cos_delta_phi
    g1 = params.overlap - _overlap_target(p, q)
    if abs(g1) > 1e-8:
        raise ConstraintError(f"overlap condition violated by {g1}")

    if q - p / 2.0 <= _FEAS_SLACK:
        # The information vanishes identically on the feasible set, so
        # stationarity holds trivially and the fit is meaningless.
        return LagrangeResidual(0.0, degenerate=True)

    half, _, pref = _scales(p, q)
    m2, m6 = (pref * w for w in _mix(half, rba ** 2, rbc ** 2))
    m3, m7 = (pref * w for w in _mix(half, rga ** 2, rgc ** 2))

    def rhs_entry(r, m_top, m_bot, w_top, w_bot):
        if r == 0.0:
            return 0.0
        f = pref * (
            _wlog2(w_top, m_top) + _wlog2(w_bot, m_bot) - math.log2(m_top + m_bot)
        )
        return r * f

    rhs = np.array(
        [
            rhs_entry(rba, m2, m6, 1.0 - half, half),
            rhs_entry(rbc, m2, m6, half, 1.0 - half),
            rhs_entry(rga, m3, m7, 1.0 - half, half),
            rhs_entry(rgc, m3, m7, half, 1.0 - half),
        ]
    )
    coeff = np.array(
        [
            [rbc, 2.0 * rba, 0.0],
            [rba, 0.0, 2.0 * rbc],
            [rgc * cos, 2.0 * rga, 0.0],
            [rga * cos, 0.0, 2.0 * rgc],
        ]
    )
    lam, _, _, _ = np.linalg.lstsq(coeff, rhs, rcond=None)
    return LagrangeResidual(float(np.linalg.norm(coeff @ lam - rhs)))


def phase_branch_scan(p, q, cos_sign, samples=2001):
    """Sample the attack family along one pinned-phase boundary.

    The boundary where the phase cosine is pinned to +1 or -1 is a
    curve in the (beta_a_sq, beta_c_sq) square.  Writing the squared
    weights as squared cosines of angles turns it into straight angle
    arcs, sampled uniformly here.

    Parameters
    ----------
    p, q : float
        Noise weight and error rate.
    cos_sign : {+1, -1}
        Which pinned branch to scan.
    samples : int
        Points per arc, 2 to 100,001.

    Returns
    -------
    (beta_a_sq, beta_c_sq, value) tuple of arrays
        One arc.  The +1 branch also holds the mirror arc with the two
        weights exchanged; the objective is symmetric in them, so that
        arc carries the same values and is not returned.
    """
    p, q = check_domain(p, q)
    if cos_sign not in (1, -1, 1.0, -1.0):
        raise DomainError(f"cos_sign must be +1 or -1, got {cos_sign!r}")
    samples = check_count(samples, 2, _MAX_SAMPLES, "samples")
    theta = math.acos(min(_overlap_target(p, q), 1.0))
    end = math.pi / 2.0 - theta if cos_sign > 0 else theta
    ba, bc = _arc(theta, cos_sign, np.linspace(0.0, end, samples))
    return ba, bc, _i_ae(_terms(p, q), ba, bc)


def _local_max_runs(values):
    """Indices of local maxima, one representative per plateau run.

    Equal-valued runs collapse to a single candidate (its first index);
    a run counts as a maximum when every existing neighbor run is
    strictly lower.  A constant array yields exactly one maximum.
    """
    starts = np.flatnonzero(np.r_[True, values[1:] != values[:-1]])
    runs = values[starts]
    rises = runs[:-1] < runs[1:]
    falls = runs[1:] < runs[:-1]
    return starts[np.r_[True, rises] & np.r_[falls, True]]


def verify_root_pair(p, q):
    """Check that the aligned-phase boundary has exactly two maxima.

    Scans one arc of the +1 branch (the other is its mirror image, with
    the same values) and confirms it has exactly one local maximum of
    the information, whose two weights sit at the two analytic
    stationary weights within 1e-3.  Degenerate geometries where the
    arc collapses to a point count as a coincident pair.
    """
    ba, bc, vals = phase_branch_scan(p, q, 1, samples=_PAIR_SAMPLES)
    maxima = _local_max_runs(vals)
    if maxima.size != 1:
        return False
    i = maxima[0]
    lo, hi = sorted((float(ba[i]), float(bc[i])))
    plus = beta_sq_optimal(p, q, "plus")
    minus = beta_sq_optimal(p, q, "minus")
    return abs(hi - plus) <= _PAIR_LOC_TOL and abs(lo - minus) <= _PAIR_LOC_TOL

"""Brute-force maximization of Eve's information and stationarity checks.

The constrained seven-parameter attack family collapses to a search
over the two squared weights ``(beta_a_sq, beta_c_sq)`` in the unit
square: the unit-norm conditions fix the gamma radii, and the overlap
condition fixes the cosine of the phase difference wherever a feasible
phase exists.  A deterministic lattice sweep with iterated window
refinement then serves as an oracle that is independent of every closed
form in `sixstate.info`.

The module also evaluates the first-order optimality system: the four
radius derivatives of the objective against the three constraint
gradients, fitted by least squares.  A small residual certifies a
stationary point.
"""

import dataclasses
import math

import numpy as np

from .attack import AttackParameters, overlap_target, parameters_from_squares
from .exceptions import ConstraintError, DomainError
from .info import _i_ae, _weights, beta_sq_optimal
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

# Absolute slack when testing whether a lattice point admits a phase.
_FEAS_SLACK = 1e-12
# Residual cut separating true overlap-boundary roots from the spurious
# roots introduced by squaring the boundary equation.
_BOUNDARY_CUT = 1e-9
# Largest lattice size per axis; grid_refine_maximize holds grid x grid
# products and candidates per round, ~335 MB at the peak of a round at
# 2001 (tracemalloc, at p = 0.2, q = 0.3).
_MAX_GRID = 2001
# Most refinement rounds.  Each costs one lattice sweep; on 20 random (p, q)
# at grid 201, no result changed after round 14.
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
    evaluations counts objective evaluations across all rounds.
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
    return (t <= pb + pg + _FEAS_SLACK) & (t >= pb - pg - _FEAS_SLACK)


def _phase_cos(t, pb, pg):
    """Cosine ``(t - pb) / pg`` clamped to [-1, 1], or 1.0 if pg == 0 (scalars)."""
    return 1.0 if pg == 0.0 else min(max(float((t - pb) / pg), -1.0), 1.0)


def feasible_phase(r_beta_a_sq, r_beta_c_sq, p, q):
    """Cosine of the phase difference that meets the overlap condition.

    Solves ``pb + pg * cos = overlap_target(p, q)`` where pb and pg are
    the products of the beta and gamma radii.  Returns the cosine
    clamped to [-1, 1] when the point passes the grid search's
    feasibility test (`_feasible`), and None otherwise.  When both gamma
    radii vanish the equation drops the cosine entirely; a
    (conventional) 1.0 is returned iff it already holds.

    The grid search calls `_feasible` on arrays and the scalar-only
    `_phase_cos` once, on its best point.  This wrapper stays public
    because the optimizer demo, the stationarity acceptance test and
    two stationarity tests build feasible off-optimum points with it,
    on the grid's own feasibility rule.
    """
    t = overlap_target(p, q)
    ba = check_range(r_beta_a_sq, 0.0, 1.0, "squared weight")
    bc = check_range(r_beta_c_sq, 0.0, 1.0, "squared weight")
    pb, pg = _products(ba, bc)
    if not _feasible(t, pb, pg):
        return None
    return _phase_cos(t, pb, pg)


def _objective(p, q, ba, bc):
    """Eve's information over arrays of squared weights.

    The gamma weights follow from the unit norms; the objective never
    depends on the phases.
    """
    return _i_ae(p, q, ba, bc, 1.0 - ba, 1.0 - bc)


def _boundary_candidates(t, axis_vals, lo, hi):
    """Exact overlap-boundary points above each lattice column.

    For each fixed first coordinate a, solves ``pb +- pg = t`` for the
    second coordinate, all columns at once: row k holds column k's two
    roots, the + root first, so the flattened output keeps scan order.
    Squaring merges the two signs into one quadratic, so each root is
    checked against the unsquared equations and kept only if one of
    them genuinely holds.
    """
    a = axis_vals[:, None]
    # 1 - t^2 rounds below zero when t rounds above 1 (q = p/2); such
    # columns have no root, except a = 1 where the product is -0.0.
    disc = (1.0 - t * t) * (1.0 - a)
    real = disc >= 0.0
    root = np.sqrt(np.where(real, disc, 0.0))
    u = t * np.sqrt(a) + np.hstack([root, -root])
    keep = real & (u >= -1e-9) & (u <= 1.0 + 1e-9)
    c = np.clip(u, 0.0, 1.0) ** 2
    keep &= (lo - 1e-15 <= c) & (c <= hi + 1e-15)
    pb, pg = _products(a, c)
    keep &= np.minimum(np.abs(pb + pg - t), np.abs(pb - pg - t)) <= _BOUNDARY_CUT
    return np.broadcast_to(a, c.shape)[keep], np.clip(c, lo, hi)[keep]


def grid_refine_maximize(p, q, grid=201, refine_iters=6):
    """Maximize Eve's information by lattice sweep plus window refinement.

    Sweeps a grid x grid lattice over the two squared weights in
    [0, 1]^2, keeping points that admit a feasible phase, and augments
    each round with the exact phase-boundary points above every lattice
    column (the maximum often sits on that boundary, where a plain
    lattice converges too slowly).  After the coarse round the window
    shrinks by a factor of 10 around the best point, refine_iters
    times.  Deterministic: ties go to the earliest candidate in scan
    order, and of the two symmetric maximizers the one with the larger
    beta_a_sq is reported.  A round scans the feasible lattice points
    row by row (beta_a_sq outer, beta_c_sq inner), then the boundary
    points above each beta_a_sq value, then those beside each
    beta_c_sq value, each set in axis order.

    Parameters
    ----------
    p, q : float
        Noise weight and error rate.
    grid : int
        Lattice points per axis, 51 to 2001.
    refine_iters : int
        Number of refinement rounds, 0 to 30.

    Returns
    -------
    OptimizationResult

    Raises
    ------
    ConstraintError
        If round 0 holds no feasible point, an internal invariant
        failure: the corner (0, 0) is feasible for every overlap target
        up to 1 + 1e-12, and a target that rounds further above 1 (near
        q = p/2 as p -> 1) is taken as 1.
    """
    p, q = check_domain(p, q)
    grid = check_count(grid, 51, _MAX_GRID, "grid")
    refine_iters = check_count(refine_iters, 0, _MAX_REFINE, "refine_iters")
    t = overlap_target(p, q)
    if t > 1.0 + _FEAS_SLACK:
        t = 1.0

    lo_a, hi_a = 0.0, 1.0
    lo_c, hi_c = 0.0, 1.0
    best_a = best_c = best_j = None
    evaluations = 0

    for _ in range(refine_iters + 1):
        av = np.linspace(lo_a, hi_a, grid)
        cv = np.linspace(lo_c, hi_c, grid)
        # Row i of the lattice mask is a = av[i]; masking it row-major
        # keeps the scan order of the flattened (a, c) lattice.
        lattice = _feasible(t, *_products(av[:, None], cv))
        ba_bound, bc_bound = _boundary_candidates(t, av, lo_c, hi_c)
        bc_bound2, ba_bound2 = _boundary_candidates(t, cv, lo_a, hi_a)
        ab = np.concatenate([ba_bound, ba_bound2])
        cb = np.concatenate([bc_bound, bc_bound2])
        keep = _feasible(t, *_products(ab, cb))
        fa = np.concatenate([np.repeat(av, lattice.sum(axis=1)), ab[keep]])
        fc = np.concatenate([np.broadcast_to(cv, lattice.shape)[lattice], cb[keep]])

        # Round 0 holds the corner (0, 0), where pb = 0 and pg = 1, so it
        # is feasible for every t <= 1 + 1e-12; only a refined window can
        # come up empty.
        if not fa.size:
            if best_j is None:
                raise ConstraintError(
                    f"no feasible lattice point in round 0 (overlap target t = {t!r})"
                )
            break
        vals = _objective(p, q, fa, fc)
        evaluations += vals.size
        k = int(np.argmax(vals))
        cand = (float(fa[k]), float(fc[k]), float(vals[k]))
        if best_j is None or cand[2] > best_j:
            best_a, best_c, best_j = cand
        # Keep the window centered on the larger-weight twin of the two
        # mirror-symmetric maximizers so refinement homes in on it.
        if best_a < 0.5:
            mirror_j = float(_objective(p, q, 1.0 - best_a, 1.0 - best_c))
            evaluations += 1
            if mirror_j >= best_j:
                best_a, best_c, best_j = 1.0 - best_a, 1.0 - best_c, mirror_j
        span_a = (hi_a - lo_a) / 10.0
        span_c = (hi_c - lo_c) / 10.0
        lo_a = max(0.0, best_a - span_a / 2.0)
        hi_a = min(1.0, best_a + span_a / 2.0)
        lo_c = max(0.0, best_c - span_c / 2.0)
        hi_c = min(1.0, best_c + span_c / 2.0)

    cos = _phase_cos(t, *_products(best_a, best_c))
    params = parameters_from_squares(p, q, best_a, best_c, cos)
    branch = "phase0" if cos >= 0.0 else "phasepi"
    return OptimizationResult(
        best_params=params,
        best_value=best_j,
        branch=branch,
        evaluations=evaluations,
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
    g1 = params.overlap - overlap_target(p, q)
    if abs(g1) > 1e-8:
        raise ConstraintError(f"overlap condition violated by {g1}")

    if q - p / 2.0 <= _FEAS_SLACK:
        # The information vanishes identically on the feasible set, so
        # stationarity holds trivially and the fit is meaningless.
        return LagrangeResidual(0.0, degenerate=True)

    half = p / 2.0
    _, pref, beta, gamma = _weights(p, q, rba ** 2, rbc ** 2, rga ** 2, rgc ** 2)
    m2, m6 = pref * beta[0], pref * beta[1]
    m3, m7 = pref * gamma[0], pref * gamma[1]

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
    t = overlap_target(p, q)
    theta = math.acos(min(max(t, -1.0), 1.0))
    if cos_sign > 0:
        # pb + pg = t  <=>  |alpha - chi| = theta.
        base = np.linspace(0.0, math.pi / 2.0 - theta, samples)
        alpha, chi = base + theta, base
    else:
        # pb - pg = t  <=>  alpha + chi = theta.
        base = np.linspace(0.0, theta, samples)
        alpha, chi = base, theta - base
    ba = np.cos(alpha) ** 2
    bc = np.cos(chi) ** 2
    return ba, bc, _objective(p, q, ba, bc)


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

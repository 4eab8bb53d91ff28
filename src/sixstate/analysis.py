"""Curve sweeps and key-rate crossing studies.

Produces the data behind the two standard pictures of this analysis:
information-versus-error-rate curves at fixed noise (with the
noiseless curves alongside for comparison), and the error-rate
threshold where Bob's information stops exceeding Eve's, swept over
the noise weight and compared with a straight-line baseline anchored
at the noiseless threshold.
"""

import dataclasses
import math

import numpy as np

from .exceptions import AmbiguousCrossingError, DomainError, NoCrossingError
from .info import _beta_sq, _i_ab, _i_ae_antiphase, _i_ae_optimal
from .protocol import _float, check_domain, check_range

__all__ = [
    "PURE_CROSSING_D",
    "CurvePoint",
    "CrossingResult",
    "curve_sweep",
    "crossing_point",
    "crossing_sweep",
    "key_feasible",
]

# Noiseless-protocol threshold used for the straight-line baseline,
# kept at this published 5-digit value rather than recomputed; the
# recomputed number is available as crossing_point(0).q_cross.
PURE_CROSSING_D = 0.15637

# The crossing search brackets stay this far inside the open interval.
_EDGE = 1e-9
# Largest sweep sizes: they bound memory (one CurvePoint per curve step)
# and run time (one bisection per crossing step).
_MAX_CURVE_STEPS = 100_000
_MAX_CROSSING_STEPS = 10_000


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
    p, _ = check_domain(p, p / 2.0)
    steps = int(check_range(steps, 2, _MAX_CURVE_STEPS, "steps"))
    qs = np.linspace(p / 2.0, 0.5, steps)
    i_ab = _i_ab(qs).tolist()
    columns = zip(
        qs.tolist(),
        i_ab,
        _i_ae_optimal(p, qs).tolist(),
        _i_ae_antiphase(p, qs).tolist(),
        i_ab,
        _i_ae_optimal(0.0, qs).tolist(),
        _beta_sq(p, qs, 1.0).tolist(),
    )
    return [CurvePoint(*row) for row in columns]


def _advantage(p, q):
    """Bob's minus Eve's information; broadcasts over q, checks nothing."""
    return _i_ab(q) - _i_ae_optimal(p, q)


def crossing_point(p, tol=1e-9):
    """Error rate where Bob's and Eve's information curves cross.

    Locates the root of ``i_ab(q) - i_ae_optimal(p, q)`` by bisection
    on [p/2 + 1e-9, 1/2 - 1e-9].  A 1000-point pre-scan certifies that
    the difference changes sign exactly once before bisection starts.

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
        If the pre-scan sees more than one sign change.
    """
    p = check_range(p, 0.0, 0.5, "noise parameter p")
    tol = _float(tol, "tol")
    if not tol > 0.0:
        raise DomainError(f"tol={tol} must be positive")
    lo = p / 2.0 + _EDGE
    hi = 0.5 - _EDGE
    # linspace holds both ends exactly, so the scan also gives f(lo), f(hi).
    scan = _advantage(p, np.linspace(lo, hi, 1000))
    if not (scan[0] > 0.0 and scan[-1] < 0.0):
        raise NoCrossingError(
            f"advantage does not change sign on [{lo}, {hi}]: "
            f"f(lo)={scan[0]}, f(hi)={scan[-1]}"
        )
    signs = np.sign(scan)
    # Both ends have opposite nonzero signs, so there is at least one change.
    changes = int(np.count_nonzero(np.diff(signs[signs != 0.0])))
    if changes > 1:
        raise AmbiguousCrossingError(
            f"pre-scan found {changes} sign changes for p={p}"
        )
    iterations = 0
    q_cross = 0.5 * (lo + hi)
    # The second test ends the search once the bracket cannot split further.
    while hi - lo > tol and lo < q_cross < hi:
        if _advantage(p, q_cross) > 0.0:
            lo = q_cross
        else:
            hi = q_cross
        iterations += 1
        q_cross = 0.5 * (lo + hi)
    q_line = PURE_CROSSING_D * (1.0 - p) + p / 2.0
    return CrossingResult(
        p=p,
        q_cross=q_cross,
        q_line=q_line,
        margin=q_cross - q_line,
        iterations=iterations,
    )


def crossing_sweep(p_min, p_max, steps=21, tol=1e-9):
    """Crossing thresholds on a uniform noise grid.

    steps runs from 1 to 10,000.  steps == 1 degenerates to the single
    point p_min (p_max must then equal p_min); otherwise p_min < p_max
    is required.
    """
    steps = int(check_range(steps, 1, _MAX_CROSSING_STEPS, "steps"))
    p_min = check_range(p_min, 0.0, 0.5, "noise parameter p_min")
    p_max = check_range(p_max, p_min, 0.5, "noise parameter p_max")
    if steps == 1:
        if not math.isclose(p_min, p_max, abs_tol=1e-15):
            raise DomainError("steps=1 requires p_min == p_max")
        ps = [p_min]
    else:
        if not p_min < p_max:
            raise DomainError("need p_min < p_max for a multi-point sweep")
        ps = [float(x) for x in np.linspace(p_min, p_max, steps)]
    return [crossing_point(p, tol=tol) for p in ps]


def key_feasible(p, q):
    """Whether Bob still holds at least as much information as Eve."""
    p, q = check_domain(p, q)
    return bool(_advantage(p, q) >= 0.0)

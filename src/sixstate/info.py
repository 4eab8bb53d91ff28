"""Information measures for the noisy six-state attack analysis.

All logarithms are base 2 and ``0 log 0`` is taken to be 0.  Throughout,
p is the white-noise weight of the source and q is Bob's observed error
rate; the physical domain is ``0 <= p < 1`` and ``p/2 <= q <= 1/2``.

Eve's outcome weights are written once, in `_scales` and `_mix`, which
`sixstate.attack` and the grid search of `sixstate.optimize` read;
this module reads neither.  The paper's closed form has one kernel,
`_optimum`: the square-root term, the stationary weight at either root
and Eve's information there, behind `beta_sq_optimal`, `i_ae_optimal`,
the sweeps of `sixstate.analysis` and its "branch symmetry" check.  The
grid search maximizes its own objective, `sixstate.optimize._i_ae`,
written apart from this module's closed forms.  The kernels broadcast
over numpy arrays and check nothing; each public function validates its
scalar arguments and then calls them, and `sixstate.analysis` calls
them on whole grids.

The closed forms (`_optimum` and `_i_ae_antiphase`) take the noise
weight as the terms of `_noise`: p/2, 1 - p/2, 1 - p and the entropy
term ``h(p/2) = (p/2) log2 (p/2) + (1 - p/2) log2 (1 - p/2)``, formed
once per noise weight.  A caller that evaluates one p at many q forms
them once: the crossing search of `sixstate.analysis` once per chunk of
rows, not in every bisection round.  Within one call of `_optimum`,
q - p/2 and 1 - p/2 - q are formed once, for the root and the closed
form both.

Each kernel is one code path for floats and arrays: it forms a fresh
result and applies later steps by augmented assignment, in place on an
array and rebinding a scalar.  No kernel writes into its arguments.

The closed forms in this module have two independent cross-checks
elsewhere in the package: `mutual_information` applied to the joint
outcome table of the eavesdropper, and the brute-force search in
`sixstate.optimize`.
"""

import numpy as np

from .exceptions import DomainError
from .protocol import _disturbance, check_domain

__all__ = [
    "mutual_information",
    "i_ab",
    "beta_sq_optimal",
    "i_ae_optimal",
    "i_ae_antiphase",
]

# Negative values closer to zero than this are treated as round-off.
_NEG_TOL = 1e-12


def _xlog2(x):
    """x log2 x with the 0 log 0 = 0 convention; broadcasts, checks nothing.

    An array guards zero in one pass as ``max(x, 5e-324)``, which makes a
    zero term ``-0.0``; a scalar takes ``x + (x == 0)`` and gives ``0.0``.
    Every sum a zero term enters absorbs its sign.
    """
    z = np.log2(np.maximum(x, 5e-324) if isinstance(x, np.ndarray) else x + (x == 0.0))
    z *= x
    return z


def _scales(p, q):
    """Half the noise weight, the flip probability and the kept-signal weight.

    Returns ``(p/2, d, pref)`` with ``d = (q - p/2) / (1 - p)`` and
    ``pref = (1 - p/2 - q) / (1 - p)``; broadcasts, checks nothing.
    """
    half = p / 2.0
    return half, _disturbance(q, p), (1.0 - half - q) / (1.0 - p)


def _mix(half, a, c):
    """The weight pair ``((1 - half) a + half c, half a + (1 - half) c)``; broadcasts."""
    return (1.0 - half) * a + half * c, half * a + (1.0 - half) * c


def mutual_information(joint):
    """Mutual information in bits of a joint probability table.

    Parameters
    ----------
    joint : array-like
        Nonempty, rectangular 2-d table ``p(x, y)`` with rows indexed by
        the first variable.  Entries must be real numbers (not strings or
        other objects), finite and nonnegative up to -1e-12 round-off,
        and the total must be 1 within 1e-10.

    Returns
    -------
    float
        ``sum p(x,y) log2 p(y|x) - sum p(y) log2 p(y)``, clamped to be
        nonnegative against round-off.
    """
    try:
        p = np.asarray(joint)
    except ValueError:
        raise DomainError("joint table is ragged, not a rectangular array") from None
    if p.dtype.kind == "c":
        raise DomainError("joint table has a complex entry")
    if p.dtype.kind not in "biuf":
        raise DomainError(f"joint table entries must be real numbers, got dtype {p.dtype}")
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.size == 0:
        raise DomainError(f"joint table must be nonempty and 2-d, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise DomainError("joint table has a non-finite entry")
    if float(p.min()) < -_NEG_TOL:
        raise DomainError(f"joint table has negative entry {float(p.min())}")
    p = np.maximum(p, 0.0)
    total = float(p.sum())
    if abs(total - 1.0) > 1e-10:
        raise DomainError(f"joint table sums to {total}, not 1")
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mask = p > 0.0
    cond = np.broadcast_to(px[:, None], p.shape)
    term1 = float(np.sum(p[mask] * np.log2(p[mask] / cond[mask])))
    nz = py > 0.0
    term2 = float(np.sum(py[nz] * np.log2(py[nz])))
    value = term1 - term2
    if value < 0.0:
        if value < -_NEG_TOL:
            raise DomainError(f"mutual information {value} below round-off floor")
        value = 0.0
    return value


def _i_ab(q):
    """``1 + q log2 q + (1 - q) log2 (1 - q)``; broadcasts, checks nothing."""
    s = _xlog2(q)
    s += 1.0
    s += _xlog2(1.0 - q)
    return s


def i_ab(q):
    """Mutual information between Alice and Bob at error rate q.

    ``1 + q log2 q + (1 - q) log2 (1 - q)``; exactly 1 at q = 0 and
    exactly 0 at q = 1/2.
    """
    _, q = check_domain(0.0, q)
    return float(_i_ab(q))


def _noise(p):
    """The factors of the closed forms that depend on the noise weight alone.

    Returns ``(p, p/2, 1 - p/2, 1 - p, h, 1 + h)`` with ``h = (p/2) log2
    (p/2) + (1 - p/2) log2 (1 - p/2)``; in ``1 + h`` the two terms are
    added to 1 in turn.  p is a float or an array, such as a column of p
    against rows of q, whose shape the terms take; checks nothing.
    """
    half = p / 2.0
    rest = 1.0 - half
    a, b = _xlog2(half), _xlog2(rest)
    return p, half, rest, 1.0 - p, a + b, 1.0 + a + b


def _optimum(noise, q, sign=1.0):
    """The paper's optimum at the terms of `_noise`; broadcasts, checks nothing.

    Returns ``(root, beta_sq, value)``: the square-root term of
    `beta_sq_optimal`, capped at 1; its root ``(1 + sign * root) / 2``
    for sign +-1; and there the paper's closed form ``1 + pref h(x) + d
    h(p/2)``, or 0 where q <= p/2.  Here ``x = (1 - p) beta_sq + p/2``,
    ``h(x) = x log2 x + (1 - x) log2 (1 - x)``, ``pref = (1 - p/2 - q) /
    (1 - p)`` and ``d = (q - p/2) / (1 - p)``.  This is the grid's
    objective `sixstate.optimize._i_ae` at ``(beta_sq, 1 - beta_sq)``,
    evaluated apart from it.  The two roots sum to 1, which turns x into
    ``1 - x`` and leaves h(x) and so the value unchanged.  q holds the
    shape into which the noise terms broadcast.
    """
    _, half, rest, kept, h, _ = noise
    dq, left = q - half, rest - q
    root = 2.0 - 3.0 * q
    root -= half
    root *= dq
    root = np.sqrt(root)
    root /= left
    root = np.minimum(root, 1.0)
    beta = 1.0 + root if sign > 0 else 1.0 - root
    beta /= 2.0
    x = kept * beta
    x += half
    s = _xlog2(x)
    s += _xlog2(1.0 - x)
    left /= kept
    s *= left
    s += 1.0
    dq /= kept
    dq *= h
    s += dq
    return root, beta, np.where(q <= half, 0.0, s)


def beta_sq_optimal(p, q, branch="plus"):
    """Squared |10> weight of the best probe attached to the kept signal.

    The stationarity analysis leaves two symmetric roots,

        1/2 * (1 +- sqrt((q - p/2) (2 - 3q - p/2)) / (1 - p/2 - q)),

    which sum to 1.  `branch` selects "plus" (the root >= 1/2, the
    conventional choice) or "minus".
    """
    p, q = check_domain(p, q)
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    return float(_optimum(_noise(p), q, 1.0 if branch == "plus" else -1.0)[1])


def i_ae_optimal(p, q):
    """Eve's maximal information at noise p and error rate q.

    Evaluates the paper's closed form (`_optimum`) at the plus root of
    `beta_sq_optimal`.  Returns exactly 0 at q = p/2, where the probe
    cannot interact without raising the error rate.
    """
    p, q = check_domain(p, q)
    return float(_optimum(_noise(p), q)[2])


def _i_ae_antiphase(noise, q):
    _, half, _, kept, _, h1 = noise
    return np.where(q <= half, 0.0, (q - half) / kept * h1)


def i_ae_antiphase(p, q):
    """Eve's information at the opposed-phase stationary point.

    ``((q - p/2) / (1 - p)) * (1 + (p/2) log2 (p/2) + (1 - p/2) log2 (1 - p/2))``.
    Never exceeds `i_ae_optimal`; at p = 0 it reduces to q.
    """
    p, q = check_domain(p, q)
    return float(_i_ae_antiphase(_noise(p), q))

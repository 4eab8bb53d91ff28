"""Information measures for the noisy six-state attack analysis.

All logarithms are base 2 and ``0 log 0`` is taken to be 0.  Throughout,
p is the white-noise weight of the source and q is Bob's observed error
rate; the physical domain is ``0 <= p < 1`` and ``p/2 <= q <= 1/2``.

Eve's outcome weights are written once, in `_weights`.  Her information
has two kernels, written apart: `_i_ae` for any four squared probe
weights, which the grid search of `sixstate.optimize` maximizes, and
`_i_ae_aligned`, the paper's closed form on the aligned-phase branch,
behind `i_ae_closed_form`, `i_ae_optimal` and the sweeps of
`sixstate.analysis`.  At aligned weights the two agree to round-off
(within 2e-15 on a 96 by 2,001 domain lattice in tests/test_info.py), so
the grid search's agreement with the closed form tests the paper's
formula, not one kernel against itself.  The kernels broadcast over
numpy arrays and check nothing; each public function validates its
scalar arguments and then calls them, and `sixstate.analysis` calls them
on whole grids.

On arrays these kernels and `_xlog2`/`_tau` are computed in place: each
creates one fresh result and applies the remaining steps to it, every
step the same operation on the same operands as the plain expression,
so the bits are the same.  Scalars (Python or numpy floats, and what
0-d arrays turn into) take the plain expressions, since an ``out=``
call on a scalar costs several times the arithmetic.  No kernel writes
into its arguments.

The closed forms in this module have two independent cross-checks
elsewhere in the package: `mutual_information` applied to the joint
outcome table of the eavesdropper, and the brute-force search in
`sixstate.optimize`.
"""

import numpy as np

from .exceptions import DomainError
from .protocol import _disturbance, check_domain, check_range

__all__ = [
    "mutual_information",
    "i_ab",
    "beta_sq_optimal",
    "i_ae_closed_form",
    "i_ae_optimal",
    "i_ae_antiphase",
]

# Negative values closer to zero than this are treated as round-off.
_NEG_TOL = 1e-12


def _xlog2(x):
    """x log2 x with the 0 log 0 = 0 convention, over arrays or scalars."""
    z = x + (x == 0.0)
    if not isinstance(z, np.ndarray):
        return x * np.log2(z)
    np.log2(z, out=z)
    z *= x
    return z


def _tau(x, y):
    """x log2 x + y log2 y - (x + y) log2 (x + y); broadcasts, checks nothing."""
    s = _xlog2(x) + _xlog2(y)
    s -= _xlog2(x + y)
    return s


def _weights(p, q, ba, bc, ga, gc):
    """Eve's outcome weights for squared probe weights; broadcasts, checks nothing.

    Returns ``(d, pref, beta, gamma)``: the flip probability d, the
    kept-signal weight ``pref = 1 - d``, and for each of the beta and
    gamma pairs the two weights ``((1 - p/2) a + (p/2) c,
    (p/2) a + (1 - p/2) c)`` given Alice's bit 0 and bit 1.
    """
    half = p / 2.0
    d = _disturbance(q, p)
    pref = (1.0 - half - q) / (1.0 - p)

    def mix(a, c):
        w0 = (1.0 - half) * a
        w0 += half * c
        w1 = half * a
        w1 += (1.0 - half) * c
        return w0, w1

    return d, pref, mix(ba, bc), mix(ga, gc)


def _i_ae(p, q, ba, bc, ga, gc):
    """Eve's information for squared probe weights; broadcasts, checks nothing.

    ``1 + (pref / 2) (_tau(*beta) + _tau(*gamma)) + d _tau(1 - p/2, p/2)`` over
    the weights of `_weights`.  The four weights share one shape, into
    which p and q broadcast; on arrays the result is built in that shape.
    """
    d, pref, beta, gamma = _weights(p, q, ba, bc, ga, gc)
    half = p / 2.0
    s = _tau(*beta)
    s += _tau(*gamma)
    s *= 0.5 * pref
    s += 1.0
    s += d * _tau(1.0 - half, half)
    return s


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
    return 1.0 + _xlog2(q) + _xlog2(1.0 - q)


def i_ab(q):
    """Mutual information between Alice and Bob at error rate q.

    ``1 + q log2 q + (1 - q) log2 (1 - q)``; exactly 1 at q = 0 and
    exactly 0 at q = 1/2.
    """
    _, q = check_domain(0.0, q)
    return float(_i_ab(q))


def _root(p, q):
    """The square-root term of `beta_sq_optimal`, capped at 1; broadcasts."""
    root = np.sqrt((q - p / 2.0) * (2.0 - 3.0 * q - p / 2.0)) / (1.0 - p / 2.0 - q)
    return np.minimum(root, 1.0)


def _beta_sq(p, q, sign):
    """Root ``(1 + sign * root) / 2`` of `beta_sq_optimal` for sign +-1; broadcasts."""
    return (1.0 + sign * _root(p, q)) / 2.0


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
    return float(_beta_sq(p, q, 1.0 if branch == "plus" else -1.0))


def _i_ae_aligned(p, q, beta_sq):
    """The paper's closed form, `i_ae_closed_form`; broadcasts, checks nothing.

    ``1 + pref h(x) + d h(p/2)`` with ``x = (1 - p) beta_sq + p/2``,
    ``h(x) = x log2 x + (1 - x) log2 (1 - x)`` and pref and d as in
    `_weights`.  This is `_i_ae` at the weights ``(beta_sq, 1 - beta_sq,
    1 - beta_sq, beta_sq)``, evaluated apart from it.  beta_sq holds the
    shape into which p and q broadcast.
    """
    half = p / 2.0
    x = (1.0 - p) * beta_sq + half
    s = _xlog2(x)
    s += _xlog2(1.0 - x)
    s *= (1.0 - half - q) / (1.0 - p)
    s += 1.0
    s += _disturbance(q, p) * (_xlog2(half) + _xlog2(1.0 - half))
    return s


def i_ae_closed_form(p, q, beta_sq):
    """Eve's information for a given probe weight on the aligned-phase branch.

    With ``x = (1 - p) beta_sq + p/2`` this is

        1 + ((1 - p/2 - q) / (1 - p)) * (x log2 x + (1 - x) log2 (1 - x))
          + ((q - p/2) / (1 - p)) * ((p/2) log2 (p/2) + (1 - p/2) log2 (1 - p/2)).

    Swapping ``beta_sq`` for ``1 - beta_sq`` swaps the two logarithm
    terms of the first brace and leaves the value unchanged.
    """
    p, q = check_domain(p, q)
    beta_sq = check_range(beta_sq, 0.0, 1.0, "beta_sq")
    return float(_i_ae_aligned(p, q, beta_sq))


def _i_ae_optimal(p, q):
    value = _i_ae_aligned(p, q, _beta_sq(p, q, 1.0))
    return np.where(q <= p / 2.0, 0.0, value)


def i_ae_optimal(p, q):
    """Eve's maximal information at noise p and error rate q.

    Evaluates `i_ae_closed_form` at the plus root of `beta_sq_optimal`.
    Returns exactly 0 at q = p/2, where the probe cannot interact
    without raising the error rate.
    """
    p, q = check_domain(p, q)
    return float(_i_ae_optimal(p, q))


def _i_ae_antiphase(p, q):
    half = p / 2.0
    d = _disturbance(q, p)
    return np.where(q <= half, 0.0, d * (1.0 + _xlog2(half) + _xlog2(1.0 - half)))


def i_ae_antiphase(p, q):
    """Eve's information at the opposed-phase stationary point.

    ``((q - p/2) / (1 - p)) * (1 + (p/2) log2 (p/2) + (1 - p/2) log2 (1 - p/2))``.
    Never exceeds `i_ae_optimal`; at p = 0 it reduces to q.
    """
    p, q = check_domain(p, q)
    return float(_i_ae_antiphase(p, q))

"""Validators of the noisy six-state protocol's parameters and its q–d relation.

A white-noise source emits each signal mixed with weight p of the
maximally mixed state, so even without an eavesdropper Bob sees an
error rate of p/2.  An eavesdropper who flips the kept signal with
probability d raises that to ``q = d (1 - p) + p / 2``; `d_from_qber`
inverts this relation.  The signal states themselves live in
`sixstate.attack`.

`check_domain` is the package's one validator of a ``(p, q)`` pair,
`check_range` its one range check with round-off clamping, and
`check_count` its one check of a count.
"""

from .exceptions import DomainError

__all__ = [
    "check_range",
    "check_count",
    "check_domain",
    "d_from_qber",
]

_TOL = 1e-12


def _float(x, what):
    """float(x), refusing text and anything float() refuses.

    Text (str, bytes, bytearray, and so numpy string scalars) is refused
    before float() can parse it, as is an integer beyond the float range.
    """
    if isinstance(x, (str, bytes, bytearray)):
        raise DomainError(f"{what} is text ({type(x).__name__}), not a number")
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is beyond the float range") from None
    except (TypeError, ValueError):
        raise DomainError(f"{what} of type {type(x).__name__} is not a real number") from None


def check_range(x, lo, hi, what):
    """x as a float in [lo, hi], with round-off up to 1e-12 outside clamped.

    Raises
    ------
    DomainError
        If x is NaN or lies outside [lo, hi] by more than 1e-12, or is an
        integer beyond the float range, text, or not a real number.
    """
    x = _float(x, what)
    if not lo - _TOL <= x <= hi + _TOL:
        raise DomainError(f"{what}={x} outside [{lo}, {hi}]")
    return min(max(x, lo), hi)


def check_count(x, lo, hi, what):
    """x as an int in [lo, hi].

    Raises
    ------
    DomainError
        If x fails `check_range` or is not a whole number.
    """
    n = check_range(x, lo, hi, what)
    if not float(x).is_integer():
        raise DomainError(f"{what}={float(x)} is not a whole number")
    return int(n)


def check_domain(p, q):
    """Validate a noise and error-rate pair, clamping boundary round-off.

    Returns (p, q) with q forced into [p/2, 1/2].

    Raises
    ------
    DomainError
        If p is outside [0, 1) or q outside [p/2, 1/2] by more than
        1e-12, or either is NaN, an integer beyond the float range, text,
        or not a real number.
    """
    p = _float(p, "noise parameter p")
    if not 0.0 <= p < 1.0:
        raise DomainError(f"noise parameter p={p} outside [0, 1)")
    return p, check_range(q, p / 2.0, 0.5, "error rate q")


def _disturbance(q, p):
    """Flip probability ``(q - p/2) / (1 - p)``; broadcasts, checks nothing."""
    return (q - p / 2.0) / (1.0 - p)


def d_from_qber(q, p):
    """Flip probability ``(q - p/2) / (1 - p)``, inverse of ``q = d (1 - p) + p/2``."""
    p, q = check_domain(p, q)
    return _disturbance(q, p)

"""Six-state signal preparation, source noise and Bob's error rate.

Alice encodes each bit in one of the three mutually unbiased qubit bases
x, y, z.  A white-noise source replaces her pure state by the mixture
``(1 - p) |b><b| + (p / 2) I``, so even without an eavesdropper Bob sees
an error rate of p/2.  An eavesdropper who flips the kept signal with
probability d raises that to ``q = d (1 - p) + p / 2``.

`check_domain` is the package's one validator of a ``(p, q)`` pair, and
`check_range` its one range check with round-off clamping.
"""

import numpy as np

from .exceptions import DomainError

__all__ = [
    "BASES",
    "check_range",
    "check_domain",
    "pure_signal",
    "noisy_signal",
    "d_from_qber",
]

#: Measurement bases of the protocol.
BASES = ("x", "y", "z")

_SQ2 = np.sqrt(2.0)

_EIGENSTATES = {
    ("z", 0): np.array([1.0, 0.0], dtype=complex),
    ("z", 1): np.array([0.0, 1.0], dtype=complex),
    ("x", 0): np.array([1.0, 1.0], dtype=complex) / _SQ2,
    ("x", 1): np.array([1.0, -1.0], dtype=complex) / _SQ2,
    ("y", 0): np.array([1.0, 1.0j], dtype=complex) / _SQ2,
    ("y", 1): np.array([1.0, -1.0j], dtype=complex) / _SQ2,
}

_TOL = 1e-12


def _check_basis_bit(basis, bit):
    if basis not in BASES:
        raise DomainError(f"basis must be one of {BASES}, got {basis!r}")
    if bit not in (0, 1):
        raise DomainError(f"bit must be 0 or 1, got {bit!r}")


def _float(x, what):
    """float(x), refusing an integer beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise DomainError(f"{what} is beyond the float range") from None


def check_range(x, lo, hi, what):
    """x as a float in [lo, hi], with round-off up to 1e-12 outside clamped.

    Raises
    ------
    DomainError
        If x is NaN or lies outside [lo, hi] by more than 1e-12, or is an
        integer beyond the float range.
    """
    x = _float(x, what)
    if not lo - _TOL <= x <= hi + _TOL:
        raise DomainError(f"{what}={x} outside [{lo}, {hi}]")
    return min(max(x, lo), hi)


def check_domain(p, q):
    """Validate a noise and error-rate pair, clamping boundary round-off.

    Returns (p, q) with q forced into [p/2, 1/2].

    Raises
    ------
    DomainError
        If p is outside [0, 1) or q outside [p/2, 1/2] by more than
        1e-12, or either is NaN or an integer beyond the float range.
    """
    p = _float(p, "noise parameter p")
    if not 0.0 <= p < 1.0:
        raise DomainError(f"noise parameter p={p} outside [0, 1)")
    return p, check_range(q, p / 2.0, 0.5, "error rate q")


def pure_signal(basis, bit):
    """Eigenstate of the Pauli operator for `basis` carrying `bit`.

    Bit 0 maps to the +1 eigenstate, bit 1 to the -1 eigenstate.
    """
    _check_basis_bit(basis, bit)
    return _EIGENSTATES[(basis, bit)].copy()


def noisy_signal(basis, bit, p):
    """Density operator of a signal state mixed with white noise.

    Returns ``(1 - p) |b><b| + (p / 2) I`` for the pure signal ``|b>``,
    the state the source actually emits at noise level p.
    """
    p, _ = check_domain(p, p / 2.0)
    ket = pure_signal(basis, bit)
    return (1.0 - p) * np.outer(ket, ket.conj()) + (p / 2.0) * np.eye(2, dtype=complex)


def _bob_flips(rho0, rho1, basis):
    """Bob's two flip probabilities ``<1_b|rho0|1_b>`` and ``<0_b|rho1|0_b>``."""
    _check_basis_bit(basis, 0)
    k0 = _EIGENSTATES[(basis, 0)]
    k1 = _EIGENSTATES[(basis, 1)]
    wrong0 = float(np.real(k1.conj() @ np.asarray(rho0) @ k1))
    wrong1 = float(np.real(k0.conj() @ np.asarray(rho1) @ k0))
    return wrong0, wrong1


def _disturbance(q, p):
    """Flip probability ``(q - p/2) / (1 - p)``; broadcasts, checks nothing."""
    return (q - p / 2.0) / (1.0 - p)


def d_from_qber(q, p):
    """Flip probability ``(q - p/2) / (1 - p)``, inverse of ``q = d (1 - p) + p/2``."""
    p, q = check_domain(p, q)
    return _disturbance(q, p)

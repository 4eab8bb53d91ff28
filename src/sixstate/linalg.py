"""Dense complex linear algebra for small qubit systems.

Everything operates on plain numpy arrays of complex numbers.  The
dimensions are fixed by the physics: 2 for the signal qubit, 4 for the
two-qubit probe, 8 for the joint signal-probe space.  The joint space is
always ordered signal first, probe second, so a joint index decomposes
as ``index = 4 * signal + probe``.
"""

import numpy as np

from .exceptions import DimensionError

__all__ = [
    "adjoint",
    "partial_trace_probe",
    "partial_trace_signal",
    "is_isometry",
]


def adjoint(m):
    """Conjugate transpose of a matrix."""
    return np.asarray(m).conj().T


def _as_joint_operator(rho):
    rho = np.asarray(rho)
    if rho.shape != (8, 8):
        raise DimensionError(
            f"expected an 8 x 8 joint operator, got shape {rho.shape}")
    return rho.reshape(2, 4, 2, 4)


def partial_trace_probe(rho):
    """Trace the 4-dimensional probe out of an 8 x 8 joint operator.

    Returns the 2 x 2 reduced operator of the signal qubit.
    """
    return np.einsum("ikjk->ij", _as_joint_operator(rho))


def partial_trace_signal(rho):
    """Trace the 2-dimensional signal out of an 8 x 8 joint operator.

    Returns the 4 x 4 reduced operator of the probe.
    """
    return np.einsum("ikil->kl", _as_joint_operator(rho))


def is_isometry(v):
    """Whether v maps its domain isometrically, i.e. adjoint(v) @ v = 1.

    Parameters
    ----------
    v : array-like
        A 2-d array with at least as many rows as columns.  The Gram
        matrix may deviate from the identity by 1e-10 entrywise.
    """
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[0] < v.shape[1]:
        raise DimensionError(
            f"an isometry needs rows >= cols, got shape {v.shape}")
    gram = adjoint(v) @ v
    return bool(np.max(np.abs(gram - np.eye(v.shape[1]))) <= 1e-10)


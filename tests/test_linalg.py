import numpy as np
import pytest

from sixstate.exceptions import DimensionError
from sixstate.linalg import (
    adjoint,
    is_isometry,
    partial_trace_probe,
    partial_trace_signal,
)


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho)


def test_adjoint_conjugate_transposes():
    m = np.array([[1.0, 2.0 + 1j], [0.0, -1j]])
    expected = np.array([[1.0, 0.0], [2.0 - 1j, 1j]])
    assert np.array_equal(adjoint(m), expected)


class TestPartialTraces:
    def test_product_state_factors(self):
        sig = random_density(2, seed=1)
        probe = random_density(4, seed=2)
        # joint index = 4 * signal + probe, so the signal is the left
        # factor of the Kronecker product
        joint = np.kron(sig, probe)
        assert np.allclose(partial_trace_probe(joint), sig, atol=1e-14)
        assert np.allclose(partial_trace_signal(joint), probe, atol=1e-14)

    def test_trace_preserved(self):
        joint = random_density(8, seed=3)
        assert np.trace(partial_trace_probe(joint)) == pytest.approx(1.0)
        assert np.trace(partial_trace_signal(joint)) == pytest.approx(1.0)

    def test_reduction_is_hermitian(self):
        joint = random_density(8, seed=4)
        bob = partial_trace_probe(joint)
        assert np.allclose(bob, bob.conj().T, atol=1e-14)

    def test_requires_8x8(self):
        with pytest.raises(DimensionError):
            partial_trace_probe(np.eye(4))


class TestIsIsometry:
    def test_identity_columns(self):
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = 1.0
        v[5, 1] = 1.0
        assert is_isometry(v)

    def test_scaled_columns_fail(self):
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = 0.5
        v[5, 1] = 1.0
        assert not is_isometry(v)

    def test_qr_columns_pass(self):
        rng = np.random.default_rng(5)
        m = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
        q, _ = np.linalg.qr(m)
        assert is_isometry(q)

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionError):
            is_isometry(np.ones((2, 8)))


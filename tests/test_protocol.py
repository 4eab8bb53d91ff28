import numpy as np
import pytest

from sixstate import protocol
from sixstate.exceptions import DomainError
from sixstate.protocol import BASES, d_from_qber, noisy_signal, pure_signal


def test_bases_tuple():
    assert BASES == ("x", "y", "z")


def test_pure_signal_z():
    assert np.array_equal(pure_signal("z", 0), [1, 0])
    assert np.array_equal(pure_signal("z", 1), [0, 1])


def test_pure_signal_x_y():
    s = 1 / np.sqrt(2)
    assert np.allclose(pure_signal("x", 0), [s, s])
    assert np.allclose(pure_signal("x", 1), [s, -s])
    assert np.allclose(pure_signal("y", 0), [s, 1j * s])
    assert np.allclose(pure_signal("y", 1), [s, -1j * s])


@pytest.mark.parametrize("basis", BASES)
def test_basis_states_orthonormal(basis):
    v0 = pure_signal(basis, 0)
    v1 = pure_signal(basis, 1)
    assert np.vdot(v0, v0) == pytest.approx(1.0)
    assert np.vdot(v1, v1) == pytest.approx(1.0)
    assert abs(np.vdot(v0, v1)) == pytest.approx(0.0, abs=1e-15)


def test_pure_signal_rejects_bad_args():
    with pytest.raises(DomainError):
        pure_signal("w", 0)
    with pytest.raises(DomainError):
        pure_signal("z", 2)


@pytest.mark.parametrize("basis", BASES)
def test_noisy_signal_zero_noise_is_pure(basis):
    vec = pure_signal(basis, 1)
    assert np.allclose(noisy_signal(basis, 1, 0.0), np.outer(vec, vec.conj()))


@pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.9])
def test_noisy_signal_spectrum(p):
    rho = noisy_signal("x", 0, p)
    assert np.trace(rho) == pytest.approx(1.0)
    eigs = sorted(np.linalg.eigvalsh(rho))
    assert eigs[0] == pytest.approx(p / 2)
    assert eigs[1] == pytest.approx(1 - p / 2)


def test_noisy_signal_rejects_p_out_of_range():
    with pytest.raises(DomainError):
        noisy_signal("z", 0, 1.0)
    with pytest.raises(DomainError):
        noisy_signal("z", 0, -0.1)


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
def test_qber_of_undisturbed_noisy_states(basis, p):
    # without any attack the only errors come from the source noise
    rho0 = noisy_signal(basis, 0, p)
    rho1 = noisy_signal(basis, 1, p)
    w0, w1 = protocol._bob_flips(rho0, rho1, basis)
    assert w0 == pytest.approx(p / 2)
    assert w1 == pytest.approx(p / 2)


@pytest.mark.parametrize("p", [0.0, 0.05, 0.2])
@pytest.mark.parametrize("d", [0.0, 0.1, 0.33, 0.5])
def test_qber_d_roundtrip(p, d):
    # Bob's error rate at flip probability d is d (1 - p) + p/2.
    assert d_from_qber(d * (1 - p) + p / 2, p) == pytest.approx(d, abs=1e-12)


def test_d_from_qber_domain():
    # q below p/2 is unreachable: source noise alone produces p/2
    with pytest.raises(DomainError):
        d_from_qber(0.01, 0.1)
    with pytest.raises(DomainError):
        d_from_qber(0.51, 0.0)

import numpy as np
import pytest

from sixstate import attack
from sixstate.attack import BASES, simulate_bob_flips
from sixstate.exceptions import DomainError
from sixstate.protocol import d_from_qber

# |k> -> |k> (x) |00>: no attack, the signal reaches Bob untouched
_NO_ATTACK = np.zeros((8, 2), dtype=complex)
_NO_ATTACK[0, 0] = 1.0
_NO_ATTACK[4, 1] = 1.0


@pytest.mark.parametrize("basis", BASES)
def test_noisy_signal_zero_noise_is_pure(basis):
    joint = attack._joint_states(_NO_ATTACK, 0.0)[BASES.index(basis)]
    for vec, state in zip(attack._EIGENSTATES[basis], joint):
        bob = np.einsum("ikjk->ij", state)
        assert np.allclose(bob, np.outer(vec, vec.conj()))


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("p", [0.0, 0.1, 0.5])
def test_qber_of_undisturbed_noisy_states(basis, p):
    # without any attack the only errors come from the source noise
    w0, w1 = simulate_bob_flips(_NO_ATTACK, p, basis)
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

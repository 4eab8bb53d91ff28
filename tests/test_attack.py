import math

import numpy as np
import pytest

from sixstate import attack, protocol
from sixstate.attack import (
    BASES,
    AncillaSet,
    AttackParameters,
    antiphase_parameters,
    build_ancillas,
    build_isometry,
    constraint_residuals,
    eve_distribution_closed_form,
    optimal_parameters,
    overlap_target,
    parameters_from_squares,
    simulate_bob_flips,
    simulate_eve_distribution,
)
from sixstate.exceptions import ConstraintError, DomainError

# grid for the oracle-equivalence sweeps
ORACLE_GRID = [
    (p, q)
    for p in (0.0, 0.01, 0.05, 0.1, 0.2)
    for q in np.linspace(p / 2 + 0.01, 0.45, 5)
]


PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def is_isometry(v):
    """Whether the columns of v are orthonormal within 1e-10."""
    return np.max(np.abs(v.conj().T @ v - np.eye(v.shape[1]))) <= 1e-10


def isometry_for(params):
    d = protocol.d_from_qber(params.q, params.p)
    return build_isometry(d, build_ancillas(params))


def simulated_qber(iso, p, basis):
    w0, w1 = simulate_bob_flips(iso, p, basis)
    return 0.5 * (w0 + w1)


def symmetry_residual(iso, p, basis):
    w0, w1 = simulate_bob_flips(iso, p, basis)
    return abs(w1 - w0)


class TestAttackParameters:
    def test_valid_point(self):
        params = parameters_from_squares(0.05, 0.1, 0.7, 0.3, 1.0)
        assert params.beta_a_sq == pytest.approx(0.7)
        assert params.beta_c_sq == pytest.approx(0.3)
        assert params.cos_delta_phi == pytest.approx(1.0)

    def test_norm_violation(self):
        with pytest.raises(ConstraintError):
            AttackParameters(0.0, 0.1, 0.9, 0.9, 1.0, 0.0, 0.0)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            AttackParameters(0.0, 0.1, -1.0, 0.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("phi", [math.nan, math.inf])
    def test_non_finite_phase(self, phi):
        with pytest.raises(DomainError):
            AttackParameters(0.0, 0.1, 1.0, 0.0, 1.0, 0.0, phi)

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            parameters_from_squares(0.2, 0.05, 0.5, 0.5, 1.0)

    def test_norm_tolerance_matches_ancilla_set(self):
        # the type and AncillaSet share one tolerance on the squared norm:
        # a point the type accepts always builds, and one it would not
        # build is refused at construction
        with pytest.raises(ConstraintError):
            AttackParameters(0.0, 0.1, 0.8, 0.6 + 4e-11, 0.6, 0.8, 0.0)
        build_ancillas(AttackParameters(0.0, 0.1, 0.8, 0.6 + 4e-13, 0.6, 0.8, 0.0))

    def test_delta_phi(self):
        params = AttackParameters(0.0, 0.1, 0.8, 0.6, 0.8, 0.6, math.pi)
        assert params.delta_phi == pytest.approx(math.pi)
        assert params.cos_delta_phi == pytest.approx(-1.0)


def test_overlap_target_values():
    assert overlap_target(0.1, 0.05) == pytest.approx(1.0)
    assert overlap_target(0.3, 0.5) == pytest.approx(0.0)
    assert overlap_target(0.0, 0.1) == pytest.approx(8 / 9)


def test_factories_satisfy_constraints():
    for factory in (optimal_parameters, antiphase_parameters):
        params = factory(0.05, 0.15)
        res = constraint_residuals(build_ancillas(params), 0.05, 0.15)
        assert np.max(res) < 1e-12


def test_antiphase_on_no_interaction_line():
    # overlap_target rounds to 1 + 4.4e-16 at most p above ~0.834 on q = p/2
    for p in np.linspace(0.0, 0.99, 1000).tolist():
        antiphase_parameters(p, p / 2.0)
    res = constraint_residuals(build_ancillas(antiphase_parameters(0.85, 0.425)), 0.85, 0.425)
    assert np.max(res) <= 1e-10


def test_antiphase_has_opposed_phases_and_equal_weights():
    params = antiphase_parameters(0.05, 0.2)
    assert params.cos_delta_phi == pytest.approx(-1.0)
    assert params.beta_a_sq == pytest.approx(params.beta_c_sq)


class TestBuildAncillas:
    def test_pure_beta_state(self):
        params = AttackParameters(0.0, 0.1, 1.0, 0.0, 1.0, 0.0, 0.0)
        anc = build_ancillas(params)
        assert np.allclose(anc.a, [0, 0, 1, 0])

    def test_identical_states_overlap_one(self):
        s = 1 / math.sqrt(2)
        params = AttackParameters(0.1, 0.05, s, s, s, s, 0.0)
        anc = build_ancillas(params)
        assert np.vdot(anc.a, anc.c) == pytest.approx(1.0)

    def test_optimum_overlap_matches_target(self):
        anc = build_ancillas(optimal_parameters(0.0, 0.1))
        assert np.vdot(anc.a, anc.c).real == pytest.approx(8 / 9, abs=1e-12)

    def test_b_d_fixed_and_orthogonal(self):
        anc = build_ancillas(optimal_parameters(0.05, 0.2))
        assert np.array_equal(anc.b, [1, 0, 0, 0])
        assert np.array_equal(anc.d, [0, 0, 0, 1])

    def test_ancilla_set_rejects_unnormalized(self):
        bad = np.array([1.0, 1.0, 0.0, 0.0])
        e = np.eye(4)
        with pytest.raises(ConstraintError):
            AncillaSet(a=bad, b=e[0], c=e[1], d=e[3])


class TestConstraintResiduals:
    def test_structural_zeros(self):
        # residuals 1, 3, 4 vanish for every member of this family
        params = parameters_from_squares(0.1, 0.3, 0.6, 0.2, 0.4)
        res = constraint_residuals(build_ancillas(params), 0.1, 0.3)
        assert res[0] == 0.0
        assert res[2] == 0.0
        assert res[3] == 0.0

    def test_no_interaction_with_identical_states(self):
        s = 1 / math.sqrt(2)
        params = AttackParameters(0.1, 0.05, s, s, s, s, 0.0)
        res = constraint_residuals(build_ancillas(params), 0.1, 0.05)
        assert res[1] == pytest.approx(0.0, abs=1e-15)

    def test_optimum_all_small(self):
        res = constraint_residuals(
            build_ancillas(optimal_parameters(0.05, 0.1)), 0.05, 0.1
        )
        assert np.max(res) < 1e-12

    def test_domain_error(self):
        anc = build_ancillas(optimal_parameters(0.05, 0.1))
        with pytest.raises(DomainError):
            constraint_residuals(anc, 0.05, 0.01)


class TestBuildIsometry:
    def test_no_disturbance_identical_probes(self):
        e = np.eye(4, dtype=complex)
        anc = AncillaSet(a=e[1], b=e[0], c=e[1], d=e[3])
        v = build_isometry(0.0, anc)
        expected0 = np.zeros(8)
        expected0[1] = 1.0  # |0> (x) |01>
        expected1 = np.zeros(8)
        expected1[5] = 1.0  # |1> (x) |01>
        assert np.allclose(v[:, 0], expected0)
        assert np.allclose(v[:, 1], expected1)

    def test_half_disturbance(self):
        v = build_isometry(0.5, build_ancillas(antiphase_parameters(0.0, 0.475)))
        assert is_isometry(v)

    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_constrained_family_always_isometric(self, p, q):
        assert is_isometry(isometry_for(optimal_parameters(p, q)))

    def test_cross_orthogonality_violation_raises(self):
        # give the kept-signal probe a |11> component so it overlaps the
        # flipped-branch state
        a = np.array([0.0, 0.6, 0.6, math.sqrt(1 - 2 * 0.36)], dtype=complex)
        e = np.eye(4, dtype=complex)
        anc = AncillaSet(a=a, b=e[0], c=e[1], d=e[3])
        with pytest.raises(ConstraintError):
            build_isometry(0.3, anc)

    def test_disturbance_domain(self):
        anc = build_ancillas(optimal_parameters(0.0, 0.1))
        with pytest.raises(DomainError):
            build_isometry(0.6, anc)


class TestEveDistribution:
    def test_no_interaction_point(self):
        m = eve_distribution_closed_form(optimal_parameters(0.1, 0.05))
        assert m[0] == m[3] == m[4] == m[7] == 0.0
        assert m[1] + m[2] == pytest.approx(1.0)
        assert m[5] + m[6] == pytest.approx(1.0)

    def test_pure_beta_noiseless(self):
        params = AttackParameters(0.0, 0.2, 1.0, 0.0, 0.0, 1.0, 0.0)
        m = eve_distribution_closed_form(params)
        assert m[0] == pytest.approx(0.2)
        assert m[1] == pytest.approx(0.8)
        assert m[2] == 0.0
        assert m[3] == 0.0

    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_simulation_matches_closed_form(self, p, q):
        params = optimal_parameters(p, q)
        closed = eve_distribution_closed_form(params)
        sim = simulate_eve_distribution(isometry_for(params), p)
        assert np.max(np.abs(closed - sim)) < 1e-12

    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_quadruples_normalized(self, p, q):
        m = eve_distribution_closed_form(antiphase_parameters(p, q))
        assert abs(m[:4].sum() - 1.0) < 1e-12
        assert abs(m[4:].sum() - 1.0) < 1e-12

    def test_near_maximal_noise(self):
        p = 0.999
        q = p / 2 + 0.75 * (0.5 - p / 2)
        params = optimal_parameters(p, q)
        closed = eve_distribution_closed_form(params)
        sim = simulate_eve_distribution(isometry_for(params), p)
        assert np.max(np.abs(closed - sim)) < 1e-12
        # the flipped-branch outcomes split like the source spectrum
        d = protocol.d_from_qber(q, p)
        assert closed[0] / d == pytest.approx(1 - p / 2)
        assert closed[3] / d == pytest.approx(p / 2)


class TestSimulateQber:
    @pytest.mark.parametrize("basis", BASES)
    def test_identity_like_attack(self, basis):
        e = np.eye(4, dtype=complex)
        anc = AncillaSet(a=e[1], b=e[0], c=e[1], d=e[3])
        iso = build_isometry(0.0, anc)
        assert simulated_qber(iso, 0.1, basis) == pytest.approx(0.05)

    @pytest.mark.parametrize("basis", BASES)
    def test_reference_point(self, basis):
        p, q = 0.1, 0.23
        assert protocol.d_from_qber(q, p) == pytest.approx(0.2)
        iso = isometry_for(optimal_parameters(p, q))
        assert simulated_qber(iso, p, basis) == pytest.approx(0.23, abs=1e-12)

    def test_half_disturbance_z(self):
        params = antiphase_parameters(0.0, 0.5)
        iso = isometry_for(params)
        assert simulated_qber(iso, 0.0, "z") == pytest.approx(0.5)

    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_basis_independence(self, p, q):
        iso = isometry_for(optimal_parameters(p, q))
        rates = [simulated_qber(iso, p, b) for b in BASES]
        assert max(rates) - min(rates) < 1e-10
        assert rates[0] == pytest.approx(q, abs=1e-10)


class TestBobSymmetry:
    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_constrained_attack_symmetric(self, p, q):
        iso = isometry_for(optimal_parameters(p, q))
        for basis in BASES:
            assert symmetry_residual(iso, p, basis) < 1e-12

    def test_identity_attack_symmetric(self):
        e = np.eye(4, dtype=complex)
        anc = AncillaSet(a=e[1], b=e[0], c=e[1], d=e[3])
        iso = build_isometry(0.0, anc)
        assert symmetry_residual(iso, 0.0, "z") == pytest.approx(0.0, abs=1e-15)

    def test_lopsided_attack_detected(self):
        # flip amplitude applied to one column only: Bob's errors become
        # one-sided, which the symmetry residual must flag
        d = 0.2
        v = np.zeros((8, 2), dtype=complex)
        v[2, 0] = math.sqrt(1 - d)  # keep |0>, probe |10>
        v[4, 0] = math.sqrt(d)      # flip |0> -> |1>, probe |00>
        v[6, 1] = 1.0               # keep |1> always, probe |10>
        assert is_isometry(v)
        assert symmetry_residual(v, 0.0, "z") > 0.1


class TestJointLayout:
    """The simulators' reading of the joint index ``4 * signal + probe``."""

    @staticmethod
    def product_isometry(probe):
        # |k> -> |k> (x) |probe>: the signal passes untouched
        v = np.zeros((8, 2), dtype=complex)
        v[0:4, 0] = probe
        v[4:8, 1] = probe
        return v

    @pytest.fixture
    def probe(self):
        rng = np.random.default_rng(2)
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        return vec / np.linalg.norm(vec)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.7])
    def test_product_isometry_leaves_bob_the_noise(self, probe, p):
        iso = self.product_isometry(probe)
        assert is_isometry(iso)
        for basis in BASES:
            w0, w1 = simulate_bob_flips(iso, p, basis)
            assert w0 == pytest.approx(p / 2, abs=1e-14)
            assert w1 == pytest.approx(p / 2, abs=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.7])
    def test_product_isometry_gives_eve_the_probe(self, probe, p):
        pops = np.abs(probe) ** 2
        expected = np.tile(pops[[0, 2, 1, 3]], 2)
        sim = simulate_eve_distribution(self.product_isometry(probe), p)
        assert np.allclose(sim, expected, atol=1e-14)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.9])
    def test_copying_probe_reads_the_source_spectrum(self, p):
        # |k> -> |k> (x) |kk>: the probe records Alice's z value, so Eve's
        # populations are the eigenvalues 1 - p/2 and p/2 of the noisy state
        v = np.zeros((8, 2), dtype=complex)
        v[0, 0] = 1.0
        v[7, 1] = 1.0
        hi, lo = 1 - p / 2, p / 2
        sim = simulate_eve_distribution(v, p)
        assert np.allclose(sim, [hi, 0, 0, lo, lo, 0, 0, hi], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 8)])
    def test_wrong_shape_refused(self, shape):
        iso = np.ones(shape)
        with pytest.raises(DomainError):
            simulate_eve_distribution(iso, 0.1)
        with pytest.raises(DomainError):
            simulate_bob_flips(iso, 0.1, "z")

    def test_non_isometry_refused(self):
        # right shape, but V^dagger V = [[8, 8], [8, 8]]: the simulators
        # would report "probabilities" summing to 16
        iso = np.ones((8, 2))
        with pytest.raises(DomainError, match="not orthonormal"):
            simulate_eve_distribution(iso, 0.1)
        with pytest.raises(DomainError, match="not orthonormal"):
            simulate_bob_flips(iso, 0.1, "z")


def _joint_states_loop(iso, basis, p):
    """Reference for `TestOneTensor`: one basis's joint states at a time.

    ``iso rho iso^dagger`` for bits 0 and 1, each reshaped to (signal,
    probe, signal, probe) axes, without the input checks.
    """
    rhos = ((1.0 - p) * np.outer(ket, ket.conj()) + (p / 2.0) * np.eye(2, dtype=complex)
            for ket in attack._EIGENSTATES[basis])
    return [(iso @ rho @ iso.conj().T).reshape(2, 4, 2, 4) for rho in rhos]


def _simulate_loop(iso, p):
    """Eve's eight probabilities and each basis's (w0, w1), one basis at a time."""
    eve = []
    for joint in _joint_states_loop(iso, "z", p):
        pops = np.real(np.diag(np.einsum("ikil->kl", joint)))
        eve.extend(pops[i] for i in (0, 2, 1, 3))
    flips = []
    for basis in BASES:
        bob0, bob1 = (np.einsum("ikjk->ij", j) for j in _joint_states_loop(iso, basis, p))
        k0, k1 = attack._EIGENSTATES[basis]
        flips.append((float(np.real(k1.conj() @ bob0 @ k1)),
                      float(np.real(k0.conj() @ bob1 @ k0))))
    return np.array(eve), np.array(flips)


class TestOneTensor:
    """All three bases from one joint-state tensor, against the per-basis loop."""

    TOL = 4.4e-16

    def assert_matches_loop(self, iso, p):
        eve_ref, flips_ref = _simulate_loop(iso, p)
        eve, flips = attack._simulate(iso, p)
        assert np.max(np.abs(eve - eve_ref)) <= self.TOL
        assert np.max(np.abs(np.array(flips) - flips_ref)) <= self.TOL
        assert np.array_equal(simulate_eve_distribution(iso, p), eve)
        for basis, row in zip(BASES, flips):
            assert simulate_bob_flips(iso, p, basis) == tuple(row)

    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 0.9, 0.999])
    def test_random_isometries(self, p):
        rng = np.random.default_rng(1616)
        for _ in range(50):
            gauss = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
            self.assert_matches_loop(np.linalg.qr(gauss)[0], p)

    @pytest.mark.parametrize("factory", [optimal_parameters, antiphase_parameters])
    def test_attack_family(self, factory):
        rng = np.random.default_rng(2008)
        for p in [0.0, 0.999, *rng.uniform(0.0, 0.999, 5)]:
            for q in [p / 2, 0.5, *rng.uniform(p / 2, 0.5, 3)]:
                self.assert_matches_loop(isometry_for(factory(p, q)), p)

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 0.9])
    def test_reference_isometries(self, p):
        # no attack |k> -> |k>|00>, a product |k> -> |k>|probe> and the
        # copying probe |k> -> |k>|kk>
        rng = np.random.default_rng(2)
        probe = rng.normal(size=4) + 1j * rng.normal(size=4)
        for vec in ([1.0, 0.0, 0.0, 0.0], probe / np.linalg.norm(probe)):
            self.assert_matches_loop(TestJointLayout.product_isometry(vec), p)
        copying = np.zeros((8, 2), dtype=complex)
        copying[0, 0] = 1.0
        copying[7, 1] = 1.0
        self.assert_matches_loop(copying, p)


class TestSignalStates:
    """Alice's kets and the simulators' checks of p and basis."""

    @pytest.fixture
    def iso(self):
        return isometry_for(optimal_parameters(0.05, 0.1))

    def test_bases_tuple(self):
        assert BASES == ("x", "y", "z")

    @pytest.mark.parametrize("basis", BASES)
    def test_kets_are_pauli_eigenvectors(self, basis):
        # bit 0 is the +1 eigenvector, bit 1 the -1 eigenvector
        for ket, sign in zip(attack._EIGENSTATES[basis], (1, -1)):
            assert np.vdot(ket, ket).real == pytest.approx(1.0, abs=1e-15)
            assert np.allclose(PAULI[basis] @ ket, sign * ket, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("basis", BASES)
    def test_basis_states_orthonormal(self, basis):
        kets = attack._EIGENSTATES[basis]
        gram = np.array([[np.vdot(a, b) for b in kets] for a in kets])
        assert np.allclose(gram, np.eye(2), rtol=0, atol=1e-15)

    def test_unknown_basis_refused(self, iso):
        with pytest.raises(DomainError, match="basis must be one of"):
            simulate_bob_flips(iso, 0.1, "w")

    @pytest.mark.parametrize("p", [1.0, -0.1])
    def test_p_outside_range_refused(self, iso, p):
        with pytest.raises(DomainError, match="noise parameter p"):
            simulate_eve_distribution(iso, p)
        with pytest.raises(DomainError, match="noise parameter p"):
            simulate_bob_flips(iso, p, "z")

    def test_bad_p_named_before_bad_basis(self, iso):
        with pytest.raises(DomainError, match=r"noise parameter p=1\.5 outside"):
            simulate_bob_flips(iso, 1.5, "w")

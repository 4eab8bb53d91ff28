import math

import numpy as np
import pytest

from sixstate import protocol
from sixstate.attack import (
    AncillaSet,
    AttackParameters,
    antiphase_parameters,
    bob_symmetry_residual,
    build_ancillas,
    build_isometry,
    constraint_residuals,
    eve_distribution_closed_form,
    optimal_parameters,
    overlap_target,
    parameters_from_squares,
    simulate_eve_distribution,
    simulate_qber,
)
from sixstate.exceptions import ConstraintError, DomainError
from sixstate.linalg import is_isometry

# grid for the oracle-equivalence sweeps
ORACLE_GRID = [
    (p, q)
    for p in (0.0, 0.01, 0.05, 0.1, 0.2)
    for q in np.linspace(p / 2 + 0.01, 0.45, 5)
]


def isometry_for(params):
    d = protocol.d_from_qber(params.q, params.p)
    return build_isometry(d, build_ancillas(params))


class TestAttackParameters:
    def test_valid_point(self):
        params = parameters_from_squares(0.05, 0.1, 0.7, 0.3, 1.0)
        assert params.beta_a_sq == pytest.approx(0.7)
        assert params.beta_c_sq == pytest.approx(0.3)
        assert params.cos_delta_phi == pytest.approx(1.0)

    def test_norm_violation(self):
        with pytest.raises(ConstraintError):
            AttackParameters(0.0, 0.1, 0.9, 0.9, 0.0, 1.0, 0.0, 0.0)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            AttackParameters(0.0, 0.1, -1.0, 0.0, 0.0, 1.0, 0.0, 0.0)

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            parameters_from_squares(0.2, 0.05, 0.5, 0.5, 1.0)

    def test_delta_phi(self):
        params = AttackParameters(0.0, 0.1, 0.8, 0.6, math.pi, 0.8, 0.6, 0.0)
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
        params = AttackParameters(0.0, 0.1, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0)
        anc = build_ancillas(params)
        assert np.allclose(anc.a, [0, 0, 1, 0])

    def test_identical_states_overlap_one(self):
        s = 1 / math.sqrt(2)
        params = AttackParameters(0.1, 0.05, s, s, 0.0, s, s, 0.0)
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
        params = AttackParameters(0.1, 0.05, s, s, 0.0, s, s, 0.0)
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
        params = AttackParameters(0.0, 0.2, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0)
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
    @pytest.mark.parametrize("basis", protocol.BASES)
    def test_identity_like_attack(self, basis):
        e = np.eye(4, dtype=complex)
        anc = AncillaSet(a=e[1], b=e[0], c=e[1], d=e[3])
        iso = build_isometry(0.0, anc)
        assert simulate_qber(iso, 0.1, basis) == pytest.approx(0.05)

    @pytest.mark.parametrize("basis", protocol.BASES)
    def test_reference_point(self, basis):
        p, d = 0.1, 0.2
        q = protocol.qber_from_d(d, p)
        assert q == pytest.approx(0.23)
        iso = isometry_for(optimal_parameters(p, q))
        assert simulate_qber(iso, p, basis) == pytest.approx(0.23, abs=1e-12)

    def test_half_disturbance_z(self):
        params = antiphase_parameters(0.0, 0.5)
        iso = isometry_for(params)
        assert simulate_qber(iso, 0.0, "z") == pytest.approx(0.5)

    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_basis_independence(self, p, q):
        iso = isometry_for(optimal_parameters(p, q))
        rates = [simulate_qber(iso, p, b) for b in protocol.BASES]
        assert max(rates) - min(rates) < 1e-10
        assert rates[0] == pytest.approx(q, abs=1e-10)


class TestBobSymmetry:
    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_constrained_attack_symmetric(self, p, q):
        iso = isometry_for(optimal_parameters(p, q))
        for basis in protocol.BASES:
            assert bob_symmetry_residual(iso, p, basis) < 1e-12

    def test_identity_attack_symmetric(self):
        e = np.eye(4, dtype=complex)
        anc = AncillaSet(a=e[1], b=e[0], c=e[1], d=e[3])
        iso = build_isometry(0.0, anc)
        assert bob_symmetry_residual(iso, 0.0, "z") == pytest.approx(0.0, abs=1e-15)

    def test_lopsided_attack_detected(self):
        # flip amplitude applied to one column only: Bob's errors become
        # one-sided, which the symmetry residual must flag
        d = 0.2
        v = np.zeros((8, 2), dtype=complex)
        v[2, 0] = math.sqrt(1 - d)  # keep |0>, probe |10>
        v[4, 0] = math.sqrt(d)      # flip |0> -> |1>, probe |00>
        v[6, 1] = 1.0               # keep |1> always, probe |10>
        assert is_isometry(v)
        assert bob_symmetry_residual(v, 0.0, "z") > 0.1

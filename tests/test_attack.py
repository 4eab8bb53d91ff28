import dataclasses
import math

import numpy as np
import pytest

from sixstate import attack, protocol
from sixstate.attack import (
    BASES,
    AttackParameters,
    antiphase_parameters,
    build_ancillas,
    build_isometry,
    eve_distribution_closed_form,
    optimal_parameters,
    overlap_target,
    parameters_from_squares,
    simulate,
    simulate_eve_distribution,
)
from sixstate.exceptions import ConstraintError, DomainError
from sixstate.optimize import grid_refine_maximize

from test_optimize import _mesh_points

# grid for the oracle-equivalence sweeps
ORACLE_GRID = [
    (p, q)
    for p in (0.0, 0.01, 0.05, 0.1, 0.2)
    for q in np.linspace(p / 2 + 0.01, 0.45, 5)
]


# Input np.asarray(..., dtype=complex) cannot convert: text, ragged
# nesting, a mapping.  The entry points refuse them as DomainError, and
# numeric text of the right shape too, as the scalar validators do.
NOT_ARRAYS_OF_NUMBERS = ["abcd", [[1.0], [1.0, 0.0]], {"a": 1}]
NOT_ARRAYS_IDS = ["text", "ragged", "dict"]


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


def simulated_qbers(iso, p):
    """Bob's simulated error rate in each basis, in `BASES` order."""
    return [0.5 * (w0 + w1) for w0, w1 in simulate(iso, p)[1]]


def symmetry_residuals(iso, p):
    """``|w1 - w0|`` in each basis, in `BASES` order."""
    return [abs(w1 - w0) for w0, w1 in simulate(iso, p)[1]]


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

    @pytest.mark.parametrize("bad", ["1", b"1", None, 1j, [1.0], 10**400])
    @pytest.mark.parametrize("field", [2, 3, 4, 5, 6])
    def test_non_number_refused(self, field, bad):
        # the radii and delta_phi go through the package's number parser
        args = [0.0, 0.1, 1.0, 0.0, 1.0, 0.0, 0.0]
        args[field] = bad
        with pytest.raises(DomainError):
            AttackParameters(*args)

    @pytest.mark.parametrize("field", [2, 3, 4, 5])
    def test_huge_radius_refused(self, field):
        # squares to inf rather than overflowing
        args = [0.0, 0.1, 1.0, 0.0, 1.0, 0.0, 0.0]
        args[field] = 1e200
        with pytest.raises(ConstraintError, match="norm squared is inf"):
            AttackParameters(*args)

    def test_bad_domain(self):
        with pytest.raises(DomainError):
            parameters_from_squares(0.2, 0.05, 0.5, 0.5, 1.0)

    def test_norm_tolerance_within_isometry_check(self):
        # the type's 1e-12 on the squared norm is tighter than the
        # isometry's 1e-10: a point the type accepts always builds, and a
        # larger norm error is refused at construction
        with pytest.raises(ConstraintError):
            AttackParameters(0.0, 0.1, 0.8, 0.6 + 4e-11, 0.6, 0.8, 0.0)
        isometry_for(AttackParameters(0.0, 0.1, 0.8, 0.6 + 4e-13, 0.6, 0.8, 0.0))

    def test_delta_phi(self):
        params = AttackParameters(0.0, 0.1, 0.8, 0.6, 0.8, 0.6, math.pi)
        assert params.delta_phi == pytest.approx(math.pi)
        assert params.cos_delta_phi == pytest.approx(-1.0)


class TestTrustedConstructors:
    """The private constructors for a checked pair, against `AttackParameters(...)`."""

    @staticmethod
    def points():
        rng = np.random.default_rng(3636)
        p = rng.uniform(0.0, 0.999, 100)
        return _mesh_points() + list(zip(p.tolist(), rng.uniform(p / 2.0, 0.5).tolist()))

    def test_same_as_checked_construction(self):
        # the checking constructor keeps every field as it is, and every
        # field is a Python float, as the checks would have made it
        for p, q in self.points():
            for params in (optimal_parameters(p, q),
                           grid_refine_maximize(p, q, 51, 0).best_params):
                assert params == AttackParameters(**dataclasses.asdict(params)), (p, q)
                assert all(type(x) is float for x in dataclasses.astuple(params)), (p, q)

    def test_norm_still_checked(self):
        with pytest.raises(ConstraintError, match="kept-signal probe norm"):
            attack._parameters(0.05, 0.1, 0.9, 0.9, 1.0, 0.0, 0.0)
        with pytest.raises(ConstraintError, match="flipped-signal probe norm"):
            attack._parameters(0.05, 0.1, 1.0, 0.0, 0.6, 0.6, 0.0)


def test_overlap_target_values():
    assert overlap_target(0.1, 0.05) == pytest.approx(1.0)
    assert overlap_target(0.3, 0.5) == pytest.approx(0.0)
    assert overlap_target(0.0, 0.1) == pytest.approx(8 / 9)


def test_factories_satisfy_constraints():
    for factory in (optimal_parameters, antiphase_parameters):
        params = factory(0.05, 0.15)
        assert abs(params.overlap - overlap_target(0.05, 0.15)) < 1e-12


def test_antiphase_on_no_interaction_line():
    # overlap_target rounds to 1 + 4.4e-16 at most p above ~0.834 on q = p/2
    for p in np.linspace(0.0, 0.99, 1000).tolist():
        antiphase_parameters(p, p / 2.0)
    assert abs(antiphase_parameters(0.85, 0.425).overlap - overlap_target(0.85, 0.425)) <= 1e-10


def test_antiphase_has_opposed_phases_and_equal_weights():
    params = antiphase_parameters(0.05, 0.2)
    assert params.cos_delta_phi == pytest.approx(-1.0)
    assert params.beta_a_sq == pytest.approx(params.beta_c_sq)


class TestBuildAncillas:
    def test_pure_beta_state(self):
        params = AttackParameters(0.0, 0.1, 1.0, 0.0, 1.0, 0.0, 0.0)
        anc = build_ancillas(params)
        assert np.allclose(anc[0], [0, 0, 1, 0])

    def test_identical_states_overlap_one(self):
        s = 1 / math.sqrt(2)
        params = AttackParameters(0.1, 0.05, s, s, s, s, 0.0)
        anc = build_ancillas(params)
        assert np.vdot(anc[0], anc[2]) == pytest.approx(1.0)

    def test_optimum_overlap_matches_target(self):
        anc = build_ancillas(optimal_parameters(0.0, 0.1))
        assert np.vdot(anc[0], anc[2]).real == pytest.approx(8 / 9, abs=1e-12)

    def test_b_d_fixed_and_orthogonal(self):
        anc = build_ancillas(optimal_parameters(0.05, 0.2))
        assert anc.shape == (4, 4)
        assert np.array_equal(anc[1], [1, 0, 0, 0])
        assert np.array_equal(anc[3], [0, 0, 0, 1])

    def test_phase_on_a_01_amplitude(self):
        anc = build_ancillas(AttackParameters(0.0, 0.1, 0.8, 0.6, 0.6, 0.8, 0.5))
        assert anc[0, 1] == pytest.approx(0.6 * np.exp(0.5j), abs=1e-16)
        assert anc[0, 2] == 0.8
        assert np.array_equal(anc[2], [0, 0.8, 0.6, 0])


# off-optimum points of the family: three weight pairs at four phase cosines
OFF_OPTIMUM = [
    parameters_from_squares(p, q, ba, bc, cos)
    for p, q, ba, bc in [(0.1, 0.3, 0.6, 0.2), (0.0, 0.45, 0.05, 0.9), (0.5, 0.4, 1.0, 0.0)]
    for cos in (-1.0, 0.0, 0.4, 1.0)
]


class TestOverlap:
    """`AttackParameters.overlap`, the one formula for Re<a|c>."""

    TOL = 4.4e-16

    @pytest.mark.parametrize(
        "params",
        [optimal_parameters(p, q) for p, q in ORACLE_GRID]
        + [antiphase_parameters(p, q) for p, q in ORACLE_GRID]
        + OFF_OPTIMUM,
    )
    def test_matches_built_states(self, params):
        anc = build_ancillas(params)
        assert abs(params.overlap - np.vdot(anc[0], anc[2]).real) <= self.TOL
        # the other conditions hold by construction: b = |00>, d = |11>,
        # and a, c in span{|01>, |10>}
        assert np.array_equal(anc[1], [1, 0, 0, 0])
        assert np.array_equal(anc[3], [0, 0, 0, 1])
        assert np.array_equal(anc[[0, 2]][:, [0, 3]], np.zeros((2, 2)))

    def test_no_interaction_with_identical_states(self):
        s = 1 / math.sqrt(2)
        params = AttackParameters(0.1, 0.05, s, s, s, s, 0.0)
        assert params.overlap - overlap_target(0.1, 0.05) == pytest.approx(0.0, abs=1e-15)

    def test_optimum_meets_target(self):
        for p, q in ORACLE_GRID:
            assert abs(optimal_parameters(p, q).overlap - overlap_target(p, q)) < 1e-12

    def test_target_domain_error(self):
        # the residual |overlap - overlap_target(p, q)| refuses q < p/2
        with pytest.raises(DomainError):
            overlap_target(0.05, 0.01)

    def test_off_optimum_misses_target(self):
        params = parameters_from_squares(0.1, 0.3, 0.6, 0.2, 0.4)
        expected = math.sqrt(0.6 * 0.2) + math.sqrt(0.4 * 0.8) * 0.4
        assert params.overlap == pytest.approx(expected, abs=1e-15)
        assert abs(params.overlap - overlap_target(0.1, 0.3)) > 0.01

    def test_read_only(self):
        params = optimal_parameters(0.05, 0.1)
        with pytest.raises(AttributeError):
            params.overlap = 0.5


class TestBuildIsometry:
    def test_no_disturbance_identical_probes(self):
        e = np.eye(4, dtype=complex)
        anc = np.array([e[1], e[0], e[1], e[3]])
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
        anc = np.array([a, e[0], e[1], e[3]])
        with pytest.raises(ConstraintError):
            build_isometry(0.3, anc)

    def test_unnormalized_probe_refused(self):
        # a non-unit a breaks the Gram check at every disturbance
        e = np.eye(4)
        anc = np.array([[1.0, 1.0, 0.0, 0.0], e[0], e[1], e[3]])
        for d in (0.0, 0.3, 0.5):
            with pytest.raises(ConstraintError, match="not isometric"):
                build_isometry(d, anc)
        # a norm off by 1e-9 breaks the 1e-10 Gram check too
        anc = build_ancillas(optimal_parameters(0.05, 0.15))
        anc[0] *= 1.0 + 1e-9
        with pytest.raises(ConstraintError, match="not isometric"):
            build_isometry(protocol.d_from_qber(0.15, 0.05), anc)

    @pytest.mark.parametrize(
        "anc", [np.eye(4)[0], np.eye(4)[:3], np.eye(4)[:, :3], np.eye(4)[..., None],
                *NOT_ARRAYS_OF_NUMBERS, np.eye(4).astype(str)]
    )
    def test_wrong_shape_refused(self, anc):
        with pytest.raises(DomainError, match=r"\(4, 4\) array"):
            build_isometry(0.1, anc)

    def test_accepts_nested_lists(self):
        anc = build_ancillas(optimal_parameters(0.05, 0.2))
        d = protocol.d_from_qber(0.2, 0.05)
        assert np.array_equal(build_isometry(d, anc.tolist()), build_isometry(d, anc))

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
        iso = build_isometry(0.0, np.array([e[1], e[0], e[1], e[3]]))
        assert simulated_qbers(iso, 0.1)[BASES.index(basis)] == pytest.approx(0.05)

    @pytest.mark.parametrize("basis", BASES)
    def test_reference_point(self, basis):
        p, q = 0.1, 0.23
        assert protocol.d_from_qber(q, p) == pytest.approx(0.2)
        iso = isometry_for(optimal_parameters(p, q))
        assert simulated_qbers(iso, p)[BASES.index(basis)] == pytest.approx(0.23, abs=1e-12)

    def test_half_disturbance_z(self):
        params = antiphase_parameters(0.0, 0.5)
        iso = isometry_for(params)
        assert simulated_qbers(iso, 0.0)[BASES.index("z")] == pytest.approx(0.5)

    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_basis_independence(self, p, q):
        iso = isometry_for(optimal_parameters(p, q))
        rates = simulated_qbers(iso, p)
        assert max(rates) - min(rates) < 1e-10
        assert rates[0] == pytest.approx(q, abs=1e-10)


class TestBobSymmetry:
    @pytest.mark.parametrize("p,q", ORACLE_GRID)
    def test_constrained_attack_symmetric(self, p, q):
        iso = isometry_for(optimal_parameters(p, q))
        assert max(symmetry_residuals(iso, p)) < 1e-12

    def test_identity_attack_symmetric(self):
        e = np.eye(4, dtype=complex)
        iso = build_isometry(0.0, np.array([e[1], e[0], e[1], e[3]]))
        assert symmetry_residuals(iso, 0.0)[BASES.index("z")] == pytest.approx(0.0, abs=1e-15)

    def test_lopsided_attack_detected(self):
        # flip amplitude applied to one column only: Bob's errors become
        # one-sided, which the symmetry residual must flag
        d = 0.2
        v = np.zeros((8, 2), dtype=complex)
        v[2, 0] = math.sqrt(1 - d)  # keep |0>, probe |10>
        v[4, 0] = math.sqrt(d)      # flip |0> -> |1>, probe |00>
        v[6, 1] = 1.0               # keep |1> always, probe |10>
        assert is_isometry(v)
        assert symmetry_residuals(v, 0.0)[BASES.index("z")] > 0.1


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
        for w0, w1 in simulate(iso, p)[1]:
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
            simulate(iso, 0.1)

    @pytest.mark.parametrize("iso", [*NOT_ARRAYS_OF_NUMBERS, np.eye(8, 2).astype(str)],
                             ids=[*NOT_ARRAYS_IDS, "numeric_text"])
    def test_not_an_array_of_numbers_refused(self, iso):
        with pytest.raises(DomainError, match=r"\(8, 2\) array"):
            simulate_eve_distribution(iso, 0.1)
        with pytest.raises(DomainError, match=r"\(8, 2\) array"):
            simulate(iso, 0.1)

    def test_non_isometry_refused(self):
        # right shape, but V^dagger V = [[8, 8], [8, 8]]: the simulators
        # would report "probabilities" summing to 16
        iso = np.ones((8, 2))
        with pytest.raises(DomainError, match="not orthonormal"):
            simulate_eve_distribution(iso, 0.1)
        with pytest.raises(DomainError, match="not orthonormal"):
            simulate(iso, 0.1)
        # a Gram residual of 1e-9 is past the 1e-10 bound
        iso = isometry_for(optimal_parameters(0.05, 0.15))
        iso[:, 0] *= math.sqrt(1.0 + 1e-9)
        assert attack._gram_residual(iso) == pytest.approx(1e-9, rel=1e-3)
        with pytest.raises(DomainError, match="not orthonormal"):
            simulate(iso, 0.05)


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
        eve, flips = simulate(iso, p)
        assert np.max(np.abs(eve - eve_ref)) <= self.TOL
        assert np.max(np.abs(np.array(flips) - flips_ref)) <= self.TOL
        assert np.array_equal(simulate_eve_distribution(iso, p), eve)

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
    """Alice's kets and the simulators' checks of p."""

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

    @pytest.mark.parametrize("p", [1.0, -0.1])
    def test_p_outside_range_refused(self, iso, p):
        with pytest.raises(DomainError, match="noise parameter p"):
            simulate_eve_distribution(iso, p)
        with pytest.raises(DomainError, match="noise parameter p"):
            simulate(iso, p)

    @pytest.mark.parametrize("p", ["0.1", b"0.1", None, 1j])
    def test_non_number_p_refused(self, iso, p):
        with pytest.raises(DomainError, match="noise parameter p"):
            simulate_eve_distribution(iso, p)
        with pytest.raises(DomainError, match="noise parameter p"):
            simulate(iso, p)

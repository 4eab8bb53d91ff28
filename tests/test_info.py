import numpy as np
import pytest

from sixstate import attack
from sixstate.exceptions import DomainError
from sixstate.info import (
    _i_ae,
    _tau,
    beta_sq_optimal,
    i_ab,
    i_ae_antiphase,
    i_ae_closed_form,
    i_ae_optimal,
    mutual_information,
)
from sixstate.protocol import check_domain

# interior sampling grid reused by several property tests
GRID = [
    (p, p / 2 + t * (0.5 - p / 2))
    for p in (0.0, 0.05, 0.1, 0.2, 0.3)
    for t in (0.1, 0.3, 0.5, 0.7, 0.9)
]


def i_ae_of(params):
    """Eve's information from the four squared radii of a parameter point."""
    return float(
        _i_ae(
            params.p,
            params.q,
            params.r_beta_a ** 2,
            params.r_beta_c ** 2,
            params.r_gamma_a ** 2,
            params.r_gamma_c ** 2,
        )
    )


class TestTau:
    def test_known_values(self):
        assert _tau(1.0, 1.0) == pytest.approx(-2.0)
        assert _tau(0.5, 0.5) == pytest.approx(-1.0)

    @pytest.mark.parametrize("x", [0.0, 0.3, 1.0, 2.5])
    def test_zero_second_argument(self, x):
        assert _tau(x, 0.0) == 0.0

    def test_symmetric(self):
        assert _tau(0.2, 0.7) == _tau(0.7, 0.2)


def test_check_domain_clamps_boundary_roundoff():
    p, q = check_domain(0.1, 0.05 - 1e-14)
    assert q == 0.05


def test_check_domain_rejects():
    with pytest.raises(DomainError):
        check_domain(1.0, 0.5)
    with pytest.raises(DomainError):
        check_domain(0.1, 0.04)
    with pytest.raises(DomainError):
        check_domain(0.0, 0.51)


class TestMutualInformation:
    def test_product_distribution(self):
        joint = np.full((2, 4), 1 / 8)
        assert mutual_information(joint) == 0.0

    def test_perfect_correlation(self):
        joint = np.array([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(joint) == pytest.approx(1.0)

    def test_matches_i_ae_on_eve_outcomes(self):
        params = attack.optimal_parameters(0.05, 0.1)
        m = attack.eve_distribution_closed_form(params)
        joint = 0.5 * m.reshape(2, 4)
        assert mutual_information(joint) == pytest.approx(i_ae_of(params), abs=1e-12)

    def test_rejects_bad_total(self):
        with pytest.raises(DomainError):
            mutual_information(np.full((2, 2), 0.3))

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))


class TestIAB:
    def test_endpoints_exact(self):
        assert i_ab(0.0) == 1.0
        assert i_ab(0.5) == 0.0

    def test_quarter(self):
        # high-precision value of 1 - h2(1/4)
        assert i_ab(0.25) == pytest.approx(0.18872187554086713609, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            i_ab(0.6)
        with pytest.raises(DomainError):
            i_ab(-0.01)


class TestBetaSqOptimal:
    def test_no_interaction_point(self):
        assert beta_sq_optimal(0.1, 0.05, "plus") == pytest.approx(0.5)
        assert beta_sq_optimal(0.1, 0.05, "minus") == pytest.approx(0.5)

    def test_half_error_rate(self):
        assert beta_sq_optimal(0.0, 0.5, "plus") == pytest.approx(1.0)
        assert beta_sq_optimal(0.0, 0.5, "minus") == pytest.approx(0.0, abs=1e-15)

    def test_reference_value(self):
        assert beta_sq_optimal(0.0, 0.1, "plus") == pytest.approx(
            0.7290614236454255861, abs=1e-15
        )

    @pytest.mark.parametrize("p,q", GRID)
    def test_branches_sum_to_one(self, p, q):
        total = beta_sq_optimal(p, q, "plus") + beta_sq_optimal(p, q, "minus")
        assert total == pytest.approx(1.0, abs=1e-14)

    def test_bad_branch(self):
        with pytest.raises(DomainError):
            beta_sq_optimal(0.0, 0.1, "both")


class TestIAEOptimal:
    def test_no_interaction_is_exact_zero(self):
        for p in (0.0, 0.1, 0.3):
            assert i_ae_optimal(p, p / 2) == 0.0

    def test_full_information_point(self):
        assert i_ae_optimal(0.0, 0.5) == 1.0

    def test_reference_value(self):
        assert i_ae_optimal(0.05, 0.1) == pytest.approx(
            0.16660333774693035103, abs=1e-14
        )

    @pytest.mark.parametrize("p,q", GRID)
    def test_branch_swap_invariance(self, p, q):
        plus = i_ae_closed_form(p, q, beta_sq_optimal(p, q, "plus"))
        minus = i_ae_closed_form(p, q, beta_sq_optimal(p, q, "minus"))
        assert abs(plus - minus) <= 1e-14

    @pytest.mark.parametrize("p,q", GRID)
    def test_range(self, p, q):
        assert 0.0 <= i_ae_optimal(p, q) <= 1.0

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.2])
    def test_nondecreasing_in_q(self, p):
        qs = np.linspace(p / 2, 0.5, 60)
        vals = [i_ae_optimal(p, q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


class TestIAEAntiphase:
    def test_no_interaction_is_exact_zero(self):
        assert i_ae_antiphase(0.1, 0.05) == 0.0

    @pytest.mark.parametrize("q", [0.05, 0.15, 0.3, 0.45])
    def test_noiseless_reduces_to_q(self, q):
        assert i_ae_antiphase(0.0, q) == pytest.approx(q, abs=1e-15)

    @pytest.mark.parametrize("p,q", GRID)
    def test_dominated_by_optimal(self, p, q):
        assert i_ae_optimal(p, q) >= i_ae_antiphase(p, q) - 1e-15


class TestIAEGeneral:
    def test_no_interaction(self):
        params = attack.optimal_parameters(0.1, 0.05)
        assert i_ae_of(params) == pytest.approx(0.0, abs=1e-15)

    def test_matches_optimal_closed_form(self):
        params = attack.optimal_parameters(0.0, 0.1)
        assert i_ae_of(params) == pytest.approx(
            i_ae_optimal(0.0, 0.1), abs=1e-12
        )

    def test_matches_antiphase_closed_form(self):
        params = attack.antiphase_parameters(0.05, 0.2)
        assert i_ae_of(params) == pytest.approx(
            i_ae_antiphase(0.05, 0.2), abs=1e-12
        )

    def test_beta_gamma_exchange_is_bitwise(self):
        params = attack.parameters_from_squares(0.05, 0.12, 0.8, 0.35, 1.0)
        swapped = attack.AttackParameters(
            p=params.p,
            q=params.q,
            r_beta_a=params.r_gamma_a,
            r_gamma_a=params.r_beta_a,
            r_beta_c=params.r_gamma_c,
            r_gamma_c=params.r_beta_c,
            delta_phi=params.delta_phi,
        )
        assert i_ae_of(params) == i_ae_of(swapped)

    def test_matches_mutual_information_for_random_params(self):
        rng = np.random.default_rng(7)
        for k in range(30):
            p = float(rng.uniform(0.0, 0.99))
            # every third point on each error-rate endpoint
            q = (p / 2, 0.5, float(rng.uniform(p / 2, 0.5)))[k % 3]
            ba, bc = rng.uniform(0.0, 1.0, size=2)
            params = attack.parameters_from_squares(p, q, ba, bc, 1.0)
            joint = 0.5 * attack.eve_distribution_closed_form(params).reshape(2, 4)
            assert mutual_information(joint) == pytest.approx(
                i_ae_of(params), abs=1e-12
            )

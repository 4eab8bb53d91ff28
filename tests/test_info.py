import numpy as np
import pytest

from sixstate import analysis, attack, info
from sixstate.exceptions import DomainError
from sixstate.info import (
    _i_ae,
    _i_ae_aligned,
    _tau,
    _xlog2,
    beta_sq_optimal,
    i_ab,
    i_ae_antiphase,
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


# The kernels as plain expressions: the reference the augmented steps of
# sixstate.info must match bit for bit, bar _xlog2's zero term on an array.
def _xlog2_reference(x):
    return x * np.log2(x + (x == 0.0))


def _tau_reference(x, y):
    return _xlog2_reference(x) + _xlog2_reference(y) - _xlog2_reference(x + y)


def _i_ae_reference(p, q, ba, bc, ga, gc):
    half = p / 2.0
    d = (q - p / 2.0) / (1.0 - p)
    pref = (1.0 - half - q) / (1.0 - p)

    def mix(a, c):
        return (1.0 - half) * a + half * c, half * a + (1.0 - half) * c

    beta, gamma = mix(ba, bc), mix(ga, gc)
    return (1.0 + 0.5 * pref * (_tau_reference(*beta) + _tau_reference(*gamma))
            + d * _tau_reference(1.0 - half, half))


def _i_ae_aligned_reference(p, q, beta_sq):
    half = p / 2.0
    x = (1.0 - p) * beta_sq + half
    d = (q - p / 2.0) / (1.0 - p)
    pref = (1.0 - half - q) / (1.0 - p)
    return (1.0 + pref * (_xlog2_reference(x) + _xlog2_reference(1.0 - x))
            + d * (_xlog2_reference(half) + _xlog2_reference(1.0 - half)))


def _beta_sq_reference(p, q, sign):
    root = np.sqrt((q - p / 2.0) * (2.0 - 3.0 * q - p / 2.0)) / (1.0 - p / 2.0 - q)
    return (1.0 + sign * np.minimum(root, 1.0)) / 2.0


def _i_ae_optimal_reference(p, q):
    value = _i_ae_aligned_reference(p, q, _beta_sq_reference(p, q, 1.0))
    return np.where(q <= p / 2.0, 0.0, value)


def _i_ae_antiphase_reference(p, q):
    half = p / 2.0
    d = (q - p / 2.0) / (1.0 - p)
    return np.where(q <= half, 0.0,
                    d * (1.0 + _xlog2_reference(half) + _xlog2_reference(1.0 - half)))


def _i_ab_reference(q):
    return 1.0 + _xlog2_reference(q) + _xlog2_reference(1.0 - q)


def _advantage_reference(p, q):
    return _i_ab_reference(q) - _i_ae_optimal_reference(p, q)


# The closed-form kernels take the terms of info._noise in place of p; the
# tests call them through these, at p.
def _at_p(kernel):
    return lambda p, *args: kernel(info._noise(p), *args)


def _crossing_shape():
    """p down the rows against a (rows, 63) q, as the crossing search calls it."""
    p = np.linspace(0.0, 0.5, 7)[:, None]
    q = p / 2.0 + np.linspace(0.0, 1.0, 63) * (0.5 - p / 2.0)
    ba = info._beta_sq(info._noise(p), q, 1.0)
    return p, q, ba, 1.0 - ba, 1.0 - ba, ba


def _crossing_view():
    """The midpoint columns of (rows, 65) brackets, a strided view, as later rounds pass q."""
    p = np.linspace(0.0, 0.5, 7)[:, None]
    edges = p / 2.0 + np.linspace(0.0, 1.0, 65) * (0.5 - p / 2.0)
    return p, edges[:, 1:-1]


def _lone_row():
    """A Python float p against a (1, 63) q, as the crossing search calls one live row."""
    p = 0.3
    q = p / 2.0 + np.linspace(0.0, 1.0, 63)[None, :] * (0.5 - p / 2.0)
    return p, q, info._beta_sq(info._noise(p), q, 1.0)


def _lattice():
    """Scalar p and q against weight arrays holding exact 0 and 1, as the grid search."""
    ba = np.array([0.0, 1.0, 0.5, 0.25, 1e-300, 0.999, 0.0, 1.0])
    bc = np.array([0.0, 1.0, 0.7, 0.0, 1.0, 1e-17, 1.0, 0.0])
    return 0.05, 0.15, ba, bc, 1.0 - ba, 1.0 - bc


def _zero_noise_edges():
    """p = 0 against four weights that are each exactly 0 or 1, in every combination."""
    ba, bc, ga, gc = np.indices((2, 2, 2, 2), dtype=float).reshape(4, -1)
    return 0.0, 0.3, ba, bc, ga, gc


# scalars only: an array's zero term is tested apart, in _XLOG2_ZEROS
_XS = {
    "python_float": (0.3,),
    "python_zero": (0.0,),
    "float64": (np.float64(0.7),),
    "float64_zero": (np.float64(0.0),),
    "0d_array": (np.array(0.2),),
}
_TAUS = {
    "zeros_and_ones": (np.array([0.0, 1.0, 0.5, 0.0]), np.array([1.0, 0.0, 0.5, 0.0])),
    "python_floats": (0.2, 0.7),
    "python_zero": (0.4, 0.0),
    "float64": (np.float64(0.2), np.float64(0.0)),
    "0d_arrays": (np.array(0.2), np.array(0.6)),
    "scalar_and_array": (0.3, np.array([0.0, 0.1, 1.0])),
    "crossing_shape": _crossing_shape()[:2],
}
_I_AES = {
    "lattice": _lattice(),
    "zero_noise_edges": _zero_noise_edges(),
    "python_floats": (0.05, 0.12, 0.8, 0.35, 0.2, 0.65),
    "python_edges": (0.0, 0.5, 1.0, 0.0, 0.0, 1.0),
    "float64": tuple(np.float64(v) for v in (0.1, 0.3, 0.6, 0.2, 0.4, 0.8)),
    "0d_arrays": tuple(np.array(v) for v in (0.1, 0.05, 0.5, 0.5, 0.5, 0.5)),
    "crossing_shape": _crossing_shape(),
}
_I_AE_ALIGNEDS = {
    "python_floats": (0.05, 0.12, 0.8),
    "python_edges": (0.0, 0.5, 1.0),
    "float64": tuple(np.float64(v) for v in (0.1, 0.3, 0.6)),
    "0d_arrays": tuple(np.array(v) for v in (0.1, 0.05, 0.5)),
    "curve_shape": (0.3, np.linspace(0.15, 0.5, 9), np.linspace(0.5, 1.0, 9)),
    "crossing_shape": _crossing_shape()[:3],
    "lone_row": _lone_row(),
}
# p and q alone, as the crossing search and the curves call them
_P_QS = {
    "python_floats": (0.05, 0.12),
    "python_edges": (0.1, 0.05),
    "float64": (np.float64(0.1), np.float64(0.3)),
    "curve_shape": (0.3, np.linspace(0.15, 0.5, 9)),
    "zero_noise_curve": (0.0, np.linspace(0.0, 0.5, 9)),
    "crossing_shape": _crossing_shape()[:2],
    "crossing_view": _crossing_view(),
    "lone_row": _lone_row()[:2],
}


_KERNELS = [
    pytest.param(kernel, reference, args, id=f"{name}-{case}")
    for name, kernel, reference, cases in [
        ("xlog2", _xlog2, _xlog2_reference, _XS),
        ("tau", _tau, _tau_reference, _TAUS),
        ("i_ae", _i_ae, _i_ae_reference, _I_AES),
        ("i_ae_aligned", _at_p(info._i_ae_aligned), _i_ae_aligned_reference, _I_AE_ALIGNEDS),
        ("beta_sq_plus", lambda p, q: _at_p(info._beta_sq)(p, q, 1.0),
         lambda p, q: _beta_sq_reference(p, q, 1.0), _P_QS),
        ("beta_sq_minus", lambda p, q: _at_p(info._beta_sq)(p, q, -1.0),
         lambda p, q: _beta_sq_reference(p, q, -1.0), _P_QS),
        ("i_ae_optimal", _at_p(info._i_ae_optimal), _i_ae_optimal_reference, _P_QS),
        ("i_ae_antiphase", _at_p(info._i_ae_antiphase), _i_ae_antiphase_reference, _P_QS),
        ("advantage", _at_p(analysis._advantage), _advantage_reference, _P_QS),
        ("i_ab", info._i_ab, _i_ab_reference,
         {case: args[1:] for case, args in _P_QS.items()} | {"0d_array": (np.array(0.2),)}),
    ]
    for case, args in cases.items()
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kernel,reference,args", _KERNELS)
def test_kernel_bit_identical_to_reference(kernel, reference, args):
    before = [np.array(a, copy=True) for a in args]
    got = kernel(*args)
    want = reference(*args)
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    else:
        assert repr(got) == repr(want)
    # No kernel writes into its arguments.
    for a, b in zip(args, before):
        assert np.array(a).tobytes() == b.tobytes()


_XLOG2_ZEROS = {
    "zeros_and_ones": np.array([0.0, 1.0, 0.0, 0.5, 1e-300, 1.0 - 1e-16]),
    "0d_zero": np.array(0.0),
    "crossing_shape": _crossing_shape()[1],
    "subnormals": np.array([0.0, 1.0, 0.5, 5e-324, 1e-310, 1e-300, 1.0 - 1e-16, 0.0, 3.0]),
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x", _XLOG2_ZEROS.values(), ids=_XLOG2_ZEROS)
def test_xlog2_array_zero_is_negative_zero(x):
    # an array guards zero as max(x, 5e-324), so a zero term is -0.0 where
    # the plain reference gives 0.0; every other term keeps its bits
    got, want = _xlog2(x), _xlog2_reference(x)
    assert type(got) is type(want)
    got, want, zero = np.asarray(got), np.asarray(want), x == 0.0
    assert (got == want).all()
    assert got[~zero].tobytes() == want[~zero].tobytes()
    assert zero.any() and np.signbit(got[zero]).all()


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
    # up to 1e-12 past either edge of q is round-off
    assert check_domain(0.1, 0.05 - 5e-13) == (0.1, 0.05)
    assert check_domain(0.1, 0.5 + 5e-13) == (0.1, 0.5)


def test_check_domain_rejects():
    with pytest.raises(DomainError):
        check_domain(1.0, 0.5)
    with pytest.raises(DomainError):
        check_domain(0.1, 0.04)
    with pytest.raises(DomainError):
        check_domain(0.0, 0.51)
    # beyond the 1e-12 round-off allowance
    with pytest.raises(DomainError):
        check_domain(0.1, 0.05 - 2e-12)
    with pytest.raises(DomainError):
        check_domain(0.1, 0.5 + 2e-12)


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
        # a total off by 5e-11 is round-off, by 2e-10 it is not
        assert mutual_information([[0.5, 0.0], [0.0, 0.5 + 5e-11]]) == pytest.approx(1.0)
        with pytest.raises(DomainError, match="sums to"):
            mutual_information([[0.5, 0.0], [0.0, 0.5 + 2e-10]])

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            mutual_information(np.array([[0.6, -0.1], [0.3, 0.2]]))
        # an entry of -5e-13 is round-off, one of -2e-12 is not
        assert mutual_information([[0.5, -5e-13], [5e-13, 0.5]]) == pytest.approx(1.0)
        with pytest.raises(DomainError, match="negative entry"):
            mutual_information([[0.5, -2e-12], [2e-12, 0.5]])

    @pytest.mark.parametrize("joint", [
        [[0.5, np.nan], [0.25, 0.25]],
        np.full((2, 2), np.nan),
        [[0.5, 0.0], [0.0, 0.5 + 0.5j]],
        np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
        np.empty((0, 3)),
        [[0.5], [0.25, 0.25]],
        [["0.5", "0"], ["0", "0.5"]],
    ], ids=["one-nan", "all-nan", "complex-entry", "complex-array", "empty", "ragged",
            "strings"])
    def test_rejects_malformed_table(self, joint):
        # NaN, complex, empty, ragged and string tables are not probability tables
        with pytest.raises(DomainError):
            mutual_information(joint)


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
        # the kernel behind verify's "branch symmetry" check
        noise = info._noise(p)
        plus = float(_i_ae_aligned(noise, q, beta_sq_optimal(p, q, "plus")))
        minus = float(_i_ae_aligned(noise, q, beta_sq_optimal(p, q, "minus")))
        assert abs(plus - minus) <= 1e-14

    @pytest.mark.parametrize("p,q", GRID)
    def test_range(self, p, q):
        assert 0.0 <= i_ae_optimal(p, q) <= 1.0

    @pytest.mark.parametrize("p", [0.0, 0.05, 0.2])
    def test_nondecreasing_in_q(self, p):
        qs = np.linspace(p / 2, 0.5, 60)
        vals = [i_ae_optimal(p, q) for q in qs]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_matches_general_kernel_on_domain_lattice():
    # The paper's closed form (_i_ae_aligned) and the grid's four-weight
    # kernel (_i_ae) are evaluated apart; on 96 p by 2,001 q they agree to
    # round-off at both roots, and the two roots give the same value.
    p = np.linspace(0.0, 0.95, 96)[:, None]
    q = p / 2.0 + np.linspace(0.0, 1.0, 2001) * (0.5 - p / 2.0)
    values = []
    noise = info._noise(p)
    for sign in (1.0, -1.0):
        b = info._beta_sq(noise, q, sign)
        closed = info._i_ae_aligned(noise, q, b)
        assert closed.shape == q.shape
        assert np.abs(closed - _i_ae(p, q, b, 1.0 - b, 1.0 - b, b)).max() <= 2e-15
        values.append(closed)
    assert np.abs(values[0] - values[1]).max() <= 2e-15


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

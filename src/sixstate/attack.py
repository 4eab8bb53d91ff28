"""Eavesdropping attack construction for the noisy six-state protocol.

Eve attaches a two-qubit probe to each transmitted signal.  The attack
family is parameterized by `AttackParameters`: four nonnegative radii
and two phases describing the probe states paired with the kept and
flipped signal, under the normalization that each radius pair squares
to 1.  From these, the module builds the probe states, assembles the
8x2 interaction isometry, and produces Eve's outcome distribution both
in closed form and by direct density-matrix simulation (the latter acts
as an independent oracle for the former).

Probe basis ordering is |00>, |01>, |10>, |11> (index = 2*left + right);
joint signal-probe vectors use index = 4*signal + probe as in
`sixstate.linalg`.
"""

import dataclasses
import math

import numpy as np

from . import protocol
from .exceptions import ConstraintError, DomainError
from .info import _root, _weights
from .linalg import adjoint, is_isometry, partial_trace_probe, partial_trace_signal
from .protocol import check_domain, check_range

__all__ = [
    "AttackParameters",
    "AncillaSet",
    "overlap_target",
    "optimal_parameters",
    "antiphase_parameters",
    "parameters_from_squares",
    "build_ancillas",
    "constraint_residuals",
    "build_isometry",
    "eve_distribution_closed_form",
    "simulate_eve_distribution",
    "simulate_qber",
    "bob_symmetry_residual",
]

_NORM_TOL = 1e-10

# Eve measures her probe in the computational basis; outcomes are
# reported in the order |00>, |10>, |01>, |11>.
_OUTCOME_ORDER = (0, 2, 1, 3)


@dataclasses.dataclass(frozen=True)
class AttackParameters:
    """One point of the constrained attack family.

    Parameters
    ----------
    p : float
        White-noise weight of the source, in [0, 1).
    q : float
        Bob's error rate, in [p/2, 1/2].
    r_beta_a, r_gamma_a : float
        Magnitudes of the |10> and |01> components of the probe state
        paired with the kept signal; squares must sum to 1 within 1e-10.
    phi_gamma_a : float
        Phase (radians) of the |01> component of that probe state.
    r_beta_c, r_gamma_c : float
        Same magnitudes for the probe state paired with the flipped
        signal.
    phi_gamma_c : float
        Phase of its |01> component.

    Only the phase difference ``phi_gamma_a - phi_gamma_c`` affects any
    observable quantity.
    """

    p: float
    q: float
    r_beta_a: float
    r_gamma_a: float
    phi_gamma_a: float
    r_beta_c: float
    r_gamma_c: float
    phi_gamma_c: float

    def __post_init__(self):
        p, q = check_domain(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        for name in ("r_beta_a", "r_gamma_a", "r_beta_c", "r_gamma_c"):
            r = float(getattr(self, name))
            if not math.isfinite(r) or r < 0.0:
                raise DomainError(f"{name}={r} must be a nonnegative real")
            object.__setattr__(self, name, r)
        object.__setattr__(self, "phi_gamma_a", float(self.phi_gamma_a))
        object.__setattr__(self, "phi_gamma_c", float(self.phi_gamma_c))
        na = self.r_beta_a ** 2 + self.r_gamma_a ** 2
        nc = self.r_beta_c ** 2 + self.r_gamma_c ** 2
        if abs(na - 1.0) > _NORM_TOL:
            raise ConstraintError(f"kept-signal probe norm squared is {na}, not 1")
        if abs(nc - 1.0) > _NORM_TOL:
            raise ConstraintError(f"flipped-signal probe norm squared is {nc}, not 1")

    @property
    def beta_a_sq(self):
        """Squared |10> weight of the kept-signal probe state."""
        return self.r_beta_a ** 2

    @property
    def beta_c_sq(self):
        """Squared |10> weight of the flipped-signal probe state."""
        return self.r_beta_c ** 2

    @property
    def delta_phi(self):
        """Phase difference phi_gamma_a - phi_gamma_c."""
        return self.phi_gamma_a - self.phi_gamma_c

    @property
    def cos_delta_phi(self):
        return math.cos(self.delta_phi)


@dataclasses.dataclass(frozen=True)
class AncillaSet:
    """The four probe states, as normalized 4-component vectors.

    a and c are the states attached to the kept signal branch; b and d
    (fixed to |00> and |11>) to the disturbed branch.  b and d are
    exactly orthogonal by construction.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            vec = np.asarray(getattr(self, name), dtype=complex)
            if vec.shape != (4,):
                raise DomainError(f"probe state {name} must have 4 components")
            norm = float(np.linalg.norm(vec))
            if abs(norm - 1.0) > 1e-12:
                raise ConstraintError(f"probe state {name} has norm {norm}, not 1")
            object.__setattr__(self, name, vec)


def overlap_target(p, q):
    """Required Re<a|c> so the attack reproduces error rate q at noise p.

    ``2 (1 - 2q) / (2 - p - 2q)``; equals 1 at q = p/2 (the probes must
    coincide, so Eve learns nothing) and 0 at q = 1/2.
    """
    p, q = check_domain(p, q)
    return 2.0 * (1.0 - 2.0 * q) / (2.0 - p - 2.0 * q)


def parameters_from_squares(p, q, beta_a_sq, beta_c_sq, cos_dphi):
    """Build `AttackParameters` from squared weights and a phase cosine.

    Radii are the nonnegative square roots; the gamma radii follow from
    the unit-norm pairs.  ``phi_gamma_a = arccos(cos_dphi)`` and
    ``phi_gamma_c = 0``.  No overlap condition is imposed here — use
    `constraint_residuals` or `sixstate.optimize.feasible_phase` for
    that.
    """
    beta_a_sq = check_range(beta_a_sq, 0.0, 1.0, "squared weight")
    beta_c_sq = check_range(beta_c_sq, 0.0, 1.0, "squared weight")
    cos_dphi = check_range(cos_dphi, -1.0, 1.0, "cos_dphi")
    return AttackParameters(
        p=p,
        q=q,
        r_beta_a=math.sqrt(beta_a_sq),
        r_gamma_a=math.sqrt(1.0 - beta_a_sq),
        phi_gamma_a=math.acos(cos_dphi),
        r_beta_c=math.sqrt(beta_c_sq),
        r_gamma_c=math.sqrt(1.0 - beta_c_sq),
        phi_gamma_c=0.0,
    )


def optimal_parameters(p, q, branch="plus"):
    """Parameters of the information-maximizing attack at (p, q).

    Aligned phases (cos of the difference = +1) with the stationary
    squared weight of `sixstate.info.beta_sq_optimal`, written as
    ``cos^2 theta`` with ``2 theta = atan2(t, root)``, where
    ``t = overlap_target(p, q)`` and root is that formula's square-root
    term (``t^2 + root^2 = 1``).  The radii are ``r_beta_a = r_gamma_c =
    cos theta`` and ``r_gamma_a = r_beta_c = sin theta``; "minus" swaps
    the two.  The overlap condition ``sin 2 theta = t`` then holds to
    round-off even where the weight itself rounds to 1.
    """
    p, q = check_domain(p, q)
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    theta = 0.5 * math.atan2(overlap_target(p, q), float(_root(p, q)))
    big, small = math.cos(theta), math.sin(theta)
    if branch == "minus":
        big, small = small, big
    return AttackParameters(
        p=p,
        q=q,
        r_beta_a=big,
        r_gamma_a=small,
        phi_gamma_a=0.0,
        r_beta_c=small,
        r_gamma_c=big,
        phi_gamma_c=0.0,
    )


def antiphase_parameters(p, q):
    """Parameters of the stationary attack with opposed phases.

    Equal probe weights ``(1 + t) / 2`` with ``t = overlap_target(p, q)``
    and a phase difference of pi.
    """
    ba = (1.0 + overlap_target(p, q)) / 2.0
    return parameters_from_squares(p, q, ba, ba, -1.0)


def build_ancillas(params):
    """Assemble the four probe state vectors for a parameter point."""
    a = [0.0, params.r_gamma_a * np.exp(1j * params.phi_gamma_a), params.r_beta_a, 0.0]
    c = [0.0, params.r_gamma_c * np.exp(1j * params.phi_gamma_c), params.r_beta_c, 0.0]
    return AncillaSet(a=a, b=[1.0, 0.0, 0.0, 0.0], c=c, d=[0.0, 0.0, 0.0, 1.0])


def constraint_residuals(ancillas, p, q):
    """Magnitudes of the four attack constraints at (p, q).

    Returns
    -------
    numpy.ndarray
        ``[|<b|d>|, |Re<a|c> - overlap_target(p, q)|,
        |<a|b> + <d|c>|, |<a|d> + <b|c>|]``.  The first, third and
        fourth vanish identically for states built by `build_ancillas`;
        the second measures how far the point is from reproducing error
        rate q.
    """
    t = overlap_target(p, q)
    r1 = abs(np.vdot(ancillas.b, ancillas.d))
    r2 = abs(np.vdot(ancillas.a, ancillas.c).real - t)
    r3 = abs(np.vdot(ancillas.a, ancillas.b) + np.vdot(ancillas.d, ancillas.c))
    r4 = abs(np.vdot(ancillas.a, ancillas.d) + np.vdot(ancillas.b, ancillas.c))
    return np.array([r1, r2, r3, r4])


def build_isometry(d, ancillas):
    """Assemble Eve's 8x2 interaction isometry at disturbance d.

    Column k is the image of signal state |k>: the signal is kept with
    amplitude sqrt(1-d) (attaching a or c) and flipped with amplitude
    sqrt(d) (attaching b or d).

    Raises
    ------
    ConstraintError
        If the columns fail the isometry check at 1e-10, which happens
        exactly when the probe states violate the orthogonality
        conditions linking the kept and flipped branches.
    """
    d = check_range(d, 0.0, 0.5, "disturbance d")
    keep = math.sqrt(1.0 - d)
    flip = math.sqrt(d)
    v = np.zeros((8, 2), dtype=complex)
    v[0:4, 0] = keep * ancillas.a
    v[4:8, 0] = flip * ancillas.b
    v[4:8, 1] = keep * ancillas.c
    v[0:4, 1] = flip * ancillas.d
    if not is_isometry(v, tol=_NORM_TOL):
        raise ConstraintError(
            "columns are not isometric: probe states violate the "
            "kept/flipped orthogonality conditions"
        )
    return v


def eve_distribution_closed_form(params):
    """Eve's eight outcome probabilities, four per value of Alice's bit.

    Entries 0-3 are the probabilities of probe outcomes |00>, |10>,
    |01>, |11> when Alice sent bit 0; entries 4-7 the same for bit 1.
    Each quadruple sums to 1.
    """
    d, pref, (beta0, beta1), (gamma0, gamma1) = _weights(
        params.p,
        params.q,
        params.r_beta_a ** 2,
        params.r_beta_c ** 2,
        params.r_gamma_a ** 2,
        params.r_gamma_c ** 2,
    )
    half = params.p / 2.0
    m = np.array(
        [
            (1.0 - half) * d,
            pref * beta0,
            pref * gamma0,
            half * d,
            half * d,
            pref * beta1,
            pref * gamma1,
            (1.0 - half) * d,
        ]
    )
    for block in (m[:4], m[4:]):
        total = float(block.sum())
        if abs(total - 1.0) > 1e-12:
            raise ConstraintError(f"outcome quadruple sums to {total}, not 1")
    return m


def _joint_states(iso, basis, p):
    """``iso rho iso^dagger`` for the noisy basis states of bits 0 and 1."""
    iso = np.asarray(iso, dtype=complex)
    return [iso @ protocol.noisy_signal(basis, bit, p) @ adjoint(iso) for bit in (0, 1)]


def simulate_eve_distribution(iso, p):
    """Eve's outcome probabilities by direct density-matrix evolution.

    For each value of Alice's bit, sends the noisy computational-basis
    signal through the isometry, traces out the signal, and reads the
    probe populations in the order |00>, |10>, |01>, |11>.  Independent
    oracle for `eve_distribution_closed_form`.
    """
    out = []
    for joint in _joint_states(iso, "z", p):
        pops = np.real(np.diag(partial_trace_signal(joint)))
        out.extend(pops[i] for i in _OUTCOME_ORDER)
    return np.array(out)


def simulate_qber(iso, p, basis):
    """Bob's error rate in a basis, under the attack, at noise p.

    Sends both noisy basis states through the isometry, reduces to
    Bob's qubit, and scores the misidentification probability.
    """
    bob0, bob1 = (partial_trace_probe(j) for j in _joint_states(iso, basis, p))
    return protocol.qber_from_bob_states(bob0, bob1, basis)


def bob_symmetry_residual(iso, p, basis):
    """How unevenly the attack flips the two basis states.

    ``|<0_b| rho_1 |0_b> - <1_b| rho_0 |1_b>|`` for Bob's reduced
    states; zero means the two flip probabilities match, so Alice and
    Bob see a symmetric error channel in that basis.
    """
    bob0, bob1 = (partial_trace_probe(j) for j in _joint_states(iso, basis, p))
    w0, w1 = protocol._bob_flips(bob0, bob1, basis)
    return abs(w1 - w0)

"""Eavesdropping attack construction for the noisy six-state protocol.

Eve attaches a two-qubit probe to each transmitted signal.  The attack
family is parameterized by `AttackParameters`: four nonnegative radii
describing the probe states paired with the kept and flipped signal,
under the normalization that each radius pair squares to 1, and the
phase difference between those two states.  From these, the module
builds the probe states, assembles the 8x2 interaction isometry, and
produces Eve's outcome distribution both in closed form and by direct
density-matrix simulation (the latter acts as an independent oracle for
the former).

This module alone knows the signal states and the layout of the joint
space.  Alice sends the +1 (bit 0) or -1 (bit 1) eigenstate of the
Pauli operator of one of the `BASES`, and the noisy source emits it as
``(1 - p) |b><b| + (p / 2) I``.  Probe basis ordering is |00>, |01>,
|10>, |11> (index = 2*left + right); joint signal-probe vectors use
index = 4*signal + probe, so a joint operator reshapes to (signal,
probe, signal, probe) axes of sizes (2, 4, 2, 4).

The simulators evolve both bits of all three bases as one tensor and
read Eve's z-basis populations and Bob's flips from its partial traces.
They check the isometry's shape, its orthonormality, p, then the basis.
"""

import dataclasses
import math

import numpy as np

from .exceptions import ConstraintError, DomainError
from .info import _root, _weights
from .protocol import check_domain, check_range

__all__ = [
    "BASES",
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
    "simulate_bob_flips",
]

# Largest error of a probe state's squared norm.
_NORM_TOL = 1e-12
# Largest entry of V^dagger V - I an isometry may have.
_ISO_TOL = 1e-10

#: Measurement bases of the protocol.
BASES = ("x", "y", "z")

_SQ2 = np.sqrt(2.0)

# Kets of bits 0 and 1 per basis.
_EIGENSTATES = {
    "z": (np.array([1.0, 0.0], dtype=complex), np.array([0.0, 1.0], dtype=complex)),
    "x": tuple(np.array([1.0, s], dtype=complex) / _SQ2 for s in (1.0, -1.0)),
    "y": tuple(np.array([1.0, s], dtype=complex) / _SQ2 for s in (1.0j, -1.0j)),
}

# Projectors |k><k| of bits 0 and 1 per basis in BASES order, (3, 2, 2, 2).
_PROJECTORS = np.array(
    [[np.outer(ket, ket.conj()) for ket in _EIGENSTATES[basis]] for basis in BASES]
)

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
        paired with the kept signal; squares must sum to 1 within 1e-12.
    r_beta_c, r_gamma_c : float
        Same magnitudes for the probe state paired with the flipped
        signal.
    delta_phi : float
        Phase (radians) of the kept-signal probe's |01> component
        relative to the flipped-signal probe's.  Only this difference
        of the two phases affects any observable quantity.
    """

    p: float
    q: float
    r_beta_a: float
    r_gamma_a: float
    r_beta_c: float
    r_gamma_c: float
    delta_phi: float

    def __post_init__(self):
        p, q = check_domain(self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        for name in ("r_beta_a", "r_gamma_a", "r_beta_c", "r_gamma_c"):
            r = float(getattr(self, name))
            if not math.isfinite(r) or r < 0.0:
                raise DomainError(f"{name}={r} must be a nonnegative real")
            object.__setattr__(self, name, r)
        phi = float(self.delta_phi)
        if not math.isfinite(phi):
            raise DomainError(f"delta_phi={phi} must be finite")
        object.__setattr__(self, "delta_phi", phi)
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
            norm_sq = float(np.vdot(vec, vec).real)
            if not abs(norm_sq - 1.0) <= _NORM_TOL:
                raise ConstraintError(f"probe state {name} has norm squared {norm_sq}, not 1")
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
    the unit-norm pairs, and ``delta_phi = arccos(cos_dphi)``.  No
    overlap condition is imposed here — use `constraint_residuals` or
    `sixstate.optimize.feasible_phase` for that.
    """
    beta_a_sq = check_range(beta_a_sq, 0.0, 1.0, "squared weight")
    beta_c_sq = check_range(beta_c_sq, 0.0, 1.0, "squared weight")
    cos_dphi = check_range(cos_dphi, -1.0, 1.0, "cos_dphi")
    return AttackParameters(
        p=p,
        q=q,
        r_beta_a=math.sqrt(beta_a_sq),
        r_gamma_a=math.sqrt(1.0 - beta_a_sq),
        r_beta_c=math.sqrt(beta_c_sq),
        r_gamma_c=math.sqrt(1.0 - beta_c_sq),
        delta_phi=math.acos(cos_dphi),
    )


def optimal_parameters(p, q):
    """Parameters of the information-maximizing attack at (p, q).

    Aligned phases (cos of the difference = +1) with the stationary
    squared weight of `sixstate.info.beta_sq_optimal`, written as
    ``cos^2 theta`` with ``2 theta = atan2(t, root)``, where
    ``t = overlap_target(p, q)`` and root is that formula's square-root
    term (``t^2 + root^2 = 1``).  The radii are ``r_beta_a = r_gamma_c =
    cos theta`` and ``r_gamma_a = r_beta_c = sin theta``.  The overlap
    condition ``sin 2 theta = t`` then holds to round-off even where the
    weight itself rounds to 1.
    """
    p, q = check_domain(p, q)
    theta = 0.5 * math.atan2(overlap_target(p, q), float(_root(p, q)))
    big, small = math.cos(theta), math.sin(theta)
    return AttackParameters(
        p=p,
        q=q,
        r_beta_a=big,
        r_gamma_a=small,
        r_beta_c=small,
        r_gamma_c=big,
        delta_phi=0.0,
    )


def antiphase_parameters(p, q):
    """Parameters of the stationary attack with opposed phases.

    Equal probe weights ``(1 + t) / 2`` with ``t = overlap_target(p, q)``
    and a phase difference of pi.
    """
    ba = (1.0 + overlap_target(p, q)) / 2.0
    return parameters_from_squares(p, q, ba, ba, -1.0)


def build_ancillas(params):
    """Assemble the four probe state vectors for a parameter point.

    The phase difference sits on a's |01> amplitude; c's is real.
    """
    a = [0.0, params.r_gamma_a * np.exp(1j * params.delta_phi), params.r_beta_a, 0.0]
    c = [0.0, params.r_gamma_c, params.r_beta_c, 0.0]
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
    if not _gram_residual(v) <= _ISO_TOL:
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


def _gram_residual(v):
    """``max |V^dagger V - I|``: zero exactly when v's columns are orthonormal."""
    return np.abs(v.conj().T @ v - np.eye(2)).max()


def _joint_states(iso, p):
    """``iso rho iso^dagger`` for the noisy states of both bits of every basis.

    One tensor of shape (3, 2, 2, 4, 2, 4): basis in `BASES` order,
    Alice's bit, then the (signal, probe, signal, probe) axes.  Checks in
    this order, each raising `DomainError`: `iso` has shape (8, 2), its
    columns pass the isometry check at 1e-10, and p lies in [0, 1).
    """
    iso = np.asarray(iso, dtype=complex)
    if iso.shape != (8, 2):
        raise DomainError(f"isometry must have shape (8, 2), got {iso.shape}")
    residual = _gram_residual(iso)
    if not residual <= _ISO_TOL:
        raise DomainError(f"isometry columns are not orthonormal: residual {residual}")
    p, _ = check_domain(p, p / 2.0)
    rhos = (1.0 - p) * _PROJECTORS + (p / 2.0) * np.eye(2, dtype=complex)
    return (iso @ rhos @ iso.conj().T).reshape(3, 2, 2, 4, 2, 4)


def _simulate(iso, p):
    """`simulate_eve_distribution`, and each basis's `simulate_bob_flips`.

    Partial traces of the one `_joint_states` tensor: Eve's eight
    probabilities, then a list of ``[w0, w1]`` per basis in `BASES` order.
    """
    joint = _joint_states(iso, p)
    pops = np.einsum("nikik->nk", joint[BASES.index("z")]).real
    bob = np.einsum("bnikjk->bnij", joint)
    # Bob reads bit n wrong with weight tr(|1-n><1-n| rho_n).
    flips = np.einsum("bnij,bnji->bn", _PROJECTORS[:, ::-1], bob).real
    return pops[:, _OUTCOME_ORDER].ravel(), flips.tolist()


def simulate_eve_distribution(iso, p):
    """Eve's outcome probabilities by direct density-matrix evolution.

    For each value of Alice's bit, sends the noisy computational-basis
    signal through the isometry, traces out the signal, and reads the
    probe populations in the order |00>, |10>, |01>, |11>.  Independent
    oracle for `eve_distribution_closed_form`.  `iso` must be an 8x2
    isometry, as `build_isometry` returns it, and p must lie in [0, 1),
    or `DomainError` is raised.
    """
    return _simulate(iso, p)[0]


def simulate_bob_flips(iso, p, basis):
    """Bob's two flip probabilities in a basis, under the attack, at noise p.

    Sends both noisy basis states through the isometry, reduces to Bob's
    qubit, and returns ``(w0, w1)``: the probabilities that Bob reads
    bit 0 as 1 and bit 1 as 0.  Their mean is Bob's error rate, and
    ``|w1 - w0|`` is zero when Alice and Bob see a symmetric error
    channel in that basis.  `iso` must be an 8x2 isometry, p in [0, 1)
    and basis one of `BASES`, or `DomainError` is raised.
    """
    flips = _simulate(iso, p)[1]
    if basis not in BASES:
        raise DomainError(f"basis must be one of {BASES}, got {basis!r}")
    return tuple(flips[BASES.index(basis)])

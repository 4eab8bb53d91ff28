"""Eavesdropping attack construction for the noisy six-state protocol.

Eve attaches a two-qubit probe to each transmitted signal.  The attack
family is parameterized by `AttackParameters`: four nonnegative radii
describing the probe states paired with the kept and flipped signal,
under the normalization that each radius pair squares to 1, and the
phase difference between those two states.  With ``b = |00>``,
``d = |11>`` and a, c in span{|01>, |10>}, the one condition a point can
break is ``Re<a|c> = overlap_target(p, q)`` (`AttackParameters.overlap`).
From these, the module builds the probe states, assembles the 8x2
interaction isometry, and produces Eve's outcome distribution both in
closed form and by direct density-matrix simulation (the latter acts as
an independent oracle for the former).

This module alone knows the signal states and the layout of the joint
space.  Alice sends the +1 (bit 0) or -1 (bit 1) eigenstate of the
Pauli operator of one of the `BASES`, and the noisy source emits it as
``(1 - p) |b><b| + (p / 2) I``.  Probe basis ordering is |00>, |01>,
|10>, |11> (index = 2*left + right); joint signal-probe vectors use
index = 4*signal + probe, so a joint operator reshapes to (signal,
probe, signal, probe) axes of sizes (2, 4, 2, 4).

`simulate` evolves both bits of all three bases as one tensor and reads
Eve's z-basis populations and Bob's flips in every basis from its partial
traces.  It checks the isometry's shape, its orthonormality, then p.
"""

import dataclasses
import math

import numpy as np

from .exceptions import ConstraintError, DomainError
from .info import _root, _weights
from .protocol import _float, check_domain, check_range

__all__ = [
    "BASES",
    "AttackParameters",
    "overlap_target",
    "optimal_parameters",
    "antiphase_parameters",
    "parameters_from_squares",
    "build_ancillas",
    "build_isometry",
    "eve_distribution_closed_form",
    "simulate",
    "simulate_eve_distribution",
]

# Largest error of a radius pair's squared norm.
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
            r = _float(getattr(self, name), name)
            if not math.isfinite(r) or r < 0.0:
                raise DomainError(f"{name}={r} must be a nonnegative real")
            object.__setattr__(self, name, r)
        phi = _float(self.delta_phi, "delta_phi")
        if not math.isfinite(phi):
            raise DomainError(f"delta_phi={phi} must be finite")
        object.__setattr__(self, "delta_phi", phi)
        # Products, not ** 2: a huge radius squares to inf, not OverflowError.
        na = self.r_beta_a * self.r_beta_a + self.r_gamma_a * self.r_gamma_a
        nc = self.r_beta_c * self.r_beta_c + self.r_gamma_c * self.r_gamma_c
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

    @property
    def overlap(self):
        """``Re<a|c>`` of the kept-signal probe states a and c.

        The attack reproduces error rate q at noise p exactly when this
        equals ``overlap_target(p, q)``.
        """
        return (self.r_beta_a * self.r_beta_c
                + self.r_gamma_a * self.r_gamma_c * self.cos_delta_phi)


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
    overlap condition is imposed here — compare the result's `overlap`
    with `overlap_target`, or use `sixstate.optimize.feasible_phase`.
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
    """The four probe states of a parameter point, as the rows a, b, c, d.

    Returns a (4, 4) complex array in the probe basis |00>, |01>, |10>,
    |11>: ``b = |00>``, ``d = |11>``, and a, c in span{|01>, |10>} with
    the radii of `params`.  The phase difference sits on a's |01>
    amplitude; c's is real.
    """
    return np.array(
        [
            [0.0, params.r_gamma_a * np.exp(1j * params.delta_phi), params.r_beta_a, 0.0],
            [1.0, 0.0, 0.0, 0.0],
            [0.0, params.r_gamma_c, params.r_beta_c, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


def build_isometry(d, ancillas):
    """Assemble Eve's 8x2 interaction isometry at disturbance d.

    `ancillas` holds the probe states a, b, c, d as the rows of a (4, 4)
    array, as `build_ancillas` returns them.  Column k is the image of
    signal state |k>: the signal is kept with amplitude sqrt(1-d)
    (attaching a or c) and flipped with amplitude sqrt(d) (attaching b
    or d).

    Raises
    ------
    DomainError
        If d lies outside [0, 1/2], or `ancillas` is not a (4, 4) array of
        numbers.
    ConstraintError
        If the columns fail the isometry check at 1e-10, which happens
        exactly when a probe state is not a unit vector or the probe
        states violate the orthogonality conditions linking the kept
        and flipped branches.
    """
    d = check_range(d, 0.0, 0.5, "disturbance d")
    ancillas = _complex_array(ancillas, (4, 4), "probe states")
    keep = math.sqrt(1.0 - d)
    flip = math.sqrt(d)
    v = np.zeros((8, 2), dtype=complex)
    v[0:4, 0] = keep * ancillas[0]
    v[4:8, 0] = flip * ancillas[1]
    v[4:8, 1] = keep * ancillas[2]
    v[0:4, 1] = flip * ancillas[3]
    if not _gram_residual(v) <= _ISO_TOL:
        raise ConstraintError(
            "columns are not isometric: probe states are not unit vectors "
            "or violate the kept/flipped orthogonality conditions"
        )
    return v


def eve_distribution_closed_form(params):
    """Eve's eight outcome probabilities, four per value of Alice's bit.

    Entries 0-3 are the probabilities of probe outcomes |00>, |10>,
    |01>, |11> when Alice sent bit 0; entries 4-7 the same for bit 1.
    Each quadruple sums to 1.  The kept-signal weight is taken as
    ``1 - d``, the weight the simulated isometry keeps with amplitude
    ``sqrt(1 - d)``: the ``(p, q)`` form of `_weights` cancels as p -> 1.
    """
    d, _, (beta0, beta1), (gamma0, gamma1) = _weights(
        params.p,
        params.q,
        params.r_beta_a ** 2,
        params.r_beta_c ** 2,
        params.r_gamma_a ** 2,
        params.r_gamma_c ** 2,
    )
    pref = 1.0 - d
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


def _complex_array(x, shape, what):
    """x as a complex array of the given shape, or `DomainError`.

    Ragged nesting, text and objects that are not numbers are refused, as
    the scalar validators refuse them.
    """
    try:
        a = np.asarray(x)
    except ValueError:
        raise DomainError(f"{what} must form a {shape} array, got ragged input") from None
    if a.dtype.kind not in "biufc" or a.shape != shape:
        raise DomainError(f"{what} must form a {shape} array of numbers, "
                          f"got {a.dtype} of shape {a.shape}")
    return np.asarray(a, dtype=complex)


def _gram_residual(v):
    """``max |V^dagger V - I|``: zero exactly when v's columns are orthonormal."""
    return np.abs(v.conj().T @ v - np.eye(2)).max()


def _joint_states(iso, p):
    """``iso rho iso^dagger`` for the noisy states of both bits of every basis.

    One tensor of shape (3, 2, 2, 4, 2, 4): basis in `BASES` order,
    Alice's bit, then the (signal, probe, signal, probe) axes.  Checks in
    this order, each raising `DomainError`: `iso` is an (8, 2) array of
    numbers, its columns pass the isometry check at 1e-10, and p lies in
    [0, 1).
    """
    iso = _complex_array(iso, (8, 2), "isometry")
    residual = _gram_residual(iso)
    if not residual <= _ISO_TOL:
        raise DomainError(f"isometry columns are not orthonormal: residual {residual}")
    p, _ = check_domain(p, 0.5)
    rhos = (1.0 - p) * _PROJECTORS + (p / 2.0) * np.eye(2, dtype=complex)
    return (iso @ rhos @ iso.conj().T).reshape(3, 2, 2, 4, 2, 4)


def simulate(iso, p):
    """Eve's outcome probabilities and Bob's flips in every basis, simulated.

    Sends both noisy states of every basis through the isometry as one
    tensor and takes its partial traces.  Returns ``(eve, flips)``:

    - ``eve``, Eve's eight probabilities: for each value of Alice's bit,
      the probe populations after the noisy computational-basis signal,
      in the order |00>, |10>, |01>, |11>.  This is the independent
      oracle for `eve_distribution_closed_form`;
    - ``flips``, one ``[w0, w1]`` per basis in `BASES` order: the
      probabilities that Bob reads bit 0 as 1 and bit 1 as 0.  Their mean
      is Bob's error rate in that basis, and ``|w1 - w0|`` is zero when
      Alice and Bob see a symmetric error channel there.

    `iso` must be an 8x2 isometry, as `build_isometry` returns it, and p
    must lie in [0, 1), or `DomainError` is raised.
    """
    joint = _joint_states(iso, p)
    pops = np.einsum("nikik->nk", joint[BASES.index("z")]).real
    bob = np.einsum("bnikjk->bnij", joint)
    # Bob reads bit n wrong with weight tr(|1-n><1-n| rho_n).
    flips = np.einsum("bnij,bnji->bn", _PROJECTORS[:, ::-1], bob).real
    return pops[:, _OUTCOME_ORDER].ravel(), flips.tolist()


def simulate_eve_distribution(iso, p):
    """Eve's eight outcome probabilities by simulation: ``simulate(iso, p)[0]``."""
    return simulate(iso, p)[0]

"""Quantum Rabi models for a two-level vortex mode coupled to its resonator.

Builds the Hamiltonian of a spin-1/2 coupled to a truncated harmonic
oscillator through h g (a^dag + a) sigma_x, with static field terms set by
two orthogonal contributions: a pseudo-field fixing the minimum qubit
frequency f_q0 and an applied field B' = B - B0 measured from the sweet
spot. Their orientation relative to the coupling axis is parametrized by
angles (theta, phi):

    pseudo-field direction   (cos theta, 0, sin theta)
    applied-field direction  (-sin phi sin theta, cos phi, sin phi cos theta)

(theta, phi) = (pi/2, pi/2) gives the asymmetric model (applied field along
the coupling axis); (pi/2, 0) is spectrally equivalent to the symmetric
model where the spin term is sigma_z sqrt(f_q0^2 + (gamma B')^2) / 2. The
admissible orientations are phi = 0 for any theta, or theta in {0, pi/2}
with phi in [0, pi); any other combination breaks the symmetry of the
spectrum under B' -> -B'.

The Hamiltonian is built real symmetric: a spin rotation about x commutes
with the sigma_x coupling, so turning the static field (vx, vy, vz) into
(vx, 0, hypot(vy, vz)) changes neither the spectrum nor the bare-state
overlaps used for labeling.

Energies are handled in joules internally; all reported transitions are
plain frequencies in Hz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import AmbiguousLabelingError, DivergenceError, InvalidOrientationError, InvalidParameterError

_ORIENTATION_TOL = 1e-9
# the parameters transition_gradients differentiates by, in column order
GRADIENT_PARAMS = ("f_r", "g", "gamma", "B0", "f_q0")


@dataclass(frozen=True)
class QrmParams:
    """Resonator, qubit and coupling parameters of one Rabi-model family.

    f_r:    resonator frequency (Hz)
    g:      coupling (Hz)
    gamma:  gyromagnetic ratio (Hz/T)
    B0:     sweet-spot field (T)
    f_q0:   qubit frequency at the sweet spot (Hz)
    theta:  pseudo-field polar angle (rad)
    phi:    applied-field azimuthal angle (rad)
    """

    f_r: float
    g: float
    gamma: float
    B0: float
    f_q0: float
    theta: float = math.pi / 2
    phi: float = math.pi / 2

    def __post_init__(self):
        if not (self.f_r > 0 and self.g >= 0 and self.gamma > 0 and self.f_q0 >= 0):
            raise InvalidParameterError(
                "require f_r > 0, g >= 0, gamma > 0, f_q0 >= 0")
        if not all(math.isfinite(v) for v in
                   (self.f_r, self.g, self.gamma, self.B0, self.f_q0,
                    self.theta, self.phi)):
            raise InvalidParameterError("parameters must be finite")
        if abs(self.phi) > _ORIENTATION_TOL:
            theta_ok = (abs(self.theta) < _ORIENTATION_TOL
                        or abs(self.theta - math.pi / 2) < _ORIENTATION_TOL)
            if not (theta_ok and 0.0 <= self.phi < math.pi):
                raise InvalidOrientationError(
                    f"(theta={self.theta}, phi={self.phi}) is not admissible: "
                    "need phi = 0, or theta in {0, pi/2} with phi in [0, pi)")

    @classmethod
    def asymmetric(cls, f_r, g, gamma, B0, f_q0) -> "QrmParams":
        """Applied field along the coupling axis; non-monotonic chi(B)."""
        return cls(f_r, g, gamma, B0, f_q0, theta=math.pi / 2, phi=math.pi / 2)

    @classmethod
    def symmetric(cls, f_r, g, gamma, B0, f_q0) -> "QrmParams":
        """Fully transverse coupling at every field."""
        return cls(f_r, g, gamma, B0, f_q0, theta=math.pi / 2, phi=0.0)


@dataclass(frozen=True)
class HilbertTruncation:
    """Oscillator truncation; total dimension is 2 (n_fock + 1)."""

    n_fock: int = 60

    def __post_init__(self):
        if self.n_fock < 2:
            raise InvalidParameterError(f"n_fock must be >= 2, got {self.n_fock}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_fock + 1)


@dataclass
class LabeledSpectrum:
    """Eigen-decomposition with bare-state assignments.

    energies are ascending (J); labels[i] is the (branch, photon) pair of
    eigenstate i with branch 'g' or 'e'. The derived transitions are the
    lowest qubit-like transition f_q_dressed and the resonator transition
    conditioned on the qubit branch, all in Hz. vectors holds the
    eigenvectors of the states (g,0), (e,0), (g,1) and (e,1), in that
    column order, in the real basis of build_hamiltonian.
    """

    B: float
    energies: np.ndarray
    labels: list[tuple[str, int]]
    f_q_dressed: float
    f_r_g: float
    f_r_e: float
    vectors: np.ndarray

    @property
    def chi(self) -> float:
        """State-dependent dispersive shift f_r_e - f_r_g (Hz)."""
        return self.f_r_e - self.f_r_g


def _field_vector_hz(params: QrmParams, B: float) -> np.ndarray:
    """Total static spin field (f_q0 + applied) in frequency units (Hz)."""
    Bp = params.gamma * (B - params.B0)
    st, ct = math.sin(params.theta), math.cos(params.theta)
    sp, cp = math.sin(params.phi), math.cos(params.phi)
    pseudo = params.f_q0 * np.array([ct, 0.0, st])
    applied = Bp * np.array([-sp * st, cp, sp * ct])
    return pseudo + applied


def _spin_term_hz(params: QrmParams, B: float) -> np.ndarray:
    """Real 2x2 static spin term (Hz), the field rotated into the x-z plane."""
    vx, vy, vz = _field_vector_hz(params, B)
    vz = math.hypot(vy, vz)
    return 0.5 * np.array([[vz, vx], [vx, -vz]])


def build_hamiltonian(params: QrmParams, B: float,
                      trunc: HilbertTruncation) -> np.ndarray:
    """Dense real symmetric Hamiltonian (J) in the Fock (x) spin product basis.

    Basis ordering is n * 2 + s with s = 0 the lower bare qubit state, so
    a = destroy (x) identity and the spin operators act on the fast index.
    The static field is rotated about the coupling axis x into the x-z
    plane, which leaves the spectrum unchanged because the rotation
    commutes with sigma_x, and removes the imaginary sigma_y entries.
    """
    if not math.isfinite(B):
        raise InvalidParameterError(f"field must be finite, got {B}")
    # entries are filled in place; each has the bits of the Kronecker sum
    # f_r (n + 1/2) (x) 1 + g x (x) sigma_x + 1 (x) spin, whose other terms
    # add +0.0 there (so 0.0 + turns a -0.0 into +0.0 as that sum does)
    spin = _spin_term_hz(params, B)
    nosc = trunc.n_fock + 1
    i = 2 * np.arange(nosc)  # index of (n, s = 0); (n, 1) is i + 1
    H = np.zeros((trunc.dim, trunc.dim))
    resonator = params.f_r * (np.arange(nosc) + 0.5)
    H[i, i] = resonator + spin[0, 0]
    H[i + 1, i + 1] = resonator + spin[1, 1]
    H[i, i + 1] = H[i + 1, i] = 0.0 + spin[0, 1]
    # g sqrt(n) between (n - 1, s) and (n, 1 - s)
    coupling = 0.0 + params.g * np.sqrt(np.arange(1, nosc, dtype=float))
    for s in (0, 1):
        lower, upper = i[:-1] + s, i[1:] + 1 - s
        H[lower, upper] = H[upper, lower] = coupling
    return CONSTANTS.h * H


def solve_qrm(params: QrmParams, B: float,
              trunc: HilbertTruncation) -> LabeledSpectrum:
    """Diagonalize and label the spectrum by overlap with bare states.

    Raises AmbiguousLabelingError (carrying the overlap matrix) when two
    eigenstates claim the same bare state or when one of the four states
    entering the reported transitions holds less than a 2/3 majority of a
    single bare state, both of which happen near resonance.
    """
    H = build_hamiltonian(params, B, trunc)
    energies, vecs = np.linalg.eigh(H)
    # bare states are (photon n) x (spin eigenvector chi_g or chi_e), ordered
    # by photon number then branch so that argmax ties resolve toward lower
    # photon number; project each 2-row block of vecs onto chi_g and chi_e
    _, chi = np.linalg.eigh(_spin_term_hz(params, B))
    nosc, dim = trunc.n_fock + 1, trunc.dim
    overlaps = ((chi.T @ vecs.reshape(nosc, 2, dim)) ** 2).reshape(dim, dim)
    bare_labels = [(branch, n) for n in range(nosc) for branch in "ge"]
    claimed = overlaps.argmax(axis=0)  # the bare state of each eigenstate
    _, first = np.unique(claimed, return_index=True)  # first claimants
    if first.size < dim:
        # the first eigenstate to claim a bare state an earlier one holds
        j = int(np.setdiff1d(np.arange(dim), first)[0])
        i = int(claimed[j])
        raise AmbiguousLabelingError(
            f"eigenstates {int((claimed == i).argmax())} and {j} both claim "
            f"bare state {bare_labels[i]} at B={B}", overlaps=overlaps)
    labels = [bare_labels[i] for i in claimed.tolist()]
    # claimed is a permutation, so argsort gives the eigenstates of bare
    # states 0-3, (g,0), (e,0), (g,1) and (e,1); each must carry a clear
    # majority of one bare state, or its branch is meaningless (resonance)
    transition_states = np.argsort(claimed)[:4]
    majority = overlaps[:, transition_states].max(axis=0)
    weak = np.flatnonzero(majority < 2.0 / 3.0)
    if weak.size:
        k = int(weak[0])
        raise AmbiguousLabelingError(
            f"state assigned to {bare_labels[k]} at B={B} is strongly mixed "
            f"(overlap {majority[k]:.3f})", overlaps=overlaps)

    E_g0, E_e0, E_g1, E_e1 = (float(E) for E in energies[transition_states])
    h = CONSTANTS.h
    return LabeledSpectrum(B=B, energies=energies, labels=labels,
                           f_q_dressed=(E_e0 - E_g0) / h,
                           f_r_g=(E_g1 - E_g0) / h, f_r_e=(E_e1 - E_e0) / h,
                           vectors=vecs[:, transition_states])


def transition_gradients(params: QrmParams, spectra: list[LabeledSpectrum],
                         trunc: HilbertTruncation) -> np.ndarray:
    """Hellmann-Feynman gradients of f_q_dressed and f_r_g (Hz per unit).

    In the asymmetric orientation the spin term of build_hamiltonian is
    [f_q0 sz - gamma (B - B0) sx] / 2, so H/h is linear in each parameter
    and a level moves as dE_i/dp = <i| dH/dp |i> (Feynman 1939), with dH/dp
    equal to n + 1/2 for f_r, (a + a^dag) sx for g, and -(B - B0) sx / 2,
    gamma sx / 2 and sz / 2 for gamma, B0 and f_q0. Over the blocks v[n, s]
    of an eigenvector (basis order n * 2 + s) these expectations are sums:
    <n + 1/2> = sum (n + 1/2) (v[n,0]^2 + v[n,1]^2), <(a + a^dag) sx> =
    2 sum sqrt(n) (v[n-1,0] v[n,1] + v[n-1,1] v[n,0]), <sx> = 2 sum v[n,0]
    v[n,1] and <sz> = sum (v[n,0]^2 - v[n,1]^2). They take the eigenvectors
    each spectrum keeps (solve_qrm computes nothing for this). Returns shape
    (len(spectra), 2, 5): the gradients of f_q_dressed and of f_r_g over
    GRADIENT_PARAMS. Other orientations raise InvalidOrientationError.
    """
    if (abs(params.theta - math.pi / 2) > _ORIENTATION_TOL
            or abs(params.phi - math.pi / 2) > _ORIENTATION_TOL):
        raise InvalidOrientationError(
            "transition gradients need the asymmetric orientation "
            f"(theta = phi = pi/2), got ({params.theta}, {params.phi})")
    nosc = trunc.n_fock + 1
    # spin blocks v0, v1[spectrum, n, state] of (g,0), (e,0) and (g,1)
    v = np.stack([spec.vectors[:, :3] for spec in spectra])
    v0, v1 = v.reshape(len(spectra), nosc, 2, 3).transpose(2, 0, 1, 3)
    n = np.arange(nosc, dtype=float)[:, None]
    dB = np.array([spec.B for spec in spectra])[:, None] - params.B0
    sx = 2.0 * (v0 * v1).sum(axis=1)
    level = np.stack([
        ((n + 0.5) * (v0**2 + v1**2)).sum(axis=1),
        2.0 * (np.sqrt(n[1:]) * (v0[:, :-1] * v1[:, 1:]
                                 + v1[:, :-1] * v0[:, 1:])).sum(axis=1),
        -0.5 * dB * sx, 0.5 * params.gamma * sx,
        0.5 * (v0**2 - v1**2).sum(axis=1)], axis=-1)
    # f_q_dressed = E(e,0) - E(g,0), f_r_g = E(g,1) - E(g,0)
    return np.stack([level[:, 1] - level[:, 0], level[:, 2] - level[:, 0]],
                    axis=1)


def qubit_frequency(params: QrmParams, B: float) -> float:
    """Uncoupled hyperbola sqrt(f_q0^2 + (gamma (B - B0))^2) in Hz."""
    return math.hypot(params.f_q0, params.gamma * (B - params.B0))


def dispersive_shift(params: QrmParams, B: float,
                     trunc: HilbertTruncation) -> float:
    """Dispersive shift chi = f_r_e - f_r_g (Hz) from exact diagonalization.

    Propagates the labeling error near resonance instead of extrapolating.
    """
    return solve_qrm(params, B, trunc).chi


def transverse_coupling(params: QrmParams, B: float) -> float:
    """Coupling projection onto the qubit transverse axes, g_perp (Hz)."""
    v = _field_vector_hz(params, B)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return params.g
    frac = math.sqrt(max(0.0, 1.0 - (v[0] / norm) ** 2))
    return params.g * frac


def chi_perturbative(params: QrmParams, B: float) -> float:
    """Second-order dispersive shift 2 g_perp^2 (1/(f_q - f_r) + 1/(f_q + f_r)).

    Cross-check for dispersive_shift, valid when |f_q - f_r| >> g_perp. The
    longitudinal coupling component displaces the oscillator identically
    for both qubit branches and drops out at this order.
    """
    f_q = qubit_frequency(params, B)
    if f_q == params.f_r:
        raise DivergenceError("perturbative shift diverges at f_q = f_r")
    g_perp = transverse_coupling(params, B)
    return 2.0 * g_perp**2 * (1.0 / (f_q - params.f_r) + 1.0 / (f_q + params.f_r))


def sweep_field(params: QrmParams, B_list, trunc: HilbertTruncation
                ) -> list[LabeledSpectrum | None]:
    """Independent solve_qrm at each field, order preserved.

    Points where labeling fails come back as None so that a sweep across a
    resonance yields gaps instead of aborting.
    """
    B_arr = np.atleast_1d(np.asarray(B_list, dtype=float))
    if B_arr.size == 0:
        raise InvalidParameterError("B_list must be non-empty")
    if not np.all(np.isfinite(B_arr)):
        raise InvalidParameterError("B_list must be finite")
    out: list[LabeledSpectrum | None] = []
    for B in B_arr:
        try:
            out.append(solve_qrm(params, float(B), trunc))
        except AmbiguousLabelingError:
            out.append(None)
    return out

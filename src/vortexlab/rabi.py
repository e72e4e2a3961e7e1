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
import os
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .core import usable_cores
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


def _field_vector_hz(params: QrmParams, B) -> np.ndarray:
    """Total static spin field (f_q0 + applied) in Hz, shape B.shape + (3,)."""
    Bp = params.gamma * (np.asarray(B, dtype=float)[..., None] - params.B0)
    st, ct = math.sin(params.theta), math.cos(params.theta)
    sp, cp = math.sin(params.phi), math.cos(params.phi)
    pseudo = params.f_q0 * np.array([ct, 0.0, st])
    applied = Bp * np.array([-sp * st, cp, sp * ct])
    return pseudo + applied


def _spin_term_hz(params: QrmParams, B) -> np.ndarray:
    """Real static spin terms (Hz), shape B.shape + (2, 2): the field
    rotated into the x-z plane."""
    v = _field_vector_hz(params, B)
    vx = v[..., 0]
    # math.hypot, since np.hypot differs from it in the last bit of some
    # fields, and a field takes the same bits in a sweep as alone
    yz = v[..., 1:].reshape(-1, 2).tolist()
    vz = np.reshape([math.hypot(y, z) for y, z in yz], vx.shape)
    spin = np.empty(vx.shape + (2, 2))
    spin[..., 0, 0], spin[..., 1, 1] = vz, -vz
    spin[..., 0, 1] = spin[..., 1, 0] = vx
    return 0.5 * spin


def _hamiltonians(params: QrmParams, spin: np.ndarray,
                  trunc: HilbertTruncation) -> np.ndarray:
    """build_hamiltonian for each of the F spin terms spin (Hz, shape
    (F, 2, 2)), stacked: shape (F, dim, dim)."""
    # entries are filled in place; each has the bits of h times the
    # Kronecker sum f_r (n + 1/2) (x) 1 + g x (x) sigma_x + 1 (x) spin,
    # whose other terms add +0.0 there (so 0.0 + turns a -0.0 into +0.0 as
    # that sum does). Along a row of H flattened, (n, s) -> (n + 1, s) on
    # both sides is a stride of 2 (dim + 1).
    h, nosc, dim = CONSTANTS.h, trunc.n_fock + 1, trunc.dim
    H = np.zeros((len(spin), dim, dim))
    flat, step = H.reshape(len(spin), dim * dim), 2 * (dim + 1)
    resonator = params.f_r * (np.arange(nosc) + 0.5)
    flat[:, ::step] = h * (resonator + spin[:, 0, :1])  # (n, 0), (n, 0)
    flat[:, dim + 1::step] = h * (resonator + spin[:, 1, 1:])  # (n, 1), (n, 1)
    # (n, 0), (n, 1) and (n, 1), (n, 0)
    flat[:, 1::step] = flat[:, dim::step] = h * (0.0 + spin[:, 0, 1:])
    # g sqrt(n) between (n - 1, s) and (n, 1 - s): s = 0 above and below
    # the diagonal, then s = 1
    coupling = h * (0.0 + params.g * np.sqrt(np.arange(1, nosc, dtype=float)))
    for start in (3, 3 * dim, dim + 2, 2 * dim + 1):
        flat[:, start::step][:, :nosc - 1] = coupling
    return H


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
    return _hamiltonians(params, _spin_term_hz(params, [B]), trunc)[0]


# byte budget of the Hamiltonians one eigh call diagonalizes in a sweep.
# A chunk's arrays then stay under glibc's default mmap threshold (128 KiB)
# and reuse heap pages: 512 KiB stacks took 7,925 page faults per 101-field
# sweep at n_fock 60 (about 6% slower than one field at a time) and 2,944
# per 315-field sweep at n_fock 24, this budget none (README, "rabi")
_STACK_BYTES = 1 << 17


@dataclass
class Sweep:
    """Labeled spectra of a field list, stacked along the first axis.

    Row f belongs to field B[f]. energies (J, ascending) and claimed (the
    bare state n * 2 + branch of each eigenstate, branch 0 for 'g') have
    one column per eigenstate. transitions holds f_q_dressed, f_r_g and
    f_r_e (Hz), and vectors the eigenvectors of (g,0), (e,0), (g,1) and
    (e,1), as in LabeledSpectrum. Where labeled[f] is False the labeling
    failed and the other rows of f mean nothing.
    """

    B: np.ndarray
    energies: np.ndarray
    claimed: np.ndarray
    transitions: np.ndarray
    vectors: np.ndarray
    labeled: np.ndarray

    def spectra(self) -> list[LabeledSpectrum | None]:
        """One LabeledSpectrum per row, None where the labeling failed."""
        bare = [_bare_label(i) for i in range(self.energies.shape[1])]
        return [LabeledSpectrum(B=B, energies=E, labels=[bare[i] for i in c],
                                f_q_dressed=t[0], f_r_g=t[1], f_r_e=t[2],
                                vectors=v) if ok else None
                for B, E, c, t, v, ok in zip(
                    self.B.tolist(), self.energies, self.claimed.tolist(),
                    self.transitions.tolist(), self.vectors,
                    self.labeled.tolist())]


def _bare_label(i: int) -> tuple[str, int]:
    """(branch, photon) of bare state i = n * 2 + branch."""
    return "ge"[i % 2], i // 2


def _solve_chunk(params: QrmParams, trunc: HilbertTruncation, out: Sweep,
                 rows: slice) -> np.ndarray:
    """Solve and label out.B[rows] into those rows of out; their overlaps.

    Bare states are (photon n) x (spin eigenvector chi_g or chi_e),
    ordered by photon number then branch so that argmax ties resolve toward
    lower photon number. overlaps[f, b, j] is the weight of bare state b in
    eigenstate j; each eigenstate claims its largest. A field is labeled
    when no two eigenstates claim one bare state and each of the four
    states entering the transitions holds at least a 2/3 majority of its
    bare state, which both fail near resonance.
    """
    B = out.B[rows]
    F, nosc, dim = B.size, trunc.n_fock + 1, trunc.dim
    spin = _spin_term_hz(params, B)
    energies, vecs = np.linalg.eigh(_hamiltonians(params, spin, trunc))
    _, chi = np.linalg.eigh(spin)
    # project each 2-row block of vecs onto chi_g and chi_e
    overlaps = chi.transpose(0, 2, 1)[:, None] @ vecs.reshape(F, nosc, 2, dim)
    overlaps = np.square(overlaps, out=overlaps).reshape(F, dim, dim)
    claimed = overlaps.argmax(axis=1)
    # for a permutation, the eigenstates of bare states 0, 1, 2, ...
    order = claimed.argsort(axis=1)
    f = np.arange(F)[:, None]
    unique = (claimed[f, order] == np.arange(dim)).all(axis=1)
    states = order[:, :4]  # (g,0), (e,0), (g,1), (e,1)
    # an eigenstate's largest overlap is the one with the state it claims
    majority = overlaps[f, np.arange(4), states]
    g0, e0, g1, e1 = energies[f, states].T
    out.energies[rows] = energies
    out.claimed[rows] = claimed
    out.transitions[rows] = np.stack([e0 - g0, g1 - g0, e1 - e0],
                                     axis=1) / CONSTANTS.h
    out.vectors[rows] = vecs[f, :, states].transpose(0, 2, 1)
    out.labeled[rows] = unique & (majority >= 2.0 / 3.0).all(axis=1)
    return overlaps


def _labeling_error(B: float, claimed: np.ndarray, overlaps: np.ndarray) -> str:
    """Why one field's labeling failed, from its claimed and overlaps."""
    first: dict[int, int] = {}  # bare state -> its first claimant
    for j, i in enumerate(claimed.tolist()):
        if i in first:
            return (f"eigenstates {first[i]} and {j} both claim bare state "
                    f"{_bare_label(i)} at B={B}")
        first[i] = j
    majority = overlaps[np.arange(4), [first[k] for k in range(4)]]
    k = int(np.flatnonzero(majority < 2.0 / 3.0)[0])
    return (f"state assigned to {_bare_label(k)} at B={B} is strongly mixed "
            f"(overlap {majority[k]:.3f})")


def _fields_per_stack(trunc: HilbertTruncation) -> int:
    """Fields per eigh call: as many Hamiltonians as fit in _STACK_BYTES."""
    return max(1, _STACK_BYTES // (8 * trunc.dim**2))


def _empty_sweep(B: np.ndarray, trunc: HilbertTruncation) -> Sweep:
    F, dim = B.size, trunc.dim
    # vectors column-major per field, the layout of a column selection of
    # eigh's vectors, which sets the summation order (so the bits) of
    # transition_gradients
    return Sweep(B=B, energies=np.empty((F, dim)),
                 claimed=np.empty((F, dim), dtype=np.intp),
                 transitions=np.empty((F, 3)),
                 vectors=np.empty((F, 4, dim)).transpose(0, 2, 1),
                 labeled=np.empty(F, dtype=bool))


_pool = None  # the sweep threads beside the caller's, made on first use


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def sweep_threads() -> int:
    """Threads a sweep of more than one chunk runs on: one per usable core
    when BLAS runs on one thread (OPENBLAS_NUM_THREADS=1, as in a CLI
    process), else 1, since threads of ours then contend with BLAS's own."""
    if os.environ.get("OPENBLAS_NUM_THREADS") != "1":
        return 1
    return usable_cores()


def _solve_chunks(params: QrmParams, trunc: HilbertTruncation, out: Sweep,
                  starts, per: int) -> None:
    """_solve_chunk on the chunk at each start taken from starts, until
    none is left; threads sharing starts share out the chunks."""
    for start in starts:
        _solve_chunk(params, trunc, out, slice(start, start + per))


def solve_fields(params: QrmParams, B_list,
                 trunc: HilbertTruncation) -> Sweep:
    """Diagonalize and label the spectrum at each field, as one stack.

    The fields are solved in chunks of as many Hamiltonians as fit in
    _STACK_BYTES (at least one field), each chunk with one eigh call over its
    Hamiltonians, one over its 2 x 2 spin terms and array-wide labeling,
    so memory does not grow with the number of fields beyond the result.
    Chunks write disjoint rows of the result and eigh releases the GIL, so
    a sweep of more than one chunk spreads them over sweep_threads()
    threads, the caller's among them (one chunk in flight per thread); with
    BLAS on more than one thread they run one after another. Each field
    gets the bits it gets alone (solve_qrm).
    """
    global _pool
    B = np.atleast_1d(np.asarray(B_list, dtype=float))
    if B.size == 0:
        raise InvalidParameterError("B_list must be non-empty")
    if not np.all(np.isfinite(B)):
        raise InvalidParameterError("B_list must be finite")
    out = _empty_sweep(B, trunc)
    per = _fields_per_stack(trunc)
    # next() on a range iterator is one C call under the GIL, so each
    # start goes to one thread
    starts = iter(range(0, B.size, per))
    threads = sweep_threads() if B.size > per else 1
    if threads > 1 and _pool is None:
        from concurrent.futures import ThreadPoolExecutor
        _pool = ThreadPoolExecutor(threads - 1, thread_name_prefix="sweep")
    helpers = [_pool.submit(_solve_chunks, params, trunc, out, starts, per)
               for _ in range(threads - 1)]
    try:
        _solve_chunks(params, trunc, out, starts, per)
    finally:
        for helper in helpers:  # no thread writes into out once it returns
            helper.result()
    return out


def solve_qrm(params: QrmParams, B: float,
              trunc: HilbertTruncation) -> LabeledSpectrum:
    """Diagonalize and label the spectrum by overlap with bare states.

    The one-field case of solve_fields. Raises AmbiguousLabelingError
    (carrying the overlap matrix) when two eigenstates claim the same bare
    state or when one of the four states entering the reported transitions
    holds less than a 2/3 majority of a single bare state, both of which
    happen near resonance.
    """
    if not math.isfinite(B):
        raise InvalidParameterError(f"field must be finite, got {B}")
    out = _empty_sweep(np.array([float(B)]), trunc)
    overlaps = _solve_chunk(params, trunc, out, slice(0, 1))[0]
    if not out.labeled[0]:
        raise AmbiguousLabelingError(
            _labeling_error(B, out.claimed[0], overlaps), overlaps=overlaps)
    return out.spectra()[0]


def truncation_error(params: QrmParams, B_list,
                     trunc: HilbertTruncation) -> float | None:
    """Estimated relative error of trunc's transitions at the fields B_list.

    The largest change of f_q_dressed, f_r_g and f_r_e between trunc and
    a truncation two photons larger, relative to the larger of the two
    values. The transitions converge faster than geometrically in n_fock,
    so that change is most of trunc's distance to the limit: wherever it
    was above rounding it agreed with the distance to n_fock 80 within 1%
    (g/f_r up to 0.09). A field whose labeling fails at either truncation
    is skipped; None when every field is.
    """
    small = solve_fields(params, B_list, trunc)
    large = solve_fields(params, B_list, HilbertTruncation(trunc.n_fock + 2))
    ok = small.labeled & large.labeled
    if not ok.any():
        return None
    a, b = small.transitions[ok], large.transitions[ok]
    change = np.abs(a - b)
    # where a transition is 0 at both truncations it has not changed
    return float(np.divide(change, np.maximum(np.abs(a), np.abs(b)),
                           out=np.zeros_like(change), where=change > 0).max())


def transition_gradients(params: QrmParams, sweep: Sweep,
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
    the sweep keeps (solve_fields computes nothing for this). Returns shape
    (len(sweep.B), 2, 5): the gradients of f_q_dressed and of f_r_g over
    GRADIENT_PARAMS, zero at fields whose labeling failed. Other
    orientations raise InvalidOrientationError.
    """
    if (abs(params.theta - math.pi / 2) > _ORIENTATION_TOL
            or abs(params.phi - math.pi / 2) > _ORIENTATION_TOL):
        raise InvalidOrientationError(
            "transition gradients need the asymmetric orientation "
            f"(theta = phi = pi/2), got ({params.theta}, {params.phi})")
    nosc, ok = trunc.n_fock + 1, sweep.labeled
    # spin blocks v0, v1[field, n, state] of (g,0), (e,0) and (g,1)
    v = sweep.vectors[ok, :, :3]
    v0, v1 = v.reshape(len(v), nosc, 2, 3).transpose(2, 0, 1, 3)
    n = np.arange(nosc, dtype=float)[:, None]
    dB = sweep.B[ok, None] - params.B0
    sx = 2.0 * (v0 * v1).sum(axis=1)
    level = np.stack([
        ((n + 0.5) * (v0**2 + v1**2)).sum(axis=1),
        2.0 * (np.sqrt(n[1:]) * (v0[:, :-1] * v1[:, 1:]
                                 + v1[:, :-1] * v0[:, 1:])).sum(axis=1),
        -0.5 * dB * sx, 0.5 * params.gamma * sx,
        0.5 * (v0**2 - v1**2).sum(axis=1)], axis=-1)
    grad = np.zeros((len(ok), 2, len(GRADIENT_PARAMS)))
    # f_q_dressed = E(e,0) - E(g,0), f_r_g = E(g,1) - E(g,0)
    grad[ok] = np.stack([level[:, 1] - level[:, 0], level[:, 2] - level[:, 0]],
                        axis=1)
    return grad


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
    """solve_fields as one LabeledSpectrum per field, order preserved.

    Points where labeling fails come back as None so that a sweep across a
    resonance yields gaps instead of aborting.
    """
    return solve_fields(params, B_list, trunc).spectra()

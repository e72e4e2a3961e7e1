"""Finite-difference Schrodinger solver for a vortex pinned in the landscape.

Discretizes  H = hbar Omega [ -y_zpf^2 laplacian + V / (hbar Omega) ]  on a
uniform grid with Dirichlet boundaries and a second-order central-difference
Laplacian, then extracts the lowest eigenpairs. In 1D the matrix is
tridiagonal, and only its lowest pairs are found, in numpy and plain
Python: Sturm-sequence bisection, inverse iteration by Thomas solves, then
a Rayleigh-Ritz step. In 2D a shifted block Lanczos in numpy finds them: a
block LDL^T factorisation of H - min V along x, one ny x ny block per
x-row, applies the shift-invert operator, and Rayleigh-Ritz steps on the
five-point stencil give the pairs. Both draw their start vectors from a
fixed splitmix64 stream (_start); neither imports scipy or numpy.random.
The kinetic coefficient hbar Omega y_zpf^2 equals hbar^2 / 2 m for the
effective mass implied by y_zpf = sqrt(hbar / 2 m Omega), so the mass
never has to be specified directly."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .constants import CONSTANTS
from .core import DeviceModel, DerivedScales
from .energetics import PinningSite, total_potential, well_detuning
from .errors import (EigensolverError, InvalidParameterError,
                     ReductionInvalidError)

_START_SEED = 11  # of the splitmix64 stream of start vectors (_start)
_MARGIN_SIGMAS = 5.0  # grid clearance around each pinning site, in sigma_i
# 1D inverse iteration, from a _start row, stops once a solve's growth
# bounds the residual by the bisection tolerance (3-4 solves per
# level on tested potentials), or after _INVERSE_ITERATIONS solves
_INVERSE_ITERATIONS = 8
# 1D bisection stops once a level's bracket is narrower than this share of
# the gap to its neighbours' brackets; inverse iteration then gains a factor
# of about this share or better per step
_SEPARATION = 1e-2
_EPS = np.finfo(float).eps
# the 2D solve stops once every residual ||H x - theta x|| is within
# _RESIDUAL_TOL of the bound max|V| + 4 (cx + cy) on ||H||; it takes 11-28
# blocks on the tested potentials, and gives up after _MAX_BLOCKS
_RESIDUAL_TOL = 1e-10
_MAX_BLOCKS = 60
_PIVMIN = np.finfo(float).tiny  # a zero Sturm pivot becomes -_PIVMIN
# what a field sweep refuses rather than reports (spectrum_vs_field): a site
# narrower than _SITE_STEPS grid steps falls between the grid points (the
# example's f_q moves by 2% at 2.1 steps, from 34), and a level more than
# _LEVEL_STEPS K / dx^2 above the potential's floor has a local wavelength
# under 2 pi grid steps (the example's third level: 0.003 at 1024 points,
# 0.68 at 64); the grid's band ends at 4 K / dx^2
_SITE_STEPS = 2.0
_LEVEL_STEPS = 1.0


@dataclass(frozen=True)
class Grid:
    """Uniform 1D or 2D grid. Dirichlet boundaries sit just outside."""

    x_min: float
    x_max: float
    nx: int
    y_min: float | None = None
    y_max: float | None = None
    ny: int | None = None

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise InvalidParameterError("x_min and x_max must be finite")
        if self.x_max <= self.x_min:
            raise InvalidParameterError("x_max must exceed x_min")
        if self.nx < 64:
            raise InvalidParameterError("need at least 64 points per axis")
        two_d = [v is not None for v in (self.y_min, self.y_max, self.ny)]
        if any(two_d) and not all(two_d):
            raise InvalidParameterError("specify all of y_min, y_max, ny or none")
        if all(two_d):
            if not (math.isfinite(self.y_min) and math.isfinite(self.y_max)):
                raise InvalidParameterError("y_min and y_max must be finite")
            if self.y_max <= self.y_min:
                raise InvalidParameterError("y_max must exceed y_min")
            if self.ny < 64:
                raise InvalidParameterError("need at least 64 points per axis")

    @property
    def dimension(self) -> int:
        return 2 if self.ny is not None else 1

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def y(self) -> np.ndarray:
        if self.ny is None:
            raise InvalidParameterError("1D grid has no y axis")
        return np.linspace(self.y_min, self.y_max, self.ny)

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx - 1)

    @property
    def dy(self) -> float:
        if self.ny is None:
            raise InvalidParameterError("1D grid has no y axis")
        return (self.y_max - self.y_min) / (self.ny - 1)

    @property
    def size(self) -> int:
        return self.nx * (self.ny or 1)

    @property
    def cell(self) -> float:
        """Volume element of the grid inner product."""
        return self.dx * (self.dy if self.ny is not None else 1.0)


@dataclass(frozen=True)
class TunnelModel:
    """Kinetic scale of the pinned vortex.

    y_zpf is the zero-point length, Omega the well curvature frequency
    (rad/s).
    """

    y_zpf: float
    Omega: float

    def __post_init__(self):
        if not (0 < self.y_zpf < math.inf and 0 < self.Omega < math.inf):
            raise InvalidParameterError(
                "y_zpf and Omega must be positive and finite")

    @property
    def mass(self) -> float:
        """Effective mass implied by the zero-point length (kg)."""
        return CONSTANTS.hbar / (2.0 * self.y_zpf**2 * self.Omega)

    @property
    def kinetic_coefficient(self) -> float:
        """hbar Omega y_zpf^2 = hbar^2 / 2 m (J m^2)."""
        return CONSTANTS.hbar * self.Omega * self.y_zpf**2


@dataclass
class EigenResult:
    """Lowest eigenpairs on the grid, energies ascending (J).

    Wavefunction rows are L2-normalized. residuals[i] is the solver's own
    ||H x - E_i x|| (J) for the unit-norm vector x of level i.
    """

    energies: np.ndarray
    wavefunctions: np.ndarray
    residuals: np.ndarray

    @property
    def splitting(self) -> float:
        """E1 - E0 (J)."""
        return float(self.energies[1] - self.energies[0])


def _start(shape: tuple[int, ...]) -> np.ndarray:
    """Start vectors: doubles uniform in [-1, 1), the same on every call.

    Element i (in C order) is the (i + 1)-th output of splitmix64 seeded
    with _START_SEED (Steele, Lea & Flood, OOPSLA 2014), its top 53 bits
    scaled to [0, 2) and shifted down by one. The uint64 products wrap
    mod 2^64, as the generator needs. LAPACK's dstein likewise draws its
    inverse-iteration starts from a fixed-seed stream (dlarnv); drawing
    them here, not from numpy.random, keeps that module out of a solve.
    """
    z = (np.arange(1, math.prod(shape) + 1, dtype=np.uint64)
         * 0x9E3779B97F4A7C15 + _START_SEED)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    z ^= z >> 31
    return ((z >> 11) * 2.0**-52 - 1.0).reshape(shape)


def _tridiagonal_1d(grid: Grid, V: np.ndarray, K: float):
    """Diagonal and (constant) off-diagonal of the 1D Hamiltonian (J)."""
    return 2.0 * K / grid.dx**2 + V, -K / grid.dx**2


def _apply_1d(d: np.ndarray, off: float, v: np.ndarray) -> np.ndarray:
    """T v for the tridiagonal T of diagonal d and constant off-diagonal."""
    Tv = d[:, None] * v
    Tv[1:] += off * v[:-1]
    Tv[:-1] += off * v[1:]
    return Tv


def _scale_1d(d: np.ndarray, off: float) -> float:
    """The power of two at or below T's largest entry: T / s keeps every
    bit, and its squares and pivots stay inside the float range (LAPACK's
    dstebz scales T for the same reason)."""
    return math.ldexp(0.5, math.frexp(max(float(np.abs(d).max()),
                                          abs(off)))[1])


def _sturm_count(d: list[float], off2: float, s: float) -> int:
    """Eigenvalues below s: the negative pivots of LDL^T of T - s.

    A pivot that rounds to within _PIVMIN of zero becomes -_PIVMIN, as in
    LAPACK's dstebz.
    """
    count, q = 0, math.inf
    for di in d:
        q = di - s - off2 / q
        if q <= _PIVMIN:
            if q > -_PIVMIN:
                q = -_PIVMIN
            count += 1
    return count


def _inverse_step(d: list[float], off: float, shift: float, floor: float,
                  x: list[float]) -> np.ndarray:
    """Solves (T - shift) y = x by Thomas elimination.

    The forward sweep factors and eliminates at once. Pivots smaller than
    floor in magnitude become -floor, so a shift at an eigenvalue still
    gives a (large) finite solution.
    """
    r, ws, q, w = [], [], math.inf, 0.0
    off2 = off * off
    for di, xi in zip(d, x):  # pivots q_i; w_i = (x_i - off w_{i-1}) / q_i
        q = di - shift - off2 / q
        if abs(q) < floor:
            q = -floor
        ri = 1.0 / q
        w = (xi - off * w) * ri
        r.append(ri)
        ws.append(w)
    y, ys = 0.0, []
    for wi, ri in zip(reversed(ws), reversed(r)):  # back substitution
        y = wi - off * y * ri
        ys.append(y)
    return np.array(ys[::-1])


def _bisection_1d(d: np.ndarray, off: float, k: int):
    """Lowest k pairs of the tridiagonal T (diagonal d, off-diagonal off).

    Sturm-sequence bisection narrows each level's bracket until it holds
    that level alone and is narrower than _SEPARATION of the gap to its
    neighbours' brackets (or reaches about 2 eps |T|, for levels that
    close); every count also narrows the other brackets, and one extra
    bracket above level k - 1 shows that level's gap. Inverse iteration
    from its _start row, Gram-Schmidt against the vectors already
    found (as LAPACK's dstein does for clusters), with the shift moved to
    the Rayleigh quotient after each step but kept inside the bracket,
    turns each into a vector; it stops once a solve grows the unit vector
    it was given by 1 / tol or more, which bounds the residual by tol. One
    Rayleigh-Ritz step over the k vectors gives the pairs (Barth, Martin &
    Wilkinson, Numer. Math. 9, 386 (1967); Parlett, The Symmetric
    Eigenvalue Problem, ch. 4 and 11), and from the T Q it projects, each
    pair's residual ||T x - lambda x||. It all runs on T / s (_scale_1d),
    and the levels and residuals are scaled back. Returns the levels
    (ascending), the vectors as columns and the residuals. A T whose
    Gershgorin bounds are not finite raises EigensolverError.
    """
    scale = _scale_1d(d, off)
    d, off = d / scale, off / scale
    # Gershgorin bounds; lo is the potential's minimum, a strict lower bound
    # since the Dirichlet Laplacian is positive definite
    lo, hi = float(d.min()) - 2 * abs(off), float(d.max()) + 2 * abs(off)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise EigensolverError("the 1D Hamiltonian is not finite",
                               residuals=np.full(k, np.inf))
    tol = 2 * _EPS * max(abs(lo), abs(hi))
    dl, off2 = d.tolist(), off * off
    los, his = [lo] * (k + 1), [hi] * (k + 1)  # los[i] <= lambda_i < his[i]
    for j in range(k):
        while his[j] - los[j] > tol:
            gap = los[j + 1] - his[j]
            if j:
                gap = min(gap, los[j] - his[j - 1])
            if his[j] - los[j] < _SEPARATION * gap:
                break
            # a wide bracket above hides the gap: bisect the wider one
            i = j + (his[j + 1] - los[j + 1] > his[j] - los[j])
            mid = 0.5 * (los[i] + his[i])
            below = _sturm_count(dl, off2, mid)
            for m in range(k + 1):
                if m < below:
                    his[m] = min(his[m], mid)
                else:
                    los[m] = max(los[m], mid)

    starts = _start((k, d.size))
    Q = np.empty((d.size, k))
    for j in range(k):
        shift = 0.5 * (los[j] + his[j])
        y = starts[j] / np.linalg.norm(starts[j])
        for _ in range(_INVERSE_ITERATIONS):
            y = _inverse_step(dl, off, shift, tol, y.tolist())
            y -= Q[:, :j] @ (Q[:, :j].T @ y)
            growth = np.linalg.norm(y)
            y /= growth
            if 1.0 / growth <= tol:  # ||(T - shift) y|| <= 1 / growth
                break
            rayleigh = float(y @ (d * y) + 2 * off * (y[1:] @ y[:-1]))
            shift = min(max(rayleigh, los[j]), his[j])
        Q[:, j] = y
    TQ = _apply_1d(d, off, Q)
    vals, S = np.linalg.eigh(Q.T @ TQ)
    X = Q @ S
    residuals = np.linalg.norm(TQ @ S - X * vals, axis=0)
    return vals * scale, X, residuals * scale


def _apply_2d(V2: np.ndarray, cx: float, cy: float,
              rows: np.ndarray) -> np.ndarray:
    """The five-point H applied to each of rows (k, nx * ny); V2 (nx, ny)."""
    X = rows.reshape(-1, *V2.shape)
    Y = X * (V2 + 2.0 * (cx + cy))
    Y[:, 1:] -= cx * X[:, :-1]
    Y[:, :-1] -= cx * X[:, 1:]
    Y[:, :, 1:] -= cy * X[:, :, :-1]
    Y[:, :, :-1] -= cy * X[:, :, 1:]
    return Y.reshape(rows.shape)


def _shift_invert_2d(V2: np.ndarray, cx: float, cy: float, sigma: float):
    """A solver of (H - sigma) Y = X for blocks of rows, factored once.

    H - sigma is block tridiagonal along x, with diagonal blocks
    A_i = T_y + diag(V_i - sigma) + 2 cx and off-diagonal blocks -cx, so
    its block LDL^T has D_1 = A_1 and D_i = A_i - cx^2 D_(i-1)^-1. One
    forward and one backward sweep of ny x ny matmuls then solve for a
    block of k rows; the inverse of each D_i is kept.
    """
    nx, ny = V2.shape
    diagonal = np.arange(ny)
    y_coupling = -cy * (np.eye(ny, k=1) + np.eye(ny, k=-1))
    inverses = np.empty((nx, ny, ny))
    inverse = np.zeros((ny, ny))
    for i in range(nx):
        D = y_coupling - cx * cx * inverse
        D[diagonal, diagonal] += V2[i] - sigma + 2.0 * (cx + cy)
        inverse = inverses[i] = np.linalg.inv(D)

    def solve(rows: np.ndarray) -> np.ndarray:
        X = rows.reshape(rows.shape[0], nx, ny)
        W = np.empty_like(X)
        # forward, D_i w_i = x_i + cx w_(i-1); backward, from y_nx = w_nx,
        # y_i = w_i + cx D_i^-1 y_(i+1); row blocks multiply D_i^-1 from
        # the right, which D_i's symmetry allows
        w = W[:, 0] = X[:, 0] @ inverses[0]
        for i in range(1, nx):
            w = W[:, i] = (X[:, i] + cx * w) @ inverses[i]
        for i in range(nx - 2, -1, -1):
            w = W[:, i] = W[:, i] + cx * (w @ inverses[i])
        return W.reshape(rows.shape)

    return solve


def _solve_2d(grid: Grid, V: np.ndarray, K: float, k: int):
    """Lowest k pairs of the five-point Hamiltonian by shifted block Lanczos.

    The shift sigma = min V is a strict lower bound of the spectrum, since
    the Dirichlet Laplacian is positive definite, so H - sigma is positive
    definite and _shift_invert_2d factors it without pivoting. A block
    Krylov basis of (H - sigma)^-1 grows from a _start block of k rows,
    orthogonalised against all earlier rows twice (Gram-Schmidt) and
    then by QR; after each block a Rayleigh-Ritz step projects H itself.
    It stops when every wanted pair has ||H x - theta x|| <= 1e-10 |H|_bound
    (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 228 (1994)),
    and returns the levels (ascending), the vectors as columns and those
    residuals. Past _MAX_BLOCKS blocks it raises EigensolverError with the
    residuals.
    """
    cx, cy = K / grid.dx**2, K / grid.dy**2
    # flat index i * ny + j with x along i, as in potential.reshape(-1)
    V2 = V.reshape(grid.nx, grid.ny)
    bound = float(np.abs(V).max()) + 4.0 * (cx + cy)  # >= ||H||
    if not math.isfinite(bound):
        raise EigensolverError("the 2D Hamiltonian is not finite",
                               residuals=np.full(k, np.inf))
    tol = _RESIDUAL_TOL * bound
    solve = _shift_invert_2d(V2, cx, cy, float(V.min()))
    # basis rows and the lower triangle of Q H Q^T (all that eigh reads),
    # sized for the cap; the pages of Q become resident as blocks are written
    Q = np.empty((_MAX_BLOCKS * k, grid.size))
    G = np.zeros((_MAX_BLOCKS * k, _MAX_BLOCKS * k))
    Q[:k] = np.linalg.qr(_start((grid.size, k)))[0].T
    for m in range(k, Q.shape[0] + 1, k):  # m rows once this block is in
        block = Q[m - k:m]
        G[m - k:m, :m] = _apply_2d(V2, cx, cy, block) @ Q[:m].T
        theta, S = np.linalg.eigh(G[:m, :m])
        X = S[:, :k].T @ Q[:m]
        residuals = np.linalg.norm(
            _apply_2d(V2, cx, cy, X) - theta[:k, None] * X, axis=1)
        if (residuals <= tol).all():
            return theta[:k], X.T, residuals
        if m < Q.shape[0]:
            W = solve(block)
            for _ in range(2):
                W -= (W @ Q[:m].T) @ Q[:m]
            Q[m:m + k] = np.linalg.qr(W.T)[0].T
    raise EigensolverError(
        f"block Lanczos did not converge in {_MAX_BLOCKS} blocks",
        residuals=residuals)


def solve_schrodinger(grid: Grid, potential: np.ndarray, model: TunnelModel,
                      k: int = 2) -> EigenResult:
    """Lowest k eigenpairs of the discretized pinned-vortex Hamiltonian.

    potential is the energy field (J) sampled on the grid, shape (nx,) or
    (nx, ny). A 1D solve runs the bisection and inverse iteration of
    _bisection_1d, a 2D solve the block Lanczos of _solve_2d; both return
    the levels ascending, with the residual of each pair from their last
    Rayleigh-Ritz step, which the result keeps. Both take their start
    vectors (1D inverse iteration, the 2D start block) from the fixed
    splitmix64 stream of _start, so repeated calls return identical bits.
    A non-finite potential raises InvalidParameterError. Raises
    EigensolverError with the residual norms (inf for pairs not found) if
    the solver fails.
    """
    if not (1 <= k <= 10):
        raise InvalidParameterError("k must be between 1 and 10")
    V = np.asarray(potential, dtype=float).reshape(-1)
    if V.size != grid.size:
        raise InvalidParameterError(
            f"potential has {V.size} samples, grid has {grid.size}")
    if not np.isfinite(V).all():
        raise InvalidParameterError("potential must be finite")
    K = model.kinetic_coefficient
    if grid.dimension == 1:
        vals, vecs, residuals = _bisection_1d(*_tridiagonal_1d(grid, V, K), k)
    else:
        vals, vecs, residuals = _solve_2d(grid, V, K, k)
    # continuum normalization: sum |psi|^2 * cell = 1, one row per level
    psi = np.divide(vecs.T, math.sqrt(grid.cell), order="C")
    for i in range(psi.shape[0]):  # deterministic sign convention
        jmax = int(np.argmax(np.abs(psi[i])))
        if psi[i, jmax] < 0:
            psi[i] = -psi[i]
    return EigenResult(energies=vals.copy(), wavefunctions=psi,
                       residuals=residuals)


# ---------------------------------------------------------------------------
# field sweeps and the two-level reduction
# ---------------------------------------------------------------------------

@dataclass
class FieldSweep:
    """Qubit frequency versus field from repeated landscape solves.

    energies[f] holds the k lowest levels at fields[f]; the wavefunctions
    of each solve are not kept.
    """

    fields: np.ndarray            # T
    omega_q: np.ndarray           # rad/s
    energies: np.ndarray          # J, shape (fields, k), rows ascending
    sweet_spot_index: int
    max_residual: float           # J, largest ||H v - E v|| for unit-norm v

    @property
    def sweet_spot_B(self) -> float:
        return float(self.fields[self.sweet_spot_index])


def spectrum_vs_field(sites: Sequence[PinningSite], x_window: tuple[float, float],
                      B_list, model: TunnelModel, scales: DerivedScales,
                      device: DeviceModel,
                      grid_points: int = 1024, k: int = 3) -> FieldSweep:
    """Double-well qubit frequency omega_q(B) = (E1 - E0) / hbar.

    Requires exactly two pinning sites forming the double well inside
    x_window, and no other vortices; the grid must clear each site by
    _MARGIN_SIGMAS widths and span each by _SITE_STEPS grid steps. The
    sweet spot is the argmin of omega_q(B_list).

    Each field is one solve_schrodinger call. A field whose levels the grid
    does not resolve (the highest more than _LEVEL_STEPS K / dx^2 above
    the potential's floor) or whose qubit doublet the landscape does not
    bind (E1 above the potential's whole range on the grid, so the window's
    walls hold it) raises InvalidParameterError, as does a site too narrow.
    The sweep keeps each field's k levels, not its wavefunctions, and the
    largest residual norm any solve reports over its fields and levels.
    """
    if len(sites) != 2:
        raise InvalidParameterError("spectrum_vs_field expects exactly two sites")
    grid = Grid(x_min=x_window[0], x_max=x_window[1], nx=grid_points)
    for n, s in enumerate(sites, 1):
        if not (grid.x_min <= s.x_i - _MARGIN_SIGMAS * s.sigma_i
                and s.x_i + _MARGIN_SIGMAS * s.sigma_i <= grid.x_max):
            raise InvalidParameterError(
                f"x_window must cover site at {s.x_i} with a "
                f"{_MARGIN_SIGMAS:g} sigma margin")
        if s.sigma_i < _SITE_STEPS * grid.dx:
            raise InvalidParameterError(
                f"site {n}: sigma = {s.sigma_i:g} m spans "
                f"{s.sigma_i / grid.dx:.3g} grid steps of {grid.dx:g} m "
                f"(grid_points over x_window); the grid resolves a site of "
                f"{_SITE_STEPS:g} steps or more")
    x = grid.x
    fields = np.atleast_1d(np.asarray(B_list, dtype=float))
    energies = np.empty((fields.size, k))
    residual = 0.0
    resolved = _LEVEL_STEPS * model.kinetic_coefficient / grid.dx**2
    for i, B in enumerate(fields):
        V = total_potential(x, 0.0, float(B), 0.0, sites, scales, device)
        res = solve_schrodinger(grid, V, model, k=k)
        floor = float(V.min())
        if res.energies[-1] - floor > resolved:
            raise InvalidParameterError(
                f"at B = {B:g} T, level E{res.energies.size - 1} lies "
                f"{(res.energies[-1] - floor) / resolved * _LEVEL_STEPS:.3g}"
                f" K / dx^2 above the potential's floor (K = hbar Omega "
                f"y_zpf^2, dx the grid step); the grid resolves levels up to "
                f"{_LEVEL_STEPS:g}")
        if res.energies.size > 1 and res.energies[1] > float(V.max()):
            raise InvalidParameterError(
                f"at B = {B:g} T, level E1 lies above the potential's whole "
                f"range on x_window: the kinetic term K = hbar Omega y_zpf^2 "
                f"= {model.kinetic_coefficient:g} J m^2 leaves the pinning "
                f"sites no bound doublet")
        energies[i] = res.energies
        residual = max(residual, float(res.residuals.max()))
    omega = (energies[:, 1] - energies[:, 0]) / CONSTANTS.hbar
    return FieldSweep(fields=fields, omega_q=omega, energies=energies,
                      sweet_spot_index=int(np.argmin(omega)),
                      max_residual=residual)


@dataclass(frozen=True)
class TwoLevelModel:
    """Tunneling amplitude and asymmetry of the reduced double well."""

    Delta: float                      # J
    epsilon: Callable[[float], float]  # B (T) -> J, signed

    def omega_q(self, B: float) -> float:
        """Predicted splitting sqrt(4 Delta^2 + epsilon^2) / hbar (rad/s)."""
        return math.sqrt(4.0 * self.Delta**2 + self.epsilon(B) ** 2) / CONSTANTS.hbar


def two_level_reduction(energy_pair: tuple[np.ndarray, np.ndarray],
                        asymmetry: Callable[[float], float]) -> TwoLevelModel:
    """Reduce the levels at two fields to the (Delta, epsilon) model.

    energy_pair holds two ascending rows of levels (J), such as two rows of
    FieldSweep.energies or the energies of two EigenResults. The row with
    the smaller splitting E1 - E0 is taken as the degeneracy field's;
    Delta is half its splitting. The reduction is refused when the third
    level sits closer than three splittings above the qubit doublet.
    """
    if len(energy_pair) != 2:
        raise InvalidParameterError("need levels at exactly two fields")
    degenerate = min(energy_pair, key=lambda E: E[1] - E[0])
    if len(degenerate) < 3:
        raise InvalidParameterError(
            "need at least three levels to validate the reduction")
    split = float(degenerate[1] - degenerate[0])
    third_gap = float(degenerate[2] - degenerate[1])
    if third_gap < 3.0 * split:
        raise ReductionInvalidError(
            f"third level only {third_gap / split:.2f} splittings above the "
            "doublet")
    return TwoLevelModel(Delta=split / 2.0, epsilon=asymmetry)


def double_well_asymmetry_model(x_bar: float, delta_LR: float,
                                scales: DerivedScales, device: DeviceModel,
                                B_ref: float | None = None):
    """Signed epsilon(B) for a double well, optionally re-zeroed at B_ref.

    Uses the exact well-bottom detuning of the bare landscape; when B_ref
    is given (for instance the solver's observed sweet spot) the offset is
    shifted so that epsilon(B_ref) = 0, which absorbs zero-point and
    pinning-tail contributions the bare landscape does not know about.
    """
    shift = 0.0
    if B_ref is not None:
        shift = well_detuning(x_bar, delta_LR, B_ref, scales, device)

    def epsilon(B: float) -> float:
        return well_detuning(x_bar, delta_LR, B, scales, device) - shift

    return epsilon

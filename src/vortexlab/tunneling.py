"""Finite-difference Schrodinger solver for a vortex pinned in the landscape.

Discretizes  H = hbar Omega [ -y_zpf^2 laplacian + V / (hbar Omega) ]  on a
uniform grid with Dirichlet boundaries and a second-order central-difference
Laplacian, then extracts the lowest eigenpairs. In 1D the matrix is
tridiagonal and both arms find only the lowest pairs by bisection, then
inverse iteration: in numpy and plain Python (Sturm-sequence bisection,
Thomas solves, then a Rayleigh-Ritz step) when the solves ahead cost less
than importing scipy.linalg does, else with scipy.linalg.eigh_tridiagonal
(see spectrum_vs_field). In 2D a shifted block Lanczos in numpy finds
them: a block LDL^T factorisation of H - min V along x, one ny x ny block
per x-row, applies the shift-invert operator, and Rayleigh-Ritz steps on
the five-point stencil give the pairs. scipy is imported by the long 1D
path only. The kinetic coefficient hbar Omega y_zpf^2 equals hbar^2 / 2 m
for the effective mass implied by y_zpf = sqrt(hbar / 2 m Omega), so the
mass never has to be specified directly."""

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

_START_SEED = 11  # of the random start vectors (1D inverse iteration, the
# 2D block Lanczos start block), fixed so results are repeatable
_MARGIN_SIGMAS = 5.0  # grid clearance around each pinning site, in sigma_i
# the 1D solver rule's costs (s): one bisection solve of 1024 points and
# three levels (it grows linearly with the size; 0.011-0.020 s measured on
# a 2-core x86 host), and importing scipy.linalg after vortexlab.cli
_BISECTION_1024_S = 0.015
_SCIPY_IMPORT_S = 0.3
_INVERSE_ITERATIONS = 3  # Thomas solves per level, from a random start
_EPS = np.finfo(float).eps
# the 2D solve stops once every residual ||H x - theta x|| is within
# _RESIDUAL_TOL of the bound max|V| + 4 (cx + cy) on ||H||; it takes 11-28
# blocks on the tested potentials, and gives up after _MAX_BLOCKS
_RESIDUAL_TOL = 1e-10
_MAX_BLOCKS = 60
_PIVMIN = np.finfo(float).tiny  # a zero Sturm pivot becomes -_PIVMIN


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
    """Lowest eigenpairs on the grid; wavefunction rows are L2-normalized."""

    energies: np.ndarray
    wavefunctions: np.ndarray

    @property
    def splitting(self) -> float:
        """E1 - E0 (J)."""
        return float(self.energies[1] - self.energies[0])


def _solver_1d(n_solves: int, points: int) -> str:
    """"tridiagonal" when n_solves bisection solves of points points cost
    more than importing scipy.linalg, else "bisection"."""
    bisection_s = n_solves * points / 1024 * _BISECTION_1024_S
    return "tridiagonal" if bisection_s > _SCIPY_IMPORT_S else "bisection"


def _tridiagonal_1d(grid: Grid, V: np.ndarray, K: float):
    """Diagonal and (constant) off-diagonal of the 1D Hamiltonian (J)."""
    return 2.0 * K / grid.dx**2 + V, -K / grid.dx**2


def _apply_1d(d: np.ndarray, off: float, v: np.ndarray) -> np.ndarray:
    """T v for the tridiagonal T of diagonal d and constant off-diagonal."""
    Tv = d[:, None] * v
    Tv[1:] += off * v[:-1]
    Tv[:-1] += off * v[1:]
    return Tv


def _solve_1d(grid: Grid, V: np.ndarray, K: float, k: int, solver: str):
    """Lowest k pairs of the tridiagonal Hamiltonian.

    "bisection" runs _bisection_1d, which below the rule of _solver_1d
    costs less than importing scipy; "tridiagonal" runs scipy's
    eigh_tridiagonal. A non-finite Hamiltonian raises EigensolverError.
    """
    d, off = _tridiagonal_1d(grid, V, K)
    if not (np.isfinite(d).all() and math.isfinite(off)):
        raise EigensolverError("the 1D Hamiltonian is not finite",
                               residuals=np.full(k, np.inf))
    if solver == "bisection":
        return _bisection_1d(d, off, k)
    from scipy.linalg import eigh_tridiagonal
    try:
        return eigh_tridiagonal(d, np.full(grid.nx - 1, off),
                                select="i", select_range=(0, k - 1))
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"eigh_tridiagonal failed: {exc}",
                               residuals=np.full(k, np.inf)) from exc


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


def _thomas(d: list[float], off: float, shift: float, floor: float):
    """A solver of (T - shift) y = x by Thomas elimination, factored once.

    Pivots smaller than floor in magnitude become -floor, so a shift at an
    eigenvalue still gives a (large) finite solution.
    """
    r, q = [], math.inf
    for di in d:
        q = di - shift - off * off / q
        if abs(q) < floor:
            q = -floor
        r.append(1.0 / q)
    r_rev = r[::-1]

    def solve(x: list[float]) -> np.ndarray:
        w, ws = 0.0, []
        for xi, ri in zip(x, r):  # forward: w_i = (x_i - off w_{i-1}) / q_i
            w = (xi - off * w) * ri
            ws.append(w)
        y, ys = 0.0, []
        for wi, ri in zip(reversed(ws), r_rev):  # back substitution
            y = wi - off * y * ri
            ys.append(y)
        return np.array(ys[::-1])

    return solve


def _bisection_1d(d: np.ndarray, off: float, k: int):
    """Lowest k pairs of the tridiagonal T (diagonal d, off-diagonal off).

    Sturm-sequence bisection brackets each eigenvalue to about 2 eps |T|,
    every count also narrowing the brackets of the other levels; inverse
    iteration from a seeded random start, Gram-Schmidt against the vectors
    already found (as LAPACK's dstein does for clusters), turns each into
    a vector; one Rayleigh-Ritz step over the k vectors gives the pairs
    (Barth, Martin & Wilkinson, Numer. Math. 9, 386 (1967)).
    """
    # Gershgorin bounds; lo is the potential's minimum, a strict lower bound
    # since the Dirichlet Laplacian is positive definite
    lo, hi = float(d.min()) - 2 * abs(off), float(d.max()) + 2 * abs(off)
    tol = 2 * _EPS * max(abs(lo), abs(hi))
    dl, off2 = d.tolist(), off * off
    los, his = [lo] * k, [hi] * k
    for j in range(k):
        while his[j] - los[j] > tol:
            mid = 0.5 * (los[j] + his[j])
            below = _sturm_count(dl, off2, mid)
            for i in range(k):
                if i < below:
                    his[i] = min(his[i], mid)
                else:
                    los[i] = max(los[i], mid)

    rng = np.random.default_rng(_START_SEED)
    Q = np.empty((d.size, k))
    for j in range(k):
        solve = _thomas(dl, off, 0.5 * (los[j] + his[j]), tol)
        y = rng.standard_normal(d.size)
        for _ in range(_INVERSE_ITERATIONS):
            y = solve(y.tolist())
            y -= Q[:, :j] @ (Q[:, :j].T @ y)
            y /= np.linalg.norm(y)
        Q[:, j] = y
    vals, S = np.linalg.eigh(Q.T @ _apply_1d(d, off, Q))
    return vals, Q @ S


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
    Krylov basis of (H - sigma)^-1 grows from a seeded random block of k
    rows, orthogonalised against all earlier rows twice (Gram-Schmidt) and
    then by QR; after each block a Rayleigh-Ritz step projects H itself.
    It stops when every wanted pair has ||H x - theta x|| <= 1e-10 |H|_bound
    (Grimes, Lewis & Simon, SIAM J. Matrix Anal. Appl. 15, 228 (1994)).
    Past _MAX_BLOCKS blocks it raises EigensolverError with the residuals.
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
    start = np.random.default_rng(_START_SEED).standard_normal((grid.size, k))
    Q[:k] = np.linalg.qr(start)[0].T
    for m in range(k, Q.shape[0] + 1, k):  # m rows once this block is in
        block = Q[m - k:m]
        G[m - k:m, :m] = _apply_2d(V2, cx, cy, block) @ Q[:m].T
        theta, S = np.linalg.eigh(G[:m, :m])
        X = S[:, :k].T @ Q[:m]
        residuals = np.linalg.norm(
            _apply_2d(V2, cx, cy, X) - theta[:k, None] * X, axis=1)
        if (residuals <= tol).all():
            return theta[:k], X.T
        if m < Q.shape[0]:
            W = solve(block)
            for _ in range(2):
                W -= (W @ Q[:m].T) @ Q[:m]
            Q[m:m + k] = np.linalg.qr(W.T)[0].T
    raise EigensolverError(
        f"block Lanczos did not converge in {_MAX_BLOCKS} blocks",
        residuals=residuals)


def solve_schrodinger(grid: Grid, potential: np.ndarray, model: TunnelModel,
                      k: int = 2, *, _solver: str | None = None
                      ) -> EigenResult:
    """Lowest k eigenpairs of the discretized pinned-vortex Hamiltonian.

    potential is the energy field (J) sampled on the grid, shape (nx,) or
    (nx, ny). A 1D solve takes the solver that _solver_1d picks for one
    solve, unless spectrum_vs_field passes the one it picked for its sweep.
    A 2D solve runs the block Lanczos of _solve_2d. _START_SEED fixes the
    start vectors of 1D inverse iteration and of the 2D start block, so
    repeated calls return identical bits. A non-finite
    potential raises InvalidParameterError. Raises EigensolverError with
    the residual norms (inf for pairs not found) if the solver fails.
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
        vals, vecs = _solve_1d(grid, V, K, k,
                               _solver or _solver_1d(1, grid.nx))
    else:
        vals, vecs = _solve_2d(grid, V, K, k)

    order = np.argsort(vals)
    vals = vals[order]
    vecs = vecs[:, order]
    # continuum normalization: sum |psi|^2 * cell = 1
    psi = (vecs / math.sqrt(grid.cell)).T
    for i in range(psi.shape[0]):  # deterministic sign convention
        jmax = int(np.argmax(np.abs(psi[i])))
        if psi[i, jmax] < 0:
            psi[i] = -psi[i]
    return EigenResult(energies=vals.copy(), wavefunctions=psi)


# ---------------------------------------------------------------------------
# field sweeps and the two-level reduction
# ---------------------------------------------------------------------------

@dataclass
class FieldSweep:
    """Qubit frequency versus field from repeated landscape solves."""

    fields: np.ndarray            # T
    omega_q: np.ndarray           # rad/s
    results: list[EigenResult]
    sweet_spot_index: int
    solver: str                   # "bisection" or "tridiagonal", see _solver_1d
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
    _MARGIN_SIGMAS widths. The sweet spot is the argmin of omega_q(B_list).

    The solver is chosen once for the whole sweep: scipy's eigh_tridiagonal
    when fields x grid_points / 1024 x _BISECTION_1024_S (0.015 s, one
    1024-point bisection solve of three levels) exceeds _SCIPY_IMPORT_S
    (0.3 s, importing scipy.linalg), the numpy bisection arm otherwise, so
    a sweep of up to about 20 fields at 1024 points stays free of scipy.
    The sweep records the solver and the largest residual norm over its
    fields and levels.
    """
    if len(sites) != 2:
        raise InvalidParameterError("spectrum_vs_field expects exactly two sites")
    grid = Grid(x_min=x_window[0], x_max=x_window[1], nx=grid_points)
    for s in sites:
        if not (grid.x_min <= s.x_i - _MARGIN_SIGMAS * s.sigma_i
                and s.x_i + _MARGIN_SIGMAS * s.sigma_i <= grid.x_max):
            raise InvalidParameterError(
                f"x_window must cover site at {s.x_i} with a "
                f"{_MARGIN_SIGMAS:g} sigma margin")
    x = grid.x
    fields = np.atleast_1d(np.asarray(B_list, dtype=float))
    solver = _solver_1d(fields.size, grid_points)
    results: list[EigenResult] = []
    omega = np.empty(fields.size)
    residual = 0.0
    for i, B in enumerate(fields):
        V = total_potential(x, 0.0, float(B), 0.0, sites, scales, device)
        res = solve_schrodinger(grid, V, model, k=k, _solver=solver)
        results.append(res)
        omega[i] = res.splitting / CONSTANTS.hbar
        residual = max(residual, _max_residual_1d(grid, V, model, res))
    return FieldSweep(fields=fields, omega_q=omega, results=results,
                      sweet_spot_index=int(np.argmin(omega)), solver=solver,
                      max_residual=residual)


def _max_residual_1d(grid: Grid, V: np.ndarray, model: TunnelModel,
                     res: EigenResult) -> float:
    """Largest ||H v - E v|| (J) over the levels of a 1D solve, v unit-norm."""
    d, off = _tridiagonal_1d(grid, V, model.kinetic_coefficient)
    v = res.wavefunctions.T * math.sqrt(grid.cell)
    return float(np.linalg.norm(_apply_1d(d, off, v) - v * res.energies,
                                axis=0).max())


@dataclass(frozen=True)
class TwoLevelModel:
    """Tunneling amplitude and asymmetry of the reduced double well."""

    Delta: float                      # J
    epsilon: Callable[[float], float]  # B (T) -> J, signed

    def omega_q(self, B: float) -> float:
        """Predicted splitting sqrt(4 Delta^2 + epsilon^2) / hbar (rad/s)."""
        return math.sqrt(4.0 * self.Delta**2 + self.epsilon(B) ** 2) / CONSTANTS.hbar


def two_level_reduction(result_pair: tuple[EigenResult, EigenResult],
                        asymmetry: Callable[[float], float]) -> TwoLevelModel:
    """Reduce solver output at two fields to the (Delta, epsilon) model.

    The member of the pair with the smaller splitting is taken as the
    degeneracy-field solve; Delta is half its splitting. The reduction is
    refused when the third level sits closer than three splittings above
    the qubit doublet.
    """
    if len(result_pair) != 2:
        raise InvalidParameterError("need results at exactly two fields")
    degenerate = min(result_pair, key=lambda r: r.splitting)
    if degenerate.energies.size < 3:
        raise InvalidParameterError(
            "need at least three levels to validate the reduction")
    split = degenerate.splitting
    third_gap = float(degenerate.energies[2] - degenerate.energies[1])
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

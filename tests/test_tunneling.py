import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vortexlab import config, energetics, tunneling
from vortexlab.constants import CONSTANTS
from vortexlab.core import derive_scales
from vortexlab.errors import (EigensolverError, InvalidParameterError,
                              ReductionInvalidError)

HBAR = CONSTANTS.hbar
H = CONSTANTS.h

Y_ZPF = 4e-9
OMEGA = 2 * math.pi * 30e9


@pytest.fixture(scope="module")
def model():
    return tunneling.TunnelModel(y_zpf=Y_ZPF, Omega=OMEGA)


def dense_oracle(grid, potential, model, k, vectors=True):
    """Dense diagonalization of the same discretization (test oracle);
    vectors=False skips the eigenvectors (half the time at 4096 points)."""
    n = grid.nx
    K = model.kinetic_coefficient
    main = 2.0 * K / grid.dx**2 + np.asarray(potential)
    off = np.full(n - 1, -K / grid.dx**2)
    Hm = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    if not vectors:
        return np.linalg.eigvalsh(Hm)[:k], None
    evals, vecs = np.linalg.eigh(Hm)
    return evals[:k], vecs[:, :k]


class TestGrid:
    def test_spacing(self):
        g = tunneling.Grid(0.0, 1e-7, 101)
        assert g.dx == pytest.approx(1e-9)
        assert g.dimension == 1

    def test_minimum_points(self):
        with pytest.raises(InvalidParameterError):
            tunneling.Grid(0.0, 1e-7, 32)

    @pytest.mark.parametrize("bounds,message", [
        ((math.nan, 1e-7), "x_min and x_max must be finite"),
        ((0.0, math.inf), "x_min and x_max must be finite"),
        ((-math.inf, 0.0), "x_min and x_max must be finite"),
        ((0.0, 1e-7, 0.0, math.nan), "y_min and y_max must be finite"),
        ((0.0, 1e-7, -math.inf, 1e-7), "y_min and y_max must be finite")],
        ids=["nan-x_min", "inf-x_max", "-inf-x_min", "nan-y_max",
             "-inf-y_min"])
    def test_non_finite_bounds(self, bounds, message):
        x_min, x_max, *y = bounds
        kwargs = dict(y_min=y[0], y_max=y[1], ny=64) if y else {}
        with pytest.raises(InvalidParameterError, match=message):
            tunneling.Grid(x_min, x_max, 64, **kwargs)


class TestTunnelModel:
    def test_kinetic_coefficient(self, model):
        assert model.kinetic_coefficient == pytest.approx(
            HBAR**2 / (2 * model.mass), rel=1e-12, abs=0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_non_positive_or_non_finite(self, bad):
        for kwargs in (dict(y_zpf=bad, Omega=OMEGA),
                       dict(y_zpf=Y_ZPF, Omega=bad)):
            with pytest.raises(InvalidParameterError,
                               match="must be positive and finite"):
                tunneling.TunnelModel(**kwargs)


class TestSolveSchrodinger:
    def test_harmonic_oscillator(self, model):
        k_spring = model.mass * OMEGA**2
        grid = tunneling.Grid(-50e-9, 50e-9, 1024)
        res = tunneling.solve_schrodinger(grid, 0.5 * k_spring * grid.x**2,
                                          model, k=5)
        expected = (np.arange(5) + 0.5) * HBAR * OMEGA
        assert np.all(np.abs(res.energies - expected) / expected < 1e-4)

    def test_particle_in_a_box(self, model):
        grid = tunneling.Grid(0.0, 100e-9, 1024)
        res = tunneling.solve_schrodinger(grid, np.zeros(1024), model, k=3)
        assert res.energies[1] / res.energies[0] == pytest.approx(
            4.0, rel=1e-3, abs=0)
        assert res.energies[2] / res.energies[0] == pytest.approx(
            9.0, rel=1e-3, abs=0)

    def test_matches_dense_oracle(self, model):
        # double well against full diagonalization on a 256-point grid
        grid = tunneling.Grid(-60e-9, 60e-9, 256)
        V0 = H * 30e9
        V = -V0 / (1 + (grid.x - 15e-9) ** 2 / (6e-9) ** 2) \
            - V0 / (1 + (grid.x + 15e-9) ** 2 / (6e-9) ** 2)
        res = tunneling.solve_schrodinger(grid, V, model, k=4)
        ora, _ = dense_oracle(grid, V, model, 4)
        assert np.allclose(res.energies, ora, rtol=1e-9, atol=0)

    def test_barrier_suppresses_splitting(self, model):
        # raising the central barrier monotonically reduces E1 - E0
        grid = tunneling.Grid(-60e-9, 60e-9, 256)
        V0 = H * 30e9
        base = -V0 / (1 + (grid.x - 18e-9) ** 2 / (6e-9) ** 2) \
            - V0 / (1 + (grid.x + 18e-9) ** 2 / (6e-9) ** 2)
        splittings = []
        for barrier in np.linspace(0.0, H * 20e9, 5):
            V = base + barrier / (1 + grid.x**2 / (8e-9) ** 2)
            ora, _ = dense_oracle(grid, V, model, 2)
            splittings.append(ora[1] - ora[0])
        assert np.all(np.diff(splittings) < 0)

    def test_orthonormal_wavefunctions(self, model):
        k_spring = model.mass * OMEGA**2
        grid = tunneling.Grid(-50e-9, 50e-9, 512)
        res = tunneling.solve_schrodinger(grid, 0.5 * k_spring * grid.x**2,
                                          model, k=6)
        gram = res.wavefunctions @ res.wavefunctions.T * grid.cell
        assert np.abs(gram - np.eye(6)).max() < 1e-8

    def test_grid_refinement_convergence(self, model):
        def solve(n):
            grid = tunneling.Grid(-60e-9, 60e-9, n)
            V0 = H * 30e9
            V = -V0 / (1 + (grid.x - 15e-9) ** 2 / (6e-9) ** 2) \
                - V0 / (1 + (grid.x + 15e-9) ** 2 / (6e-9) ** 2)
            return tunneling.solve_schrodinger(grid, V, model, k=2).energies

        e512, e1024 = solve(512), solve(1024)
        assert np.all(np.abs(e1024 - e512) / np.abs(e1024) < 1e-4)

    def test_parity_of_degenerate_double_well(self, model):
        grid = tunneling.Grid(-60e-9, 60e-9, 1024)
        V0 = H * 30e9
        V = -V0 / (1 + (grid.x - 15e-9) ** 2 / (6e-9) ** 2) \
            - V0 / (1 + (grid.x + 15e-9) ** 2 / (6e-9) ** 2)
        res = tunneling.solve_schrodinger(grid, V, model, k=2)
        psi0, psi1 = res.wavefunctions
        p0 = float((psi0 * psi0[::-1]).sum() * grid.cell)
        p1 = float((psi1 * psi1[::-1]).sum() * grid.cell)
        assert abs(p0 - 1.0) < 1e-6
        assert abs(p1 + 1.0) < 1e-6

    def test_anisotropic_2d_oscillator(self, model):
        grid = tunneling.Grid(-40e-9, 40e-9, 96, -40e-9, 40e-9, 96)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        k_spring = model.mass * OMEGA**2
        V = 0.5 * k_spring * (X**2 + 2.25 * Y**2)  # omega_y = 1.5 omega_x
        res = tunneling.solve_schrodinger(grid, V, model, k=3)
        ratios = res.energies / (HBAR * OMEGA)
        assert ratios[0] == pytest.approx(0.5 + 0.75, rel=5e-3, abs=0)
        assert ratios[1] == pytest.approx(1.5 + 0.75, rel=5e-3, abs=0)
        assert ratios[2] == pytest.approx(0.5 + 2.25, rel=5e-3, abs=0)

    def test_k_limit(self, model):
        grid = tunneling.Grid(0.0, 100e-9, 128)
        with pytest.raises(InvalidParameterError):
            tunneling.solve_schrodinger(grid, np.zeros(128), model, k=11)

    def test_2d_pinning_double_well(self, model, scales, device):
        # two 2D dips in the full landscape: lowest pair splits across the
        # wells, stays bound in y, and keeps x-mirror parity
        grid, V = pinning_double_well(scales, device)
        res = tunneling.solve_schrodinger(grid, V, model, k=2)
        assert res.splitting > 0
        # both states concentrate near the dips (inside 3 sigma in y)
        for psi in res.wavefunctions:
            density = (psi**2).reshape(96, 96) * grid.cell
            band = np.abs(grid.y) < 3 * 8e-9
            assert density[:, band].sum() > 0.9


def pinning_double_well(scales, device, nx=96, ny=96):
    """(grid, potential) of two 2D pinning dips at their degeneracy field."""
    x_bar, delta, sigma = 1.0e-6, 30e-9, 8e-9
    sites = [energetics.PinningSite(x_bar - delta / 2, 0.0, H * 40e9, sigma),
             energetics.PinningSite(x_bar + delta / 2, 0.0, H * 40e9, sigma)]
    B_star = energetics.degeneracy_field(x_bar, delta, scales, device)
    grid = tunneling.Grid(x_bar - 80e-9, x_bar + 80e-9, nx, -80e-9, 80e-9, ny)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return grid, energetics.total_potential(X, Y, B_star, 0, sites, scales,
                                            device)


def arpack_oracle(grid, potential, model, k):
    """Shift-invert ARPACK on the sparse five-point operator (test oracle):
    the lowest k levels and unit eigenvectors, flat index i * ny + j."""
    from scipy import sparse
    from scipy.sparse.linalg import eigsh

    def lap(n, d):
        return sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n)) / d**2

    V = np.asarray(potential).reshape(-1)
    Hs = (-model.kinetic_coefficient
          * sparse.kronsum(lap(grid.ny, grid.dy), lap(grid.nx, grid.dx))
          + sparse.diags(V)).tocsc()
    v0 = np.random.default_rng(0).standard_normal(grid.size)
    vals, vecs = eigsh(Hs, k, sigma=float(V.min()), which="LM", v0=v0)
    order = np.argsort(vals)
    return vals[order], vecs[:, order]


def isotropic_oscillator(model):
    grid = tunneling.Grid(-40e-9, 40e-9, 96, -40e-9, 40e-9, 96)
    X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
    return grid, 0.5 * model.mass * OMEGA**2 * (X**2 + Y**2)


class TestSolveSchrodinger2D:
    def test_separable_matches_sums_of_1d_spectra(self, model):
        # unequal axes catch a transposed Kronecker sum
        grid = tunneling.Grid(-60e-9, 60e-9, 80, -30e-9, 50e-9, 72)
        gx = tunneling.Grid(grid.x_min, grid.x_max, grid.nx)
        gy = tunneling.Grid(grid.y_min, grid.y_max, grid.ny)
        V0 = H * 30e9
        Vx = -V0 / (1 + (gx.x - 15e-9) ** 2 / (6e-9) ** 2) \
            - V0 / (1 + (gx.x + 15e-9) ** 2 / (6e-9) ** 2)
        Vy = 0.5 * model.mass * OMEGA**2 * (gy.x - 10e-9) ** 2
        ex, _ = dense_oracle(gx, Vx, model, 6)
        ey, _ = dense_oracle(gy, Vy, model, 6)
        expected = np.sort(np.add.outer(ex, ey).ravel())[:6]
        res = tunneling.solve_schrodinger(grid, np.add.outer(Vx, Vy), model,
                                          k=6)
        assert np.allclose(res.energies, expected, rtol=1e-9, atol=0.0)

    def test_isotropic_oscillator_returns_degenerate_pair(self, model):
        grid, V = isotropic_oscillator(model)
        res = tunneling.solve_schrodinger(grid, V, model, k=3)
        E = res.energies / (HBAR * OMEGA)
        assert E[1] == pytest.approx(E[2], rel=1e-9, abs=0)
        assert E[1] == pytest.approx(2.0, rel=5e-3, abs=0)
        gram = res.wavefunctions @ res.wavefunctions.T * grid.cell
        assert np.abs(gram - np.eye(3)).max() < 1e-8

    def test_repeated_calls_are_bit_identical(self, model):
        grid, V = isotropic_oscillator(model)
        a = tunneling.solve_schrodinger(grid, V, model, k=3)
        b = tunneling.solve_schrodinger(grid, V, model, k=3)
        assert np.array_equal(a.energies, b.energies)
        assert np.array_equal(a.wavefunctions, b.wavefunctions)

    @pytest.mark.parametrize("nx,ny", [(96, 96), (96, 72), (72, 96)])
    def test_matches_arpack_oracle(self, model, scales, device, nx, ny):
        # the non-separable pinning double well; unequal axes both ways
        # round catch a transposed block order
        grid, V = pinning_double_well(scales, device, nx, ny)
        res = tunneling.solve_schrodinger(grid, V, model, k=4)
        energies, vectors = arpack_oracle(grid, V, model, k=4)
        assert np.allclose(res.energies, energies, rtol=1e-10, atol=0)
        gaps = np.diff(energies)
        isolated = np.minimum(np.append(np.inf, gaps), np.append(gaps, np.inf))
        overlaps = np.abs(res.wavefunctions @ vectors) * math.sqrt(grid.cell)
        for i in np.flatnonzero(isolated > 1e-6 * np.abs(energies)):
            assert abs(overlaps[i, i] - 1) < 1e-8


def double_well_1d(grid):
    V0 = H * 30e9
    return -V0 / (1 + (grid.x - 15e-9) ** 2 / (6e-9) ** 2) \
        - V0 / (1 + (grid.x + 15e-9) ** 2 / (6e-9) ** 2)


def hamiltonian_norm(grid, V, model):
    """Bound on ||H|| of the 1D discretization (J)."""
    return np.abs(V).max() + 4 * model.kinetic_coefficient / grid.dx**2


@functools.lru_cache(maxsize=None)
def double_well_oracle(n):
    """(grid, potential, lowest ten dense levels) of double_well_1d."""
    grid = tunneling.Grid(-60e-9, 60e-9, n)
    V = double_well_1d(grid)
    levels, _ = dense_oracle(grid, V, tunneling.TunnelModel(Y_ZPF, OMEGA),
                             10, vectors=False)
    return grid, V, levels


class TestSolve1D:
    """The analytic and dense-oracle checks of the 1D solve."""

    def test_matches_dense_oracle(self, model):
        grid = tunneling.Grid(-60e-9, 60e-9, 256)
        V = double_well_1d(grid)
        res = tunneling.solve_schrodinger(grid, V, model, k=4)
        ora, _ = dense_oracle(grid, V, model, 4)
        assert np.allclose(res.energies, ora, rtol=1e-9, atol=0)

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_every_k_matches_dense_oracle(self, model, n):
        # the solve is backward stable: levels and residuals within a few
        # eps ||H||, the bound 1e-14 ||H|| is about 45 eps ||H||
        grid, V, ora = double_well_oracle(n)
        tol = 1e-14 * hamiltonian_norm(grid, V, model)
        for k in range(1, 11):
            res = tunneling.solve_schrodinger(grid, V, model, k=k)
            assert np.abs(res.energies - ora[:k]).max() < tol, k
            gram = res.wavefunctions @ res.wavefunctions.T * grid.cell
            assert np.abs(gram - np.eye(k)).max() < 1e-12, k
            assert tunneling._max_residual_1d(grid, V, model, res) < tol, k

    def test_near_degenerate_double_well(self, model):
        # wells 100 nm apart: the splitting is 1.7e-7 of |E0|; with k = 1
        # the first excited level sits that close above the one asked for
        grid = tunneling.Grid(-100e-9, 100e-9, 1024)
        V0 = H * 30e9
        V = -V0 / (1 + (grid.x - 50e-9) ** 2 / (6e-9) ** 2) \
            - V0 / (1 + (grid.x + 50e-9) ** 2 / (6e-9) ** 2)
        ora, _ = dense_oracle(grid, V, model, 3)
        assert ora[1] - ora[0] <= 1e-6 * abs(ora[0])
        tol = 1e-14 * hamiltonian_norm(grid, V, model)
        for k in (1, 2, 3):
            res = tunneling.solve_schrodinger(grid, V, model, k=k)
            assert np.abs(res.energies - ora[:k]).max() < tol, k
            psi = res.wavefunctions
            parity = (psi * psi[:, ::-1]).sum(axis=1) * grid.cell
            assert np.abs(parity - [1.0, -1.0, 1.0][:k]).max() < 1e-10, k
            gram = psi @ psi.T * grid.cell
            assert np.abs(gram - np.eye(k)).max() < 1e-12, k
        assert res.splitting == pytest.approx(ora[1] - ora[0], rel=1e-5,
                                              abs=0)

    @pytest.mark.parametrize("n,sep,asym,depth_Hz,width,k", [
        (64, 49.4e-9, -0.0123, 66.2e9, 5.15e-9, 7),
        (256, 31.6e-9, 0.0147, 54.2e9, 8.86e-9, 7),
        (64, 11.7e-9, -0.00282, 58e9, 4.94e-9, 7)])
    def test_unlucky_starts_converge(self, model, n, sep, asym, depth_Hz,
                                     width, k):
        # the seeded start of one level here lies nearly orthogonal to its
        # eigenvector: a fixed three Rayleigh-quotient inverse steps from
        # the coarse bisection brackets left residuals of 2e-14 to 3e-11
        # ||H||, so the steps go on until a solve's growth bounds them
        grid = tunneling.Grid(-sep - 60e-9, sep + 60e-9, n)
        V = -H * depth_Hz * (1 / (1 + (grid.x - sep / 2) ** 2 / width**2)
                             + (1 + asym) / (1 + (grid.x + sep / 2) ** 2
                                             / width**2))
        ora, _ = dense_oracle(grid, V, model, k, vectors=False)
        tol = 1e-14 * hamiltonian_norm(grid, V, model)
        res = tunneling.solve_schrodinger(grid, V, model, k=k)
        assert np.abs(res.energies - ora).max() < tol
        assert tunneling._max_residual_1d(grid, V, model, res) < tol

    @pytest.mark.parametrize("power", [900, -900])
    def test_scaled_double_well_gives_scaled_levels(self, model, power):
        # T's squares leave the float range at 2^900 (its entries are about
        # 2^-73 J) and vanish at 2^-900; the solve on T / s sees neither
        grid, V, ora = double_well_oracle(1024)
        d, off = tunneling._tridiagonal_1d(grid, V, model.kinetic_coefficient)
        factor = 2.0 ** power
        vals, vecs = tunneling._bisection_1d(d * factor, off * factor, 4)
        tol = 1e-14 * hamiltonian_norm(grid, V, model) * factor
        assert np.abs(vals - ora[:4] * factor).max() < tol
        plain_vals, plain_vecs = tunneling._bisection_1d(d, off, 4)
        assert np.array_equal(vals, plain_vals * factor)
        assert np.array_equal(vecs, plain_vecs)

    def test_harmonic_oscillator(self, model):
        k_spring = model.mass * OMEGA**2
        grid = tunneling.Grid(-50e-9, 50e-9, 1024)
        res = tunneling.solve_schrodinger(grid, 0.5 * k_spring * grid.x**2,
                                          model, k=5)
        expected = (np.arange(5) + 0.5) * HBAR * OMEGA
        assert np.all(np.abs(res.energies - expected) / expected < 1e-4)

    def test_parity_of_degenerate_double_well(self, model):
        grid = tunneling.Grid(-60e-9, 60e-9, 1024)
        res = tunneling.solve_schrodinger(grid, double_well_1d(grid), model,
                                          k=2)
        psi0, psi1 = res.wavefunctions
        assert abs((psi0 * psi0[::-1]).sum() * grid.cell - 1.0) < 1e-6
        assert abs((psi1 * psi1[::-1]).sum() * grid.cell + 1.0) < 1e-6

    def test_orthonormal_wavefunctions(self, model):
        k_spring = model.mass * OMEGA**2
        grid = tunneling.Grid(-50e-9, 50e-9, 512)
        res = tunneling.solve_schrodinger(grid, 0.5 * k_spring * grid.x**2,
                                          model, k=6)
        gram = res.wavefunctions @ res.wavefunctions.T * grid.cell
        assert np.abs(gram - np.eye(6)).max() < 1e-8


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("solver", ["bisection", "2d"])
def test_non_finite_potential_is_rejected(model, solver, bad):
    if solver == "2d":
        grid = tunneling.Grid(-40e-9, 40e-9, 64, -40e-9, 40e-9, 64)
    else:
        grid = tunneling.Grid(-60e-9, 60e-9, 128)
    V = np.zeros(grid.size)
    V[grid.size // 3] = bad
    with pytest.raises(InvalidParameterError, match="potential must be finite"):
        tunneling.solve_schrodinger(grid, V, model, k=2)


class TestSolverErrors:
    def test_block_cap_maps_to_eigensolver_error(self, model, monkeypatch):
        # two blocks cannot converge: the residuals of the best Ritz pairs
        # come back, finite and above the stopping tolerance
        monkeypatch.setattr(tunneling, "_MAX_BLOCKS", 2)
        grid = tunneling.Grid(-40e-9, 40e-9, 64, -40e-9, 40e-9, 64)
        X, Y = np.meshgrid(grid.x, grid.y, indexing="ij")
        V = 0.5 * model.mass * OMEGA**2 * (X**2 + Y**2)
        with pytest.raises(EigensolverError, match="2 blocks") as info:
            tunneling.solve_schrodinger(grid, V, model, k=3)
        residuals = info.value.residuals
        K = model.kinetic_coefficient
        tol = 1e-10 * (np.abs(V).max() + 4 * K / grid.dx**2
                       + 4 * K / grid.dy**2)
        assert residuals.shape == (3,)
        assert np.all(np.isfinite(residuals))
        assert np.all(residuals > tol)

    @pytest.mark.parametrize("solver", ["bisection", "2d"])
    def test_non_finite_hamiltonian_maps_to_eigensolver_error(self, solver):
        # a finite kinetic coefficient of 1e292 J m^2 overflows K / dx^2
        model = tunneling.TunnelModel(y_zpf=1e13, Omega=1e300)
        if solver == "2d":
            grid = tunneling.Grid(-40e-9, 40e-9, 64, -40e-9, 40e-9, 64)
        else:
            grid = tunneling.Grid(0.0, 100e-9, 128)
        with pytest.raises(EigensolverError, match="Hamiltonian is not finite"
                           ) as info:
            tunneling.solve_schrodinger(grid, np.zeros(grid.size), model, k=2)
        assert info.value.residuals.shape == (2,)
        assert np.all(np.isinf(info.value.residuals))


def run_without_scipy(code, *args):
    """Run code in a fresh process in which importing scipy fails."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = "import sys\nsys.modules['scipy'] = None\n" + code
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_and_1d_solve_do_not_import_scipy(tmp_path):
    # scipy is a test dependency only, and numpy.ma costs about 10 ms per
    # process: with scipy blocked, a lone 1D solve, the tunnel sweeps of
    # configs/example.ini and of the benchmark, and the Rabi, fit
    # (fit-spectrum, fit-rabi) and jumps commands run and import neither
    code = (
        "import numpy as np\n"
        "ma_with_numpy = 'numpy.ma' in sys.modules  # numpy < 2 imports it\n"
        "import vortexlab.cli as cli\n"
        "from vortexlab import rabi, tunneling\n"
        "example, sweep, jumps, out = sys.argv[1:]\n"
        "grid = tunneling.Grid(0.0, 100e-9, 128)\n"
        "model = tunneling.TunnelModel(y_zpf=4e-9, Omega=1e11)\n"
        "tunneling.solve_schrodinger(grid, np.zeros(128), model, k=2)\n"
        "for args in (['tunnel', '-c', example, '-o', f'{out}/example'],\n"
        "             ['tunnel', '-c', sweep, '-o', f'{out}/sweep'],\n"
        "             ['chi', '-c', example, '-o', out],\n"
        "             ['synth-jumps', '-c', jumps, '-o', out]):\n"
        "    assert cli.main(args) == 0, args\n"
        "p = rabi.QrmParams.asymmetric(7.572e9, 92.5e6, 20e12, 128e-6, 2e9)\n"
        "fields = np.linspace(-22e-6, 278e-6, 7)\n"
        "specs = rabi.sweep_field(p, fields, rabi.HilbertTruncation(24))\n"
        "for name in ('f_q_dressed', 'f_r_g'):\n"
        "    rows = [(B * 1e6, getattr(s, name) / 1e9, 1e-3)\n"
        "            for B, s in zip(fields, specs)]\n"
        "    np.savetxt(f'{out}/{name}.csv', rows, delimiter=',',\n"
        "               header='B_uT,f_GHz,sigma_GHz', comments='')\n"
        "assert cli.main([\n"
        "    'fit-spectrum', '--qubit', f'{out}/f_q_dressed.csv',\n"
        "    '--resonator', f'{out}/f_r_g.csv', '-o', out]) == 0\n"
        "assert cli.main(['analyze-jumps', '--data', f'{out}/trajectory.csv',\n"
        "                 '-o', out]) == 0\n"
        "t = np.linspace(0.0, 2.0, 150)  # us; scans at 1 MHz per uV\n"
        "rows = [(a, ti, 0.5 - 0.5 * np.cos(2 * np.pi * a * ti))\n"
        "        for a in (4.0, 8.0, 16.0) for ti in t]\n"
        "np.savetxt(f'{out}/rabi.csv', rows, delimiter=',',\n"
        "           header='amplitude_uV,t_us,value', comments='')\n"
        "assert cli.main(['fit-rabi', '--data', f'{out}/rabi.csv',\n"
        "                 '-o', out]) == 0\n"
        "assert ma_with_numpy or 'numpy.ma' not in sys.modules, 'numpy.ma'\n")
    root = Path(__file__).resolve().parent.parent
    example = root / "configs" / "example.ini"
    sweep = tmp_path / "sweep.ini"
    sweep.write_text(example.read_text().replace("n_points = 41",
                                                 "n_points = 2"))
    jumps = tmp_path / "jumps.ini"  # a 20k-shot record
    jumps.write_text(example.read_text().replace("duration_s = 2.5",
                                                 "duration_s = 0.1"))
    out = tmp_path / "out"
    run_without_scipy(code, example, sweep, jumps, out)
    assert {"chi.csv", "fit_spectrum.json", "jumps_analysis.json",
            "fit_rabi.json"} <= {p.name for p in out.iterdir()}
    for name, fields in (("example", 41), ("sweep", 2)):
        manifest = json.loads((out / name / "manifest.tunnel.json").read_text())
        assert manifest["diagnostics"]["fields"] == fields
        assert manifest["diagnostics"]["grid_points"] == 1024


def test_light_sweep_does_not_import_scipy():
    # one field at 256 points, the benchmark's light tunnel sweep
    code = (
        "from vortexlab import config, core, tunneling\n"
        "cfg = config.load_config(sys.argv[1])\n"
        "device = cfg.device()\n"
        "sweep = tunneling.spectrum_vs_field(\n"
        "    cfg.sites(), (880e-9, 1120e-9), [195e-6], cfg.tunnel_model(),\n"
        "    core.derive_scales(device), device, grid_points=256)\n"
        "assert sweep.omega_q.shape == (1,), sweep.omega_q.shape\n"
        "assert sweep.results[0].energies.shape == (3,)\n")
    root = Path(__file__).resolve().parent.parent
    run_without_scipy(code, root / "configs" / "example.ini")


def test_2d_solve_does_not_import_scipy():
    # a 64 x 64 solve of three levels, the benchmark's light 2D size
    code = (
        "import numpy as np\n"
        "import vortexlab.cli\n"
        "from vortexlab import tunneling\n"
        "grid = tunneling.Grid(-40e-9, 40e-9, 64, -30e-9, 30e-9, 64)\n"
        "X, Y = np.meshgrid(grid.x, grid.y, indexing='ij')\n"
        "model = tunneling.TunnelModel(y_zpf=4e-9, Omega=1.9e11)\n"
        "V = 0.5 * model.mass * model.Omega**2 * (X**2 + 2.25 * Y**2)\n"
        "res = tunneling.solve_schrodinger(grid, V, model, k=3)\n"
        "assert res.energies.shape == (3,)\n")
    run_without_scipy(code)


def test_commands_import_only_the_modules_they_run(tmp_path):
    # a fresh process compiles every module it imports; loading a config
    # needs none of these four, gamma-map none and batch-fit only fitting
    code = (
        "import sys\n"
        "import vortexlab.cli as cli\n"
        "config, data_dir, out = sys.argv[1:]\n"
        "def loaded():\n"
        "    return sorted(m for m in ('fitting', 'rabi', 'jumps', 'tunneling')\n"
        "                  if 'vortexlab.' + m in sys.modules)\n"
        "cli.load_config(config)\n"
        "assert loaded() == [], loaded()\n"
        "assert cli.main(['gamma-map', '-c', config, '-o', out,\n"
        "                 '--n-delta', '5', '--n-xbar', '5']) == 0\n"
        "assert loaded() == [], loaded()\n"
        "assert cli.main(['batch-fit', '--data-dir', data_dir, '-o', out]) == 0\n"
        "assert loaded() == ['fitting'], loaded()\n")
    data_dir = tmp_path / "sets"
    data_dir.mkdir()
    B = np.linspace(28.0, 228.0, 15)
    f = np.sqrt(2.0**2 + (20e-3 * (B - 128.0)) ** 2)
    np.savetxt(data_dir / "run0.csv", np.column_stack([B, f]), delimiter=",",
               header="B_uT,f_GHz", comments="")
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(root / "configs" / "example.ini"),
         str(data_dir), str(tmp_path / "out")],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert {"gamma_map.csv", "batch_fit.csv"} <= {
        p.name for p in (tmp_path / "out").iterdir()}


def sweep_args(x_bar, delta):
    """(sites, x_window) of the sweep's double well."""
    V1, sigma = H * 40e9, 8e-9
    sites = [energetics.PinningSite(x_bar - delta / 2, 0.0, V1, sigma),
             energetics.PinningSite(x_bar + delta / 2, 0.0, V1, sigma)]
    return sites, (x_bar - 120e-9, x_bar + 120e-9)


@pytest.fixture(scope="module")
def sweep_setup(scales, device):
    x_bar, delta = 1.0e-6, 30e-9
    sites, window = sweep_args(x_bar, delta)
    model = tunneling.TunnelModel(y_zpf=Y_ZPF, Omega=OMEGA)
    B_star = energetics.degeneracy_field(x_bar, delta, scales, device)
    fields = B_star + np.linspace(-60e-6, 60e-6, 13)
    sweep = tunneling.spectrum_vs_field(
        sites, window, fields, model, scales, device, grid_points=1024, k=3)
    return x_bar, delta, B_star, sweep


def example_sweep():
    """(sweep, sites, x_window, model, scales, device) of `tunnel` on
    configs/example.ini: 41 fields on 1024 points."""
    cfg = config.load_config(
        Path(__file__).resolve().parent.parent / "configs" / "example.ini")
    device, t = cfg.device(), cfg.section("tunneling")
    args = (cfg.sites(), (t["x_min_nm"], t["x_max_nm"]))
    rest = (cfg.tunnel_model(), derive_scales(device), device)
    sweep = tunneling.spectrum_vs_field(*args, cfg.sweep_fields(), *rest,
                                        grid_points=t["grid_points"])
    return (sweep, *args, *rest)


class TestSpectrumVsField:
    def test_sweet_spot_at_degeneracy(self, sweep_setup):
        x_bar, delta, B_star, sweep = sweep_setup
        assert abs(sweep.sweet_spot_B - B_star) <= 11e-6

    def test_two_level_formula_within_5pct(self, sweep_setup, scales, device):
        x_bar, delta, B_star, sweep = sweep_setup
        i0 = sweep.sweet_spot_index
        eps = tunneling.double_well_asymmetry_model(
            x_bar, delta, scales, device, B_ref=sweep.sweet_spot_B)
        tl = tunneling.two_level_reduction(
            (sweep.results[i0], sweep.results[0]), eps)
        delta_e = tl.Delta
        for B, omega in zip(sweep.fields, sweep.omega_q):
            if abs(eps(B)) <= 4 * delta_e:
                assert abs(tl.omega_q(B) - omega) / omega < 0.05

    def test_deep_detuning_linear(self, sweep_setup, scales, device):
        # with eps >> Delta the splitting approaches |eps|
        x_bar, delta, B_star, sweep = sweep_setup
        i0 = sweep.sweet_spot_index
        Delta = sweep.results[i0].splitting / 2
        eps_fn = tunneling.double_well_asymmetry_model(
            x_bar, delta, scales, device, B_ref=sweep.sweet_spot_B)
        B_far = sweep.sweet_spot_B + 20 * Delta / \
            (H * energetics.gamma_from_geometry(delta, x_bar, scales, device))
        res = tunneling.spectrum_vs_field(
            [energetics.PinningSite(x_bar - delta / 2, 0.0, H * 40e9, 8e-9),
             energetics.PinningSite(x_bar + delta / 2, 0.0, H * 40e9, 8e-9)],
            (x_bar - 120e-9, x_bar + 120e-9), [B_far],
            tunneling.TunnelModel(y_zpf=Y_ZPF, Omega=OMEGA), scales, device,
            grid_points=1024, k=2)
        omega = res.omega_q[0]
        assert omega == pytest.approx(
            abs(eps_fn(B_far)) / HBAR, rel=0.05, abs=0)

    def test_tridiagonal_sweep_matches_dense(self, sweep_setup, model, scales,
                                             device):
        # this sweep and example.ini's against scipy's eigh_tridiagonal
        from scipy.linalg import eigh_tridiagonal
        x_bar, delta, B_star, sweep = sweep_setup
        for s, sites, window, m, sc, dev in (
                (sweep, *sweep_args(x_bar, delta), model, scales, device),
                example_sweep()):
            grid = tunneling.Grid(*window, 1024)
            for B, res, omega in zip(s.fields, s.results, s.omega_q):
                V = energetics.total_potential(grid.x, 0.0, float(B), 0.0,
                                               sites, sc, dev)
                d, off = tunneling._tridiagonal_1d(grid, V,
                                                   m.kinetic_coefficient)
                E, vecs = eigh_tridiagonal(d, np.full(grid.nx - 1, off),
                                           select="i", select_range=(0, 2))
                assert abs(omega * HBAR / (E[1] - E[0]) - 1) < 1e-10
                assert np.abs(res.energies / E - 1).max() < 1e-10
                # solve_schrodinger's normalization and sign convention
                psi = vecs.T / math.sqrt(grid.cell)
                rows = np.arange(3)
                psi *= np.sign(psi[rows, np.abs(psi).argmax(axis=1)])[:, None]
                scale = np.abs(psi).max()
                assert np.abs(res.wavefunctions - psi).max() < 1e-8 * scale
            assert 0.0 <= s.max_residual < 1e-6 * HBAR * s.omega_q.min()

    def test_bisection_sweeps_are_bit_identical(self, sweep_setup, model,
                                                scales, device):
        x_bar, delta, B_star, sweep = sweep_setup
        a, b = (tunneling.spectrum_vs_field(
            *sweep_args(x_bar, delta), sweep.fields[:2], model, scales,
            device, grid_points=1024, k=3) for _ in range(2))
        assert np.array_equal(a.omega_q, b.omega_q)
        for ra, rb in zip(a.results, b.results):
            assert np.array_equal(ra.energies, rb.energies)
            assert np.array_equal(ra.wavefunctions, rb.wavefunctions)

    def test_splitting_even_in_detuning(self, sweep_setup):
        x_bar, delta, B_star, sweep = sweep_setup
        # fields are symmetric around B_star: omega_q must mirror
        omega = sweep.omega_q
        assert np.allclose(omega, omega[::-1], rtol=1e-2)

    def test_requires_two_sites(self, scales, device, model):
        site = energetics.PinningSite(1e-6, 0.0, H * 40e9, 8e-9)
        with pytest.raises(InvalidParameterError):
            tunneling.spectrum_vs_field([site], (0.9e-6, 1.1e-6), [1e-4],
                                        model, scales, device)

    def test_window_must_cover_sites(self, scales, device, model):
        sites = [energetics.PinningSite(1e-6, 0.0, H * 40e9, 8e-9),
                 energetics.PinningSite(1.03e-6, 0.0, H * 40e9, 8e-9)]
        with pytest.raises(InvalidParameterError):
            tunneling.spectrum_vs_field(sites, (0.99e-6, 1.04e-6), [1e-4],
                                        model, scales, device)

    def test_refuses_a_site_narrower_than_two_grid_steps(self, scales,
                                                          device, model):
        sites, window = sweep_args(1.0e-6, 30e-9)
        # 240 nm over 255 steps: 8 nm is 8.5 steps, 1.5 nm is 1.59
        narrow = [sites[0], energetics.PinningSite(sites[1].x_i, 0.0,
                                                   sites[1].V_i, 1.5e-9)]
        B = [energetics.degeneracy_field(1.0e-6, 30e-9, scales, device)]
        tunneling.spectrum_vs_field(sites, window, B, model, scales, device,
                                    grid_points=256)
        with pytest.raises(InvalidParameterError,
                           match=r"site 2: sigma = 1.5e-09 m spans 1.59 grid"):
            tunneling.spectrum_vs_field(narrow, window, B, model, scales,
                                        device, grid_points=256)

    @pytest.mark.parametrize("y_zpf, Omega, reason", [
        # a mass so heavy that the levels vary at the grid step
        (Y_ZPF, OMEGA * 1e-6, r"level E2 lies [\d.]+ K / dx\^2 above"),
        # so light that the window's walls, not the sites, bind the doublet
        (Y_ZPF * 1e3, OMEGA, "level E1 lies above the potential's whole"),
    ])
    def test_refuses_levels_the_landscape_cannot_carry(self, scales, device,
                                                       y_zpf, Omega, reason):
        sites, window = sweep_args(1.0e-6, 30e-9)
        B = [energetics.degeneracy_field(1.0e-6, 30e-9, scales, device)]
        with pytest.raises(InvalidParameterError, match=reason):
            tunneling.spectrum_vs_field(
                sites, window, B, tunneling.TunnelModel(y_zpf, Omega),
                scales, device)


class TestTwoLevelReduction:
    def test_degenerate_omega_is_twice_delta(self, model):
        grid = tunneling.Grid(-60e-9, 60e-9, 1024)
        V0 = H * 30e9
        V = -V0 / (1 + (grid.x - 15e-9) ** 2 / (6e-9) ** 2) \
            - V0 / (1 + (grid.x + 15e-9) ** 2 / (6e-9) ** 2)
        res = tunneling.solve_schrodinger(grid, V, model, k=3)
        tl = tunneling.two_level_reduction((res, res), lambda B: 0.0)
        assert tl.omega_q(0.0) == pytest.approx(
            2 * tl.Delta / HBAR, rel=1e-12, abs=0)
        assert tl.Delta == pytest.approx(res.splitting / 2, rel=1e-12, abs=0)

    def test_formula_value(self):
        tl = tunneling.TwoLevelModel(Delta=1e-24, epsilon=lambda B: 2e-24)
        assert tl.omega_q(0.0) == pytest.approx(
            math.sqrt(4e-48 + 4e-48) / HBAR, rel=1e-12, abs=0)

    def test_third_level_guard(self, model):
        # harmonic spectrum: E2 - E1 equals E1 - E0, reduction must refuse
        k_spring = model.mass * OMEGA**2
        grid = tunneling.Grid(-50e-9, 50e-9, 256)
        res = tunneling.solve_schrodinger(grid, 0.5 * k_spring * grid.x**2,
                                          model, k=3)
        with pytest.raises(ReductionInvalidError):
            tunneling.two_level_reduction((res, res), lambda B: 0.0)

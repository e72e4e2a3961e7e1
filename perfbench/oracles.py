"""Reference computations made apart from vortexlab, and the output checks.

Nothing here imports vortexlab: every expected value is rebuilt from the
physics with numpy and scipy, so a change to the program cannot move the
reference along with the output it is checked against. Each check_* function
returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

# SI values, the same CODATA set vortexlab.constants uses
H = 6.62607015e-34
HBAR = H / (2.0 * math.pi)
E_CHARGE = 1.602176634e-19
PHI0 = H / (2.0 * E_CHARGE)
MU0 = 1.25663706212e-6

# fit-spectrum parameters must lie within this many standard errors of the
# generator, as in acceptance criterion 05
FIT_N_SIGMA = 3.0


# ---------------------------------------------------------------------------
# file helpers
# ---------------------------------------------------------------------------

def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV file, cells as strings."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return [], []
    return rows[0], rows[1:]


def _floats(rows, col: int) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


# ---------------------------------------------------------------------------
# quantum Rabi model
# ---------------------------------------------------------------------------

def rabi_levels(f_r: float, g: float, gamma: float, B0: float, f_q0: float,
                B: float, n_fock: int, k: int = 4) -> np.ndarray:
    """Lowest k levels (Hz) of the asymmetric Rabi Hamiltonian.

    H/h = f_r (n + 1/2) + g (a + a^dag) sx + (f_q0 sz - gamma (B - B0) sx) / 2,
    the field in the x-z plane as for theta = phi = 90 degrees; real
    symmetric, so numpy.linalg.eigvalsh solves it directly.
    """
    nosc = n_fock + 1
    n = np.arange(nosc, dtype=float)
    x = np.diag(np.sqrt(n[1:]), 1)
    x = x + x.T
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    spin = 0.5 * (f_q0 * sz - gamma * (B - B0) * sx)
    Hm = (f_r * np.kron(np.diag(n + 0.5), np.eye(2)) + g * np.kron(x, sx)
          + np.kron(np.eye(nosc), spin))
    return np.linalg.eigvalsh(Hm)[:k]


def rabi_transitions(params: dict, B: float, n_fock: int):
    """(f_q, f_r_g, f_r_e) = (E1-E0, E2-E0, E3-E1) in Hz.

    This ordering of the dressed levels holds while the qubit sits below
    the resonator by several couplings, which every generated field keeps.
    """
    E = rabi_levels(params["f_r"], params["g"], params["gamma"],
                    params["B0"], params["f_q0"], B, n_fock)
    return E[1] - E[0], E[2] - E[0], E[3] - E[1]


# ---------------------------------------------------------------------------
# finite-difference Schrodinger reference
# ---------------------------------------------------------------------------

def pinned_landscape(x: np.ndarray, B: float, device: dict,
                     sites: list[dict]) -> np.ndarray:
    """Single-vortex Gibbs energy across the strip minus the pinning dips (J).

    G(x) = eps0 ln(1 + (2w / pi xi) sin(pi x / w)) - Phi0 B x (w - x) / (mu0 Lambda)
    with eps0 = Phi0^2 / (2 pi mu0 Lambda) and Lambda = 2 lambda_L^2 / t;
    each site subtracts V / (1 + ((x - x_i)^2 + y_i^2) / sigma^2).
    """
    w, xi = device["w"], device["xi"]
    Lam = 2.0 * device["lambda_L"] ** 2 / device["t"]
    eps0 = PHI0**2 / (2.0 * math.pi * MU0 * Lam)
    G = (eps0 * np.log1p(2.0 * w / (math.pi * xi) * np.sin(math.pi * x / w))
         - PHI0 * B / (MU0 * Lam) * x * (w - x))
    for s in sites:
        G = G - s["V"] / (1.0 + ((x - s["x"]) ** 2 + s["y"] ** 2) / s["sigma"] ** 2)
    return G


def tridiagonal_levels(V: np.ndarray, dx: float, kinetic: float,
                       k: int) -> np.ndarray:
    """Lowest k eigenvalues of -kinetic d2/dx2 + V with Dirichlet ends."""
    from scipy.linalg import eigh_tridiagonal
    d = V + 2.0 * kinetic / dx**2
    e = np.full(V.size - 1, -kinetic / dx**2)
    return eigh_tridiagonal(d, e, eigvals_only=True, select="i",
                            select_range=(0, k - 1))


def tunnel_reference(setup: dict) -> tuple[np.ndarray, np.ndarray]:
    """(E0, E1) in Hz per field of the generated tunnel sweep."""
    grid = np.linspace(setup["x_min"], setup["x_max"], setup["grid_points"])
    dx = grid[1] - grid[0]
    site = setup["sites"][0]
    y_zpf = setup["y_zpf"]
    Omega = 4.0 * site["V"] * y_zpf**2 / (HBAR * site["sigma"] ** 2)
    kinetic = HBAR * Omega * y_zpf**2
    E0, E1 = [], []
    for B in setup["fields"]:
        V = pinned_landscape(grid, B, setup["device"], setup["sites"])
        E = tridiagonal_levels(V, dx, kinetic, 2)
        E0.append(E[0] / H)
        E1.append(E[1] / H)
    return np.array(E0), np.array(E1)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _rel(a, b) -> np.ndarray:
    a, b = np.asarray(a, float), np.asarray(b, float)
    return np.abs(a - b) / np.maximum(np.abs(b), 1e-300)


def check_tunnel(out_dir: Path, setup: dict) -> list[str]:
    header, rows = read_table(out_dir / "tunnel.csv")
    if header != ["B_uT", "f_q_GHz", "E0_GHz", "E1_GHz"]:
        return [f"tunnel.csv header {header}"]
    if len(rows) != len(setup["fields"]):
        return [f"tunnel.csv has {len(rows)} rows, expected {len(setup['fields'])}"]
    E0_ref, E1_ref = tunnel_reference(setup)
    problems = []
    for name, col, ref in (("E0", 2, E0_ref), ("E1", 3, E1_ref)):
        err = float(_rel(_floats(rows, col) * 1e9, ref).max())
        if err > 1e-9:
            problems.append(f"tunnel.csv {name} off the tridiagonal oracle by {err:.2e}")
    summary = json.loads((out_dir / "tunnel_summary.json").read_text())
    expected = setup["fields"][int(np.argmin(E1_ref - E0_ref))] * 1e6
    if abs(summary["sweet_spot_B_uT"] - expected) > 1e-9 * max(1.0, abs(expected)):
        problems.append(f"sweet spot {summary['sweet_spot_B_uT']} uT, oracle {expected} uT")
    return problems


def check_schrodinger_2d(energies_hz: list[float], setup: dict) -> list[str]:
    """Separable potential: 2D levels are sorted sums of the 1D levels."""
    k = len(energies_hz)
    ex = tridiagonal_levels(np.asarray(setup["Vx"]), setup["dx"],
                            setup["kinetic"], k)
    ey = tridiagonal_levels(np.asarray(setup["Vy"]), setup["dy"],
                            setup["kinetic"], k)
    expected = np.sort(np.add.outer(ex, ey).ravel())[:k] / H
    err = float(_rel(energies_hz, expected).max())
    if err > 1e-7:
        return [f"2D energies off the separable oracle by {err:.2e}"]
    return []


def check_gamma_map(out_dir: Path, setup: dict) -> list[str]:
    header, rows = read_table(out_dir / "gamma_map.csv")
    if header != ["x_bar_um", "delta_LR_nm", "gamma_GHz_per_mT"]:
        return [f"gamma_map.csv header {header}"]
    n = setup["n_delta"] * setup["n_xbar"]
    if len(rows) != n:
        return [f"gamma_map.csv has {len(rows)} rows, expected {n}"]
    dev = setup["device"]
    Lam = 2.0 * dev["lambda_L"] ** 2 / dev["t"]
    x_bar = _floats(rows, 0) * 1e-6
    delta = _floats(rows, 1) * 1e-9
    expected = PHI0 * np.abs(delta * (2.0 * x_bar - dev["w"])) / (H * MU0 * Lam)
    got = _floats(rows, 2) * 1e12
    err = float((np.abs(got - expected) / np.maximum(expected.max(), 1e-300)).max())
    if err > 1e-9:
        return [f"gamma_map.csv off the closed form by {err:.2e}"]
    return []


def check_chi(out_dir: Path, setup: dict) -> list[str]:
    header, rows = read_table(out_dir / "chi.csv")
    if header != ["B_uT", "f_q_GHz", "f_r_g_GHz", "f_r_e_GHz", "chi_MHz"]:
        return [f"chi.csv header {header}"]
    fields = setup["fields"]
    if len(rows) != len(fields):
        return [f"chi.csv has {len(rows)} rows, expected {len(fields)}"]
    gaps = sum(1 for r in rows if any(c == "" for c in r))
    if gaps:
        return [f"chi.csv has {gaps} rows with empty cells"]
    data = np.array([[float(c) for c in r] for r in rows])
    problems = []
    # mirror symmetry about B0: row i pairs with row n-1-i
    mirror = data[::-1]
    for j, name in ((1, "f_q"), (2, "f_r_g"), (3, "f_r_e")):
        err = float(_rel(data[:, j], mirror[:, j]).max())
        if err > 1e-9:
            problems.append(f"chi.csv {name} not mirror-symmetric about B0 ({err:.2e})")
    chi_err = float((np.abs(data[:, 4] - mirror[:, 4])
                     / np.abs(data[:, 4]).max()).max())
    if chi_err > 1e-6:
        problems.append(f"chi.csv chi not mirror-symmetric about B0 ({chi_err:.2e})")
    for i in setup["oracle_rows"]:
        ref = np.array(rabi_transitions(setup["params"], fields[i],
                                        setup["n_fock"])) / 1e9
        err = float(_rel(data[i, 1:4], ref).max())
        if err > 1e-9:
            problems.append(f"chi.csv row {i} off the Rabi oracle by {err:.2e}")
            break
    return problems


def check_fit_spectrum(out_dir: Path, fit: dict) -> list[str]:
    """Converged, and every parameter within FIT_N_SIGMA standard errors of
    the generator (noisy data) or within 0.1% of it (noiseless data)."""
    payload = json.loads((out_dir / "fit_spectrum.json").read_text())
    if payload.get("converged") is not True:
        return [f"fit-spectrum did not converge: {payload.get('message')}"]
    problems = []
    for name, value in fit["truth"].items():
        got = payload["params"][name]
        if not fit["noisy"]:
            if abs(got - value) > 1e-3 * abs(value):
                problems.append(f"fit-spectrum {name} = {got}, generator {value}")
            continue
        se = payload["std_errors"][name]
        if se is None or not math.isfinite(se) or se <= 0:
            problems.append(f"fit-spectrum {name} has no standard error")
        elif abs(got - value) > FIT_N_SIGMA * se:
            problems.append(f"fit-spectrum {name} = {got}, generator {value}, "
                            f"{abs(got - value) / se:.1f} standard errors")
    return problems


def check_batch_fit(out_dir: Path, truths: dict) -> list[str]:
    header, rows = read_table(out_dir / "batch_fit.csv")
    if header[:8] != ["dataset", "phi_over_phi_S", "f_q0_GHz", "B0_uT",
                      "gamma_GHz_per_mT", "g_MHz", "converged", "error"]:
        return [f"batch_fit.csv header {header}"]
    if len(rows) != len(truths):
        return [f"batch_fit.csv has {len(rows)} rows, expected {len(truths)}"]
    problems = []
    for r in rows:
        truth = truths.get(r[0])
        if truth is None:
            problems.append(f"batch_fit.csv row for unknown dataset {r[0]}")
            continue
        if r[6] != "True" or r[7] != "":
            problems.append(f"batch_fit.csv {r[0]}: converged={r[6]} error={r[7]!r}")
            continue
        for col, key in ((2, "f_q0_GHz"), (3, "B0_uT"), (4, "gamma_GHz_per_mT")):
            if abs(float(r[col]) - truth[key]) > truth["tol_" + key]:
                problems.append(f"batch_fit.csv {r[0]}: {key} = {r[col]}, "
                                f"generator {truth[key]}")
    return problems[:5]


def check_trajectory(out_dir: Path, duration_s: float, spacing_us: float) -> list[str]:
    expected = int(math.floor(duration_s / (spacing_us * 1e-6) + 1e-9))
    with open(out_dir / "trajectory.csv", "rb") as fh:
        lines = sum(1 for line in fh if line.strip())
    if lines - 1 != expected:
        return [f"trajectory.csv has {lines - 1} rows, expected {expected}"]
    return []


def check_jumps_analysis(out_dir: Path, jumps: dict) -> list[str]:
    """T_up and P_e against the configured telegraph process.

    T_up must lie within 10% and P_e within 0.02 on a 2.5 s record (the
    example's 500k shots); both bands widen as 1/sqrt(duration) for shorter
    records, like the statistical error.
    T_down and T1 are only required to be positive: the analysis
    underestimates T_down by about 7% (up to 10% on some seeds), so a 10%
    band on it would fail by chance (see README.md).
    """
    payload = json.loads((out_dir / "jumps_analysis.json").read_text())
    T_up, T_down = jumps["T_up_us"], jumps["T_down_us"]
    widen = math.sqrt(2.5 / jumps["duration_s"])
    problems = []
    if abs(payload["T_up_us"] - T_up) > 0.10 * widen * T_up:
        problems.append(f"jumps_analysis T_up_us = {payload['T_up_us']:.1f}, "
                        f"configured {T_up:.1f}")
    for key in ("T_down_us", "T1_us"):
        if not (math.isfinite(payload[key]) and payload[key] > 0):
            problems.append(f"jumps_analysis {key} = {payload[key]}")
    p_ref = T_down / (T_up + T_down)
    if abs(payload["P_e"] - p_ref) > 0.02 * widen:
        problems.append(f"jumps_analysis P_e = {payload['P_e']:.4f}, "
                        f"expected {p_ref:.4f}")
    return problems

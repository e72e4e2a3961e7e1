"""Seeded inputs for every workload, written as the files the CLI reads.

The configs are configs/example.ini with only the sweep, the jumps duration
and the seed changed; the spectral datasets come from the generator
parameters below plus seeded Gaussian noise. The same seed always gives the
same files. Run as a script to regenerate every input of one workload:

    python3 perfbench/inputs.py --workload spectroscopy --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
from pathlib import Path

import numpy as np

import oracles

EXAMPLE_INI = Path(__file__).resolve().parent.parent / "configs" / "example.ini"

# fit-spectrum runs on criterion 05's own noisy dataset (tests/test_acceptance.py):
# the asymmetric Rabi model at n_fock = 24, 13 qubit points over B0 +- 150 uT
# with 5% noise and 11 resonator points over B0 +- 250 uT with 5e-4 noise,
# drawn from numpy's generator seeded with 17. It does not follow the
# workload seed: on other draws the fit without -c fails to converge on
# about one seed in six, and its iteration count, and so its time, follows
# the draw and even the order of the points (see README.md).
FIT_TRUTH = {"f_r": 7.572e9, "g": 92.5e6, "gamma": 20e12, "B0": 128e-6,
             "f_q0": 2e9}
FIT_N_FOCK = 24
FIT_NOISE_SEED = 17
FIT_QUBIT_NOISE = 0.05
FIT_RESONATOR_NOISE = 5e-4

# batch-fit hyperbolas: f = sqrt(f_q0^2 + gamma^2 (B - B0)^2) on 25 fields
# over B0 +- 300 uT, with 1% noise and sigma = the noise level
HYPERBOLA_POINTS = 25
HYPERBOLA_NOISE = 0.01
# a batch-fit parameter may sit this many noise-implied standard errors
# from its generator
HYPERBOLA_TOL_SIGMA = 6.0

# Sizes per operation. A workload runs its own operations at "full" size,
# the others at "light" size, because every run reports every end-to-end
# metric. See README.md.
SIZES = {
    "tunnel_fields": {"full": 2, "light": 1},
    "tunnel_grid_points": {"full": 1024, "light": 256},
    "schrodinger_2d_n": {"full": 96, "light": 64},
    "chi_fields": {"full": 101, "light": 11},
    "chi_half_width_uT": {"full": 200.0, "light": 150.0},
    "batch_files": {"full": 200, "light": 20},
    "gamma_map_grid": {"full": 200, "light": 50},
    "jumps_duration_s": {"full": 0.3, "light": 0.1},
}

OWN = {
    "landscape-tunnel": {"tunnel", "gamma-map", "schrodinger-2d",
                         "synth-jumps", "analyze-jumps"},
    "spectroscopy": {"chi", "fit-spectrum", "batch-fit"},
}
WORKLOADS = tuple(OWN)


def _size(workload: str, key: str, op: str):
    return SIZES[key]["full" if op in OWN[workload] else "light"]


def _example() -> configparser.ConfigParser:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    cp.optionxform = str
    if not cp.read(EXAMPLE_INI, encoding="utf-8"):
        raise FileNotFoundError(f"missing {EXAMPLE_INI}")
    return cp


def _write_ini(cp: configparser.ConfigParser, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        cp.write(fh)


def _device(cp) -> dict:
    d = cp["device"]
    return {"w": float(d["w_um"]) * 1e-6, "t": float(d["t_nm"]) * 1e-9,
            "xi": float(d["xi_nm"]) * 1e-9,
            "lambda_L": float(d["lambda_L_um"]) * 1e-6}


def _sites(cp) -> list[dict]:
    p = cp["pinning"]
    out = []
    for i in (1, 2):
        out.append({"x": float(p[f"site{i}_x_nm"]) * 1e-9,
                    "y": float(p[f"site{i}_y_nm"]) * 1e-9,
                    "V": float(p[f"site{i}_V_GHz"]) * 1e9 * oracles.H,
                    "sigma": float(p[f"site{i}_sigma_nm"]) * 1e-9})
    return out


def _sweep(cp, lo_uT: float, hi_uT: float, n: int) -> np.ndarray:
    cp["sweep"]["B_min_uT"] = repr(lo_uT)
    cp["sweep"]["B_max_uT"] = repr(hi_uT)
    cp["sweep"]["n_points"] = str(n)
    return np.linspace(lo_uT * 1e-6, hi_uT * 1e-6, n)


def _write_points(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("B_uT,f_GHz,sigma_GHz\n")
        for B, f, s in rows:
            fh.write(f"{float(B) * 1e6!r},{float(f) / 1e9!r},{float(s) / 1e9!r}\n")


def make_tunnel(workload: str, rng, out: Path) -> dict:
    """Example double well; the sweep window is shifted by a seeded offset.

    The light size solves one field on a 256-point grid instead of the
    example's 1024 points."""
    cp = _example()
    n = _size(workload, "tunnel_fields", "tunnel")
    cp["tunneling"]["grid_points"] = str(_size(workload, "tunnel_grid_points", "tunnel"))
    shift = float(rng.uniform(-5.0, 5.0))
    lo, hi = -22.0 + shift, 278.0 + shift
    if n == 1:
        lo = hi = 128.0 + shift
    fields = _sweep(cp, lo, hi, n)
    _write_ini(cp, out / "tunnel.ini")
    t = cp["tunneling"]
    return {"config": "tunnel.ini", "fields": fields.tolist(),
            "grid_points": int(t["grid_points"]),
            "x_min": float(t["x_min_nm"]) * 1e-9,
            "x_max": float(t["x_max_nm"]) * 1e-9,
            "y_zpf": float(t["y_zpf_nm"]) * 1e-9,
            "device": _device(cp), "sites": _sites(cp)}


def make_gamma_map(workload: str, out: Path) -> dict:
    """gamma-map on the example device, with its default 200 x 200 grid; the
    light size passes a 50 x 50 grid on the command line."""
    cp = _example()
    _write_ini(cp, out / "example.ini")
    n = _size(workload, "gamma_map_grid", "gamma-map")
    args = [] if n == 200 else ["--n-delta", str(n), "--n-xbar", str(n)]
    return {"config": "example.ini", "args": args, "n_delta": n, "n_xbar": n,
            "device": _device(cp)}


def make_schrodinger_2d(workload: str, rng) -> dict:
    """Separable potential: a tilted quartic double well along x, harmonic along y.

    The kinetic scale is criterion 06's (y_zpf = 4 nm, Omega = 2 pi 30 GHz);
    wells sit at +-15 nm under a 60 GHz barrier with a seeded 2-6 GHz tilt.
    """
    n = _size(workload, "schrodinger_2d_n", "schrodinger-2d")
    y_zpf, Omega = 4e-9, 2.0 * math.pi * 30e9
    mass = oracles.HBAR / (2.0 * y_zpf**2 * Omega)
    ghz = oracles.H * 1e9
    x = np.linspace(-40e-9, 40e-9, n)
    y = np.linspace(-30e-9, 30e-9, n)
    tilt = float(rng.uniform(2.0, 6.0)) * ghz
    Vx = 60.0 * ghz * ((x / 15e-9) ** 2 - 1.0) ** 2 + tilt * x / 30e-9
    Vy = 0.5 * mass * Omega**2 * y**2
    return {"n": n, "x": [x[0], x[-1]], "y": [y[0], y[-1]],
            "dx": x[1] - x[0], "dy": y[1] - y[0], "y_zpf": y_zpf,
            "Omega": Omega, "kinetic": oracles.HBAR * Omega * y_zpf**2,
            "Vx": Vx.tolist(), "Vy": Vy.tolist(), "k": 3}


def make_chi(workload: str, rng, out: Path) -> dict:
    """Dense sweep symmetric about B0 at the example n_fock = 60."""
    cp = _example()
    n = _size(workload, "chi_fields", "chi")
    half = _size(workload, "chi_half_width_uT", "chi")
    B0_uT = float(cp["qrm"]["B0_uT"])
    half = half - float(rng.uniform(0.0, 5.0))
    fields = _sweep(cp, B0_uT - half, B0_uT + half, n)
    _write_ini(cp, out / "chi.ini")
    q = cp["qrm"]
    params = {"f_r": float(q["f_r_GHz"]) * 1e9, "g": float(q["g_MHz"]) * 1e6,
              "gamma": float(q["gamma_GHz_per_mT"]) * 1e12,
              "B0": B0_uT * 1e-6, "f_q0": float(q["f_q0_GHz"]) * 1e9}
    oracle_rows = sorted({0, n - 1, n // 2} | set(
        int(i) for i in rng.integers(0, n, size=5)))
    return {"config": "chi.ini", "fields": fields.tolist(), "params": params,
            "n_fock": int(q["n_fock"]), "oracle_rows": oracle_rows}


def make_fit_spectrum(workload: str, out: Path) -> dict:
    """Criterion 05's noisy qubit and resonator points; the light size is
    its noiseless form on 5 + 5 fields, which the fit must recover to 0.1%."""
    B0 = FIT_TRUTH["B0"]
    noisy = "fit-spectrum" in OWN[workload]
    nq, nr = (13, 11) if noisy else (5, 5)
    fq = [(B, oracles.rabi_transitions(FIT_TRUTH, B, FIT_N_FOCK)[0])
          for B in B0 + np.linspace(-150e-6, 150e-6, nq)]
    fr = [(B, oracles.rabi_transitions(FIT_TRUTH, B, FIT_N_FOCK)[1])
          for B in B0 + np.linspace(-250e-6, 250e-6, nr)]
    if noisy:
        # same draw order as the acceptance test: all qubit points, then all
        # resonator points
        rng = np.random.default_rng(FIT_NOISE_SEED)
        qubit = [(B, f + rng.normal(0.0, FIT_QUBIT_NOISE * f), FIT_QUBIT_NOISE * f)
                 for B, f in fq]
        resonator = [(B, f + rng.normal(0.0, FIT_RESONATOR_NOISE * f),
                      FIT_RESONATOR_NOISE * f) for B, f in fr]
    else:
        qubit = [(B, f, 1e6) for B, f in fq]
        resonator = [(B, f, 0.2e6) for B, f in fr]
    _write_points(out / "qubit.csv", qubit)
    _write_points(out / "resonator.csv", resonator)
    truth = {"f_r_GHz": FIT_TRUTH["f_r"] / 1e9, "g_MHz": FIT_TRUTH["g"] / 1e6,
             "gamma_GHz_per_mT": FIT_TRUTH["gamma"] / 1e12,
             "B0_uT": FIT_TRUTH["B0"] * 1e6, "f_q0_GHz": FIT_TRUTH["f_q0"] / 1e9}
    return {"qubit": "qubit.csv", "resonator": "resonator.csv", "truth": truth,
            "noisy": noisy}


def _hyperbola_errors(B, f_q0, gamma, B0, sigma) -> np.ndarray:
    """Standard errors of (f_q0, gamma, B0) that the noise sigma implies,
    from the linearized covariance (J^T J)^-1 at the generator."""
    f = np.sqrt(f_q0**2 + (gamma * (B - B0)) ** 2)
    J = np.column_stack([f_q0 / f, gamma * (B - B0) ** 2 / f,
                         -gamma**2 * (B - B0) / f]) / sigma[:, None]
    return np.sqrt(np.diag(np.linalg.inv(J.T @ J)))


def make_batch_fit(workload: str, rng, out: Path) -> dict:
    """Random (f_q0, gamma, B0) hyperbolas, one CSV per dataset."""
    n = _size(workload, "batch_files", "batch-fit")
    directory = out / "spectra"
    directory.mkdir(exist_ok=True)
    truths = {}
    for i in range(n):
        f_q0 = rng.uniform(1.0e9, 4.0e9)
        gamma = rng.uniform(5e12, 30e12)
        B0 = rng.uniform(-100e-6, 200e-6)
        B = B0 + np.linspace(-300e-6, 300e-6, HYPERBOLA_POINTS)
        f = np.sqrt(f_q0**2 + (gamma * (B - B0)) ** 2)
        sigma = HYPERBOLA_NOISE * f
        f_noisy = f + rng.normal(0.0, sigma)
        name = f"spectrum_{i:03d}.csv"
        _write_points(directory / name, zip(B, f_noisy, sigma))
        tol = HYPERBOLA_TOL_SIGMA * _hyperbola_errors(B, f_q0, gamma, B0, sigma)
        truths[name] = {
            "f_q0_GHz": f_q0 / 1e9, "tol_f_q0_GHz": tol[0] / 1e9,
            "gamma_GHz_per_mT": gamma / 1e12, "tol_gamma_GHz_per_mT": tol[1] / 1e12,
            "B0_uT": B0 * 1e6, "tol_B0_uT": tol[2] * 1e6}
    return {"dir": "spectra", "truths": truths}


def make_jumps(workload: str, seed: int, out: Path) -> dict:
    """Example [jumps] section with the workload seed and duration."""
    cp = _example()
    duration = _size(workload, "jumps_duration_s", "synth-jumps")
    j = cp["jumps"]
    j["duration_s"] = repr(duration)
    j["seed"] = str(seed)
    _write_ini(cp, out / "jumps.ini")
    return {"config": "jumps.ini", "duration_s": duration,
            "spacing_us": float(j["spacing_us"]),
            "T_up_us": float(j["T_up_us"]), "T_down_us": float(j["T_down_us"])}


def make_inputs(workload: str, seed: int, out: Path) -> dict:
    """Write every input of one workload into out; return what checks need."""
    if workload not in OWN:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    setup = {
        "workload": workload, "seed": seed,
        "tunnel": make_tunnel(workload, rng, out),
        "gamma-map": make_gamma_map(workload, out),
        "schrodinger-2d": make_schrodinger_2d(workload, rng),
        "chi": make_chi(workload, rng, out),
        "fit-spectrum": make_fit_spectrum(workload, out),
        "batch-fit": make_batch_fit(workload, rng, out),
        "jumps": make_jumps(workload, seed, out),
    }
    (out / "setup.json").write_text(json.dumps(setup, indent=1), encoding="utf-8")
    return setup


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    make_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

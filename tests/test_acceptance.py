"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the lines as they
appear; every tolerance is hard-coded here, nothing is calibrated at run
time.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from vortexlab import cli, core, energetics, fitting, jumps, rabi, tunneling
from vortexlab.constants import CONSTANTS

H = CONSTANTS.h
HBAR = CONSTANTS.hbar

F_R, G, GAMMA, B0, F_Q0 = 7.572e9, 92.5e6, 20e12, 128e-6, 2e9


def report(number: int, description: str, checks: list[tuple[str, bool]],
           detail: str = ""):
    """Print exactly one line for the criterion, then assert every check."""
    failed = [name for name, ok in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"ACCEPTANCE {number:02d} {status} - {description}"
    if detail:
        line += f" [{detail}]"
    if failed:
        line += f" (failed: {', '.join(failed)})"
    print(line)
    assert not failed, line


def test_criterion_01_threshold_formula(device):
    scales = core.derive_scales(device)
    report(1, "stable-vortex threshold and field",
           [("phi_S = 3.57 +/- 0.01", abs(scales.phi_S - 3.57) <= 0.01),
            ("B_S within 1% of 820 uT",
             abs(scales.B_S - 820e-6) / 820e-6 <= 0.01)],
           detail=f"phi_S={scales.phi_S:.4f}, B_S={scales.B_S * 1e6:.1f} uT")


def test_criterion_02_esr_calibration():
    field = core.esr_field(7.627e9, 2.0)
    report(2, "electron-spin-resonance field",
           [("272.5 mT +/- 0.1%", abs(field - 272.5e-3) / 272.5e-3 <= 1e-3)],
           detail=f"B={field * 1e3:.2f} mT")


def test_criterion_03_aqrm_vs_sqrm():
    aqrm = rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0)
    sqrm = rabi.QrmParams.symmetric(F_R, G, GAMMA, B0, F_Q0)
    trunc = rabi.HilbertTruncation(60)
    t0 = time.time()
    fields = B0 + np.linspace(-150e-6, 150e-6, 100)
    chi_a = np.array([s.chi if s else math.nan
                      for s in rabi.sweep_field(aqrm, fields, trunc)])
    chi_s = np.array([s.chi if s else math.nan
                      for s in rabi.sweep_field(sqrm, fields, trunc)])
    elapsed = time.time() - t0

    chi_at_b0 = rabi.solve_qrm(aqrm, B0, trunc).chi

    def monotonic_in_detuning(chi):
        order = np.argsort(np.abs(fields - B0))
        seq = chi[order]
        seq = seq[~np.isnan(seq)]
        d = np.diff(seq)
        return bool(np.all(d >= -1e-3 * np.abs(seq[:-1]).max())
                    or np.all(d <= 1e-3 * np.abs(seq[:-1]).max()))

    checks = [
        ("chi(B0) < 0", chi_at_b0 < 0),
        ("chi(B0) within factor 2 of -1.32 MHz",
         0.5 <= abs(chi_at_b0) / 1.32e6 <= 2.0),
        ("SQRM chi monotonic in |B-B0| over +/-150 uT",
         monotonic_in_detuning(chi_s)),
        # With these parameters the exact AQRM chi(|B-B0|) turns around at
        # |B-B0| = 194 uT, outside this window, so the check below fails;
        # see the wide-window test in tests/test_rabi.py for the property.
        ("AQRM chi non-monotonic in |B-B0| over +/-150 uT",
         not monotonic_in_detuning(chi_a)),
        ("runtime < 1 min per 100-point sweep", elapsed < 2 * 60.0),
    ]
    report(3, "dispersive-shift model discrimination", checks,
           detail=f"model chi(B0)={chi_at_b0 / 1e6:.4f} MHz, "
                  f"AQRM turnaround outside window, {elapsed:.1f} s")


def test_criterion_04_perturbative_consistency():
    t0 = time.time()
    reduced = rabi.QrmParams.asymmetric(F_R, G / 10, GAMMA, B0, F_Q0)
    chi_ed = rabi.dispersive_shift(reduced, B0, rabi.HilbertTruncation(60))
    chi_pt = rabi.chi_perturbative(reduced, B0)
    rel = abs(chi_ed - chi_pt) / abs(chi_pt)

    trunc = rabi.HilbertTruncation(40)
    gs = np.array([1e6, 2e6, 4e6, 8e6])
    errs = []
    for g in gs:
        p = rabi.QrmParams.asymmetric(F_R, g, GAMMA, B0, 7.0e9)
        errs.append(abs(rabi.solve_qrm(p, B0, trunc).chi
                        - rabi.chi_perturbative(p, B0))
                    / abs(rabi.chi_perturbative(p, B0)))
    slope = float(np.polyfit(np.log(gs), np.log(errs), 1)[0])
    elapsed = time.time() - t0
    report(4, "perturbative cross-check of the dispersive shift",
           [("|chi_ED - chi_PT|/|chi_PT| < 1% at g/10", rel < 0.01),
            ("log-log error slope 2 +/- 0.2", abs(slope - 2.0) <= 0.2),
            ("runtime seconds", elapsed < 60.0)],
           detail=f"rel={rel:.2e}, slope={slope:.3f}")


def test_criterion_05_joint_fit_round_trip():
    t0 = time.time()
    trunc = rabi.HilbertTruncation(24)
    true = rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0)
    B_q = B0 + np.linspace(-150e-6, 150e-6, 13)
    B_r = B0 + np.linspace(-250e-6, 250e-6, 11)
    qpts = np.array([[B, rabi.solve_qrm(true, B, trunc).f_q_dressed, 1e6]
                     for B in B_q])
    rpts = np.array([[B, rabi.solve_qrm(true, B, trunc).f_r_g, 0.2e6]
                     for B in B_r])
    clean = fitting.fit_joint_aqrm(
        fitting.SpectrumDataset(qubit_points=qpts, resonator_points=rpts),
        None, trunc)
    truth = {"f_r": F_R, "g": G, "gamma": GAMMA, "B0": B0, "f_q0": F_Q0}
    clean_ok = all(abs(clean.params[k] - v) / v < 1e-3
                   for k, v in truth.items())

    rng = np.random.default_rng(17)
    qn = qpts.copy()
    qn[:, 1] += rng.normal(0, 0.05 * qn[:, 1])
    qn[:, 2] = 0.05 * qpts[:, 1]
    rn = rpts.copy()
    rn[:, 1] += rng.normal(0, 5e-4 * rn[:, 1])
    rn[:, 2] = 5e-4 * rpts[:, 1]
    noisy = fitting.fit_joint_aqrm(
        fitting.SpectrumDataset(qubit_points=qn, resonator_points=rn),
        None, trunc)
    noisy_ok = all(abs(noisy.params[k] - v) <= 3 * noisy.std_errors[k]
                   for k, v in truth.items())
    elapsed = time.time() - t0
    report(5, "joint spectrum fit recovers its generator",
           [("noiseless parameters to 0.1%", clean_ok and clean.converged),
            ("5% noise within 3 standard errors",
             noisy_ok and noisy.converged),
            ("runtime < 2 min", elapsed < 120.0)],
           detail=f"max rel dev {max(abs(clean.params[k] - v) / v for k, v in truth.items()):.1e}, "
                  f"{elapsed:.1f} s")


def test_criterion_06_schrodinger_oracle(device, scales):
    t0 = time.time()
    model = tunneling.TunnelModel(y_zpf=4e-9, Omega=2 * math.pi * 30e9)

    grid = tunneling.Grid(-50e-9, 50e-9, 1024)
    k_spring = model.mass * model.Omega**2
    res = tunneling.solve_schrodinger(grid, 0.5 * k_spring * grid.x**2,
                                      model, k=5)
    expected = (np.arange(5) + 0.5) * HBAR * model.Omega
    harmonic_ok = bool(np.all(np.abs(res.energies - expected)
                              / expected < 1e-4))

    x_bar, delta, sigma = 1.0e-6, 30e-9, 8e-9
    sites = [energetics.PinningSite(x_bar - delta / 2, 0.0, H * 40e9, sigma),
             energetics.PinningSite(x_bar + delta / 2, 0.0, H * 40e9, sigma)]
    B_star = energetics.degeneracy_field(x_bar, delta, scales, device)
    fields = B_star + np.linspace(-60e-6, 60e-6, 13)
    sweep = tunneling.spectrum_vs_field(sites, (x_bar - 120e-9, x_bar + 120e-9),
                                        fields, model, scales, device,
                                        grid_points=1024, k=3)
    i0 = sweep.sweet_spot_index
    eps = tunneling.double_well_asymmetry_model(x_bar, delta, scales, device,
                                                B_ref=sweep.sweet_spot_B)
    tl = tunneling.two_level_reduction((sweep.energies[i0], sweep.energies[0]),
                                       eps)
    devs = [abs(tl.omega_q(B) - om) / om
            for B, om in zip(sweep.fields, sweep.omega_q)
            if abs(eps(B)) <= 4 * tl.Delta]
    formula_ok = bool(devs) and max(devs) < 0.05

    gridp = tunneling.Grid(-60e-9, 60e-9, 1024)
    V0 = H * 30e9
    Vp = -V0 / (1 + (gridp.x - 15e-9) ** 2 / (6e-9) ** 2) \
        - V0 / (1 + (gridp.x + 15e-9) ** 2 / (6e-9) ** 2)
    rp = tunneling.solve_schrodinger(gridp, Vp, model, k=2)
    psi0, psi1 = rp.wavefunctions
    p0 = float((psi0 * psi0[::-1]).sum() * gridp.cell)
    p1 = float((psi1 * psi1[::-1]).sum() * gridp.cell)
    parity_ok = abs(p0 - 1.0) < 1e-6 and abs(p1 + 1.0) < 1e-6
    elapsed = time.time() - t0

    report(6, "grid Schrodinger solver against analytic oracles",
           [("harmonic levels to 1e-4 at 1024 points", harmonic_ok),
            ("double-well splitting matches sqrt(4 D^2 + eps^2) to 5%",
             formula_ok),
            ("degenerate-well parity to 1e-6", parity_ok),
            ("runtime < 1 min", elapsed < 60.0)],
           detail=f"max formula dev {max(devs):.3f}, {elapsed:.0f} s")


def test_criterion_07_gyromagnetic_band(device, scales):
    t0 = time.time()
    exact_zero = energetics.gamma_from_geometry(10e-9, device.w / 2, scales,
                                                device) == 0.0
    deltas = np.linspace(5e-9, 50e-9, 200)
    gammas = []
    for d in deltas:
        for x_bar in np.linspace(d, device.w - d, 200):
            gammas.append(energetics.gamma_from_geometry(d, x_bar, scales,
                                                         device))
    gammas = np.array(gammas)
    in_band = gammas[(gammas >= 3e12) & (gammas <= 25e12)]
    elapsed = time.time() - t0
    report(7, "double-well field dispersion map",
           [("gamma = 0 exactly at the strip center", exact_zero),
            ("band 3-25 GHz/mT populated", in_band.size > 0),
            ("band spanned", gammas.min() < 3e12 < 25e12 < gammas.max()),
            ("runtime seconds for a 200 x 200 map", elapsed < 60.0)],
           detail=f"map range {gammas.min() / 1e12:.2f}-"
                  f"{gammas.max() / 1e12:.0f} GHz/mT, {elapsed:.1f} s")


def test_criterion_08_pair_interaction(device, scales):
    t0 = time.time()
    w = device.w
    rng = np.random.default_rng(12)
    non_negative = True
    for _ in range(10_000):
        x1, x2 = rng.uniform(0.02 * w, 0.98 * w, 2)
        y1 = rng.uniform(0, 5 * w)
        y2 = y1 + rng.uniform(0.01 * w, 5 * w)
        if energetics.gibbs_pair((x1, y1), (x2, y2), scales, device) < 0:
            non_negative = False
            break

    edge = abs(energetics.gibbs_pair((1e-12, 0.0), (w / 2, w), scales, device))
    edge_ok = edge < 1e-5 * scales.eps0

    a = energetics.gibbs_pair((0.3 * w, 0.0), (0.6 * w, 1.7 * w), scales,
                              device)
    b = energetics.gibbs_pair((0.6 * w, 1.7 * w), (0.3 * w, 0.0), scales,
                              device)
    exchange_ok = abs(a - b) <= 1e-12 * abs(a)

    far = energetics.pair_coupling(
        energetics.VortexPair((w / 2, 0.0), (w / 2, 8 * w), 10e-9),
        scales, device)
    hess = far.hessian
    only_yy = all(abs(hess[i, j]) < 1e-10 * abs(hess[1, 1])
                  for i, j in ((0, 0), (0, 1), (1, 0)))

    near = energetics.pair_coupling(
        energetics.VortexPair((w / 2, 0.0), (w / 2, w), 10e-9), scales, device)
    coupling_hz = near.energy_scale / H
    weak_ok = coupling_hz * 10 <= 12.5e9
    elapsed = time.time() - t0
    report(8, "two-vortex interaction properties",
           [("repulsive over 1e4 random configurations", non_negative),
            ("vanishes at the strip edge", edge_ok),
            ("exchange symmetric", exchange_ok),
            ("central-axis Hessian has only a yy component", only_yy),
            ("coupling at one-width separation 10x below 12.5 GHz", weak_ok),
            ("runtime seconds", elapsed < 60.0)],
           detail=f"coupling/h = {coupling_hz / 1e6:.1f} MHz, {elapsed:.1f} s")


def test_criterion_09_coupling_estimate():
    values = {}
    ok = True
    for y_nm in np.linspace(1.0, 10.0, 10):
        ratio = energetics.coupling_estimate(
            energetics.CouplingEstimateInput(Z_r=3e3, w=3e-6, t=24e-9,
                                             lambda_L=4e-6,
                                             y_zpf=y_nm * 1e-9))
        values[y_nm] = ratio
        # within a factor 2 of the 0.1-1% band
        ok = ok and (0.05e-2 <= ratio <= 2e-2)
    report(9, "kinetic-inductance coupling ratio",
           [("within factor 2 of the 0.1-1% band over 1-10 nm", ok)],
           detail=f"g/w_r = {values[10.0] * 100:.4f}% at 10 nm to "
                  f"{values[1.0] * 100:.4f}% at 1 nm")


def test_criterion_10_quantum_jump_round_trip():
    t0 = time.time()
    tg = jumps.TelegraphParams(T_up=570e-6, T_down=135e-6)
    ro = jumps.ReadoutModel(center_g=0j, center_e=6 + 0j, sigma_cloud=1.0,
                            spacing=5e-6)
    traj = jumps.simulate_trajectory(tg, ro, duration=2.5, seed=42)
    n_shots = traj.times.size
    assigned = jumps.latching_filter(traj, ro, n_sigma=1.5)
    stats = jumps.dwell_statistics(assigned, ro.spacing)
    rel = abs(stats.T1_hat - 110e-6) / 110e-6
    elapsed = time.time() - t0
    report(10, "telegraph record round trip through the latching filter",
           [(">= 5e5 shots", n_shots >= 5e5),
            ("T1 within 10% of 110 us", rel <= 0.10),
            ("runtime < 5 min", elapsed < 300.0)],
           detail=f"T1_hat = {stats.T1_hat * 1e6:.1f} us from {n_shots} "
                  f"shots, {elapsed:.1f} s")


def test_criterion_11_coherence_fit_round_trips():
    t = np.linspace(0, 1e-3, 120)
    decay = fitting.fit_exponential(fitting.TimeTrace(
        times=t, values=0.9 * np.exp(-t / 186e-6) + 0.05))
    t1_ok = abs(decay.params["T"] - 186e-6) / 186e-6 < 0.02

    te = np.linspace(0, 6e-6, 90)
    echo = fitting.fit_exponential(fitting.TimeTrace(
        times=te, values=0.5 * np.exp(-te / 1.2e-6) + 0.05))
    echo_ok = abs(echo.params["T"] - 1.2e-6) / 1.2e-6 < 0.02

    tr = np.linspace(0, 2e-6, 300)
    v = np.exp(-tr / 440e-9) * (0.4 * np.cos(2 * np.pi * 5e6 * tr + 0.3)
                                + 0.4 * np.cos(2 * np.pi * 7e6 * tr - 0.2)) \
        + 0.5
    ramsey = fitting.fit_ramsey_beat(fitting.TimeTrace(times=tr, values=v))
    t2s_ok = abs(ramsey.params["T2s"] - 440e-9) / 440e-9 < 0.02
    beat_ok = abs(ramsey.params["f_beat"] - 2e6) / 2e6 < 0.02

    report(11, "coherence-time fitters on noiseless synthetic traces",
           [("T1 = 186 us within 2%", t1_ok),
            ("T2echo = 1.2 us within 2%", echo_ok),
            ("T2* = 440 ns within 2%", t2s_ok),
            ("beat = 2 MHz within 2%", beat_ok)])


def test_criterion_12_thermal_consistency():
    T = jumps.effective_temperature(0.215, 2e9)
    report(12, "effective temperature from the Boltzmann relation",
           [("74 mK +/- 1 mK", abs(T - 74e-3) <= 1e-3)],
           detail=f"T_eff = {T * 1e3:.2f} mK")


def test_criterion_13_cli_determinism(tmp_path):
    t0 = time.time()
    conf = tmp_path / "c.ini"
    conf.write_text(Path("configs/example.ini").read_text()
                    .replace("duration_s = 2.5", "duration_s = 0.2")
                    .replace("n_points = 41", "n_points = 7"))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["synth-jumps", "-c", str(conf), "-o", str(out)]) == 0
        assert cli.main(["chi", "-c", str(conf), "-o", str(out)]) == 0
        digests.append(((out / "trajectory.csv").read_bytes(),
                        (out / "chi.csv").read_bytes()))
    elapsed = time.time() - t0
    report(13, "repeated CLI runs are byte-identical at fixed seed",
           [("trajectory.csv identical", digests[0][0] == digests[1][0]),
            ("chi.csv identical", digests[0][1] == digests[1][1]),
            ("runtime seconds", elapsed < 120.0)],
           detail=f"{elapsed:.1f} s")

import math
import multiprocessing
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from vortexlab import rabi
from vortexlab.constants import CONSTANTS
from vortexlab.errors import (AmbiguousLabelingError, DivergenceError,
                              InvalidOrientationError, InvalidParameterError)

F_R = 7.572e9
G = 92.5e6
GAMMA = 20e12       # 20 GHz/mT
B0 = 128e-6
F_Q0 = 2e9


@pytest.fixture(scope="module")
def aqrm():
    return rabi.QrmParams.asymmetric(F_R, G, GAMMA, B0, F_Q0)


@pytest.fixture(scope="module")
def sqrm():
    return rabi.QrmParams.symmetric(F_R, G, GAMMA, B0, F_Q0)


@pytest.fixture(scope="module")
def trunc():
    return rabi.HilbertTruncation(60)


class TestParams:
    def test_orientation_admissible_any_theta_phi_zero(self):
        rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=0.7, phi=0.0)

    def test_orientation_rejected(self):
        with pytest.raises(InvalidOrientationError):
            rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=0.7, phi=0.3)

    def test_orientation_phi_range(self):
        with pytest.raises(InvalidOrientationError):
            rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=math.pi / 2,
                           phi=math.pi)

    def test_negative_coupling_rejected(self):
        with pytest.raises(InvalidParameterError):
            rabi.QrmParams(F_R, -1.0, GAMMA, B0, F_Q0)

    def test_truncation_dimension(self):
        assert rabi.HilbertTruncation(60).dim == 122
        with pytest.raises(InvalidParameterError):
            rabi.HilbertTruncation(1)


class TestBuildHamiltonian:
    def test_hermitian(self, aqrm, trunc):
        H = rabi.build_hamiltonian(aqrm, 2e-4, trunc)
        scale = np.abs(H).max()
        assert np.abs(H - H.conj().T).max() <= 1e-12 * scale

    def test_hermitian_random_orientations(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            if rng.random() < 0.5:
                theta, phi = rng.uniform(0, math.pi), 0.0
            else:
                theta = rng.choice([0.0, math.pi / 2])
                phi = rng.uniform(0, math.pi * 0.999)
            p = rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=float(theta),
                               phi=float(phi))
            H = rabi.build_hamiltonian(p, float(rng.uniform(-1e-3, 1e-3)),
                                       rabi.HilbertTruncation(12))
            assert np.abs(H - H.conj().T).max() <= 1e-12 * np.abs(H).max()

    def test_decoupled_eigenvalues_exact(self):
        p = rabi.QrmParams.asymmetric(F_R, 0.0, GAMMA, B0, F_Q0)
        tr = rabi.HilbertTruncation(10)
        B = 3e-4
        H = rabi.build_hamiltonian(p, B, tr)
        evals = np.linalg.eigvalsh(H)
        f_q = rabi.qubit_frequency(p, B)
        bare = np.sort([CONSTANTS.h * (F_R * (n + 0.5) + s * f_q / 2)
                        for n in range(11) for s in (-1, 1)])
        assert np.allclose(evals, bare, rtol=1e-12, atol=0)

    def test_level_repulsion_at_sweet_spot(self, aqrm):
        bare_ground = CONSTANTS.h * (F_R / 2 - F_Q0 / 2)
        for n_fock in (40, 80):
            H = rabi.build_hamiltonian(aqrm, B0, rabi.HilbertTruncation(n_fock))
            e0 = np.linalg.eigvalsh(H)[0]
            assert e0 < bare_ground

    def test_sqrm_matches_literal_form(self, sqrm, trunc):
        # spin term sigma_z sqrt(f_q0^2 + (gamma B')^2)/2 gives the same
        # spectrum as the (pi/2, 0) parametrization
        B = 1.9e-4
        nosc = trunc.n_fock + 1
        idx = np.arange(nosc)
        a = np.diag(np.sqrt(idx[1:].astype(float)), k=1)
        sx = np.array([[0.0, 1.0], [1.0, 0.0]])
        sz = np.diag([1.0, -1.0])
        f_q = rabi.qubit_frequency(sqrm, B)
        H_lit = CONSTANTS.h * (F_R * np.kron(np.diag(idx + 0.5), np.eye(2))
                               + G * np.kron(a + a.T, sx)
                               + 0.5 * f_q * np.kron(np.eye(nosc), sz))
        ev_lit = np.linalg.eigvalsh(H_lit)
        ev = np.linalg.eigvalsh(rabi.build_hamiltonian(sqrm, B, trunc))
        assert np.max(np.abs(ev - ev_lit) / np.abs(ev_lit)) < 1e-12

    def test_mirror_symmetry_eigenvalues(self, trunc):
        orientations = [(math.pi / 2, math.pi / 2), (math.pi / 2, 0.0),
                        (0.0, math.pi / 3), (0.3, 0.0), (math.pi / 2, 1.0)]
        for theta, phi in orientations:
            p = rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=theta, phi=phi)
            for dB in (37e-6, 140e-6):
                e_plus = np.linalg.eigvalsh(
                    rabi.build_hamiltonian(p, B0 + dB, trunc))
                e_minus = np.linalg.eigvalsh(
                    rabi.build_hamiltonian(p, B0 - dB, trunc))
                assert np.max(np.abs(e_plus - e_minus) / np.abs(e_minus)) < 1e-10

    def test_aqrm_sqrm_agree_at_sweet_spot(self, aqrm, sqrm, trunc):
        e_a = np.linalg.eigvalsh(rabi.build_hamiltonian(aqrm, B0, trunc))
        e_s = np.linalg.eigvalsh(rabi.build_hamiltonian(sqrm, B0, trunc))
        assert np.max(np.abs(e_a - e_s) / np.abs(e_s)) < 1e-10


class TestSolveQrm:
    def test_decoupled_labels_exact(self):
        p = rabi.QrmParams.asymmetric(F_R, 0.0, GAMMA, B0, F_Q0)
        spec = rabi.solve_qrm(p, B0, rabi.HilbertTruncation(8))
        assert spec.f_q_dressed == pytest.approx(F_Q0, rel=1e-12, abs=0)
        assert spec.f_r_g == pytest.approx(F_R, rel=1e-12, abs=0)
        assert spec.f_r_e == pytest.approx(F_R, rel=1e-12, abs=0)
        # (g,0), (e,0), (g,1) and (e,1) are the bare basis states 2 n + s,
        # s = 1 the lower spin state
        weights = spec.vectors**2
        assert np.all(weights[[1, 0, 3, 2], range(4)] >= 1.0 - 1e-12)

    def test_resonator_branches_near_bare(self, aqrm, trunc):
        spec = rabi.solve_qrm(aqrm, B0, trunc)
        assert spec.f_r_g != spec.f_r_e
        assert abs(spec.f_r_g - F_R) < 5e6
        assert abs(spec.f_r_e - F_R) < 5e6

    def test_truncation_convergence(self, aqrm):
        f40 = rabi.solve_qrm(aqrm, B0, rabi.HilbertTruncation(40)).f_q_dressed
        f80 = rabi.solve_qrm(aqrm, B0, rabi.HilbertTruncation(80)).f_q_dressed
        assert abs(f40 - f80) < 1e3

    def test_labeling_fails_at_resonance(self, aqrm, trunc):
        B_cross = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA
        with pytest.raises(AmbiguousLabelingError) as err:
            rabi.solve_qrm(aqrm, B_cross, trunc)
        # the four transition states' weights in every eigenstate
        assert err.value.overlaps.shape == (4, trunc.dim)


class TestQubitFrequency:
    def test_sweet_spot(self, aqrm):
        assert rabi.qubit_frequency(aqrm, B0) == pytest.approx(
            2e9, rel=1e-12, abs=0)

    def test_hand_value(self, aqrm):
        # gamma (B - B0) = 2 GHz at 100 uT detuning
        assert rabi.qubit_frequency(aqrm, B0 + 100e-6) == pytest.approx(
            math.sqrt(8) * 1e9, rel=1e-12, abs=0)

    def test_asymptote(self, aqrm):
        dB = 0.1  # 100 mT, far detuned
        ratio = rabi.qubit_frequency(aqrm, B0 + dB) / (GAMMA * dB)
        assert ratio == pytest.approx(1.0, rel=1e-6, abs=0)


class TestDispersiveShift:
    def test_zero_coupling(self):
        p = rabi.QrmParams.asymmetric(F_R, 0.0, GAMMA, B0, F_Q0)
        assert rabi.dispersive_shift(p, B0, rabi.HilbertTruncation(20)) == 0.0

    def test_sweet_spot_value(self, aqrm, trunc):
        # frozen from the dense diagonalization oracle; measured value is
        # -1.32 MHz, the model gives -1.283 MHz at these parameters
        chi = rabi.dispersive_shift(aqrm, B0, trunc)
        assert chi < 0
        assert chi / 1e6 == pytest.approx(-1.2829, abs=2e-3)

    def test_convergence_on_doubling(self, aqrm):
        chi60 = rabi.dispersive_shift(aqrm, B0, rabi.HilbertTruncation(60))
        chi120 = rabi.dispersive_shift(aqrm, B0, rabi.HilbertTruncation(120))
        chi30 = rabi.dispersive_shift(aqrm, B0, rabi.HilbertTruncation(30))
        assert abs(chi60 - chi30) < 1e3
        assert abs(chi120 - chi60) < 1e3

    def test_direction_discrimination_within_150uT(self, aqrm, sqrm, trunc):
        # over |B - B0| <= 150 uT the exact AQRM chi shrinks in magnitude
        # away from the sweet spot while the SQRM chi deepens
        dBs = np.linspace(0, 150e-6, 7)
        chi_a = np.array([rabi.solve_qrm(aqrm, B0 + d, trunc).chi for d in dBs])
        chi_s = np.array([rabi.solve_qrm(sqrm, B0 + d, trunc).chi for d in dBs])
        assert np.all(chi_a < 0) and np.all(chi_s < 0)
        assert np.all(np.diff(np.abs(chi_a)) < 0)
        assert np.all(np.diff(np.abs(chi_s)) > 0)

    def test_aqrm_nonmonotonic_on_wide_window(self, aqrm, sqrm, trunc):
        # the AQRM turnaround sits near 194 uT; over +/-300 uT chi(|B-B0|)
        # is non-monotonic for the AQRM and monotonic for the SQRM
        dBs = np.linspace(0, 300e-6, 13)
        chi_a = np.array([rabi.solve_qrm(aqrm, B0 + d, trunc).chi for d in dBs])
        chi_s = np.array([rabi.solve_qrm(sqrm, B0 + d, trunc).chi for d in dBs])
        diffs_a = np.diff(chi_a)
        assert np.any(diffs_a > 0) and np.any(diffs_a < 0)
        assert np.all(np.diff(chi_s) < 0)


class TestChiPerturbative:
    def test_transverse_at_sweet_spot(self, aqrm):
        assert rabi.transverse_coupling(aqrm, B0) == pytest.approx(
            G, rel=1e-12, abs=0)

    def test_longitudinal_limit(self, aqrm):
        # far detuned the coupling is almost fully longitudinal
        g_perp = rabi.transverse_coupling(aqrm, B0 + 0.1)
        assert g_perp < 1e-3 * G
        assert abs(rabi.chi_perturbative(aqrm, B0 + 0.1)) < 1.0

    def test_matches_exact_at_reduced_coupling(self, aqrm):
        p = rabi.QrmParams.asymmetric(F_R, G / 10, GAMMA, B0, F_Q0)
        chi_ed = rabi.dispersive_shift(p, B0, rabi.HilbertTruncation(60))
        chi_pt = rabi.chi_perturbative(p, B0)
        assert abs(chi_ed - chi_pt) / abs(chi_pt) < 0.01

    def test_quadratic_error_scaling(self):
        # fixed detuning f_q0 - f_r = -572 MHz; relative ED/PT mismatch
        # must scale as g^2 (log-log slope 2 +/- 0.2)
        tr = rabi.HilbertTruncation(40)
        gs = np.array([1e6, 2e6, 4e6, 8e6])
        errs = []
        for g in gs:
            p = rabi.QrmParams.asymmetric(F_R, g, GAMMA, B0, 7.0e9)
            chi_ed = rabi.solve_qrm(p, B0, tr).chi
            chi_pt = rabi.chi_perturbative(p, B0)
            errs.append(abs(chi_ed - chi_pt) / abs(chi_pt))
        slope = np.polyfit(np.log(gs), np.log(errs), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.2)

    def test_divergence_at_resonance(self, aqrm):
        B_cross = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA
        with pytest.raises(DivergenceError):
            rabi.chi_perturbative(aqrm, B_cross)


class TestSweepField:
    def test_single_point_matches_solve(self, aqrm, trunc):
        out = rabi.sweep_field(aqrm, [B0], trunc)
        assert len(out) == 1
        assert out[0].chi == rabi.solve_qrm(aqrm, B0, trunc).chi

    def test_order_contract(self, aqrm, trunc):
        fields = [B0, B0 + 5e-5, B0 - 5e-5]
        fwd = rabi.sweep_field(aqrm, fields, trunc)
        rev = rabi.sweep_field(aqrm, fields[::-1], trunc)
        assert [s.B for s in fwd] == [s.B for s in rev][::-1]

    def test_minimum_gap_near_crossing(self, aqrm):
        # avoided crossing at gamma B' = sqrt(f_r^2 - f_q0^2); gap ~ 2 g_perp
        tr = rabi.HilbertTruncation(60)
        B_cross = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA
        g_perp = G * F_Q0 / F_R
        gaps = []
        for B in np.linspace(B_cross - 5e-6, B_cross + 5e-6, 41):
            H = rabi.build_hamiltonian(aqrm, B, tr)
            ev = np.linalg.eigvalsh(H) / CONSTANTS.h
            gaps.append(ev[2] - ev[1])
        assert min(gaps) == pytest.approx(2 * g_perp, rel=0.05, abs=0)

    def test_failures_reported_as_gaps(self, aqrm, trunc):
        B_cross = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA
        out = rabi.sweep_field(aqrm, [B0, B_cross, B0 + 1e-5], trunc)
        assert out[0] is not None
        assert out[1] is None
        assert out[2] is not None

    def test_empty_sweep_rejected(self, aqrm, trunc):
        with pytest.raises(InvalidParameterError):
            rabi.sweep_field(aqrm, [], trunc)

    @pytest.mark.parametrize("n_fock", [24, 60])
    def test_stacked_sweep_matches_per_field_loop(self, aqrm, n_fock):
        # over two chunks and a part, across f_q = f_r, in both directions
        tr = rabi.HilbertTruncation(n_fock)
        n = 2 * rabi._fields_per_stack(tr) + 3
        fields = np.linspace(_B_CROSS - 40e-6, _B_CROSS + 40e-6, n)
        outcomes = set()
        for order in (fields, fields[::-1]):
            for B, spec in zip(order, rabi.sweep_field(aqrm, order, tr)):
                outcomes.add(_check_against_loop(aqrm, B, tr, spec))
                if spec is not None:
                    energies = np.linalg.eigh(
                        rabi.build_hamiltonian(aqrm, B, tr))[0]
                    assert spec.B == B
                    assert np.array_equal(spec.energies, energies)
        assert outcomes == {"strongly mixed", "labeled"}

    @pytest.mark.parametrize("n_fock", [24, 60])
    def test_threaded_sweep_matches_serial_bit_for_bit(self, aqrm, n_fock,
                                                       monkeypatch):
        # at least three chunks, across f_q = f_r so that gaps occur
        tr = rabi.HilbertTruncation(n_fock)
        n = 3 * rabi._fields_per_stack(tr) + 2
        fields = np.append(np.linspace(_B_CROSS - 40e-6, _B_CROSS + 40e-6, n),
                           _B_CROSS)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert rabi.sweep_threads() == 1
        serial = rabi.solve_fields(aqrm, fields, tr)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert rabi.sweep_threads() == (
            len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
        threaded = rabi.solve_fields(aqrm, fields, tr)
        assert serial.labeled.any() and not serial.labeled.all()
        for name in ("B", "energies", "transitions", "vectors", "labeled"):
            assert np.array_equal(getattr(threaded, name),
                                  getattr(serial, name)), name

    def test_threaded_sweep_under_stress(self, aqrm, monkeypatch):
        # more threads than cores, switching every microsecond: each chunk
        # is still solved once, into its own rows
        tr = rabi.HilbertTruncation(24)
        fields = B0 + np.linspace(-200e-6, 200e-6, 40 * rabi._fields_per_stack(tr))
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        serial = rabi.solve_fields(aqrm, fields, tr)
        monkeypatch.setattr(rabi, "sweep_threads", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = rabi.solve_fields(aqrm, fields, tr)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(threaded.energies, serial.energies)
        assert np.array_equal(threaded.vectors, serial.vectors)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_threaded_sweep_in_a_forked_child(self, aqrm, monkeypatch):
        # a pool kept past the parent's sweep would reach the child
        # without its threads
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        tr = rabi.HilbertTruncation(24)
        fields = B0 + np.linspace(-200e-6, 200e-6, 4 * rabi._fields_per_stack(tr))
        parent = rabi.solve_fields(aqrm, fields, tr)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            child = pool.apply_async(rabi.solve_fields,
                                     (aqrm, fields, tr)).get(timeout=60)
        assert np.array_equal(child.energies, parent.energies)

    def test_threads_end_with_the_sweep(self, aqrm, monkeypatch):
        # the CSV writer forks only while no other Python thread is alive
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        from vortexlab import cli
        monkeypatch.setattr(rabi, "sweep_threads", lambda: 2)
        monkeypatch.setattr(cli, "usable_cores", lambda: 2)
        tr = rabi.HilbertTruncation(60)
        assert rabi._fields_per_stack(tr) == 1  # four chunks, two threads
        before = threading.active_count()
        sweep = rabi.solve_fields(aqrm, B0 + np.linspace(-200e-6, 200e-6, 4),
                                  tr)
        assert sweep.labeled.all()
        assert threading.active_count() == before, threading.enumerate()
        assert cli._encoders(cli._PARALLEL_ROWS) == 2

    def test_memory_beyond_the_result_independent_of_field_count(
            self, aqrm, monkeypatch):
        tr = rabi.HilbertTruncation(60)

        def transient(n):
            fields = B0 + np.linspace(-200e-6, 200e-6, n)
            tracemalloc.start()
            try:
                sweep = rabi.solve_fields(aqrm, fields, tr)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert sweep.labeled.size == n
            return peak - current

        # one chunk's stacked Hamiltonians and eigenvectors, one in flight
        # per sweep thread; ten times as much unchunked
        for blas in ("1", "2"):  # threaded sweep, serial sweep
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
            assert transient(400) < 1.5 * transient(40)

    def test_largest_truncation_solves_one_field_at_a_time(self):
        # README's cap: n_fock 2047, 4096 rows, 128 MiB a Hamiltonian
        assert rabi._fields_per_stack(rabi.HilbertTruncation(2047)) == 1
        assert rabi._fields_per_stack(rabi.HilbertTruncation(24)) > 1


def _reference_hamiltonian(params, B, trunc):
    """Complex sigma_y form of H with the unrotated field, plus its spin term."""
    nosc = trunc.n_fock + 1
    idx = np.arange(nosc)
    a = np.diag(np.sqrt(idx[1:].astype(float)), k=1)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    v = rabi._field_vector_hz(params, B)
    h_field = 0.5 * (v[0] * sx + v[1] * sy + v[2] * sz)
    H = (params.f_r * np.kron(np.diag(idx + 0.5), np.eye(2))
         + params.g * np.kron(a + a.T, sx)
         + np.kron(np.eye(nosc), h_field))
    return CONSTANTS.h * H, h_field


def _reference_solve(params, B, trunc):
    """Transitions from the dense complex bare basis, labeled by the
    whole-spectrum rule: each eigenstate claims the bare state it holds most
    of, no two claim one, and each of the four transition states holds 2/3
    of its own."""
    H, h_field = _reference_hamiltonian(params, B, trunc)
    energies, vecs = np.linalg.eigh(H)
    _, chi = np.linalg.eigh(h_field)
    dim = trunc.dim
    basis = np.zeros((dim, dim), dtype=complex)
    bare_labels = []
    for n in range(trunc.n_fock + 1):
        for s, branch in enumerate("ge"):
            basis[2 * n: 2 * n + 2, len(bare_labels)] = chi[:, s]
            bare_labels.append((branch, n))
    overlaps = np.abs(basis.conj().T @ vecs) ** 2
    assigned = {}
    for j in range(dim):
        label = bare_labels[int(np.argmax(overlaps[:, j]))]
        if label in assigned:
            raise AmbiguousLabelingError("claimed twice")
        assigned[label] = j
    for key in _TRANSITION_STATES:
        if overlaps[:, assigned[key]].max() < 2.0 / 3.0:
            raise AmbiguousLabelingError("strongly mixed")
    f = {k: energies[assigned[k]] / CONSTANTS.h for k in assigned}
    return (f[("e", 0)] - f[("g", 0)], f[("g", 1)] - f[("g", 0)],
            f[("e", 1)] - f[("e", 0)])


def _admissible_orientations(n, seed):
    rng = np.random.default_rng(seed)
    out = [(math.pi / 2, math.pi / 2), (math.pi / 2, 0.0)]
    while len(out) < n:
        if rng.random() < 0.5:
            out.append((float(rng.uniform(0, math.pi)), 0.0))
        else:
            out.append((float(rng.choice([0.0, math.pi / 2])),
                        float(rng.uniform(0, math.pi))))
    return out


_B_CROSS = B0 + math.sqrt(F_R**2 - F_Q0**2) / GAMMA
# the bare states entering the reported transitions, in LabeledSpectrum.vectors
# column order
_TRANSITION_STATES = (("g", 0), ("e", 0), ("g", 1), ("e", 1))


class TestRealSymmetricPath:
    """The real rotated Hamiltonian against the complex unrotated one."""

    FIELDS = [B0, B0 - 37e-6, B0 + 140e-6, 2 * B0 - _B_CROSS,
              *(_B_CROSS + d for d in (-20e-6, -4e-6, -1e-6, 0.0, 1e-6, 4e-6,
                                       20e-6))]

    @pytest.mark.parametrize("theta,phi", _admissible_orientations(8, 11))
    def test_matches_complex_reference(self, theta, phi):
        p = rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=theta, phi=phi)
        tr = rabi.HilbertTruncation(30)
        outcomes = set()
        for B in self.FIELDS:
            H = rabi.build_hamiltonian(p, B, tr)
            assert H.dtype == np.float64
            ev = np.linalg.eigvalsh(H)
            ev_ref = np.linalg.eigvalsh(_reference_hamiltonian(p, B, tr)[0])
            # eigenvalue errors are bounded by the spectral scale, not by
            # each level, since a level near zero has no relative accuracy
            tol = 1e-12 * np.abs(ev_ref).max()
            assert np.abs(ev - ev_ref).max() <= tol
            try:
                ref = _reference_solve(p, B, tr)
            except AmbiguousLabelingError as exc:
                # where the whole spectrum fails to label, the four states
                # may still hold 2/3 of theirs (TestEntrywisePath)
                if str(exc) == "strongly mixed":
                    with pytest.raises(AmbiguousLabelingError):
                        rabi.solve_qrm(p, B, tr)
                outcomes.add("ambiguous")
                continue
            spec = rabi.solve_qrm(p, B, tr)
            got = (spec.f_q_dressed, spec.f_r_g, spec.f_r_e)
            assert np.abs(np.subtract(got, ref)).max() <= tol / CONSTANTS.h
            outcomes.add("labeled")
        assert "labeled" in outcomes


_SX = np.array([[0.0, 1.0], [1.0, 0.0]])
_SZ = np.array([[1.0, 0.0], [0.0, -1.0]])


def _oscillator_factors(trunc):
    """(oscillator, spin) factors of the resonator and coupling terms per Hz
    of f_r and of g: (n + 1/2, 1) and (x, sigma_x) with x = a + a^dag."""
    nosc = trunc.n_fock + 1
    idx = np.arange(nosc)
    a = np.diag(np.sqrt(idx[1:].astype(float)), k=1)
    n_osc = np.diag(idx.astype(float))
    return (n_osc + 0.5 * np.eye(nosc), np.eye(2)), (a + a.T, _SX)


def _kron_hamiltonian(params, B, trunc):
    """H as the sum of Kronecker products that build_hamiltonian fills in."""
    number, coupling = _oscillator_factors(trunc)
    H = (params.f_r * np.kron(*number) + params.g * np.kron(*coupling)
         + np.kron(np.eye(trunc.n_fock + 1), rabi._spin_term_hz(params, B)))
    return CONSTANTS.h * H


def _loop_solve(params, B, trunc):
    """solve_qrm's transitions and vectors, labeled by the whole-spectrum
    rule in one Python loop over the eigenstates: each claims the bare
    state it holds most of, no two may claim one, and each of the four
    transition states must hold 2/3 of its own."""
    energies, vecs = np.linalg.eigh(rabi.build_hamiltonian(params, B, trunc))
    _, chi = np.linalg.eigh(rabi._spin_term_hz(params, B))
    nosc, dim = trunc.n_fock + 1, trunc.dim
    overlaps = ((chi.T @ vecs.reshape(nosc, 2, dim)) ** 2).reshape(dim, dim)
    bare_labels = [(branch, n) for n in range(nosc) for branch in "ge"]
    assigned = {}
    for j in range(dim):
        label = bare_labels[int(np.argmax(overlaps[:, j]))]
        if label in assigned:
            raise AmbiguousLabelingError(
                f"eigenstates {assigned[label]} and {j} both claim bare state "
                f"{label} at B={B}")
        assigned[label] = j
    states = [assigned[key] for key in _TRANSITION_STATES]
    for key, j in zip(_TRANSITION_STATES, states):
        if overlaps[:, j].max() < 2.0 / 3.0:
            raise AmbiguousLabelingError(
                f"state assigned to {key} at B={B} is strongly mixed "
                f"(overlap {overlaps[:, j].max():.3f})")
    g0, e0, g1, e1 = (float(energies[j]) for j in states)
    h = CONSTANTS.h
    return ((e0 - g0) / h, (g1 - g0) / h, (e1 - e0) / h), vecs[:, states]


def _check_against_loop(params, B, trunc, spec) -> str:
    """Check spec, the result at B of solve_qrm or of a sweep (None for a
    gap), against _loop_solve; the outcome.

    Where the loop labels, spec has its bits. Where it finds a state
    strongly mixed, solve_qrm raises its message. Where two eigenstates
    claim one bare state, which the four-state rule does not look at,
    spec either labels and agrees with a truncation 20 photons larger
    within 1e-12, or solve_qrm finds a state strongly mixed.
    """
    try:
        transitions, vectors = _loop_solve(params, B, trunc)
    except AmbiguousLabelingError as exc:
        message = str(exc)
    else:
        assert (spec.f_q_dressed, spec.f_r_g, spec.f_r_e) == transitions
        assert np.array_equal(spec.vectors, vectors)
        return "labeled"
    if spec is None:
        with pytest.raises(AmbiguousLabelingError) as info:
            rabi.solve_qrm(params, B, trunc)
        assert info.value.overlaps.shape == (4, trunc.dim)
        if "both claim" in message:
            assert "strongly mixed" in str(info.value)
            return "double claim, strongly mixed"
        assert str(info.value) == message
        return "strongly mixed"
    assert "both claim" in message
    large = rabi.solve_qrm(params, B,
                           rabi.HilbertTruncation(trunc.n_fock + 20))
    got = np.array([spec.f_q_dressed, spec.f_r_g, spec.f_r_e])
    want = np.array([large.f_q_dressed, large.f_r_g, large.f_r_e])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    return "double claim, labeled"


class TestEntrywisePath:
    """build_hamiltonian and solve_qrm against their Kronecker and loop forms."""

    @pytest.mark.parametrize("theta,phi", _admissible_orientations(8, 11))
    @pytest.mark.parametrize("n_fock", [2, 24, 60])
    def test_hamiltonian_equals_kron_sum(self, theta, phi, n_fock):
        p = rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=theta, phi=phi)
        tr = rabi.HilbertTruncation(n_fock)
        for B in TestRealSymmetricPath.FIELDS:
            assert np.array_equal(rabi.build_hamiltonian(p, B, tr),
                                  _kron_hamiltonian(p, B, tr))

    @staticmethod
    def solve_both(p, fields, tr) -> list[str]:
        """_check_against_loop on solve_qrm at each field; the outcomes."""
        outcomes = []
        for B in fields:
            try:
                spec = rabi.solve_qrm(p, B, tr)
            except AmbiguousLabelingError:
                spec = None
            outcomes.append(_check_against_loop(p, B, tr, spec))
        return outcomes

    @pytest.mark.parametrize("theta,phi", _admissible_orientations(8, 11))
    def test_labels_match_loop(self, theta, phi):
        p = rabi.QrmParams(F_R, G, GAMMA, B0, F_Q0, theta=theta, phi=phi)
        outcomes = self.solve_both(p, TestRealSymmetricPath.FIELDS,
                                   rabi.HilbertTruncation(30))
        assert "labeled" in outcomes

    @pytest.mark.parametrize("g, fields, outcomes", [
        # at 500 MHz and 30 photons the loop finds top states claiming one
        # bare state at each field; at 1.2 GHz the first claimant sits
        # several eigenstates below the second
        (500e6, [-237.5e-6, 537.5e-6, 925e-6],
         ["double claim, strongly mixed"] + 2 * ["double claim, labeled"]),
        (1.2e9, [-975e-6, -900e-6], 2 * ["double claim, labeled"])],
        ids=["500MHz", "1.2GHz"])
    def test_double_claims_label_or_are_mixed(
            self, g, fields, outcomes):
        p = rabi.QrmParams.asymmetric(F_R, g, GAMMA, B0, F_Q0)
        tr = rabi.HilbertTruncation(30)
        assert self.solve_both(p, fields, tr) == outcomes


def _kron_gradients(params, spectra, trunc):
    """transition_gradients as expectations of dense Kronecker operators."""
    vecs = np.stack([spec.vectors[:, :3] for spec in spectra])
    dB = np.array([spec.B for spec in spectra])[:, None] - params.B0
    nosc = trunc.n_fock + 1
    number, coupling = _oscillator_factors(trunc)

    def expect(osc, spin):
        return np.einsum("fdi,fdi->fi", vecs, np.kron(osc, spin) @ vecs)

    sx = expect(np.eye(nosc), _SX)
    level = np.stack([expect(*number), expect(*coupling), -0.5 * dB * sx,
                      0.5 * params.gamma * sx, 0.5 * expect(np.eye(nosc), _SZ)],
                     axis=-1)
    return np.stack([level[:, 1] - level[:, 0], level[:, 2] - level[:, 0]],
                    axis=1)


class TestTransitionGradients:
    @pytest.mark.parametrize("n_fock", [2, 24, 60])
    def test_block_sums_match_kron_oracle(self, aqrm, n_fock):
        tr = rabi.HilbertTruncation(n_fock)
        # fields on both sides of B0, and one at the resonance, _B_CROSS
        fields = np.append(B0 + np.linspace(-450e-6, 450e-6, 24), _B_CROSS)
        sweep = rabi.solve_fields(aqrm, fields, tr)
        assert not sweep.labeled[-1]
        spectra = [s for s in rabi.sweep_field(aqrm, fields, tr) if s is not None]
        assert {s.B < B0 for s in spectra} == {True, False}
        got = rabi.transition_gradients(aqrm, sweep, tr)
        assert got.shape == (len(fields), 2, len(rabi.GRADIENT_PARAMS))
        # rows of fields whose labeling failed are zero
        assert not got[~sweep.labeled].any()
        got = got[sweep.labeled]
        want = _kron_gradients(aqrm, spectra, tr)
        # relative to each parameter's largest gradient
        scale = np.abs(want).max(axis=(0, 1))
        assert np.all(np.abs(got - want).max(axis=(0, 1)) <= 1e-12 * scale)

    def test_vectors_are_the_transition_eigenstates(self, aqrm, trunc):
        spec = rabi.solve_qrm(aqrm, B0 + 50e-6, trunc)
        assert spec.vectors.shape == (trunc.dim, 4)
        H = rabi.build_hamiltonian(aqrm, spec.B, trunc)
        # each is an eigenvector of one of the energies, and the four
        # energies give the transitions
        levels = []
        for v in spec.vectors.T:
            E = spec.energies[np.argmin(np.abs(spec.energies - v @ H @ v))]
            assert np.allclose(H @ v, E * v, atol=1e-6 * abs(E))
            levels.append(E / CONSTANTS.h)
        g0, e0, g1, e1 = levels
        assert (e0 - g0, g1 - g0, e1 - e0) == pytest.approx(
            (spec.f_q_dressed, spec.f_r_g, spec.f_r_e), rel=1e-12, abs=0)

    def test_other_orientations_rejected(self, sqrm, trunc):
        sweep = rabi.solve_fields(sqrm, [B0], trunc)
        with pytest.raises(InvalidOrientationError):
            rabi.transition_gradients(sqrm, sweep, trunc)


def _error_against_80(params, fields, n_fock):
    """Largest relative distance of the transitions at n_fock from those at
    n_fock 80, over the fields both label; None where none is."""
    small = rabi.solve_fields(params, fields, rabi.HilbertTruncation(n_fock))
    large = rabi.solve_fields(params, fields, rabi.HilbertTruncation(80))
    ok = small.labeled & large.labeled
    if not ok.any():
        return None
    ref = large.transitions[ok]
    return float((np.abs(small.transitions[ok] - ref) / np.abs(ref)).max())


# the regime fit-spectrum's built-in truncation was sized on (cli._FIT_N_FOCK)
_REGIME = [rabi.QrmParams.asymmetric(F_R, ratio * F_R, GAMMA, 0.0, f_q0)
           for ratio in (0.005, 0.03, 0.06, 0.09)
           for f_q0 in (1e9, 4e9, 8e9, 12e9)]


class TestTruncationError:
    def test_rounding_level_on_example(self, aqrm, trunc):
        # B0 and the ends of example.ini's sweep
        error = rabi.truncation_error(aqrm, [B0, -22e-6, 278e-6], trunc)
        assert 0.0 <= error <= 1e-12

    def test_far_above_rounding_at_n_fock_2(self, aqrm):
        tr = rabi.HilbertTruncation(2)
        assert rabi.truncation_error(aqrm, [B0, -22e-6, 278e-6], tr) > 1e-8
        strong = rabi.QrmParams.asymmetric(F_R, 0.09 * F_R, GAMMA, B0, F_Q0)
        assert rabi.truncation_error(strong, [B0, -22e-6, 278e-6], tr) > 1e-4

    def test_within_a_factor_of_10_of_the_true_error(self):
        fields = [0.0, 5e-4, 1e-3]
        compared = 0
        for params in _REGIME[::3]:
            for n_fock in range(2, 7):
                true = _error_against_80(params, fields, n_fock)
                estimate = rabi.truncation_error(
                    params, fields, rabi.HilbertTruncation(n_fock))
                if true is None or true < 1e-11:  # rounding
                    continue
                compared += 1
                assert true / 10 <= estimate <= 10 * true, (params, n_fock)
        assert compared >= 10

    def test_unlabeled_fields_are_skipped(self, aqrm):
        # near f_q = f_r some fields label at n_fock 2 and not at 4, and
        # some the other way round
        tr = rabi.HilbertTruncation(2)
        fields = np.linspace(485e-6, 500e-6, 151)
        small = rabi.solve_fields(aqrm, fields, tr).labeled
        large = rabi.solve_fields(aqrm, fields, rabi.HilbertTruncation(4)).labeled
        alone = rabi.truncation_error(aqrm, [B0], tr)
        for mask in (small & ~large, large & ~small):
            assert mask.any()
            assert rabi.truncation_error(
                aqrm, [B0, *fields[mask]], tr) == alone
        assert rabi.truncation_error(aqrm, fields[~small & ~large], tr) is None
        assert rabi.truncation_error(aqrm, [_B_CROSS], tr) is None

    def test_rows_of_a_solved_sweep_replace_fresh_solves(self, aqrm,
                                                         monkeypatch):
        # each check field the sweep holds bit for bit takes its row; the
        # estimate is that of the full re-solve
        tr = rabi.HilbertTruncation(2)
        fields = np.linspace(-22e-6, 278e-6, 41)
        sweep = rabi.solve_fields(aqrm, fields, tr)
        solve, solved = rabi.solve_fields, []

        def counting(params, B_list, trunc):
            solved.append(len(B_list))
            return solve(params, B_list, trunc)

        for checks, counts in (([fields[0], fields[-1]], [2]),
                               ([B0 + 1e-6, fields[0], fields[-1]], [1, 3]),
                               ([np.nextafter(fields[3], 1.0)], [1, 1])):
            full = rabi.truncation_error(aqrm, checks, tr)
            assert full > 1e-8
            solved.clear()
            monkeypatch.setattr(rabi, "solve_fields", counting)
            assert rabi.truncation_error(aqrm, checks, tr, sweep) == full
            monkeypatch.setattr(rabi, "solve_fields", solve)
            assert solved == counts
        with pytest.raises(InvalidParameterError, match="another truncation"):
            rabi.truncation_error(aqrm, [B0], rabi.HilbertTruncation(4), sweep)

    def test_exactly_zero_transition_has_not_changed(self):
        # g = 0 and f_q0 = 0: f_q_dressed is 0 at B0 at every truncation
        params = rabi.QrmParams.asymmetric(F_R, 0.0, GAMMA, B0, 0.0)
        assert rabi.truncation_error(params, [B0], rabi.HilbertTruncation(4)) \
            == 0.0

    def test_fields_labeled_below_80_stay_labeled_at_80(self):
        # the labeling looks at the four transition states alone, so the
        # high photon states, which mix first, cannot leave a gap
        fields = np.linspace(-1e-3, 1e-3, 21)
        for ratio in (0.005, 0.012, 0.03, 0.09, 0.12):
            for f_q0 in (1e9, 2e9, 4e9, 7e9, 12e9):
                params = rabi.QrmParams.asymmetric(F_R, ratio * F_R, GAMMA,
                                                   0.0, f_q0)
                large = rabi.solve_fields(params, fields,
                                          rabi.HilbertTruncation(80))
                for n_fock in (10, 24, 40, 60):
                    small = rabi.solve_fields(params, fields,
                                              rabi.HilbertTruncation(n_fock))
                    case = (ratio, f_q0, n_fock)
                    ok = small.labeled
                    assert not (ok & ~large.labeled).any(), case
                    ref = large.transitions[ok]
                    error = np.abs(small.transitions[ok] - ref) / np.abs(ref)
                    assert np.all(error <= 1e-12), case

    def test_fit_default_matches_n_fock_80_over_the_regime(self):
        from vortexlab import cli
        fields = np.linspace(-1e-3, 1e-3, 9)
        labeled = 0
        for params in _REGIME:
            error = _error_against_80(params, fields, cli._FIT_N_FOCK)
            if error is not None:
                labeled += 1
                assert error <= 1e-12, params
        assert labeled == len(_REGIME)

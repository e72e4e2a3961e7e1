import os

import numpy as np
import pytest

from vortexlab import core, fitting, rabi


@pytest.fixture(scope="session", autouse=True)
def no_child_left():
    """At the end of the run, fails if a test left a child process running
    or unreaped (the CSV writer forks its encoders)."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the tests left a child process behind (waitpid gave pid "
                f"{pid}, status {status}; pid 0 is one still running)")


@pytest.fixture(scope="session")
def device():
    return core.example_device()


@pytest.fixture(scope="session")
def scales(device):
    return core.derive_scales(device)


@pytest.fixture(scope="session")
def criterion_05_dataset():
    """Criterion 05's noisy points for a given noise seed.

    13 qubit fields over B0 +- 150 uT at 5% noise and 11 resonator fields
    over B0 +- 250 uT at 5e-4 noise, from the asymmetric model at n_fock = 24
    (f_r = 7.572 GHz, g = 92.5 MHz, gamma = 20 GHz/mT, B0 = 128 uT,
    f_q0 = 2 GHz), drawn qubit points first as in the acceptance test.
    """
    B0 = 128e-6
    true = rabi.QrmParams.asymmetric(7.572e9, 92.5e6, 20e12, B0, 2e9)
    trunc = rabi.HilbertTruncation(24)
    clean_q = [rabi.solve_qrm(true, B, trunc).f_q_dressed
               for B in B0 + np.linspace(-150e-6, 150e-6, 13)]
    clean_r = [rabi.solve_qrm(true, B, trunc).f_r_g
               for B in B0 + np.linspace(-250e-6, 250e-6, 11)]

    def make(noise_seed=17):
        rng = np.random.default_rng(noise_seed)
        sets = []
        for span, clean, noise in ((150e-6, clean_q, 0.05),
                                   (250e-6, clean_r, 5e-4)):
            f = np.array(clean)
            sigma = noise * f
            sets.append(np.column_stack([B0 + np.linspace(-span, span, f.size),
                                         f + rng.normal(0, sigma), sigma]))
        return fitting.SpectrumDataset(qubit_points=sets[0],
                                       resonator_points=sets[1])

    return make

"""Telegraph-process readout records: synthesis and analysis.

Generates single-shot readout records from a two-state continuous-time
Markov chain with Gaussian IQ noise, then recovers the dynamics with a
hysteretic two-point latching filter (Vool et al., Phys. Rev. Lett. 113,
247001, 2014), closed-form maximum-likelihood dwell times from the
geometric run lengths of the assigned states, a two-component
Gaussian-mixture clustering of the IQ plane, and the Boltzmann
effective-temperature relation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONSTANTS
from .errors import (AmbiguousBandsError, ClusteringError,
                     InsufficientDwellsError, InvalidParameterError,
                     PopulationInversionError)

_MIN_DWELLS = 50  # complete intervals dwell_statistics needs per state
_EM_MAX_ITER = 100
_EM_TOL = 1e-8  # on the relative change of iq_cluster's log-likelihood
# samples (and jumps) a synthesized record may hold: 50 s at 5 us spacing,
# 20 times the example record. synth-jumps peaks at about 37 MiB plus
# 88 bytes a sample (79 MiB at 500k samples, 205 MiB at 2M), so about
# 0.9 GiB here, and writes 55 bytes a sample of CSV
_MAX_SAMPLES = 10_000_000


@dataclass(frozen=True)
class TelegraphParams:
    """Mean dwell times of the two-state process.

    T_up is the mean time spent in the ground state before exciting,
    T_down the mean time in the excited state before relaxing.
    """

    T_up: float
    T_down: float

    def __post_init__(self):
        if not (0.0 < self.T_up < math.inf and 0.0 < self.T_down < math.inf):
            raise InvalidParameterError(
                "dwell time scales must be positive and finite")

    @property
    def T1(self) -> float:
        """Combined relaxation scale (1/T_up + 1/T_down)^-1 (s)."""
        return 1.0 / (1.0 / self.T_up + 1.0 / self.T_down)

    @property
    def stationary_p_excited(self) -> float:
        return (1.0 / self.T_up) / (1.0 / self.T_up + 1.0 / self.T_down)


@dataclass(frozen=True)
class ReadoutModel:
    """IQ response of the two states: cloud centers, width and timing."""

    center_g: complex
    center_e: complex
    sigma_cloud: float
    spacing: float    # inter-measurement period (s)

    def __post_init__(self):
        if not 0.0 < self.sigma_cloud < math.inf:  # also rejects nan
            raise InvalidParameterError(
                f"sigma_cloud must be positive and finite, got "
                f"{self.sigma_cloud}")
        if not 0.0 < self.spacing < math.inf:  # also rejects nan
            raise InvalidParameterError(
                f"spacing must be positive and finite, got {self.spacing}")


@dataclass
class Trajectory:
    """Sampled readout record; true_states only exists for synthetic data."""

    times: np.ndarray
    iq_points: np.ndarray
    true_states: np.ndarray | None = None

    def __post_init__(self):
        if self.times.shape != self.iq_points.shape:
            raise InvalidParameterError("times and iq_points must have equal length")
        if not np.all(np.isfinite(self.times)):
            raise InvalidParameterError("times must be finite")
        if not np.all(np.diff(self.times) > 0):
            raise InvalidParameterError("times must be strictly ascending")
        if not np.all(np.isfinite(self.iq_points)):
            raise InvalidParameterError("IQ points must be finite")


@dataclass
class DwellStats:
    """Maximum-likelihood mean dwell times (dwell_statistics) and their
    harmonic combination; n_up and n_down count the complete intervals,
    min_run is the run cut m (in samples) the estimates used."""

    T_up_hat: float
    T_down_hat: float
    n_up: int
    n_down: int
    min_run: int

    @property
    def T1_hat(self) -> float:
        return 1.0 / (1.0 / self.T_up_hat + 1.0 / self.T_down_hat)


def simulate_trajectory(tg: TelegraphParams, ro: ReadoutModel,
                        duration: float, seed: int) -> Trajectory:
    """Sample a telegraph record with Gaussian IQ noise, reproducibly.

    The underlying two-state Markov chain has exponential dwell times; the
    state is read at intervals of ro.spacing and every IQ point is the
    corresponding cloud center plus independent per-quadrature noise.
    Measurement back-action is not modeled.
    """
    if not 0.0 < duration < math.inf:  # an infinite one never ends
        raise InvalidParameterError(
            f"duration_s must be positive and finite, got {duration}")
    # a finite but huge one would run the jump loop and allocate the
    # samples about forever
    for over, count, what in (
            ("spacing_us", duration / ro.spacing, "samples"),
            ("T_up_us + T_down_us", 2.0 * duration / (tg.T_up + tg.T_down),
             "jumps")):
        if count > _MAX_SAMPLES:
            raise InvalidParameterError(
                f"duration_s = {duration} over {over} asks for about "
                f"{count:.3g} {what}, more than the {_MAX_SAMPLES} a record "
                "may hold")
    n = int(math.floor(duration / ro.spacing + 1e-9))
    if n < 1:
        raise InvalidParameterError(
            f"duration_s = {duration} over spacing_us = {ro.spacing * 1e6:g} "
            "gives a record of no sample")
    rng = np.random.default_rng(seed)

    state0 = int(rng.random() < tg.stationary_p_excited)
    means = (tg.T_up, tg.T_down)
    jump_times = []
    t, state = 0.0, state0
    while t < duration:
        t += rng.exponential(means[state])
        jump_times.append(t)
        state = 1 - state
    jump_times = np.asarray(jump_times)

    times = np.arange(n) * ro.spacing
    # state at time t flips once per preceding jump
    flips = np.searchsorted(jump_times, times, side="right")
    states = (state0 + flips) % 2

    centers = np.where(states == 1, ro.center_e, ro.center_g)
    noise = rng.normal(0.0, ro.sigma_cloud, size=n) \
        + 1j * rng.normal(0.0, ro.sigma_cloud, size=n)
    return Trajectory(times=times, iq_points=centers + noise,
                      true_states=states)


def latching_filter(traj: Trajectory, ro: ReadoutModel,
                    n_sigma: float = 1.5) -> np.ndarray:
    """Hysteretic state assignment: switch only inside the opposite band.

    A point within n_sigma * sigma_cloud of a cloud center (re)asserts
    that state; points in neither band keep the previous assignment. The
    first point starts from the nearer center. The filter is causal: the
    assignment at index i depends only on points 0..i. Returns the int8
    assignments and leaves traj unchanged.
    """
    if not n_sigma > 0:
        raise InvalidParameterError(f"n_sigma must be positive, got {n_sigma}")
    if abs(ro.center_e - ro.center_g) <= 2.0 * n_sigma * ro.sigma_cloud:
        raise AmbiguousBandsError(
            "acceptance bands overlap: centers closer than "
            f"2 x {n_sigma} sigma")
    z = traj.iq_points
    r = n_sigma * ro.sigma_cloud
    in_g = np.abs(z - ro.center_g) <= r
    in_e = np.abs(z - ro.center_e) <= r

    # assignments change only where a point lands in one band; forward-fill
    events = in_g | in_e
    state_at_event = np.where(in_e, 1, 0)
    idx = np.where(events, np.arange(z.size), -1)
    idx = np.maximum.accumulate(idx)
    initial = int(abs(z[0] - ro.center_e) < abs(z[0] - ro.center_g))
    assigned = np.where(idx >= 0, state_at_event[np.clip(idx, 0, None)], initial)
    return assigned.astype(np.int8)


def dwell_intervals(states: np.ndarray, spacing: float):
    """Dwell durations per state, discarding the censored end runs."""
    states = np.asarray(states)
    change = np.nonzero(np.diff(states) != 0)[0]
    if change.size < 2:
        return np.array([]), np.array([])
    run_starts = change[:-1] + 1
    run_ends = change[1:] + 1
    lengths = (run_ends - run_starts) * spacing
    run_state = states[run_starts]
    return lengths[run_state == 0], lengths[run_state == 1]


def _min_run(n_sigma: float) -> int:
    """Shortest run length, in samples, that the dwell estimator keeps.

    A point lands in its state's band with per-sample probability
    p = 1 - exp(-n_sigma^2 / 2) (2D Gaussian noise), so an excursion of m
    samples escapes the latching filter with probability (1 - p)^m. m is
    the smallest integer with (1 - p)^m < 0.01: 5 at n_sigma = 1.5, 10 at
    1.0 and 3 at 2.0.
    """
    if not n_sigma > 0:
        raise InvalidParameterError("n_sigma must be positive")
    # (1 - p)^m < 0.01  <=>  m n_sigma^2 / 2 > ln 100
    return math.floor(2.0 * math.log(100.0) / n_sigma**2) + 1


def _dwell_mle(durations: np.ndarray, spacing: float, m: int,
               state: str) -> float:
    """Maximum-likelihood mean dwell time from runs of at least m samples.

    Sampled every spacing, an exponential dwell has a geometric run length;
    by memorylessness its excess over m, among runs of at least m samples,
    is geometric from 0 with ratio q = e / (1 + e), e the mean excess. So
    T = -spacing / ln(q) = spacing / log1p(1 / e).
    """
    runs = np.rint(durations / spacing)
    excess = runs[runs >= m] - m
    if not excess.any():
        raise InsufficientDwellsError(
            f"no {state} run longer than {m} samples: the dwell time "
            "estimate is undefined")
    return spacing / math.log1p(1.0 / float(excess.mean()))


def dwell_statistics(states: np.ndarray, spacing: float,
                     n_sigma: float = 1.5) -> DwellStats:
    """Per-state dwell statistics from an assigned-state record.

    Each state needs at least _MIN_DWELLS complete intervals; the censored
    first and last runs are excluded. The mean dwell times are the
    closed-form maximum-likelihood estimates over runs of at least m
    samples (_min_run), where n_sigma is the band given to
    latching_filter: shorter runs are the excursions that filter misses
    or splits.
    """
    down_dwells, up_dwells = dwell_intervals(states, spacing)
    # state 0 runs are ground dwells (ending in excitation): T_up scale
    if down_dwells.size < _MIN_DWELLS or up_dwells.size < _MIN_DWELLS:
        raise InsufficientDwellsError(
            f"need at least {_MIN_DWELLS} dwells per state, got "
            f"{down_dwells.size} ground and {up_dwells.size} excited")
    m = _min_run(n_sigma)
    return DwellStats(T_up_hat=_dwell_mle(down_dwells, spacing, m, "ground"),
                      T_down_hat=_dwell_mle(up_dwells, spacing, m, "excited"),
                      n_up=int(down_dwells.size), n_down=int(up_dwells.size),
                      min_run=m)


# ---------------------------------------------------------------------------
# IQ clustering
# ---------------------------------------------------------------------------

@dataclass
class IqClusters:
    center_g: complex
    center_e: complex
    sigma_cloud: float
    P_e: float
    iterations: int
    log_likelihood: float


def iq_cluster(points: np.ndarray) -> IqClusters:
    """Two-component isotropic Gaussian mixture of the IQ plane via EM.

    The more populated component is called the ground state; P_e is the
    weight of the excited component.

    The iterations work on I and Q as two 1D arrays: one squared-distance
    array per component, the log-sum-exp of the two by np.logaddexp, and
    the M-step as dot products with the responsibilities.
    """
    z = np.asarray(points).astype(complex)
    if z.size < 1000:
        raise InvalidParameterError("need at least 1000 points for clustering")
    if not np.all(np.isfinite(z)):
        raise InvalidParameterError("IQ points must be finite")
    n = z.size
    x, y = np.ascontiguousarray(z.real), np.ascontiguousarray(z.imag)

    # two-seed start: most separated pair among the first 1000 points
    head = np.column_stack([x[:1000], y[:1000]])
    dist = np.linalg.norm(head - head[0], axis=1)
    seed1 = head[int(np.argmax(dist))]
    dist = np.linalg.norm(head - seed1, axis=1)
    seed2 = head[int(np.argmax(dist))]
    mu = np.array([seed1, seed2])
    if not np.any(mu[0] != mu[1]):
        raise ClusteringError("could not find two distinct cluster seeds")
    var = max((x.var() + y.var()) / 2.0, 1e-30)
    weights = np.array([0.5, 0.5])

    def sq_dist(center):
        return (x - center[0]) ** 2 + (y - center[1]) ** 2

    d0, d1 = sq_dist(mu[0]), sq_dist(mu[1])
    loglik = -np.inf
    iterations = 0
    for iterations in range(1, _EM_MAX_ITER + 1):
        norm = math.log(2 * math.pi * var)
        scale = 1.0 / (2 * var)
        log_p0 = (math.log(weights[0]) - norm) - d0 * scale
        log_p1 = (math.log(weights[1]) - norm) - d1 * scale
        lse = np.logaddexp(log_p0, log_p1)
        new_loglik = float(lse.sum())
        r0, r1 = np.exp(log_p0 - lse), np.exp(log_p1 - lse)

        nk = np.array([r0.sum(), r1.sum()])
        if np.any(nk < 1e-9):
            raise ClusteringError("a mixture component collapsed to zero weight")
        mu = np.array([[r0 @ x, r0 @ y], [r1 @ x, r1 @ y]]) / nk[:, None]
        d0, d1 = sq_dist(mu[0]), sq_dist(mu[1])
        var = max(float((r0 @ d0 + r1 @ d1) / (2.0 * n)), 1e-300)
        weights = nk / n

        if abs(new_loglik - loglik) < _EM_TOL * max(1.0, abs(new_loglik)):
            loglik = new_loglik
            break
        loglik = new_loglik

    sigma = math.sqrt(var)
    sep = np.linalg.norm(mu[0] - mu[1])
    if sep < 0.5 * sigma:
        raise ClusteringError(
            f"cluster centers separated by {sep:.3g} < sigma/2 = "
            f"{0.5 * sigma:.3g}; data look like a single cloud")

    ground_idx = int(np.argmax(weights))
    excited_idx = 1 - ground_idx

    return IqClusters(
        center_g=complex(mu[ground_idx, 0], mu[ground_idx, 1]),
        center_e=complex(mu[excited_idx, 0], mu[excited_idx, 1]),
        sigma_cloud=sigma, P_e=float(weights[excited_idx]),
        iterations=iterations, log_likelihood=loglik)


# ---------------------------------------------------------------------------
# thermal relations
# ---------------------------------------------------------------------------

def thermal_population(T: float, f_q: float) -> float:
    """Boltzmann excited-state population at temperature T (K)."""
    if T <= 0 or f_q <= 0:
        raise InvalidParameterError("temperature and frequency must be positive")
    boltz = math.exp(-CONSTANTS.h * f_q / (CONSTANTS.k_B * T))
    return boltz / (1.0 + boltz)


def effective_temperature(P_e: float, f_q: float) -> float:
    """Temperature (K) whose Boltzmann factor reproduces P_e; inverse of
    thermal_population."""
    if not (0.0 < P_e):
        raise InvalidParameterError("P_e must be positive")
    if P_e >= 0.5:
        raise PopulationInversionError(
            f"P_e = {P_e} >= 0.5 is a population inversion, not a thermal "
            "state")
    if f_q <= 0:
        raise InvalidParameterError("frequency must be positive")
    # log1p form stays finite for populations down to the denormal range
    log_ratio = math.log1p(-P_e) - math.log(P_e)
    return CONSTANTS.h * f_q / (CONSTANTS.k_B * log_ratio)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import jumps
from vortexlab.constants import CONSTANTS
from vortexlab.errors import (AmbiguousBandsError, ClusteringError,
                              InsufficientDwellsError, InvalidParameterError,
                              PopulationInversionError)

TG = jumps.TelegraphParams(T_up=570e-6, T_down=135e-6)
RO = jumps.ReadoutModel(center_g=0j, center_e=6 + 0j, sigma_cloud=1.0,
                        spacing=5e-6)


class TestTelegraphParams:
    def test_combined_relaxation(self):
        # (1/570us + 1/135us)^-1 = 109.1 us
        assert TG.T1 == pytest.approx(109.15e-6, abs=0.05e-6)

    def test_stationary_population(self):
        assert TG.stationary_p_excited == pytest.approx(
            135 / 705, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            jumps.TelegraphParams(T_up=0.0, T_down=1e-4)

    @pytest.mark.parametrize("T_up,T_down", [
        (math.inf, 1e-4), (1e-4, math.inf), (math.nan, 1e-4)])
    def test_rejects_dwell_times_that_are_not_finite(self, T_up, T_down):
        # an infinite T_up once gave a record that never left the ground
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            jumps.TelegraphParams(T_up=T_up, T_down=T_down)


class TestSimulateTrajectory:
    def test_deterministic_per_seed(self):
        t1 = jumps.simulate_trajectory(TG, RO, 0.05, seed=9)
        t2 = jumps.simulate_trajectory(TG, RO, 0.05, seed=9)
        assert np.array_equal(t1.iq_points, t2.iq_points)
        assert np.array_equal(t1.true_states, t2.true_states)

    def test_different_seeds_differ(self):
        t1 = jumps.simulate_trajectory(TG, RO, 0.05, seed=9)
        t2 = jumps.simulate_trajectory(TG, RO, 0.05, seed=10)
        assert not np.array_equal(t1.true_states, t2.true_states)

    def test_never_excites_with_infinite_t_up(self):
        tg = jumps.TelegraphParams(T_up=1e12, T_down=135e-6)
        traj = jumps.simulate_trajectory(tg, RO, 0.05, seed=3)
        # may start excited, but after relaxing never leaves the ground state
        first_ground = np.argmax(traj.true_states == 0)
        assert np.all(traj.true_states[first_ground:] == 0)

    def test_mean_dwells_match_rates(self):
        # finer sampling keeps the quantization bias below the statistics
        ro = jumps.ReadoutModel(center_g=0j, center_e=6 + 0j, sigma_cloud=1.0,
                                spacing=1e-6)
        traj = jumps.simulate_trajectory(TG, ro, 5.0, seed=21)
        down, up = jumps.dwell_intervals(traj.true_states, ro.spacing)
        for dwells, mean in ((down, 570e-6), (up, 135e-6)):
            se = dwells.std() / math.sqrt(dwells.size)
            assert abs(dwells.mean() - mean) < 3 * se + ro.spacing

    def test_stationary_population_statistics(self):
        traj = jumps.simulate_trajectory(TG, RO, 0.5, seed=5)
        n = traj.true_states.size
        p = TG.stationary_p_excited
        # crude standard error inflated by the dwell correlation time
        corr = max(TG.T_up, TG.T_down) / RO.spacing
        se = math.sqrt(p * (1 - p) / n * corr)
        assert abs(traj.true_states.mean() - p) < 3 * se


def latch_by_loop(points, ro, n_sigma):
    """The latching filter's definition applied one point at a time."""
    r = n_sigma * ro.sigma_cloud
    z0 = points[0]
    state = int(abs(z0 - ro.center_e) < abs(z0 - ro.center_g))
    out = []
    for z in points:
        if abs(z - ro.center_e) <= r:
            state = 1
        elif abs(z - ro.center_g) <= r:
            state = 0
        out.append(state)
    return out


class TestTrajectory:
    @pytest.mark.parametrize("times, points, match", [
        ([0.0, math.nan, 2.0], [0j, 0j, 0j], "times must be finite"),
        ([0.0, 1.0, math.inf], [0j, 0j, 0j], "times must be finite"),
        ([2.0, 1.0, 0.0], [0j, 0j, 0j], "times must be strictly ascending"),
        ([0.0, 0.0, 0.0], [0j, 0j, 0j], "times must be strictly ascending"),
        ([0.0, 1.0, 2.0], [0j, complex(math.nan, 0), 0j],
         "IQ points must be finite"),
        ([0.0, 1.0, 2.0], [0j, 0j, complex(0, -math.inf)],
         "IQ points must be finite"),
    ])
    def test_rejects_invalid_record(self, times, points, match):
        with pytest.raises(InvalidParameterError, match=match):
            jumps.Trajectory(times=np.array(times), iq_points=np.array(points))


class TestLatchingFilter:
    def test_noiseless_points_recover_truth(self):
        traj = jumps.simulate_trajectory(
            TG, jumps.ReadoutModel(center_g=0j, center_e=6 + 0j,
                                   sigma_cloud=1e-9,
                                   spacing=5e-6), 0.2, seed=4)
        ro = jumps.ReadoutModel(center_g=0j, center_e=6 + 0j, sigma_cloud=1.0,
                                spacing=5e-6)
        assigned = jumps.latching_filter(traj, ro)
        assert np.array_equal(assigned, traj.true_states)

    def test_point_in_neither_band_latches(self):
        traj = jumps.Trajectory(
            times=np.arange(4.0),
            iq_points=np.array([0j, 3 + 0j, 3 + 0j, 6 + 0j]))
        assigned = jumps.latching_filter(traj, RO)
        assert assigned.tolist() == [0, 0, 0, 1]

    def test_initial_state_nearer_center(self):
        traj = jumps.Trajectory(times=np.arange(2.0),
                                iq_points=np.array([5 + 0j, 5 + 0j]))
        assert jumps.latching_filter(traj, RO).tolist() == [1, 1]

    def test_causality(self):
        base = jumps.simulate_trajectory(TG, RO, 0.1, seed=12)
        assigned_full = jumps.latching_filter(base, RO).copy()
        half = base.times.size // 2
        truncated = jumps.Trajectory(times=base.times[:half],
                                     iq_points=base.iq_points[:half])
        assigned_half = jumps.latching_filter(truncated, RO)
        assert np.array_equal(assigned_full[:half], assigned_half)

    def test_overlapping_bands_rejected(self):
        ro = jumps.ReadoutModel(center_g=0j, center_e=2 + 0j, sigma_cloud=1.0,
                                spacing=1e-6)
        traj = jumps.Trajectory(times=np.arange(3.0),
                                iq_points=np.zeros(3, dtype=complex))
        with pytest.raises(AmbiguousBandsError):
            jumps.latching_filter(traj, ro)

    @pytest.mark.parametrize("n_sigma", [0.0, -1.5, math.nan])
    def test_non_positive_band_rejected(self, n_sigma):
        # the band-overlap check alone passes for any such value
        traj = jumps.Trajectory(times=np.arange(3.0),
                                iq_points=np.zeros(3, dtype=complex))
        with pytest.raises(InvalidParameterError, match="n_sigma"):
            jumps.latching_filter(traj, RO, n_sigma=n_sigma)

    def test_returns_assignments_and_leaves_trajectory_unchanged(self):
        traj = jumps.simulate_trajectory(TG, RO, 0.05, seed=3)
        before = {key: None if value is None else value.copy()
                  for key, value in vars(traj).items()}
        assigned = jumps.latching_filter(traj, RO, n_sigma=1.5)
        after = vars(traj)
        assert after.keys() == before.keys()
        for key, value in before.items():
            if value is None:
                assert after[key] is None, key
            else:
                assert np.array_equal(after[key], value), key
        assert assigned.dtype == np.int8
        assert assigned.tolist() == latch_by_loop(traj.iq_points, RO, 1.5)


class TestDwellStatistics:
    def test_round_trip_paper_rates(self):
        traj = jumps.simulate_trajectory(TG, RO, 2.5, seed=42)
        assigned = jumps.latching_filter(traj, RO)
        stats = jumps.dwell_statistics(assigned, RO.spacing)
        assert abs(stats.T1_hat - 110e-6) / 110e-6 < 0.10
        assert stats.T_up_hat == pytest.approx(570e-6, rel=0.15, abs=0)
        assert stats.T_down_hat == pytest.approx(135e-6, rel=0.15, abs=0)

    def test_equal_rates_harmonic_mean(self):
        tg = jumps.TelegraphParams(T_up=2e-4, T_down=2e-4)
        assert tg.T1 == pytest.approx(1e-4, rel=1e-12, abs=0)
        traj = jumps.simulate_trajectory(tg, RO, 2.0, seed=8)
        assigned = jumps.latching_filter(traj, RO)
        stats = jumps.dwell_statistics(assigned, RO.spacing)
        assert stats.T1_hat <= min(stats.T_up_hat, stats.T_down_hat)

    def test_synthetic_exponential_dwells(self):
        # exact exponential dwells fed straight into the estimator
        rng = np.random.default_rng(6)
        spacing = 5e-6
        states = []
        for _ in range(3000):
            states += [0] * max(1, int(round(rng.exponential(570e-6) / spacing)))
            states += [1] * max(1, int(round(rng.exponential(135e-6) / spacing)))
        stats = jumps.dwell_statistics(np.array(states), spacing)
        down, up = jumps.dwell_intervals(np.array(states), spacing)
        se_up = 570e-6 / math.sqrt(down.size)
        se_down = 135e-6 / math.sqrt(up.size)
        assert abs(stats.T_up_hat - 570e-6) < 3 * se_up + spacing
        assert abs(stats.T_down_hat - 135e-6) < 3 * se_down + spacing

    def test_insufficient_dwells(self):
        states = np.array([0] * 50 + [1] * 50)
        with pytest.raises(InsufficientDwellsError):
            jumps.dwell_statistics(states, 5e-6)

    def test_example_record_is_unbiased(self):
        # the example [jumps] record (500k shots) over a fixed seed range;
        # T_up stays about 3% high: a missed short excited excursion merges
        # two ground dwells
        up, down = [], []
        for seed in range(12):
            traj = jumps.simulate_trajectory(TG, RO, 2.5, seed)
            assigned = jumps.latching_filter(traj, RO)
            stats = jumps.dwell_statistics(assigned, RO.spacing)
            up.append(stats.T_up_hat / 570e-6)
            down.append(stats.T_down_hat / 135e-6)
        assert abs(np.mean(down) - 1) < 0.02
        assert abs(np.mean(up) - 1) < 0.05

    @pytest.mark.parametrize("n_sigma, m", [(1.5, 5), (1.0, 10), (2.0, 3)])
    def test_min_run_from_band(self, n_sigma, m):
        assert jumps._min_run(n_sigma) == m

    @pytest.mark.parametrize("length", [4, 5])
    def test_no_run_longer_than_min_run(self, length):
        # excited runs all below m = 5 (length 4) or all at m (mean excess 0)
        states = np.array(([0] * 20 + [1] * length) * 60)
        with pytest.raises(InsufficientDwellsError, match="excited"):
            jumps.dwell_statistics(states, 5e-6, n_sigma=1.5)
        # the same runs count at a wider band, where m = 3
        stats = jumps.dwell_statistics(states, 5e-6, n_sigma=2.0)
        assert stats.n_down == 59  # the last run is censored


def broadcast_em(points):
    """iq_cluster's EM in broadcast form, on an (N, 2) coordinate array
    with (N, 2, 2) distance temporaries twice per iteration: the oracle for
    the two-array form. Returns (center_g, center_e, sigma, P_e, iterations,
    log_likelihood)."""
    z = np.asarray(points).astype(complex)
    xy = np.column_stack([z.real, z.imag])
    head = xy[:1000]
    d0 = np.linalg.norm(head - head[0], axis=1)
    seed1 = head[int(np.argmax(d0))]
    d1 = np.linalg.norm(head - seed1, axis=1)
    seed2 = head[int(np.argmax(d1))]
    mu = np.array([seed1, seed2])
    var = max(xy.var(axis=0).sum() / 2.0, 1e-30)
    weights = np.array([0.5, 0.5])
    loglik = -np.inf
    for iterations in range(1, jumps._EM_MAX_ITER + 1):
        d2 = ((xy[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
        log_p = np.log(weights)[None, :] - d2 / (2 * var) \
            - math.log(2 * math.pi * var)
        mx = log_p.max(axis=1, keepdims=True)
        lse = mx[:, 0] + np.log(np.exp(log_p - mx).sum(axis=1))
        resp = np.exp(log_p - lse[:, None])
        new_loglik = float(lse.sum())
        nk = resp.sum(axis=0)
        mu = (resp.T @ xy) / nk[:, None]
        d2 = ((xy[:, None, :] - mu[None, :, :]) ** 2).sum(axis=2)
        var = max(float((resp * d2).sum() / (2.0 * z.size)), 1e-300)
        weights = nk / z.size
        if abs(new_loglik - loglik) < jumps._EM_TOL * max(1.0, abs(new_loglik)):
            loglik = new_loglik
            break
        loglik = new_loglik
    g = int(np.argmax(weights))
    e = 1 - g
    return (complex(*mu[g]), complex(*mu[e]), math.sqrt(var),
            float(weights[e]), iterations, loglik)


class TestIqCluster:
    @pytest.mark.parametrize("seed, tg, ro", [
        (0, TG, RO),
        (1, TG, RO),
        (2, jumps.TelegraphParams(T_up=200e-6, T_down=300e-6),
         jumps.ReadoutModel(center_g=2 - 1j, center_e=-1.5 + 3j,
                            sigma_cloud=0.8, spacing=5e-6)),
    ])
    def test_matches_broadcast_oracle(self, seed, tg, ro):
        traj = jumps.simulate_trajectory(tg, ro, 0.1, seed)  # 20k shots
        cl = jumps.iq_cluster(traj.iq_points)
        g, e, sigma, p_e, iterations, loglik = broadcast_em(traj.iq_points)
        # the centers to 1e-12 of the cloud separation: a center at the
        # origin has no relative error of its own
        scale = abs(e - g)
        assert abs(cl.center_g - g) <= 1e-12 * scale
        assert abs(cl.center_e - e) <= 1e-12 * scale
        assert cl.sigma_cloud == pytest.approx(sigma, rel=1e-12, abs=0)
        assert cl.P_e == pytest.approx(p_e, rel=1e-12, abs=0)
        assert cl.log_likelihood == pytest.approx(loglik, rel=1e-12, abs=0)
        assert cl.iterations == iterations

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, math.nan)])
    def test_non_finite_points_rejected(self, bad):
        pts = jumps.simulate_trajectory(TG, RO, 0.01, seed=1).iq_points.copy()
        pts[500] = bad
        with pytest.raises(InvalidParameterError, match="IQ points must be finite"):
            jumps.iq_cluster(pts)

    def test_weight_recovery(self):
        rng = np.random.default_rng(3)
        n = 20000
        labels = (rng.random(n) < 0.215).astype(int)
        pts = np.where(labels == 1, 6 + 0j, 0j) \
            + rng.normal(0, 1, n) + 1j * rng.normal(0, 1, n)
        cl = jumps.iq_cluster(pts)
        assert abs(cl.P_e - labels.mean()) < 0.01
        assert abs(cl.center_g) < 0.05
        assert abs(cl.center_e - 6) < 0.05
        assert cl.sigma_cloud == pytest.approx(1.0, rel=0.02, abs=0)

    def test_majority_component_is_ground_without_labels(self):
        rng = np.random.default_rng(4)
        n = 10000
        labels = (rng.random(n) < 0.2).astype(int)
        pts = np.where(labels == 1, 6 + 0j, 0j) \
            + rng.normal(0, 1, n) + 1j * rng.normal(0, 1, n)
        cl = jumps.iq_cluster(pts)
        assert abs(cl.center_g) < 0.1
        assert cl.P_e < 0.5

    def test_single_cluster_rejected(self):
        rng = np.random.default_rng(6)
        pts = rng.normal(0, 1, 5000) + 1j * rng.normal(0, 1, 5000)
        with pytest.raises(ClusteringError):
            jumps.iq_cluster(pts)

    def test_needs_enough_points(self):
        with pytest.raises(InvalidParameterError):
            jumps.iq_cluster(np.zeros(10, dtype=complex))


class TestThermal:
    def test_population_at_74mK(self):
        # h x 2 GHz / k_B = 96 mK; Boltzmann arithmetic gives 0.215
        assert CONSTANTS.h * 2e9 / CONSTANTS.k_B == pytest.approx(0.096,
                                                                  abs=5e-4)
        assert jumps.thermal_population(0.074, 2e9) == pytest.approx(0.2147,
                                                                     abs=5e-4)

    def test_effective_temperature(self):
        assert jumps.effective_temperature(0.215, 2e9) == pytest.approx(
            0.074, abs=1e-3)

    def test_zero_temperature_limit(self):
        assert jumps.thermal_population(1e-6, 2e9) == 0.0

    def test_round_trip(self):
        T = 0.074
        back = jumps.effective_temperature(
            jumps.thermal_population(T, 2e9), 2e9)
        assert back == pytest.approx(T, rel=1e-10, abs=0)

    @given(st.floats(min_value=1e-3, max_value=10.0),
           st.floats(min_value=1e8, max_value=1e11))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_property(self, T, f_q):
        p = jumps.thermal_population(T, f_q)
        if p < 1e-290:  # denormal populations carry too few bits
            return
        assert jumps.effective_temperature(p, f_q) == pytest.approx(
            T, rel=1e-10, abs=0)

    @given(st.floats(min_value=1e-4, max_value=0.999))
    @settings(max_examples=100, deadline=None)
    def test_harmonic_mean_inequality(self, ratio):
        stats = jumps.DwellStats(T_up_hat=1e-4, T_down_hat=ratio * 1e-4,
                                 n_up=100, n_down=100, min_run=5)
        assert stats.T1_hat <= min(stats.T_up_hat, stats.T_down_hat)

    def test_inversion_rejected(self):
        with pytest.raises(PopulationInversionError):
            jumps.effective_temperature(0.7, 2e9)

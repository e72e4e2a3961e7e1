import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import core, energetics
from vortexlab.constants import CONSTANTS
from vortexlab.errors import (DivergenceError, DomainError,
                              InvalidParameterError, LinearizationError)

H = CONSTANTS.h


class TestGibbsSingle:
    def test_vanishes_at_edges(self, scales, device):
        assert energetics.gibbs_single(0.0, 5e-4, 0, scales, device) == 0.0
        assert abs(energetics.gibbs_single(device.w, 5e-4, 0, scales, device)) \
            < 1e-30

    def test_midpoint_value(self, scales, device):
        # eps0 ln(2w/(pi xi) + 1) with 2w/(pi xi) = 272.84
        g = energetics.gibbs_single(device.w / 2, 0.0, 0, scales, device)
        assert g / scales.eps0 == pytest.approx(
            math.log(2 * device.w / (math.pi * device.xi) + 1),
            rel=1e-12, abs=0)
        assert g / scales.eps0 == pytest.approx(5.613, abs=1e-3)

    def test_meissner_identity(self, scales, device):
        # 2 pi eps0 (B/Phi0) x (x - w) equals the screening term
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(0, device.w)
            B = rng.uniform(-1e-3, 1e-3)
            lhs = 2 * math.pi * scales.eps0 * (B / CONSTANTS.Phi0) \
                * x * (x - device.w)
            rhs = -CONSTANTS.Phi0 * B / (CONSTANTS.mu0 * scales.Lambda) \
                * x * (device.w - x)
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=0)

    def test_zero_field_symmetry(self, scales, device):
        rng = np.random.default_rng(3)
        x = rng.uniform(0, device.w, 50)
        g1 = energetics.gibbs_single(x, 0.0, 0, scales, device)
        g2 = energetics.gibbs_single(device.w - x, 0.0, 0, scales, device)
        assert np.allclose(g1, g2, rtol=1e-12)

    def test_linear_in_field(self, scales, device):
        x = 1.1e-6
        g0 = energetics.gibbs_single(x, 0.0, 0, scales, device)
        g1 = energetics.gibbs_single(x, 1e-4, 0, scales, device)
        g2 = energetics.gibbs_single(x, 2e-4, 0, scales, device)
        assert (g2 - g0) == pytest.approx(2 * (g1 - g0), rel=1e-12, abs=0)

    def test_vortex_density_shifts_field(self, scales, device):
        # n enters only through B - n Phi0
        n = 2.0 / device.w**2
        g_a = energetics.gibbs_single(1e-6, 5e-4, n, scales, device)
        g_b = energetics.gibbs_single(1e-6, 5e-4 - n * CONSTANTS.Phi0, 0,
                                      scales, device)
        assert g_a == pytest.approx(g_b, rel=1e-12, abs=0)

    def test_domain_error(self, scales, device):
        with pytest.raises(DomainError):
            energetics.gibbs_single(-1e-9, 0.0, 0, scales, device)


class TestTotalPotential:
    def test_no_sites_matches_baseline(self, scales, device):
        x = np.linspace(0, device.w, 64)
        v = energetics.total_potential(x, 0.0, 2e-4, 0, [], scales, device)
        g = energetics.gibbs_single(x, 2e-4, 0, scales, device)
        assert np.array_equal(v, g)

    def test_dip_value_at_center(self, scales, device):
        site = energetics.PinningSite(x_i=1e-6, y_i=0.0, V_i=H * 40e9,
                                      sigma_i=8e-9)
        v = energetics.total_potential(1e-6, 0.0, 2e-4, 0, [site], scales,
                                       device)
        g = energetics.gibbs_single(1e-6, 2e-4, 0, scales, device)
        assert v == pytest.approx(g - H * 40e9, rel=1e-12, abs=0)

    def test_deep_site_creates_local_minimum(self, scales, device):
        # grid-search oracle: the minimum sits within sigma of the site
        site = energetics.PinningSite(x_i=1e-6, y_i=0.0, V_i=H * 500e9,
                                      sigma_i=8e-9)
        x = np.linspace(0.8e-6, 1.2e-6, 4001)
        v = energetics.total_potential(x, 0.0, 2e-4, 0, [site], scales, device)
        i_min = int(np.argmin(v))
        assert 0 < i_min < x.size - 1
        assert abs(x[i_min] - site.x_i) < site.sigma_i

    @pytest.mark.parametrize("sigma", [1e200, 1e-300])
    def test_width_squaring_outside_the_float_range_rejected(self, sigma):
        # the dip divides by sigma^2: once an OverflowError, or a division
        # by zero
        with pytest.raises(InvalidParameterError,
                           match="squares outside the float range"):
            energetics.PinningSite(x_i=1e-6, y_i=0.0, V_i=H * 40e9,
                                   sigma_i=sigma)

    def test_dip_of_a_far_site_is_zero(self):
        # a distance whose square overflows gives 0, not a warning
        site = energetics.PinningSite(x_i=1e-6, y_i=1e191, V_i=H * 40e9,
                                      sigma_i=8e-9)
        assert site.dip(np.array([0.0, 1e-6]), 0.0).tolist() == [0.0, 0.0]

    def test_site_outside_strip_rejected(self, scales, device):
        site = energetics.PinningSite(x_i=-1e-9, y_i=0.0, V_i=1e-24,
                                      sigma_i=1e-9)
        with pytest.raises(DomainError):
            energetics.total_potential(1e-6, 0.0, 0.0, 0, [site], scales,
                                       device)


class TestGammaFromGeometry:
    def test_centered_well_is_field_insensitive(self, scales, device):
        assert energetics.gamma_from_geometry(10e-9, device.w / 2, scales,
                                              device) == 0.0

    def test_paper_scale_inversion(self, scales, device):
        # gamma = 20 GHz/mT with delta = 10 nm and eps0 = h x 2 THz needs
        # |2 x_bar - w| = 0.33 um (inverted by hand)
        sc = dataclasses.replace(scales, eps0=H * 2e12)
        offset = 20e12 * H * CONSTANTS.Phi0 / (2 * math.pi * sc.eps0 * 10e-9)
        assert offset == pytest.approx(0.329e-6, abs=0.002e-6)
        x_bar = (offset + device.w) / 2
        gamma = energetics.gamma_from_geometry(10e-9, x_bar, sc, device)
        assert gamma == pytest.approx(20e12, rel=1e-9, abs=0)

    def test_linear_in_separation(self, scales, device):
        g1 = energetics.gamma_from_geometry(10e-9, 1e-6, scales, device)
        g2 = energetics.gamma_from_geometry(20e-9, 1e-6, scales, device)
        assert g2 == pytest.approx(2 * g1, rel=1e-12, abs=0)

    def test_band_coverage(self, scales, device):
        # separations of 5 to 50 nm span 3 to 25 GHz/mT
        deltas = np.linspace(5e-9, 50e-9, 40)
        gammas = []
        for d in deltas:
            for x_bar in np.linspace(d, device.w - d, 40):
                gammas.append(energetics.gamma_from_geometry(d, x_bar, scales,
                                                             device))
        gammas = np.array(gammas)
        assert gammas.min() < 3e12
        assert gammas.max() > 25e12

    def test_domain_check(self, scales, device):
        with pytest.raises(DomainError):
            energetics.gamma_from_geometry(10e-9, 2e-9, scales, device)

    def test_array_call_matches_scalar_calls(self, scales, device):
        # the gamma-map grid: x_bar spans [delta, w - delta] per separation
        d = np.linspace(5e-9, 50e-9, 30)
        deltas = np.repeat(d, 30)
        x_bars = np.linspace(d, device.w - d, 30, axis=1).ravel()
        gammas = energetics.gamma_from_geometry(deltas, x_bars, scales, device)
        scalar = [energetics.gamma_from_geometry(delta, x, scales, device)
                  for delta, x in zip(deltas.tolist(), x_bars.tolist())]
        assert np.array_equal(gammas, scalar)
        # one well off the strip: the error names that well
        deltas[417], x_bars[417] = 10e-9, 2e-9
        bad = re.escape(f"[{2e-9 - 5e-9}, {2e-9 + 5e-9}]")
        with pytest.raises(DomainError, match=bad):
            energetics.gamma_from_geometry(deltas, x_bars, scales, device)


class TestWellAsymmetry:
    def test_zero_separation_limit(self, scales, device):
        # delta -> 0 kills the asymmetry at every field
        val = energetics.well_detuning(1e-6, 1e-12, 3e-4, scales, device)
        assert abs(val) < 1e-6 * scales.eps0

    def test_field_slope_matches_gamma(self, scales, device):
        x_bar, delta = 1e-6, 30e-9
        gamma = energetics.gamma_from_geometry(delta, x_bar, scales, device)
        d_plus = energetics.well_detuning(x_bar, delta, 3.0e-4 + 5e-7, scales,
                                          device)
        d_minus = energetics.well_detuning(x_bar, delta, 3.0e-4 - 5e-7, scales,
                                           device)
        slope = abs(d_plus - d_minus) / 1e-6
        assert slope == pytest.approx(H * gamma, rel=1e-6, abs=0)

    def test_degeneracy_field_zeroes_detuning(self, scales, device):
        x_bar, delta = 1e-6, 30e-9
        B_star = energetics.degeneracy_field(x_bar, delta, scales, device)
        assert abs(energetics.well_detuning(x_bar, delta, B_star, scales,
                                            device)) < 1e-12 * scales.eps0

    def test_centered_well_has_no_degeneracy_field(self, scales, device):
        with pytest.raises(DivergenceError):
            energetics.degeneracy_field(device.w / 2, 30e-9, scales, device)


class TestGibbsPair:
    def test_hand_value_at_width_separation(self, scales, device):
        g = energetics.gibbs_pair((device.w / 2, 0.0), (device.w / 2, device.w),
                                  scales, device)
        expected = math.log((math.cosh(math.pi) + 1) / (math.cosh(math.pi) - 1))
        assert g / scales.eps0 == pytest.approx(expected, rel=1e-12, abs=0)
        assert g / scales.eps0 == pytest.approx(0.1729, abs=1e-4)

    def test_exponential_decay_with_distance(self, scales, device):
        w = device.w
        g1 = energetics.gibbs_pair((w / 2, 0.0), (w / 2, 2 * w), scales, device)
        g2 = energetics.gibbs_pair((w / 2, 0.0), (w / 2, 3 * w), scales, device)
        assert g2 < g1
        assert g2 / g1 == pytest.approx(math.exp(-math.pi), rel=0.01, abs=0)

    @pytest.mark.parametrize("widths", [8, 10])
    def test_far_on_axis_matches_atanh_form(self, scales, device, widths):
        # on the axis G2 = eps0 ln((c + 1) / (c - 1)) = 4 eps0 atanh(e^-u dy),
        # whose ratio of the logarithm tends to 1 far apart
        w = device.w
        g = energetics.gibbs_pair((w / 2, 0.0), (w / 2, widths * w), scales,
                                  device)
        exact = 4 * scales.eps0 * math.atanh(math.exp(-math.pi * widths))
        assert abs(g - exact) <= 1e-13 * exact

    def test_edge_cancellation(self, scales, device):
        g = energetics.gibbs_pair((1e-12, 0.0), (1.5e-6, 1e-6), scales, device)
        assert abs(g) < 1e-5 * scales.eps0

    def test_divergence_for_coincident(self, scales, device):
        with pytest.raises(DivergenceError):
            energetics.gibbs_pair((1e-6, 0.0), (1e-6, 0.0), scales, device)

    def test_repulsive_over_random_sample(self, scales, device):
        rng = np.random.default_rng(8)
        w = device.w
        for _ in range(400):
            x1, x2 = rng.uniform(0.05 * w, 0.95 * w, 2)
            y1, y2 = rng.uniform(0, 5 * w, 2)
            if x1 == x2 and y1 == y2:
                continue
            g = energetics.gibbs_pair((x1, y1), (x2, y2), scales, device)
            assert g >= 0.0

    @given(st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.05, max_value=0.95),
           st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=0.05, max_value=4.0))
    @settings(max_examples=100, deadline=None)
    def test_exchange_symmetry(self, fx1, fx2, fy1, dy):
        device = core.example_device()
        scales = core.derive_scales(device)
        r1 = (fx1 * device.w, fy1 * device.w)
        r2 = (fx2 * device.w, (fy1 + dy) * device.w)
        g12 = energetics.gibbs_pair(r1, r2, scales, device)
        g21 = energetics.gibbs_pair(r2, r1, scales, device)
        assert g12 == pytest.approx(g21, rel=1e-12, abs=0)


class TestPairCoupling:
    def test_central_axis_dominant_yy(self, scales, device):
        w = device.w
        pair = energetics.VortexPair((w / 2, 0.0), (w / 2, w), 10e-9)
        pc = energetics.pair_coupling(pair, scales, device)
        hess = pc.hessian
        assert abs(hess[0, 1]) < 1e-10 * abs(hess[1, 1])
        assert abs(hess[1, 0]) < 1e-10 * abs(hess[1, 1])
        # the xx admixture is sech(pi dy/w), exponentially small in dy/w
        assert abs(hess[0, 0] / hess[1, 1]) == pytest.approx(
            1 / math.cosh(math.pi), rel=1e-3, abs=0)

    def test_far_separation_only_yy(self, scales, device):
        # on the axis the Hessian is eps0 (2 u^2 / S^2) [[1, 0], [0, -c]]:
        # xx / yy = -sech(u dy) is all that is left of the other entries
        w = device.w
        u = math.pi / w
        for widths in (1, 2, 8):
            pair = energetics.VortexPair((w / 2, 0.0), (w / 2, widths * w),
                                         10e-9)
            hess = energetics.pair_coupling(pair, scales, device).hessian
            c, S = math.cosh(math.pi * widths), math.sinh(math.pi * widths)
            exact = scales.eps0 * 2 * u**2 / S**2 * np.array([[1.0, 0.0],
                                                              [0.0, -c]])
            assert np.all(np.abs(hess - exact) <= 1e-12 * abs(exact[1, 1]))

    @pytest.mark.parametrize("r1, r2", [
        ((0.5, 0.0), (0.5, 1.0)), ((0.35, 0.0), (0.65, 0.9)),
        ((0.3, 0.0), (0.6, 1.7))])
    def test_matches_central_difference_stencil(self, scales, device, r1, r2):
        # the former implementation: central differences of gibbs_pair, step
        # 1e-4 w, as an oracle (positions in widths)
        w = device.w
        R1, R2 = np.array(r1) * w, np.array(r2) * w
        h = 1e-4 * w

        def g2(a, b):
            return energetics.gibbs_pair(tuple(a), tuple(b), scales, device)

        e = np.eye(2)
        stencil = np.array([[
            (g2(R1 + h * e[i], R2 + h * e[j]) - g2(R1 + h * e[i], R2 - h * e[j])
             - g2(R1 - h * e[i], R2 + h * e[j])
             + g2(R1 - h * e[i], R2 - h * e[j])) / (4 * h * h)
            for j in range(2)] for i in range(2)])
        hess = energetics.pair_coupling(
            energetics.VortexPair(tuple(R1), tuple(R2), 10e-9), scales,
            device).hessian
        assert np.all(np.abs(hess - stencil) <= 1e-6 * np.abs(hess).max())

    def test_exchange_symmetry_of_scale(self, scales, device):
        w = device.w
        a = energetics.pair_coupling(
            energetics.VortexPair((0.4 * w, 0.0), (0.7 * w, 1.3 * w), 10e-9),
            scales, device)
        b = energetics.pair_coupling(
            energetics.VortexPair((0.7 * w, 1.3 * w), (0.4 * w, 0.0), 10e-9),
            scales, device)
        assert a.energy_scale == pytest.approx(b.energy_scale, rel=1e-6,
                                               abs=0)

    def test_mixed_partials_match_on_mirror_configs(self, scales, device):
        # with x1 + x2 = w the two mixed partials coincide analytically
        w = device.w
        pair = energetics.VortexPair((0.35 * w, 0.0), (0.65 * w, 0.9 * w),
                                     10e-9)
        pc = energetics.pair_coupling(pair, scales, device)
        hess = pc.hessian
        assert hess[0, 1] == pytest.approx(hess[1, 0], rel=1e-6, abs=0)
        assert hess[0, 1] != 0.0

    def test_coupling_much_below_qubit_frequency(self, scales, device):
        # at one-width separation the scale is tens of MHz, far below a
        # 12.5 GHz qubit
        w = device.w
        pair = energetics.VortexPair((w / 2, 0.0), (w / 2, w), 10e-9)
        pc = energetics.pair_coupling(pair, scales, device)
        assert pc.energy_scale / H * 10 < 12.5e9
        assert 1e6 < pc.energy_scale / H < 100e6

    def test_linearization_guard(self):
        with pytest.raises(LinearizationError):
            energetics.VortexPair((1e-6, 0.0), (1.05e-6, 0.0), 10e-9)


class TestCouplingEstimate:
    def _inp(self, y_zpf, Z_r=3e3):
        return energetics.CouplingEstimateInput(
            Z_r=Z_r, w=3e-6, t=24e-9, lambda_L=4e-6, y_zpf=y_zpf)

    def test_band_within_factor_two(self):
        # frozen direct-formula values: 0.651% at 1 nm, 0.0651% at 10 nm
        hi = energetics.coupling_estimate(self._inp(1e-9))
        lo = energetics.coupling_estimate(self._inp(10e-9))
        assert hi == pytest.approx(6.512e-3, rel=1e-3, abs=0)
        assert lo == pytest.approx(6.512e-4, rel=1e-3, abs=0)
        for val in (hi, lo):
            assert 0.05e-2 <= val <= 2e-2

    def test_inverse_in_y_zpf(self):
        a = energetics.coupling_estimate(self._inp(2e-9))
        b = energetics.coupling_estimate(self._inp(4e-9))
        assert a == pytest.approx(2 * b, rel=1e-12, abs=0)

    def test_impedance_scaling(self):
        a = energetics.coupling_estimate(self._inp(2e-9, Z_r=3e3))
        b = energetics.coupling_estimate(self._inp(2e-9, Z_r=12e3))
        assert a == pytest.approx(2 * b, rel=1e-12, abs=0)

    def test_sanity_band(self):
        with pytest.raises(InvalidParameterError):
            self._inp(5e-6)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vortexlab import core
from vortexlab.constants import CONSTANTS
from vortexlab.errors import (DegenerateFitError, InvalidDeviceError,
                              InvalidParameterError)


def test_constants_identities():
    c = CONSTANTS
    assert abs(c.Phi0 - c.h / (2 * c.e)) <= 1e-12 * c.Phi0
    assert abs(c.R_K - c.h / c.e**2) <= 1e-12 * c.R_K
    assert abs(c.R_K - 25812.807) < 0.01


class TestDeviceValidation:
    def test_example_device_valid(self, device):
        assert device.w == 3e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidDeviceError):
            core.DeviceModel(w=0.0, t=24e-9, xi=7e-9, lambda_L=4e-6)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidDeviceError):
            core.DeviceModel(w=math.nan, t=24e-9, xi=7e-9, lambda_L=4e-6)

    def test_rejects_thick_film(self):
        with pytest.raises(InvalidDeviceError):
            core.DeviceModel(w=3e-6, t=5e-6, xi=7e-9, lambda_L=4e-6)

    def test_rejects_wide_coherence_length(self):
        with pytest.raises(InvalidDeviceError):
            core.DeviceModel(w=3e-6, t=24e-9, xi=4e-6, lambda_L=4e-6)


class TestDerivedScales:
    def test_threshold_value(self, scales):
        # (2/pi) ln(2 * 3um / (pi * 7nm)) evaluated by hand
        assert scales.phi_S == pytest.approx(3.57, abs=0.01)
        assert scales.phi_S == pytest.approx(
            (2 / math.pi) * math.log(2 * 3e-6 / (math.pi * 7e-9)),
            rel=1e-12, abs=0)

    def test_screening_length(self, scales):
        assert scales.Lambda == pytest.approx(
            2 * (4e-6) ** 2 / 24e-9, rel=1e-12, abs=0)
        assert scales.Lambda == pytest.approx(1.333e-3, rel=1e-3, abs=0)

    def test_threshold_field(self, scales):
        assert scales.B_S == pytest.approx(
            scales.phi_S * CONSTANTS.Phi0 / 9e-12, rel=1e-12, abs=0)
        assert scales.B_S == pytest.approx(820e-6, rel=0.01, abs=0)

    def test_energy_scale_identity(self, scales):
        lhs = scales.eps0 * 2 * math.pi * CONSTANTS.mu0 * scales.Lambda
        assert lhs == pytest.approx(CONSTANTS.Phi0**2, rel=1e-10, abs=0)

    def test_homogeneous_in_geometry(self, device):
        # scaling w and xi together leaves phi_S unchanged
        sc1 = core.derive_scales(device)
        scaled = core.DeviceModel(w=device.w * 3.7, t=device.t,
                                  xi=device.xi * 3.7, lambda_L=device.lambda_L)
        sc2 = core.derive_scales(scaled)
        assert sc2.phi_S == pytest.approx(sc1.phi_S, rel=1e-12, abs=0)

    @pytest.mark.parametrize("change,message", [
        ({"xi": 0.9 * 3e-6}, r"w_um and xi_nm give phi_S = -0\.22"),
        ({"xi": 1e-319}, "w_um and xi_nm give phi_S = inf"),
        ({"t": 1e-319}, "t_nm and lambda_L_um give Lambda = inf"),
        ({"lambda_L": 1e148, "t": 1e-8}, "t_nm and lambda_L_um give eps0 = 0"),
        # squares past the float range, once an OverflowError
        ({"lambda_L": 1e200}, "t_nm and lambda_L_um give Lambda = inf"),
        ({"w": 1e200}, "w_um and xi_nm give B_S = 0")])
    def test_rejects_scales_that_are_not_positive_and_finite(
            self, device, change, message):
        bad = core.DeviceModel(**{**vars(device), **change})
        with pytest.raises(InvalidParameterError, match=message):
            core.derive_scales(bad)


@pytest.mark.parametrize("values", [
    [3.0], [2.0, -1.0], [0.1, 0.7, 0.2], [1e308, 1e308, -5.0, 2.5],
    list(np.random.default_rng(3).standard_normal(101)),
    list(np.random.default_rng(4).standard_normal(100)), [1.0, math.nan, 0.0]])
def test_median_is_numpy_median(values):
    # the same bits, without np.median's import of numpy.ma
    expected, got = np.median(np.array(values)), core.median(np.array(values))
    assert got == expected or (math.isnan(got) and math.isnan(expected))


class TestFluxBias:
    def test_field_cool_value(self):
        assert core.flux_bias(820e-6, 3e-6) == pytest.approx(3.569, abs=2e-3)

    def test_zero_field(self):
        assert core.flux_bias(0.0, 3e-6) == 0.0

    def test_sweet_spot_value(self):
        assert core.flux_bias(128e-6, 3e-6) == pytest.approx(0.557, abs=1e-3)

    def test_sign_follows_field(self):
        assert core.flux_bias(-820e-6, 3e-6) < 0

    def test_round_trip_with_threshold(self, scales):
        # B_S w^2 / Phi0 recovers phi_S exactly
        assert core.flux_bias(scales.B_S, 3e-6) == pytest.approx(
            scales.phi_S, rel=1e-12, abs=0)

    def test_rejects_bad_width(self):
        with pytest.raises(InvalidParameterError):
            core.flux_bias(1e-4, 0.0)


class TestVortexRegime:
    def test_below_threshold(self, scales):
        r = core.vortex_regime(0.5 * scales.phi_S, scales.phi_S)
        assert r is core.VortexRegime.NO_STABLE_VORTICES

    def test_single_row(self, scales):
        r = core.vortex_regime(1.5 * scales.phi_S, scales.phi_S)
        assert r is core.VortexRegime.SINGLE_ROW

    def test_two_row(self, scales):
        r = core.vortex_regime(3.0 * scales.phi_S, scales.phi_S)
        assert r is core.VortexRegime.TWO_ROW

    def test_boundaries(self, scales):
        ps = scales.phi_S
        assert core.vortex_regime(ps, ps) is core.VortexRegime.SINGLE_ROW
        assert core.vortex_regime(2.48 * ps, ps) is core.VortexRegime.SINGLE_ROW
        assert core.vortex_regime(math.nextafter(2.48 * ps, math.inf), ps) \
            is core.VortexRegime.TWO_ROW

    def test_polarity_symmetric(self, scales):
        ps = scales.phi_S
        for phi in (0.3 * ps, 1.3 * ps, 3.3 * ps):
            assert core.vortex_regime(-phi, ps) is core.vortex_regime(phi, ps)

    @given(st.floats(min_value=0.0, max_value=4.0))
    @settings(max_examples=200, deadline=None)
    def test_monotone_regime_ordering(self, ratio):
        order = {core.VortexRegime.NO_STABLE_VORTICES: 0,
                 core.VortexRegime.SINGLE_ROW: 1,
                 core.VortexRegime.TWO_ROW: 2}
        phi_S = 3.5707
        here = order[core.vortex_regime(ratio * phi_S, phi_S)]
        below = order[core.vortex_regime(0.99 * ratio * phi_S, phi_S)]
        assert below <= here


class TestEsrField:
    def test_paper_calibration_point(self):
        assert core.esr_field(7.627e9, 2.0) == pytest.approx(
            272.5e-3, rel=1e-3, abs=0)

    def test_zero_frequency(self):
        assert core.esr_field(0.0, 2.0) == 0.0

    def test_hand_value(self):
        # h * 2 GHz / (2 mu_B)
        assert core.esr_field(2e9, 2.0) == pytest.approx(71.4e-3, abs=0.1e-3)

    def test_linearity(self):
        f = 3.21e9
        assert core.esr_field(2 * f, 2.0) == pytest.approx(
            2 * core.esr_field(f, 2.0), rel=1e-12, abs=0)

    @given(st.floats(min_value=1e6, max_value=1e12),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_linearity_property(self, f, g):
        assert core.esr_field(2 * f, g) == pytest.approx(
            2 * core.esr_field(f, g), rel=1e-12, abs=0)

    def test_rejects_bad_g(self):
        with pytest.raises(InvalidParameterError):
            core.esr_field(1e9, 0.0)


class TestCalibrateCoil:
    def test_two_point_exact(self):
        cal = core.calibrate_coil([(0.0, 0.0), (1.0, 72.8e-3)])
        assert cal.slope == pytest.approx(72.8e-3, rel=1e-12, abs=0)
        assert cal.intercept == pytest.approx(0.0, abs=1e-18)
        assert cal.slope_std_error == 0.0

    def test_noisy_round_trip(self):
        rng = np.random.default_rng(7)
        current = np.linspace(0, 2, 25)
        field = 72.8e-3 * current + rng.normal(0, 0.1e-3, current.size)
        cal = core.calibrate_coil(list(zip(current, field)))
        assert abs(cal.slope - 72.8e-3) < 3 * cal.slope_std_error
        assert cal.slope_std_error > 0

    def test_flat_line(self):
        cal = core.calibrate_coil([(0.0, 5e-3), (1.0, 5e-3), (2.0, 5e-3)])
        assert cal.slope == 0.0

    def test_identical_currents(self):
        with pytest.raises(DegenerateFitError):
            core.calibrate_coil([(1.0, 0.0), (1.0, 1e-3)])

    def test_too_few_points(self):
        with pytest.raises(DegenerateFitError):
            core.calibrate_coil([(1.0, 1e-3)])

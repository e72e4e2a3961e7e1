"""Device description and the closed-form derived scales and thresholds.

Everything downstream (field landscapes, Rabi spectra, tunneling solver)
consumes the scales computed here. All quantities are SI internally:
lengths in meters, fields in tesla, frequencies in Hz, energies in joules.
The CLI layer converts to display units.
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import CONSTANTS
from .errors import DegenerateFitError, InvalidDeviceError, InvalidParameterError

# Flux bias (in units of phi_S) where a single vortex row splits into two.
BUCKLING_RATIO = 2.48


@dataclass(frozen=True)
class DeviceModel:
    """Geometry and film parameters of one resonator."""

    w: float          # strip width (m)
    t: float          # film thickness (m)
    xi: float         # coherence length (m)
    lambda_L: float   # London penetration depth (m)

    def __post_init__(self):
        values = (self.w, self.t, self.xi, self.lambda_L)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise InvalidDeviceError(
                "all device parameters must be positive and finite")
        if self.t >= self.lambda_L:
            raise InvalidDeviceError(
                f"thin-film limit requires t < lambda_L, got t={self.t}, "
                f"lambda_L={self.lambda_L}")
        if self.xi >= self.w:
            raise InvalidDeviceError(
                f"stability threshold requires xi < w, got xi={self.xi}, "
                f"w={self.w}")


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from a DeviceModel.

    Lambda: thin-film screening length 2 lambda_L^2 / t (m)
    eps0:   single-vortex energy Phi0^2 / (2 pi mu0 Lambda) (J)
    phi_S:  dimensionless flux bias above which vortices are stable
    B_S:    threshold field phi_S Phi0 / w^2 (T)
    """

    Lambda: float
    eps0: float
    phi_S: float
    B_S: float


def example_device() -> DeviceModel:
    """Device used by the bundled example configuration and the test suite."""
    return DeviceModel(w=3e-6, t=24e-9, xi=7e-9, lambda_L=4e-6)


def derive_scales(device: DeviceModel) -> DerivedScales:
    """Compute the screening length, vortex energy scale and thresholds;
    one that is not positive and finite is an InvalidParameterError."""
    # squares as products: a Python float's ** 2 raises OverflowError
    Lambda = 2.0 * (device.lambda_L * device.lambda_L) / device.t
    eps0 = CONSTANTS.Phi0**2 / (2.0 * math.pi * CONSTANTS.mu0 * Lambda)
    phi_S = (2.0 / math.pi) * math.log(2.0 * device.w / (math.pi * device.xi))
    B_S = phi_S * CONSTANTS.Phi0 / (device.w * device.w)
    for name, value, keys in (("Lambda", Lambda, "t_nm and lambda_L_um"),
                              ("eps0", eps0, "t_nm and lambda_L_um"),
                              ("phi_S", phi_S, "w_um and xi_nm"),
                              ("B_S", B_S, "w_um and xi_nm")):
        if not 0.0 < value < math.inf:
            raise InvalidParameterError(
                f"{keys} give {name} = {value:g}; derived scales must be "
                "positive and finite")
    return DerivedScales(Lambda=Lambda, eps0=eps0, phi_S=phi_S, B_S=B_S)


def median(values: np.ndarray) -> float:
    """np.median of a 1D array, bit for bit, from one sort: np.median's
    first call imports numpy.ma (about 10 ms). NaN when values is empty
    or holds a NaN."""
    v = np.sort(values)
    if v.size == 0 or np.isnan(v[-1]):
        return math.nan
    m = v.size // 2
    return float(v[m] if v.size % 2 else (v[m - 1] + v[m]) / 2)


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the
    platform reports one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def flux_bias(B: float, w: float) -> float:
    """Dimensionless flux bias B w^2 / Phi0; sign follows the sign of B."""
    if not (w > 0):
        raise InvalidParameterError(f"width must be positive, got {w}")
    if not math.isfinite(B):
        raise InvalidParameterError(f"field must be finite, got {B}")
    return B * w**2 / CONSTANTS.Phi0


class VortexRegime(enum.Enum):
    NO_STABLE_VORTICES = "NoStableVortices"
    SINGLE_ROW = "SingleRow"
    TWO_ROW = "TwoRow"


def vortex_regime(phi: float, phi_S: float) -> VortexRegime:
    """Classify the vortex configuration at flux bias phi.

    Field polarity is symmetric, so only |phi| matters. Boundaries:
    |phi| < phi_S has no stable vortices, phi_S <= |phi| <= 2.48 phi_S is a
    single row, above that the row buckles into two.
    """
    if not (phi_S > 0):
        raise InvalidParameterError(f"phi_S must be positive, got {phi_S}")
    a = abs(phi)
    if a < phi_S:
        return VortexRegime.NO_STABLE_VORTICES
    if a <= BUCKLING_RATIO * phi_S:
        return VortexRegime.SINGLE_ROW
    return VortexRegime.TWO_ROW


def esr_field(f: float, g_factor: float) -> float:
    """Field (T) bringing g-factor spin-1/2 impurities into resonance at f (Hz)."""
    if g_factor <= 0:
        raise InvalidParameterError(f"g-factor must be positive, got {g_factor}")
    if not (math.isfinite(f) and f >= 0):
        raise InvalidParameterError(f"frequency must be finite and >= 0, got {f}")
    return CONSTANTS.h * f / (g_factor * CONSTANTS.mu_B)


@dataclass(frozen=True)
class CoilCalibration:
    """Ordinary least-squares line through (current, field) points."""

    slope: float            # T/A
    intercept: float        # T
    slope_std_error: float
    intercept_std_error: float
    n_points: int


def calibrate_coil(points: Sequence[tuple[float, float]]) -> CoilCalibration:
    """Fit field versus coil current with an ordinary least-squares line.

    Needs at least two points with distinct currents. Standard errors are
    zero when the line is exact (including the two-point case).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 2:
        raise DegenerateFitError("need at least two (current, field) points")
    current, field = pts[:, 0], pts[:, 1]
    n = len(current)
    dI = current - current.mean()
    sxx = float(dI @ dI)
    if sxx == 0.0:
        raise DegenerateFitError("all currents identical, slope is unconstrained")
    slope = float(dI @ (field - field.mean())) / sxx
    intercept = float(field.mean() - slope * current.mean())
    residuals = field - (slope * current + intercept)
    dof = n - 2
    if dof > 0:
        sigma2 = float(residuals @ residuals) / dof
    else:
        sigma2 = 0.0
    slope_err = math.sqrt(sigma2 / sxx)
    intercept_err = math.sqrt(sigma2 * (1.0 / n + current.mean()**2 / sxx))
    return CoilCalibration(slope=slope, intercept=intercept,
                           slope_std_error=slope_err,
                           intercept_std_error=intercept_err, n_points=n)

"""Vortex potential-energy surfaces and interaction estimates.

Single-vortex energy along the strip width, Lorentzian pinning dips,
double-well asymmetry and its field slope, the two-vortex interaction with
its mixed Hessian, and the closed-form resonator-coupling estimate. All
energies in joules; positions in meters measured across the strip width
x in [0, w] and along its length y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .constants import CONSTANTS
from .core import DeviceModel, DerivedScales
from .errors import (DivergenceError, DomainError, InvalidParameterError,
                     LinearizationError)


@dataclass(frozen=True)
class PinningSite:
    """Lorentzian pinning dip of depth V_i (J) and width sigma_i (m)."""

    x_i: float
    y_i: float
    V_i: float
    sigma_i: float

    def __post_init__(self):
        if not (self.V_i > 0 and self.sigma_i > 0):
            raise InvalidParameterError("pinning depth and width must be positive")

    def dip(self, x, y):
        r2 = (np.asarray(x) - self.x_i) ** 2 + (np.asarray(y) - self.y_i) ** 2
        return self.V_i / (1.0 + r2 / self.sigma_i**2)


@dataclass(frozen=True)
class VortexPair:
    """Two pinned vortices at R1 and R2 with tunneling length delta_LR."""

    R1: tuple[float, float]
    R2: tuple[float, float]
    delta_LR: float

    def __post_init__(self):
        if self.delta_LR <= 0:
            raise InvalidParameterError("delta_LR must be positive")
        sep = math.hypot(self.R1[0] - self.R2[0], self.R1[1] - self.R2[1])
        if sep <= 10.0 * self.delta_LR:
            raise LinearizationError(
                f"separation {sep} too small for linearization, need more "
                f"than 10 delta_LR = {10 * self.delta_LR}")


@dataclass(frozen=True)
class CouplingEstimateInput:
    f_r: float       # Hz
    Z_r: float       # ohm
    w: float         # m
    t: float         # m
    lambda_L: float  # m
    y_zpf: float     # m

    def __post_init__(self):
        values = (self.f_r, self.Z_r, self.w, self.t, self.lambda_L, self.y_zpf)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise InvalidParameterError("all inputs must be positive and finite")
        if not (0.1e-9 <= self.y_zpf <= 1e-6):
            raise InvalidParameterError(
                f"y_zpf {self.y_zpf} outside the [0.1 nm, 1 um] sanity band")


# ---------------------------------------------------------------------------
# single-vortex landscape
# ---------------------------------------------------------------------------

def _check_x_domain(x, w: float):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > w):
        raise DomainError(f"position outside the strip [0, {w}]")
    return x


def gibbs_single(x, B: float, n: float, scales: DerivedScales,
                 device: DeviceModel):
    """Energy (J) of one vortex at position x across the width.

    Self-energy term eps0 ln((2w / pi xi) sin(pi x / w) + 1) plus the
    screening-current term -Phi0 (B - n Phi0) / (mu0 Lambda) x (w - x),
    with n the areal density of the other vortices. Vanishes at both
    edges.
    """
    w = device.w
    x = _check_x_domain(x, w)
    geom = 2.0 * w / (math.pi * device.xi)
    self_energy = scales.eps0 * np.log1p(geom * np.sin(math.pi * x / w))
    meissner = (CONSTANTS.Phi0 * (B - n * CONSTANTS.Phi0)
                / (CONSTANTS.mu0 * scales.Lambda)) * x * (w - x)
    return self_energy - meissner


def total_potential(x, y, B: float, n: float, sites: Sequence[PinningSite],
                    scales: DerivedScales, device: DeviceModel):
    """Single-vortex energy minus the Lorentzian pinning dips (J)."""
    for s in sites:
        if not (0.0 < s.x_i < device.w):
            raise DomainError(f"pinning site at x={s.x_i} outside (0, {device.w})")
    out = gibbs_single(x, B, n, scales, device)
    for s in sites:
        out = out - s.dip(x, y)
    return out


# ---------------------------------------------------------------------------
# double-well asymmetry and field dispersion
# ---------------------------------------------------------------------------

def _check_well_domain(x_bar, delta_LR, w: float):
    lo, hi = np.broadcast_arrays(x_bar - delta_LR / 2.0, x_bar + delta_LR / 2.0)
    inside = (0.0 < lo) & (hi < w)
    if not np.all(inside):
        i = np.argmin(inside)  # the first well outside
        raise DomainError(f"double well [{lo.flat[i]}, {hi.flat[i]}] must "
                          f"sit strictly inside (0, {w})")


def gamma_from_geometry(delta_LR, x_bar, scales: DerivedScales,
                        device: DeviceModel):
    """Field dispersion (Hz/T) of a double well from its geometry.

    gamma = (2 pi / h) (eps0 / Phi0) |delta_LR (2 x_bar - w)|; zero for a
    well centered on the strip axis and linear in the site separation.
    delta_LR and x_bar may be arrays (broadcast elementwise); every well
    must lie inside the strip.
    """
    _check_well_domain(x_bar, delta_LR, device.w)
    return (2.0 * math.pi / CONSTANTS.h) * (scales.eps0 / CONSTANTS.Phi0) * \
        abs(delta_LR * (2.0 * x_bar - device.w))


def well_detuning(x_bar: float, delta_LR: float, B: float,
                  scales: DerivedScales, device: DeviceModel) -> float:
    """Signed energy offset (J) between the left and right well bottoms.

    G1(x_bar - delta/2; B) - G1(x_bar + delta/2; B) with no other vortices
    (n = 0); linear in B with slope magnitude h * gamma_from_geometry.
    """
    _check_well_domain(x_bar, delta_LR, device.w)
    g_left = gibbs_single(x_bar - delta_LR / 2.0, B, 0.0, scales, device)
    g_right = gibbs_single(x_bar + delta_LR / 2.0, B, 0.0, scales, device)
    return float(g_left - g_right)


def well_asymmetry(x_bar: float, delta_LR: float, B: float,
                   scales: DerivedScales, device: DeviceModel) -> float:
    """Magnitude |C - h gamma B| of the well offset (J)."""
    return abs(well_detuning(x_bar, delta_LR, B, scales, device))


def degeneracy_field(x_bar: float, delta_LR: float, scales: DerivedScales,
                     device: DeviceModel) -> float:
    """Field (T) at which the two wells align, i.e. the detuning vanishes."""
    d0 = well_detuning(x_bar, delta_LR, 0.0, scales, device)
    d1 = well_detuning(x_bar, delta_LR, 1.0, scales, device)
    slope = d1 - d0  # J per tesla, exactly linear
    if slope == 0.0:
        raise DivergenceError("well detuning does not depend on field "
                              "(centered double well)")
    return -d0 / slope


def aligned_depth(V1: float, x_bar: float, delta_LR: float, B0: float,
                  scales: DerivedScales, device: DeviceModel) -> float:
    """Depth V2 (J) aligning the second well with the first at field B0.

    For equal well curvatures the alignment constraint reads
    V2 = V1 + (G1(left) - G1(right)) evaluated at B0.
    """
    return V1 + well_detuning(x_bar, delta_LR, B0, scales, device)


# ---------------------------------------------------------------------------
# vortex pair interaction
# ---------------------------------------------------------------------------

def gibbs_pair(r1: tuple[float, float], r2: tuple[float, float],
               scales: DerivedScales, device: DeviceModel):
    """Repulsive interaction energy (J) of two vortices in the strip.

    eps0 ln[(cosh(pi dy / w) - cos(pi (x1 + x2) / w)) /
            (cosh(pi dy / w) - cos(pi (x1 - x2) / w))];
    decays exponentially on the scale of the width and diverges as the
    positions coincide.
    """
    x1, y1 = r1
    x2, y2 = r2
    w = device.w
    if not (0.0 < x1 < w and 0.0 < x2 < w):
        raise DomainError(f"vortex x positions must lie strictly inside (0, {w})")
    if x1 == x2 and y1 == y2:
        raise DivergenceError("pair energy diverges for coincident vortices")
    c = math.cosh(math.pi * (y1 - y2) / w)
    num = c - math.cos(math.pi * (x1 + x2) / w)
    den = c - math.cos(math.pi * (x1 - x2) / w)
    if den <= 0.0:
        raise DivergenceError("pair energy diverges for coincident vortices")
    return scales.eps0 * math.log(num / den)


@dataclass(frozen=True)
class PairCoupling:
    """Linearized qubit-qubit interaction of two pinned vortices.

    hessian[i, j] = d^2 G2 / dR1_i dR2_j with i, j in (x, y) (J/m^2);
    energy_scale = delta_LR^2 |sum_ij hessian[i, j]| (J) is the magnitude
    of each sigma_a (x) sigma_b coefficient, a, b in (x, z), once every
    position operator projects with unit weight onto both qubit axes.
    """

    hessian: np.ndarray
    energy_scale: float


def pair_coupling(pair: VortexPair, scales: DerivedScales, device: DeviceModel,
                  fd_step: float | None = None) -> PairCoupling:
    """Mixed Hessian of gibbs_pair and the qubit-qubit energy scale.

    Central finite differences with step fd_step (default 1e-4 w). On the
    central axis of the strip only the yy component survives, up to an
    exponentially small xx admixture of order sech(pi |y1 - y2| / w).
    """
    h = fd_step if fd_step is not None else 1e-4 * device.w
    if h <= 0:
        raise InvalidParameterError("finite-difference step must be positive")
    R1, R2 = np.asarray(pair.R1, float), np.asarray(pair.R2, float)

    def g2(a, b):
        return gibbs_pair(tuple(a), tuple(b), scales, device)

    e = np.eye(2)
    hessian = np.empty((2, 2))
    for i in range(2):
        for j in range(2):
            hessian[i, j] = (g2(R1 + h * e[i], R2 + h * e[j])
                             - g2(R1 + h * e[i], R2 - h * e[j])
                             - g2(R1 - h * e[i], R2 + h * e[j])
                             + g2(R1 - h * e[i], R2 - h * e[j])) / (4.0 * h * h)

    # column sums first: the summation order fixes energy_scale's last bit
    total = hessian.sum(axis=0).sum()
    return PairCoupling(hessian=hessian,
                        energy_scale=float(abs(pair.delta_LR**2 * total)))


# ---------------------------------------------------------------------------
# resonator coupling estimate
# ---------------------------------------------------------------------------

def coupling_estimate(inp: CouplingEstimateInput) -> float:
    """Kinetic-inductance coupling ratio g / omega_r (dimensionless).

    (1 / (w t)) (lambda_L^2 / y_zpf) (mu0 e^2 / m_e) sqrt(R_K / (4 pi Z_r));
    scales as 1/y_zpf and as Z_r^(-1/2).
    """
    return ((1.0 / (inp.w * inp.t))
            * (inp.lambda_L**2 / inp.y_zpf)
            * (CONSTANTS.mu0 * CONSTANTS.e**2 / CONSTANTS.m_e)
            * math.sqrt(CONSTANTS.R_K / (4.0 * math.pi * inp.Z_r)))

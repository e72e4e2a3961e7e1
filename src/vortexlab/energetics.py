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
        if not 0.0 < self.sigma_i * self.sigma_i < math.inf:  # dip squares it
            raise InvalidParameterError(
                f"pinning width {self.sigma_i:g} m squares outside the float "
                "range")

    def dip(self, x, y):
        # a distance whose square overflows is inf, where the dip is 0
        with np.errstate(over="ignore"):
            r2 = ((np.asarray(x) - self.x_i) ** 2
                  + (np.asarray(y) - self.y_i) ** 2)
        return self.V_i / (1.0 + r2 / (self.sigma_i * self.sigma_i))


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
    Z_r: float       # ohm
    w: float         # m
    t: float         # m
    lambda_L: float  # m
    y_zpf: float     # m

    def __post_init__(self):
        values = (self.Z_r, self.w, self.t, self.lambda_L, self.y_zpf)
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


# ---------------------------------------------------------------------------
# vortex pair interaction
# ---------------------------------------------------------------------------

def _pair_geometry(r1: tuple[float, float], r2: tuple[float, float],
                   w: float) -> tuple[float, float, float]:
    """u = pi / w, c = cosh(u (y1 - y2)) and den = c - cos(u (x1 - x2)) of
    two vortices strictly inside the strip; den vanishes only where they
    coincide. c is inf where cosh overflows, |y1 - y2| > 226 w: the pair
    energy is then below eps0 2e-308."""
    (x1, y1), (x2, y2) = r1, r2
    if not (0.0 < x1 < w and 0.0 < x2 < w):
        raise DomainError(f"vortex x positions must lie strictly inside (0, {w})")
    u = math.pi / w
    try:
        c = math.cosh(u * (y1 - y2))
    except OverflowError:
        c = math.inf
    den = c - math.cos(u * (x1 - x2))
    if den <= 0.0:
        raise DivergenceError("pair energy diverges for coincident vortices")
    return u, c, den


def gibbs_pair(r1: tuple[float, float], r2: tuple[float, float],
               scales: DerivedScales, device: DeviceModel):
    """Repulsive interaction energy (J) of two vortices in the strip.

    eps0 ln[(cosh(pi dy / w) - cos(pi (x1 + x2) / w)) /
            (cosh(pi dy / w) - cos(pi (x1 - x2) / w))];
    decays exponentially on the scale of the width and diverges as the
    positions coincide. Evaluated as eps0 log1p(2 sin(u x1) sin(u x2) / den),
    u = pi / w, which keeps its relative precision far apart, where the
    ratio of the logarithm tends to 1.
    """
    u, _, den = _pair_geometry(r1, r2, device.w)
    return scales.eps0 * math.log1p(
        2.0 * math.sin(u * r1[0]) * math.sin(u * r2[0]) / den)


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


def pair_coupling(pair: VortexPair, scales: DerivedScales,
                  device: DeviceModel) -> PairCoupling:
    """Mixed Hessian of gibbs_pair and the qubit-qubit energy scale.

    Closed form: with u = pi / w, c = cosh(u dy), S = sinh(u dy),
    dy = y1 - y2 and D(a) = c - cos(u a) for a in {s = x1 + x2,
    d = x1 - x2},
        A(a) = u^2 (c cos(u a) - 1) / D^2,  B(a) = -u^2 sin(u a) S / D^2,
        hessian / eps0 = [[A(s) + A(d), B(d) - B(s)],
                          [B(s) + B(d), A(s) - A(d)]].
    A's numerator is written c cos - 1; the equal c D - S^2 cancels far
    apart. On the central axis of the strip this is
    eps0 (2 u^2 / S^2) [[1, 0], [0, -c]]: xx / yy = -sech(pi |dy| / w).
    Past c = 1.3e154 (|dy| > 113 w), where D^2 overflows, A and B are
    evaluated with numerator and denominator times k^2, k = 1 / c, so
    c k = 1 and S k = tanh(u dy): both tend to 0 as exp(-pi |dy| / w).
    """
    u, c, _ = _pair_geometry(pair.R1, pair.R2, device.w)
    (x1, y1), (x2, y2) = pair.R1, pair.R2
    if math.isfinite(c * c):  # k = 1: the plain form, with its bits
        ck, k, Sk = c, 1.0, math.sinh(u * (y1 - y2))
    else:
        ck, k, Sk = 1.0, 1.0 / c, math.tanh(u * (y1 - y2))

    def terms(a: float) -> tuple[float, float]:
        cos, sin = math.cos(u * a), math.sin(u * a)
        D2 = (ck - cos * k) ** 2
        return u * u * k * (ck * cos - k) / D2, -u * u * sin * Sk * k / D2

    A_s, B_s = terms(x1 + x2)
    A_d, B_d = terms(x1 - x2)
    hessian = scales.eps0 * np.array([[A_s + A_d, B_d - B_s],
                                      [B_s + B_d, A_s - A_d]])
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

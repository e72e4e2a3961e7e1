"""Sectioned key-value configuration with unit-suffixed keys.

Flat INI-style text: [section] headers, key = value lines, # comments.
Every dimensioned key carries its unit in the name (w_um, B0_uT, T_up_us);
values are converted to SI on load. Unknown sections or keys are rejected,
so a dimensioned key without its suffix is a config error.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .constants import CONSTANTS
from .core import DeviceModel
from .energetics import PinningSite
from .errors import ConfigError, InvalidParameterError

# the typed accessors import the model they build, so loading a config
# loads none of rabi, jumps and tunneling
if TYPE_CHECKING:
    from .jumps import ReadoutModel, TelegraphParams
    from .rabi import HilbertTruncation, QrmParams
    from .tunneling import TunnelModel

_DEG = math.pi / 180.0

# key -> (converter label, factor to SI); "int" and "raw" take no factor
_SCHEMA: dict[str, dict[str, tuple[str, float]]] = {
    "device": {
        "w_um": ("float", 1e-6),
        "t_nm": ("float", 1e-9),
        "xi_nm": ("float", 1e-9),
        "lambda_L_um": ("float", 1e-6),
    },
    "qrm": {
        "f_r_GHz": ("float", 1e9),
        "g_MHz": ("float", 1e6),
        "gamma_GHz_per_mT": ("float", 1e12),
        "B0_uT": ("float", 1e-6),
        "f_q0_GHz": ("float", 1e9),
        "theta_deg": ("float", _DEG),
        "phi_deg": ("float", _DEG),
        "n_fock": ("int", 1.0),
    },
    "pinning": {},  # dynamic siteN_* keys, see _SITE_KEY
    "tunneling": {
        "grid_points": ("int", 1.0),
        "x_min_nm": ("float", 1e-9),
        "x_max_nm": ("float", 1e-9),
        "y_zpf_nm": ("float", 1e-9),
    },
    "jumps": {
        "T_up_us": ("float", 1e-6),
        "T_down_us": ("float", 1e-6),
        "sigma_cloud": ("float", 1.0),
        "separation_sigma": ("float", 1.0),
        "spacing_us": ("float", 1e-6),
        "duration_s": ("float", 1.0),
        "seed": ("int", 1.0),
    },
    "sweep": {
        "B_min_uT": ("float", 1e-6),
        "B_max_uT": ("float", 1e-6),
        "n_points": ("int", 1.0),
    },
}

# inclusive (low, high) bounds checked on load; the 1D tunneling solve
# holds a few grid_points x 3 levels of doubles, and its time grows
# linearly with grid_points (about 40 ms a solve at 4096); the
# Rabi solve is dense in 2 (n_fock + 1) rows, held to the same 4096
_LIMITS: dict[tuple[str, str], tuple[int, int]] = {
    ("qrm", "n_fock"): (2, 2047),
    ("tunneling", "grid_points"): (64, 4096),
}

_SITE_KEY = re.compile(r"^site(\d+)_(x_nm|y_nm|V_GHz|sigma_nm)$")
_SITE_FACTORS = {"x_nm": 1e-9, "y_nm": 1e-9, "V_GHz": 1e9 * CONSTANTS.h,
                 "sigma_nm": 1e-9}


class _Section(dict):
    """One section's key -> SI value. Keys are optional at load time;
    reading an absent one with [] is a ConfigError naming it."""

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name

    def __missing__(self, key: str):
        raise ConfigError(f"[{self.name}] is missing key '{key}'")


@dataclass
class RunConfig:
    """Parsed configuration: section -> key -> SI value."""

    sections: dict[str, dict[str, float | int]]
    sha256: str = ""
    site_list: list[PinningSite] = field(default_factory=list)

    def has(self, section: str) -> bool:
        return section in self.sections

    def section(self, name: str) -> dict:
        if name not in self.sections:
            raise ConfigError(f"config is missing the [{name}] section")
        return self.sections[name]

    # typed accessors -------------------------------------------------

    def device(self) -> DeviceModel:
        d = self.section("device")
        device = DeviceModel(w=d["w_um"], t=d["t_nm"], xi=d["xi_nm"],
                             lambda_L=d["lambda_L_um"])
        for key in ("w_um", "lambda_L_um"):  # derive_scales squares them
            _check_square(key, d[key], 1e-6)
        return device

    def qrm(self) -> tuple[QrmParams, HilbertTruncation]:
        from .rabi import HilbertTruncation, QrmParams
        q = self.section("qrm")
        params = QrmParams(f_r=q["f_r_GHz"], g=q["g_MHz"],
                           gamma=q["gamma_GHz_per_mT"], B0=q["B0_uT"],
                           f_q0=q["f_q0_GHz"],
                           theta=q.get("theta_deg", math.pi / 2),
                           phi=q.get("phi_deg", math.pi / 2))
        trunc = HilbertTruncation(int(q.get("n_fock", 60)))
        return params, trunc

    def sites(self) -> list[PinningSite]:
        pinning = self.section("pinning")  # raises ConfigError when absent
        for key, value in pinning.items():  # each dip squares its width
            if key.endswith("_sigma_nm"):
                _check_square(key, value, 1e-9)
        return list(self.site_list)

    def tunnel_model(self) -> TunnelModel:
        """Kinetic model with the curvature frequency implied by site 1.

        A Lorentzian dip of depth V and width sigma has bottom curvature
        2 V / sigma^2, so Omega = 4 V y_zpf^2 / (hbar sigma^2) once y_zpf
        fixes the mass.
        """
        from .tunneling import TunnelModel
        t = self.section("tunneling")
        sites = self.sites()
        if not sites:
            raise ConfigError("[tunneling] needs at least one pinning site")
        y_zpf = t["y_zpf_nm"]
        if not 0 < y_zpf < math.inf:
            raise InvalidParameterError(
                f"y_zpf_nm must be positive and finite, got {y_zpf / 1e-9:g}")
        s = sites[0]
        try:
            y_zpf2 = y_zpf**2
        except OverflowError:  # a float square past the range
            y_zpf2 = math.inf
        Omega = 4.0 * s.V_i * y_zpf2 / (CONSTANTS.hbar * s.sigma_i**2)
        kinetic = CONSTANTS.hbar * Omega * y_zpf2
        if not (0 < Omega < math.inf and 0 < kinetic < math.inf):
            raise InvalidParameterError(
                f"y_zpf_nm = {y_zpf / 1e-9:g} and site 1 give Omega = "
                f"{Omega:g} rad/s and hbar Omega y_zpf^2 = {kinetic:g} J m^2, "
                "not both in (0, inf)")
        return TunnelModel(y_zpf=y_zpf, Omega=Omega)

    def telegraph(self) -> TelegraphParams:
        from .jumps import TelegraphParams
        j = self.section("jumps")
        return TelegraphParams(T_up=j["T_up_us"], T_down=j["T_down_us"])

    def readout(self) -> ReadoutModel:
        from .jumps import ReadoutModel
        j = self.section("jumps")
        sigma, separation = j["sigma_cloud"], j["separation_sigma"]
        if not math.isfinite(separation):
            raise InvalidParameterError(
                f"separation_sigma must be finite, got {separation}")
        return ReadoutModel(center_g=0.0 + 0.0j,
                            center_e=complex(separation * sigma, 0.0),
                            sigma_cloud=sigma, spacing=j["spacing_us"])

    def seed(self, env_override: str | None = None) -> int:
        """The run's seed: env_override (VORTEXLAB_SEED), else [jumps]
        seed, else 0; a negative one is a ConfigError naming its source."""
        if env_override is not None:
            source = "VORTEXLAB_SEED"
            try:
                seed = int(env_override)
            except ValueError as exc:
                raise ConfigError(
                    f"{source} must be an integer, got {env_override!r}"
                ) from exc
        else:
            source = "[jumps] seed"
            seed = int(self.sections.get("jumps", {}).get("seed", 0))
        if seed < 0:
            raise ConfigError(f"{source} must be non-negative, got {seed}")
        return seed

    def sweep_fields(self) -> np.ndarray:
        s = self.section("sweep")
        n = int(s["n_points"])
        if n < 1:
            raise ConfigError("[sweep] n_points must be >= 1")
        return np.linspace(s["B_min_uT"], s["B_max_uT"], n)


def _check_square(key: str, value: float, unit: float) -> None:
    """The models square some lengths as floats; one whose square leaves
    the float range (about 1e-162 to 1e154 m) would end in an overflow or
    a division by zero, so it is an InvalidParameterError naming the key."""
    if not 0.0 < value * value < math.inf:
        raise InvalidParameterError(
            f"{key} = {value / unit:g} squares outside the float range")


def _convert(section: str, key: str, raw: str):
    if section == "pinning":
        m = _SITE_KEY.match(key)
        if not m:
            raise ConfigError(
                f"unknown key '{key}' in [pinning]; expected siteN_x_nm, "
                "siteN_y_nm, siteN_V_GHz or siteN_sigma_nm")
        try:
            return float(raw) * _SITE_FACTORS[m.group(2)]
        except ValueError as exc:
            raise ConfigError(f"[pinning] {key}: not a number: {raw!r}") from exc
    schema = _SCHEMA[section]
    if key not in schema:
        raise ConfigError(f"unknown key '{key}' in [{section}] "
                          "(dimensioned keys must carry their unit suffix)")
    kind, factor = schema[key]
    try:
        value = int(raw) if kind == "int" else float(raw) * factor
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    if (section, key) in _LIMITS:
        lo, hi = _LIMITS[section, key]
        if not lo <= value <= hi:
            raise ConfigError(
                f"[{section}] {key} must lie in [{lo}, {hi}], got {value}")
    return value


def _collect_sites(pinning: dict[str, float]) -> list[PinningSite]:
    groups: dict[int, dict[str, float]] = {}
    for key, value in pinning.items():
        m = _SITE_KEY.match(key)
        groups.setdefault(int(m.group(1)), {})[m.group(2)] = value
    sites = []
    for idx in sorted(groups):
        g = groups[idx]
        missing = {"x_nm", "V_GHz", "sigma_nm"} - set(g)
        if missing:
            raise ConfigError(f"[pinning] site{idx} is missing {sorted(missing)}")
        for key in ("x_nm", "y_nm"):
            if not math.isfinite(g.get(key, 0.0)):
                raise ConfigError(f"[pinning] site{idx}: {key} must be finite")
        for key in ("V_GHz", "sigma_nm"):
            if not 0.0 < g[key] < math.inf:  # also rejects nan
                raise ConfigError(
                    f"[pinning] site{idx}: {key} must be positive and finite")
        sites.append(PinningSite(x_i=g["x_nm"], y_i=g.get("y_nm", 0.0),
                                 V_i=g["V_GHz"], sigma_i=g["sigma_nm"]))
    return sites


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; raises ConfigError on any problem."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser(
        comment_prefixes=("#",), inline_comment_prefixes=("#",),
        interpolation=None, strict=True)
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc

    sections: dict[str, _Section] = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown section [{section}]")
        sections[section] = _Section(section, {
            key: _convert(section, key, raw)
            for key, raw in parser[section].items()})

    sites = _collect_sites(sections.get("pinning", {}))
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return RunConfig(sections=sections, sha256=digest, site_list=sites)

"""Sectioned key-value configuration with unit-suffixed keys.

Flat INI-style text: [section] headers, key = value lines, # comments.
Every dimensioned key carries its unit in the name (w_um, B0_uT, T_up_us);
values are converted to SI on load. Unknown sections or keys are rejected,
so a dimensioned key without its suffix is a config error. _SCHEMA
gives each key its factor to SI, domain and default, checked on load.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

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


class _Key(NamedTuple):
    """A key's factor to SI, domain and default (in its own unit; None
    when it is required). The domain is "finite", "positive"
    (0 < v < inf), "non-negative" (0 <= v < inf), "length" (positive, and
    v * v in (0, inf): the models square it) or an inclusive (low, high)
    range, which makes the key an int. It is checked on the SI value."""

    factor: float
    domain: str | tuple[int, float]
    default: float | None = None


_SCHEMA: dict[str, dict[str, _Key]] = {
    "device": {
        "w_um": _Key(1e-6, "length"),
        "t_nm": _Key(1e-9, "positive"),
        "xi_nm": _Key(1e-9, "positive"),
        "lambda_L_um": _Key(1e-6, "length"),
    },
    "qrm": {
        "f_r_GHz": _Key(1e9, "positive"),
        "g_MHz": _Key(1e6, "non-negative"),
        "gamma_GHz_per_mT": _Key(1e12, "positive"),
        "B0_uT": _Key(1e-6, "finite"),
        "f_q0_GHz": _Key(1e9, "non-negative"),
        "theta_deg": _Key(_DEG, "finite", 90.0),
        "phi_deg": _Key(_DEG, "finite", 90.0),
        # the Rabi solve is dense in 2 (n_fock + 1) rows, at most 4096
        "n_fock": _Key(1, (2, 2047), 60),
    },
    "pinning": {  # the fields of the numbered siteN_* keys
        "x_nm": _Key(1e-9, "finite"),
        "y_nm": _Key(1e-9, "finite", 0.0),
        "V_GHz": _Key(1e9 * CONSTANTS.h, "positive"),
        "sigma_nm": _Key(1e-9, "length"),
    },
    "tunneling": {
        # the 1D solve holds a few grid_points x 3 levels of doubles, and
        # its time grows linearly with grid_points (about 40 ms at 4096)
        "grid_points": _Key(1, (64, 4096), 1024),
        "x_min_nm": _Key(1e-9, "finite"),
        "x_max_nm": _Key(1e-9, "finite"),
        "y_zpf_nm": _Key(1e-9, "length"),
    },
    "jumps": {
        "T_up_us": _Key(1e-6, "positive"),
        "T_down_us": _Key(1e-6, "positive"),
        "sigma_cloud": _Key(1.0, "positive"),
        "separation_sigma": _Key(1.0, "finite"),
        "spacing_us": _Key(1e-6, "positive"),
        "duration_s": _Key(1.0, "positive"),
        "seed": _Key(1, (0, math.inf), 0),
    },
    "sweep": {
        "B_min_uT": _Key(1e-6, "finite"),
        "B_max_uT": _Key(1e-6, "finite"),
        # the sweeps keep every field's result: rabi.Sweep 40 bytes a row,
        # so 160 KiB a field at n_fock 2047 (4096 rows), and 4096 fields at
        # most about 0.63 GiB; tunnel keeps k levels a field
        "n_points": _Key(1, (1, 4096)),
    },
}

_SITE_KEY = re.compile(rf"^site(\d+)_({'|'.join(_SCHEMA['pinning'])})$")


def _si(key: _Key, number):
    """number (a string or the default) as the key's SI value."""
    if isinstance(key.domain, tuple):
        return int(number)
    return float(number) * key.factor


def _outside(domain, value) -> str | None:
    """Why value lies outside domain; None when it lies inside."""
    if isinstance(domain, tuple):
        low, high = domain
        return None if low <= value <= high else (
            f"must lie in [{low}, {high}], got {value}")
    if domain == "finite":
        return None if math.isfinite(value) else "must be finite"
    if domain == "non-negative":
        return None if 0.0 <= value < math.inf else (
            "must be non-negative and finite")
    if not 0.0 < value < math.inf:  # also rejects nan
        return "must be positive and finite"
    if domain == "length" and not 0.0 < value * value < math.inf:
        return "must square to a positive finite float"
    return None


class _Section(dict):
    """One section's key -> SI value. Reading an absent key with [] gives
    its default, or is a ConfigError naming it when it has none."""

    def __init__(self, name: str, values: dict):
        super().__init__(values)
        self.name = name

    def __missing__(self, key: str):
        spec = _SCHEMA[self.name].get(key)
        if spec is None or spec.default is None:
            raise ConfigError(f"[{self.name}] is missing key '{key}'")
        return _si(spec, spec.default)


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
        return DeviceModel(w=d["w_um"], t=d["t_nm"], xi=d["xi_nm"],
                           lambda_L=d["lambda_L_um"])

    def qrm(self) -> tuple[QrmParams, HilbertTruncation]:
        from .rabi import HilbertTruncation, QrmParams
        q = self.section("qrm")
        params = QrmParams(f_r=q["f_r_GHz"], g=q["g_MHz"],
                           gamma=q["gamma_GHz_per_mT"], B0=q["B0_uT"],
                           f_q0=q["f_q0_GHz"], theta=q["theta_deg"],
                           phi=q["phi_deg"])
        return params, HilbertTruncation(q["n_fock"])

    def sites(self) -> list[PinningSite]:
        self.section("pinning")  # raises ConfigError when absent
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
        y_zpf, s = t["y_zpf_nm"], sites[0]
        y_zpf2, sigma2 = y_zpf * y_zpf, s.sigma_i * s.sigma_i
        Omega = 4.0 * s.V_i * y_zpf2 / (CONSTANTS.hbar * sigma2)
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
        return ReadoutModel(center_g=0.0 + 0.0j,
                            center_e=complex(separation * sigma, 0.0),
                            sigma_cloud=sigma, spacing=j["spacing_us"])

    def seed(self, env_override: str | None = None) -> int:
        """The run's seed: env_override (VORTEXLAB_SEED), which must be a
        non-negative integer, else [jumps] seed or its default."""
        if env_override is None:
            return self.sections.get("jumps", _Section("jumps", {}))["seed"]
        try:
            seed = int(env_override)
        except ValueError:
            seed = -1
        if seed < 0:
            raise ConfigError("VORTEXLAB_SEED must be a non-negative "
                              f"integer, got {env_override!r}")
        return seed

    def sweep_fields(self) -> np.ndarray:
        s = self.section("sweep")
        return np.linspace(s["B_min_uT"], s["B_max_uT"], s["n_points"])


def _convert(section: str, key: str, raw: str):
    """raw as the key's SI value; a ConfigError unless it lies in the
    key's domain. A site's field is named as siteN: field."""
    name = entry = key
    if section == "pinning":
        m = _SITE_KEY.match(key)
        if not m:
            raise ConfigError(
                f"unknown key '{key}' in [pinning]; expected "
                + ", ".join(f"siteN_{f}" for f in _SCHEMA["pinning"]))
        name, entry = f"site{int(m.group(1))}: {m.group(2)}", m.group(2)
    spec = _SCHEMA[section].get(entry)
    if spec is None:
        raise ConfigError(f"unknown key '{key}' in [{section}] "
                          "(dimensioned keys must carry their unit suffix)")
    try:
        value = _si(spec, raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: not a number: {raw!r}") from exc
    reason = _outside(spec.domain, value)
    if reason is not None:
        raise ConfigError(f"[{section}] {name} {reason}")
    return value


def _collect_sites(pinning: dict[str, float]) -> list[PinningSite]:
    groups: dict[int, _Section] = {}
    for key, value in pinning.items():
        m = _SITE_KEY.match(key)
        site = groups.setdefault(int(m.group(1)), _Section("pinning", {}))
        site[m.group(2)] = value
    sites = []
    for idx in sorted(groups):
        g = groups[idx]
        missing = {"x_nm", "V_GHz", "sigma_nm"} - set(g)
        if missing:
            raise ConfigError(f"[pinning] site{idx} is missing {sorted(missing)}")
        sites.append(PinningSite(x_i=g["x_nm"], y_i=g["y_nm"], V_i=g["V_GHz"],
                                 sigma_i=g["sigma_nm"]))
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

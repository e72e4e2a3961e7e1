"""vortexlab: models and batch analysis for vortex qubits in thin-film
superconducting resonators.

Library layout:

    core        device description, derived scales, field calibration
    rabi        quantum Rabi spectra, labeling, dispersive shifts
    fitting     damped Gauss-Newton engine and the physics fitters
    energetics  vortex energy landscapes and interaction estimates
    tunneling   finite-difference Schrodinger solver and field sweeps
    jumps       telegraph readout synthesis and analysis
    cli         batch command-line front end

Importing the package loads no numpy: core's names below are imported on
first use, so vortexlab.cli can set BLAS's thread count before numpy loads.
"""

__version__ = "0.1.0"

from .constants import CONSTANTS, PhysicalConstants

_CORE = ("BUCKLING_RATIO", "CoilCalibration", "DerivedScales", "DeviceModel",
         "VortexRegime", "calibrate_coil", "derive_scales", "esr_field",
         "example_device", "flux_bias", "vortex_regime")

__all__ = ["CONSTANTS", "PhysicalConstants", *_CORE, "__version__"]


def __getattr__(name):
    if name in _CORE:
        from . import core
        return getattr(core, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

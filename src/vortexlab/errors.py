"""Exception hierarchy shared by all vortexlab modules."""


class VortexlabError(Exception):
    """Base class for all vortexlab errors."""


class InvalidDeviceError(VortexlabError):
    """Device description fails validation (non-positive or non-finite input)."""


class InvalidParameterError(VortexlabError):
    """A parameter value is outside its admissible range."""


class InvalidOrientationError(InvalidParameterError):
    """Field orientation (theta, phi) is outside the admissible set."""


class DomainError(VortexlabError):
    """Coordinate outside the geometric domain of an energy expression."""


class DivergenceError(VortexlabError):
    """Evaluation requested at a point where the expression diverges."""


class DegenerateFitError(VortexlabError):
    """Input data cannot constrain the requested fit."""


class AmbiguousLabelingError(VortexlabError):
    """No dressed eigenstate holds 2/3 of one of the transition bare states.

    Carries the overlaps of the bare states (g,0), (e,0), (g,1) and (e,1)
    with every dressed eigenstate (4 x dim) for diagnosis.
    """

    def __init__(self, message: str, overlaps=None):
        super().__init__(message)
        self.overlaps = overlaps


class LinearizationError(VortexlabError):
    """Vortex separation too small for the linearized pair interaction."""


class ReductionInvalidError(VortexlabError):
    """Two-level reduction invalid: the third level is too close."""


class EigensolverError(VortexlabError):
    """Iterative eigensolver failed to converge.

    Carries the residual norms of the best available Ritz pairs.
    """

    def __init__(self, message: str, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class AmbiguousBandsError(VortexlabError):
    """Latching-filter acceptance bands overlap."""


class InsufficientDwellsError(VortexlabError):
    """Not enough dwell intervals per state for statistics."""


class ClusteringError(VortexlabError):
    """IQ clustering is degenerate (effectively a single cluster)."""


class PopulationInversionError(VortexlabError):
    """Excited-state population >= 1/2 has no positive effective temperature."""


class ConfigError(VortexlabError):
    """Configuration file violates the schema."""

"""Exception types shared across the package."""


class MPHDError(Exception):
    """Base class for every error raised by this package."""


class DimensionError(MPHDError, ValueError):
    """Operands have incompatible or non-square shapes."""


class ValidationError(MPHDError, ValueError):
    """An input violates a structural requirement (unitarity, symmetry, ...)."""


class SingularPixelError(MPHDError, ValueError):
    """A pixel collects no local-oscillator intensity, so its normalization is undefined."""


class FeasibilityError(MPHDError, ValueError):
    """Exact synthesis requested for a target that failed the feasibility test."""


class CapacityError(MPHDError, ValueError):
    """Branch enumeration requested for too many modes (2**N blow-up)."""


class SingularityError(MPHDError, ValueError):
    """Gate parameters hit a singular configuration."""


class InternalConsistencyError(MPHDError, RuntimeError):
    """A derived quantity violates an identity that should hold by construction.

    Raising this signals a bug in the library (or numerically pathological
    input), never a plain user error.
    """


class ConfigError(MPHDError, ValueError):
    """A configuration document is malformed."""

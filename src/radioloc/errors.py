"""Exception types shared across the package."""


class RadiolocError(Exception):
    """Base class for errors raised by this package."""


class GeometryError(RadiolocError, ValueError):
    """Invalid geometric input (coincident link endpoints, out-of-bounds points, ...)."""


class InputError(RadiolocError):
    """A file could not be read or does not match its expected schema."""


class InsufficientDataError(RadiolocError):
    """Too few usable samples to solve a calibration system."""


class DegenerateFitError(RadiolocError):
    """A calibration system is rank deficient.

    ``scope`` names the offending system: an AP id for per-AP fits, or
    ``"environment"`` for a pooled fit.
    """

    def __init__(self, scope: str, message: str = ""):
        self.scope = scope
        super().__init__(message or f"degenerate least-squares system for {scope!r}")

"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Invalid argument or configuration (dimension mismatch, bad range, ...)."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to reach its target accuracy."""


class DegenerateRealizationError(NumericalError):
    """Rank-n truncation refused because the target singular value is too small."""

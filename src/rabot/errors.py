"""Exceptions shared across the package."""


class InvalidBaseError(ValueError):
    """Raised when a positional base is not an integer >= 2."""


class InvalidDigitError(ValueError):
    """Raised when a digit falls outside [0, base-1]."""


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed the configured cap."""


class NoFitError(RuntimeError):
    """Raised when no candidate closed form reproduces the given values, or
    when a general form's specialization is not proven at a base it is
    checked on.

    failing_k carries the first index where a residual check broke down.
    """

    def __init__(self, message: str, *, failing_k: int | None = None):
        super().__init__(message)
        self.failing_k = failing_k


class DepthError(ValueError):
    """Raised when a table is too shallow for the requested verification depth."""


class ExcludedBaseError(ValueError):
    """Raised when specializing a general form at a base where a coefficient
    denominator vanishes."""

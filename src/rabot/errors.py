"""Exceptions shared across the package."""


class InvalidBaseError(ValueError):
    """Raised when a positional base is not an integer >= 2."""


class InvalidDigitError(ValueError):
    """Raised when a digit falls outside [0, base-1]."""


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed the configured cap."""


class NoFitError(RuntimeError):
    """Raised when no candidate closed form reproduces the given values, when
    the eigenvalue families do not annihilate the moment state over Q(b) (so
    no general form is derived), or when a general form's specialization is
    not proven at a base it is cross-checked on."""


class DepthError(ValueError):
    """Raised when a table is too shallow for verify: below k = 2p + 1, the
    last column the annihilator check reads."""


class ExcludedBaseError(ValueError):
    """Raised when specializing a general form at a base where a coefficient
    denominator vanishes."""

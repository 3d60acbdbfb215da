"""Exceptions shared across the package, and how they name a long input."""


def _sized(value: int | str, noun: str) -> str | None:
    """`value` named by its size, so that an error stays one short line: "a
    997-bit {noun}" past 64 bits, "a 22-character {noun}" for text past the 21
    characters a 64-bit integer takes; else None, to be named in full."""
    if isinstance(value, str):
        return f"a {len(value)}-character {noun}" if len(value) > 21 else None
    return f"a {value.bit_length()}-bit {noun}" if value.bit_length() > 64 else None


class InvalidBaseError(ValueError):
    """Raised when a positional base is not an integer >= 2."""


class InvalidDigitError(ValueError):
    """Raised when a digit falls outside [0, base-1]."""


class EnumerationCapError(RuntimeError):
    """Raised when a brute-force enumeration would exceed the configured cap."""


class WorkerError(RuntimeError):
    """Raised when an oracle worker process dies in both tries of one call:
    something outside the process keeps killing them."""


class NoFitError(RuntimeError):
    """Raised when no candidate closed form reproduces the given values, or
    when the eigenvalue families do not annihilate the moment state over Q(b)
    (so no general form is derived)."""


class DisagreementError(RuntimeError):
    """Raised when a result about to be called proven disagrees with brute
    force: the recurrence's table at a small base, or the form itself at a
    small k."""


class DepthError(ValueError):
    """Raised when a table is too shallow for verify: below k = 2p + 1, the
    last column the annihilator check reads."""


class ExcludedBaseError(ValueError):
    """Raised when specializing a general form at a base where a coefficient
    denominator vanishes."""

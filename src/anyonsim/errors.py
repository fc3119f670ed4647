"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
broken internal contracts exit 3.
"""

import math


class ConfigurationError(ValueError):
    """A parameter is outside the configured operating range."""


class UsageError(ValueError):
    """An operation was called with incompatible arguments."""


class ContractError(RuntimeError):
    """A documented precondition or internal invariant was violated."""


def require_finite(obj, *names: str, positive: bool = False) -> None:
    """Reject a non-number, NaN or infinity (and values <= 0 if
    ``positive``) in obj's fields ``names``, naming the field."""
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except TypeError:
            raise ConfigurationError(f"{name} must be a number, got {value!r}") from None
        if not finite:
            raise ConfigurationError(f"{name} must be finite, got {value!r}")
        if positive and value <= 0:
            raise ConfigurationError(f"{name} must be > 0, got {value!r}")

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


def require_finite(obj, *names: str) -> None:
    """Reject NaN or infinity in obj's fields ``names``, naming the field."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value!r}")

"""Exception types shared across the package, and the one numeric check.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
broken internal contracts exit 3.

Every numeric parameter of the library and the CLI is checked by
``require``, under one rule: the type first (a real is anything
``math.isfinite`` accepts, an integer a ``numbers.Integral``), then
finiteness, then the bounds, each failure raising the caller's error class
with a message "<name> must be ..., got <value!r>" that names the
parameter.  Dataclass fields raise ConfigurationError, call arguments
UsageError.
"""

import math
import numbers


class ConfigurationError(ValueError):
    """A parameter is outside the configured operating range."""


class UsageError(ValueError):
    """An operation was called with incompatible arguments."""


class ContractError(RuntimeError):
    """A documented precondition or internal invariant was violated."""


def require(value, name: str, *, integer: bool = False, ge=None, gt=None, le=None,
            lt=None, error: type[ValueError] = UsageError):
    """Return ``value`` unchanged if it is a finite real (an integer if
    ``integer``) within the given bounds (>= ge, > gt, <= le, < lt);
    otherwise raise ``error`` naming ``name``.  An int beyond the float
    range is not a finite real."""
    if integer:
        # the exact-type test first: an ABC isinstance costs about 0.5 us
        if type(value) is not int and not isinstance(value, numbers.Integral):
            raise error(f"{name} must be an integer{_domain(ge, gt, le, lt, True)}, "
                        f"got {value!r}")
    else:
        try:
            finite = math.isfinite(value)
        except TypeError:
            raise error(f"{name} must be a number{_domain(ge, gt, le, lt, False)}, "
                        f"got {value!r}") from None
        except OverflowError:
            finite = False
        if not finite:
            raise error(f"{name} must be finite, got {value!r}")
    if ((ge is not None and value < ge) or (gt is not None and value <= gt)
            or (le is not None and value > le) or (lt is not None and value >= lt)):
        raise error(f"{name} must be{_domain(ge, gt, le, lt, integer)}, got {value!r}")
    return value


def _domain(ge, gt, le, lt, integer: bool) -> str:
    """The bounds as text after a space (' >= 0', ' in [0, 1)', ' in 0..15'),
    or '' for none."""
    low = ge if ge is not None else gt
    high = le if le is not None else lt
    if low is None and high is None:
        return ""
    if high is None:
        return f" {'>=' if ge is not None else '>'} {low}"
    if low is None:
        return f" {'<=' if le is not None else '<'} {high}"
    if integer and ge is not None and le is not None:
        return f" in {low}..{high}"
    return f" in {'[' if ge is not None else '('}{low}, {high}{']' if le is not None else ')'}"

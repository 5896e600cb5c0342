"""Exceptions shared by the numerical modules, and the input guards that
raise them: NaN passes every `x <= 0` test, so a guard names it."""

import math
import numbers


class DomainError(ValueError):
    """Argument outside the supported numerical domain."""


class ConvergenceError(RuntimeError):
    """A quadrature failed to meet its tolerance within budget."""


def require_positive(name, x):
    if not (math.isfinite(x) and x > 0):
        raise DomainError(f"{name} must be finite and > 0")


def require_nonnegative(name, x):
    if not (math.isfinite(x) and x >= 0):
        raise DomainError(f"{name} must be finite and >= 0")


def require_count(name, x, minimum):
    if not (isinstance(x, numbers.Integral) and x >= minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}")

"""Exceptions shared by the numerical modules, and the input guards that
raise them: NaN passes every `x <= 0` test, so a guard names it."""

import math
import numbers

import numpy as np


class DomainError(ValueError):
    """Argument outside the supported numerical domain."""


class ConvergenceError(RuntimeError):
    """A quadrature failed to meet its tolerance within budget."""


def _require(name, x, rule, ok):
    """DomainError unless ok holds for the number x or for every element of
    the array (or sequence) x; the message names the first value that fails."""
    if not isinstance(x, (float, int, np.ndarray, np.generic)):
        x = np.asarray(x, dtype=float)
    good = ok(x)
    if good is True or (good is not False and np.all(good)):
        return
    bad = np.asarray(x, dtype=float)[~np.asarray(good)]
    raise DomainError(f"{name} must be {rule}, got {name}={bad.flat[0]:g}")


def _finite(v):
    return abs(v) < math.inf


def _positive(v):
    return (v > 0) & (v < math.inf)


def _nonnegative(v):
    return (v >= 0) & (v < math.inf)


def require_finite(name, x):
    _require(name, x, "finite", _finite)


def require_positive(name, x):
    _require(name, x, "finite and > 0", _positive)


def require_nonnegative(name, x):
    _require(name, x, "finite and >= 0", _nonnegative)


def require_count(name, x, minimum):
    if not (isinstance(x, numbers.Integral) and x >= minimum):
        raise DomainError(f"{name} must be an integer >= {minimum}")

"""Exception types shared across the package, and the two admission rules
every entry point and document reader applies to its scalar arguments."""

import math
from contextlib import suppress
from numbers import Real


class CardCspError(Exception):
    """Base class for all package errors."""


class ParseError(CardCspError):
    """Malformed instance text. Carries the offending line number."""

    def __init__(self, message, lineno=None):
        if lineno is not None:
            message = f"line {lineno}: {message}"
        super().__init__(message)
        self.lineno = lineno


class CapacityError(CardCspError):
    """Requested problem size exceeds a configured cap."""


class InconsistentSolutionError(CardCspError):
    """A moment solution violates its internal consistency beyond tolerance."""


class NumericalError(CardCspError):
    """A numerical kernel failed (factorization, eigendecomposition, ...)."""


def _admit_int(name, value, low, high=None, cap=None):
    """The int rule: ``value`` is a plain int (not a bool, a float or a numpy
    integer) in low..high (no upper end if ``high`` is None), or
    ``CardCspError``; above ``cap``, ``CapacityError``.  Returns ``value``."""
    if type(value) is not int or value < low or high is not None and value > high:
        span = f">= {low}" if high is None else f"in {low}..{high}"
        raise CardCspError(f"{name} must be an int {span}, got {value!r}")
    if cap is not None and value > cap:
        raise CapacityError(f"{name}={value} exceeds the cap of {cap}")
    return value


def _admit_real(name, value, low=-math.inf, high=math.inf, ends="()"):
    """The real rule: ``value`` is a ``numbers.Real``, not a bool, finite and
    in the interval from ``low`` to ``high``, whose ends are closed ("[",
    "]") or open ("(", ")") as ``ends`` says; or ``CardCspError`` naming the
    argument, the interval and the value.  Returns ``float(value)``."""
    x = math.nan
    if isinstance(value, Real) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int too large for a float
            x = float(value)
    if not (math.isfinite(x) and (low < x if ends[0] == "(" else low <= x)
            and (x < high if ends[1] == ")" else x <= high)):
        raise CardCspError(f"{name} must be a finite real in {ends[0]}{low}, "
                           f"{high}{ends[1]}, got {value!r}")
    return x

"""Exception types shared across the package, and the number checks configs use."""

import numbers
import sys


class EvobeamError(Exception):
    """Base class for package errors."""


class ValidationError(EvobeamError, ValueError):
    """An input value violates a documented precondition."""


class ConfigurationError(EvobeamError, ValueError):
    """A configuration is internally inconsistent or infeasible."""


class ProtocolError(EvobeamError, RuntimeError):
    """Lifecycle bookkeeping was driven out of order."""


def check_count(name, value, minimum, maximum=None) -> int:
    """value as an int, or ValidationError naming the field.

    Accepts integers and whole floats (2.0) from minimum up to maximum, or
    up to the largest float when maximum is None; bools, fractions,
    infinities, NaN and non-numbers fail.
    """
    whole = isinstance(value, numbers.Integral) or (
        isinstance(value, float) and value.is_integer()
    )
    top = sys.float_info.max if maximum is None else maximum
    if isinstance(value, bool) or not whole or not minimum <= value <= top:
        allowed = f">= {minimum}" if maximum is None else f">= {minimum} and <= {maximum}"
        raise ValidationError(f"{name} must be an integer {allowed}, got {value!r}")
    return int(value)


def check_positive_finite(name, value, maximum=None):
    """Raise ValidationError naming the field unless value is a real in (0, maximum].

    maximum defaults to the largest float.
    """
    top = sys.float_info.max if maximum is None else maximum
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value <= top:
        allowed = "" if maximum is None else f" <= {maximum}"
        raise ValidationError(f"{name} must be a positive finite number{allowed}, got {value!r}")


def check_finite(name, value, minimum=None) -> float:
    """value as a float, or ValidationError naming the field.

    Accepts real numbers of either sign (from minimum up, when given)
    within the float range; bools, NaN, infinities, ints beyond the float
    range and non-numbers fail.
    """
    low = -sys.float_info.max if minimum is None else minimum
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not low <= value <= sys.float_info.max
    ):
        allowed = "" if minimum is None else f" >= {minimum}"
        raise ValidationError(f"{name} must be a finite number{allowed}, got {value!r}")
    return float(value)

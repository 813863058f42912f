"""The exception type shared across the package, and its input checks."""

import math
import numbers


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain, or a config file
    cannot be read or parsed: bad input of any kind."""


def require_integers(floor=None, /, **counts):
    """Raise :class:`ParameterError` naming the first of ``counts`` that is
    not a Python or numpy integer (a float count would fail late or
    truncate), or that lies below ``floor`` if one is given.  A ``bool`` is
    not a count, though Python makes it an integer."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ParameterError(f"{name} must be an integer, got {value!r}")
        if floor is not None and value < floor:
            raise ParameterError(f"{name} must be >= {floor}, got {value}")


def require_numbers(**values):
    """Raise :class:`ParameterError` naming the first of ``values`` that is
    not a real number, which a range check would meet with a TypeError, that
    is a ``bool``, which a range check would read as 0 or 1, or that is not
    finite: inf, nan, or an int too large for a float."""
    for name, value in values.items():
        if not isinstance(value, numbers.Real) or isinstance(value, bool):
            raise ParameterError(f"{name} must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int whose digits may be too many to print
            raise ParameterError(f"{name} must be finite, got an int too large for a float")
        if not finite:
            raise ParameterError(f"{name} must be finite, got {value}")

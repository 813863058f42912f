"""The exception type shared across the package, and its integer check."""

import numbers


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain, or a config file
    cannot be read or parsed: bad input of any kind."""


def require_integers(**counts):
    """Raise :class:`ParameterError` naming the first of ``counts`` that is
    not a Python or numpy integer; a float count would fail late or
    truncate."""
    for name, value in counts.items():
        if not isinstance(value, numbers.Integral):
            raise ParameterError(f"{name} must be an integer, got {value!r}")

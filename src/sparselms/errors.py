"""The exception type shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain, or a config file
    cannot be read or parsed: bad input of any kind."""


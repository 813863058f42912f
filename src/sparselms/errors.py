"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A parameter lies outside its admissible domain, or a config file
    cannot be read or parsed: bad input of any kind."""


class DivergenceError(RuntimeError):
    """An adaptive update produced a non-finite coefficient.

    Carries the iteration index at which the blow-up was detected.
    """

    def __init__(self, iteration):
        self.iteration = iteration
        super().__init__(f"filter diverged at iteration {iteration}")

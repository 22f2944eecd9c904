"""Exception types shared across the package."""


class SpecError(ValueError):
    """A model specification failed to parse or validate."""


class NumericError(RuntimeError):
    """A quadrature or root-finding routine failed to reach its tolerance.

    ``achieved`` carries the error estimate that was actually reached.
    """

    def __init__(self, message: str, achieved: float = float("nan")):
        super().__init__(message)
        self.achieved = achieved


class ResourceError(RuntimeError):
    """A sampler exhausted its arrival or iteration budget.

    ``achieved_bound`` reports the certified truncation bound of the path
    series at the point the budget ran out: inf where no threshold
    certifies ``tol`` at all, and NaN from the samplers that truncate no
    series (the minimum construction, the simplex sampler).
    """

    def __init__(self, message: str, achieved_bound: float = float("nan")):
        super().__init__(message)
        self.achieved_bound = achieved_bound

"""Exception types shared across the package."""


class AccuracyError(RuntimeError):
    """A quadrature could not reach its error target within the node cap."""

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


class SearchError(RuntimeError):
    """All candidates in a randomized search were numerically degenerate."""


class StatisticalPowerError(RuntimeError):
    """A Monte Carlo confidence interval is too wide to decide the check."""


class FFLDError(ValueError):
    """Malformed or inconsistent FFLD field file."""


class CapError(ValueError):
    """A requested object exceeds a configured size cap."""

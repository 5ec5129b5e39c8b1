"""Exception types shared across the package."""


class QDetectError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(QDetectError, ValueError):
    """An argument is invalid (bad threshold, probabilities, reps)."""


class UndefinedConditionalError(QDetectError, RuntimeError):
    """A conditional estimate was requested but the conditioning event has
    zero observed (or zero theoretical) mass; ``rejected`` counts the
    replications the conditioning dropped."""

    def __init__(self, message: str, rejected: int):
        super().__init__(message)
        self.rejected = rejected

"""Exception types shared across the package."""

from __future__ import annotations


class RaytailError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RaytailError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class ConfigError(DomainError):
    """A configuration field holds an invalid value.

    Attributes
    ----------
    pointer : str
        JSON pointer of the field, such as ``/reps`` or ``/omegas/1``; empty
        for the document as a whole.
    message : str
        What is wrong with the value, without the location.
    """

    def __init__(self, pointer, message):
        super().__init__(pointer, message)
        self.pointer = pointer
        self.message = message

    def __str__(self):
        return f"config error at {self.pointer}: {self.message}"


class NumericError(RaytailError, ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge.

    Attributes
    ----------
    message : str
        What failed, without the tolerance.
    achieved : float
        Error estimate reported by the integrator.
    """

    def __init__(self, message, achieved):
        super().__init__(message, achieved)
        self.message = message
        self.achieved = achieved

    def __str__(self):
        return f"{self.message} (achieved tolerance {self.achieved:.3e})"


class InsufficientExceedancesError(RaytailError, ValueError):
    """Too few threshold exceedances to fit a tail index.

    Attributes
    ----------
    count : int
        Number of exceedances actually available.
    """

    def __init__(self, count, required):
        super().__init__(count, required)
        self.count = count
        self.required = required

    def __str__(self):
        return (
            f"only {self.count} exceedances above threshold, "
            f"need at least {self.required}"
        )


class NonDifferentiableError(RaytailError, ValueError):
    """The angular dependence function has a kink at the requested ray."""


class OptimizerError(NumericError):
    """Likelihood optimization did not converge.

    Attributes
    ----------
    message : str
        What failed, without the best point.
    best_point : tuple or None
        Best parameter vector found, if any.
    """

    def __init__(self, message, best_point):
        super().__init__(message, best_point)
        self.message = message
        self.best_point = best_point

    def __str__(self):
        return f"{self.message} (best point {self.best_point})"


class ExtrapolationError(RaytailError, ValueError):
    """A requested extrapolation lies below the fitted threshold."""

"""Exception types shared across the package."""

from __future__ import annotations


class RaytailError(Exception):
    """Base class for all package-specific errors."""


class DomainError(RaytailError, ValueError):
    """An input lies outside the mathematical domain of an operation."""


class NumericError(RaytailError, ArithmeticError):
    """A numerical routine failed to reach its accuracy target."""


class QuadratureError(NumericError):
    """Adaptive quadrature did not converge.

    Attributes
    ----------
    achieved : float
        Error estimate reported by the integrator.
    """

    def __init__(self, message, achieved):
        super().__init__(f"{message} (achieved tolerance {achieved:.3e})")
        self.achieved = achieved


class InsufficientExceedancesError(RaytailError, ValueError):
    """Too few threshold exceedances to fit a tail index.

    Attributes
    ----------
    count : int
        Number of exceedances actually available.
    """

    def __init__(self, count, required):
        super().__init__(
            f"only {count} exceedances above threshold, need at least {required}"
        )
        self.count = count
        self.required = required


class NonDifferentiableError(RaytailError, ValueError):
    """The angular dependence function has a kink at the requested ray."""


class OptimizerError(NumericError):
    """Likelihood optimization did not converge.

    Attributes
    ----------
    best_point : tuple or None
        Best parameter vector found, if any.
    """

    def __init__(self, message, best_point):
        super().__init__(f"{message} (best point {best_point})")
        self.best_point = best_point


class ExtrapolationError(RaytailError, ValueError):
    """A requested extrapolation lies below the fitted threshold."""

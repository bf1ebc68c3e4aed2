"""raytail: joint tail probability estimation by ray extrapolation in
exponential margins, with exact reference models and a seeded benchmark
comparing it against diagonal-extrapolation and conditional-simulation
baselines."""

from .copulas import (
    BivariateNormal,
    ClaytonLowerTail,
    InvertedLogistic,
    LogisticBEV,
    Morgenstern,
    TrivariateMaxPareto,
    make_model,
)
from .margins import ExponentialSample

__version__ = "0.1.0"

__all__ = [
    "BivariateNormal",
    "ClaytonLowerTail",
    "InvertedLogistic",
    "LogisticBEV",
    "Morgenstern",
    "TrivariateMaxPareto",
    "make_model",
    "ExponentialSample",
    "__version__",
]

"""Analytics on the joint tail decay index and its angular restriction.

A :class:`KappaFunction` wraps any map from non-negative growth vectors to
the decay index kappa. This module differentiates its angular restriction
lambda(w) = kappa(w, 1-w), derives the conditional-limit shape parameter
pair (w*k1 + (1-w)*k2 = lambda with k1 - k2 = lambda'), estimates kappa
numerically from exact survivors as a cross-check of the closed forms, and
runs an executable suite of the structural properties every valid kappa
must satisfy: order-1 homogeneity, coordinatewise monotonicity, the
marginal identity kappa(b, 0) = b, the bound max <= kappa (with
kappa <= sum under positive orthant dependence), and subadditivity, which
for homogeneous order-1 functions is equivalent to convexity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import CopulaModel
from .errors import DomainError, NonDifferentiableError, NumericError

#: relative disagreement of one-sided slopes beyond which a ray is
#: declared a kink rather than averaged over
_KINK_TOL = 1e-2


@dataclass(frozen=True)
class KappaFunction:
    """A joint tail decay index as a plain evaluator.

    Parameters
    ----------
    evaluator : callable
        Maps a growth tuple of length ``dim`` to kappa > 0.
    dim : int
        2 or 3.
    """

    evaluator: object
    dim: int = 2

    def __call__(self, growth):
        return float(self.evaluator(tuple(growth)))

    @classmethod
    def of_model(cls, model: CopulaModel) -> "KappaFunction":
        return cls(evaluator=model.kappa, dim=model.dim)


@dataclass(frozen=True)
class ShapePair:
    """Conditional-limit shape parameters along a ray."""

    kappa1: float
    kappa2: float
    omega: float

    def __post_init__(self):
        if self.kappa1 < 0.0 or self.kappa2 < 0.0:
            raise DomainError(
                f"shape parameters must be >= 0, got ({self.kappa1}, {self.kappa2})"
            )


def lambda_of(kfun: KappaFunction, omega) -> float:
    """Angular dependence function lambda(w) = kappa(w, 1-w)."""
    if kfun.dim != 2:
        raise DomainError("angular dependence function is bivariate only")
    if not 0.0 <= omega <= 1.0:
        raise DomainError(f"omega must lie in [0, 1], got {omega}")
    return kfun((omega, 1.0 - omega))


def lambda_derivative(kfun: KappaFunction, omega, h=1e-5) -> float:
    """lambda'(w) by central differences with one Richardson step.

    Raises
    ------
    NonDifferentiableError
        If the one-sided slopes disagree, which happens at kinks such as
        the max-form angular function at w = 1/2.
    """
    if not 0.0 < omega < 1.0:
        raise DomainError(f"omega must lie in (0, 1), got {omega}")
    h = min(h, 0.49 * omega, 0.49 * (1.0 - omega))
    lam = lambda_of(kfun, omega)
    lp = lambda_of(kfun, omega + h)
    lm = lambda_of(kfun, omega - h)
    left = (lam - lm) / h
    right = (lp - lam) / h
    scale = max(1.0, abs(left), abs(right))
    if abs(left - right) > _KINK_TOL * scale:
        raise NonDifferentiableError(
            f"one-sided slopes {left:.6g} and {right:.6g} disagree at omega={omega}"
        )
    d1 = (lp - lm) / (2.0 * h)
    lp2 = lambda_of(kfun, omega + 0.5 * h)
    lm2 = lambda_of(kfun, omega - 0.5 * h)
    d2 = (lp2 - lm2) / h
    return (4.0 * d2 - d1) / 3.0


def shape_parameters(kfun: KappaFunction, omega, h=1e-5) -> ShapePair:
    """Shape pair (k1, k2) = (lambda + (1-w) lambda', lambda - w lambda')."""
    lam = lambda_of(kfun, omega)
    der = lambda_derivative(kfun, omega, h=h)
    k1 = lam + (1.0 - omega) * der
    k2 = lam - omega * der
    # the limits force both >= 0; allow finite-difference dust below zero
    if min(k1, k2) < -1e-9:
        raise DomainError(f"negative shape parameter at omega={omega}: ({k1}, {k2})")
    return ShapePair(max(k1, 0.0), max(k2, 0.0), omega)


def kappa_oracle(model: CopulaModel, growth, n=1_000_000) -> float:
    """Numeric decay index -log S(growth * log n) / log n from the exact
    survivor; converges to the closed-form kappa as n grows."""
    if n < 1_000:
        raise DomainError(f"oracle scale n must be >= 1000, got {n}")
    g = model._check_growth(growth)
    ln = math.log(n)
    logp = model.log_survivor(tuple(v * ln for v in g))
    if not math.isfinite(logp):
        raise NumericError(f"survivor degenerated at scale n={n}")
    return -logp / ln


@dataclass(frozen=True)
class PropertyCheck:
    name: str
    passed: bool
    worst_violation: float
    detail: str = ""


@dataclass(frozen=True)
class PropertyReport:
    checks: tuple
    grid_seed: int
    grid_size: int

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "grid_seed": self.grid_seed,
            "grid_size": self.grid_size,
            "properties": [
                {
                    "name": c.name,
                    "pass": c.passed,
                    "worst_violation": c.worst_violation,
                    **({"detail": c.detail} if c.detail else {}),
                }
                for c in self.checks
            ],
        }


def _growth_grid(rng, size, dim):
    return rng.uniform(0.05, 5.0, size=(size, dim))


def property_suite(
    kfun: KappaFunction,
    pqd: bool,
    convex: bool = True,
    grid_size=200,
    seed=0,
    tol=1e-9,
    reduced=None,
) -> PropertyReport:
    """Check the structural properties of a decay index on a random grid.

    Parameters
    ----------
    kfun : KappaFunction
    pqd : bool
        Check the upper bound kappa <= sum(growth) (valid under positive
        orthant dependence) only when set.
    convex : bool
        Check subadditivity only when set; families with concave angular
        functions legitimately violate it (use :func:`convexity_check` to
        measure by how much).
    grid_size : int
        Number of random growth vectors, at least 100.
    seed : int
        Seed of the module-owned generator; reports are deterministic.
    reduced : sequence of KappaFunction, optional
        For dim = 3, the three two-dimensional decay indices obtained by
        dropping one coordinate; enables the cross-dimension consistency
        check kappa(b1, b2, 0) = kappa_reduced(b1, b2).
    """
    if grid_size < 100:
        raise DomainError(f"grid must have at least 100 points, got {grid_size}")
    rng = np.random.default_rng(seed)
    grid = _growth_grid(rng, grid_size, kfun.dim)
    kvals = np.array([kfun(g) for g in grid])
    checks = []

    worst = 0.0
    for hfac in (0.5, 2.0, 7.3):
        scaled = np.array([kfun(hfac * g) for g in grid])
        rel = np.abs(scaled - hfac * kvals) / (hfac * kvals)
        worst = max(worst, float(np.max(rel)))
    checks.append(PropertyCheck("homogeneity", worst <= tol, worst))

    worst = 0.0
    for j in range(kfun.dim):
        for step in (0.1, 1.0):
            bumped = grid.copy()
            bumped[:, j] += step
            kb = np.array([kfun(g) for g in bumped])
            worst = max(worst, float(np.max(kvals - kb)))
    checks.append(PropertyCheck("monotonicity", worst <= tol, worst))

    worst = 0.0
    for j in range(kfun.dim):
        axis = np.zeros(kfun.dim)
        for val in np.linspace(0.1, 4.0, 25):
            axis[:] = 0.0
            axis[j] = val
            worst = max(worst, abs(kfun(axis) - val))
    checks.append(PropertyCheck("marginal_identity", worst <= tol, worst))

    worst = float(np.max(np.max(grid, axis=1) - kvals))
    checks.append(PropertyCheck("lower_bound_max", worst <= tol, worst))

    if pqd:
        worst = float(np.max(kvals - np.sum(grid, axis=1)))
        checks.append(PropertyCheck("upper_bound_sum", worst <= tol, worst))

    if convex:
        pair = _growth_grid(rng, grid_size, kfun.dim)
        ksum = np.array([kfun(a) + kfun(b) for a, b in zip(grid, pair)])
        kjoint = np.array([kfun(a + b) for a, b in zip(grid, pair)])
        worst = float(np.max(kjoint - ksum))
        checks.append(PropertyCheck("subadditivity", worst <= tol, worst))

    if kfun.dim == 3 and reduced is not None:
        worst = 0.0
        for g in grid:
            for drop in range(3):
                kept = tuple(g[j] for j in range(3) if j != drop)
                padded = tuple(
                    0.0 if j == drop else g[j] for j in range(3)
                )
                worst = max(worst, abs(kfun(padded) - reduced[drop](kept)))
        checks.append(PropertyCheck("dimension_consistency", worst <= tol, worst))

    return PropertyReport(tuple(checks), grid_seed=seed, grid_size=grid_size)


def convexity_check(kfun: KappaFunction, grid_size=200, seed=0, tol=1e-9):
    """Sample subadditivity kappa(a+b) <= kappa(a) + kappa(b) over random
    pairs; returns (violation_count, worst_magnitude, worst_pair)."""
    rng = np.random.default_rng(seed)
    a = _growth_grid(rng, grid_size, kfun.dim)
    b = _growth_grid(rng, grid_size, kfun.dim)
    count = 0
    worst = 0.0
    worst_pair = None
    for ga, gb in zip(a, b):
        gap = kfun(ga + gb) - kfun(ga) - kfun(gb)
        if gap > tol:
            count += 1
            if gap > worst:
                worst = float(gap)
                worst_pair = (tuple(ga), tuple(gb))
    return count, worst, worst_pair

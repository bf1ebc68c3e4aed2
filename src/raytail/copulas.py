"""Example dependence structures: exact samplers, survivors and tail indices.

Each model couples three things that the rest of the package treats as
ground truth: a sampler producing standard exponential margins exactly, the
joint survivor function P(X_E > x, Y_E > y) on that scale, and the closed
form of the tail decay index kappa(beta, gamma) (the exponent such that the
survivor at (beta*log n, gamma*log n) decays like n**-kappa up to a slowly
varying factor). The angular dependence function is its restriction to the
simplex, lambda(w) = kappa(w, 1-w).

Samplers are exact constructions, not generic numerical inversions:

* ``BivariateNormal`` -- correlated normal pair mapped through the normal
  survivor function.
* ``LogisticBEV`` -- positive-stable frailty mixture (the max-stable
  logistic family).
* ``InvertedLogistic`` -- survival reflection of ``LogisticBEV``; the
  exponential coordinates come out as (E/S)**alpha directly.
* ``ClaytonLowerTail`` -- gamma-frailty Clayton pair, reflected.
* ``Morgenstern`` -- closed-form conditional inversion (quadratic root).
* ``TrivariateMaxPareto`` -- componentwise maxima of four independent
  standard Pareto variables, remapped to exact margins.

Survivor formulas are evaluated in forms that avoid catastrophic
cancellation, and in log space once exponents grow large.

``ht_limit()`` is the pair (a, b) that the conditional (``ht``) fit
estimates as (alpha, beta): given Y_E = u large, (X_E - a*u) / u**b
converges in law (Heffernan & Tawn, 2004). It is (rho**2, 1/2) for bvn
with rho > 0, (0, 1 - alpha) for invlog, (0, 0) for morgenstern and
(1, 0) for logistic and clayton; bvn with rho <= 0 and trivariate raise
``DomainError``.
"""

from __future__ import annotations

import math
import numbers
import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DomainError, NumericError, QuadratureError
from .margins import ExponentialSample

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EXP_GUARD = 700.0  # beyond this, plain exp/exp-inverse arithmetic degenerates
_TINY = sys.float_info.min  # the least positive normal float
_LOG_2 = math.log(2.0)


def _corners(targets, dim):
    """Upper-orthant corners (x0, y0[, z0]) in exponential margins, a
    sequence of corners or an (n, dim) array, as one checked (n, dim)
    float64 array: every coordinate finite and >= 0."""
    try:
        c = np.asarray(targets, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"corners must be numbers of {dim} coordinates: {exc}") from None
    if c.ndim != 2 or c.shape[1] != dim:
        raise DomainError(f"expected corners of {dim} coordinates, got shape {c.shape}")
    ok = np.all((c >= 0.0) & (c < np.inf), axis=1)
    if not ok.all():
        raise DomainError(f"corner coordinates must be finite and >= 0: {c[~ok][0].tolist()}")
    return c


def _neg_log1mexp(v):
    """-log(1 - e^-v) for v > 0, in its two stable forms split at log 2."""
    return -math.log1p(-math.exp(-v)) if v > _LOG_2 else -math.log(-math.expm1(-v))


def _positive_stable(alpha, n, rng):
    """One-sided positive stable draws with Laplace transform exp(-s**alpha).

    Chambers-Mallows-Stuck construction; alpha = 1 degenerates to the
    constant 1, which the formula returns exactly.
    """
    theta = rng.uniform(0.0, math.pi, n)
    e = rng.standard_exponential(n)
    return (np.sin(alpha * theta) / np.sin(theta) ** (1.0 / alpha)) * (
        np.sin((1.0 - alpha) * theta) / e
    ) ** ((1.0 - alpha) / alpha)


class CopulaModel(ABC):
    """Common interface of the example dependence structures."""

    dim = 2
    #: positive quadrant (orthant) dependence; controls the upper bound
    #: kappa <= beta + gamma in the property suite
    pqd = True
    #: whether kappa is convex (equivalently subadditive); gates the
    #: subadditivity check the same way pqd gates the sum bound
    convex = True
    family = ""

    @abstractmethod
    def sample(self, n, seed) -> ExponentialSample:
        """Draw n i.i.d. points with exact standard exponential margins."""

    @abstractmethod
    def log_survivor(self, s) -> float:
        """log P(X_E > x, Y_E > y) at the corner ``s``."""

    def survivor(self, s) -> float:
        return math.exp(self.log_survivor(s))

    @abstractmethod
    def kappa(self, growth) -> float:
        """Closed-form joint tail decay index for a growth vector."""

    def lam(self, omega) -> float:
        """Angular dependence function, kappa restricted to the simplex."""
        if self.dim != 2:
            raise DomainError("angular dependence function is bivariate only")
        if not 0.0 <= omega <= 1.0:
            raise DomainError(f"omega must lie in [0, 1], got {omega}")
        return self.kappa((omega, 1.0 - omega))

    def ht_limit(self) -> tuple:
        """(a, b) such that, given Y_E = u large, (X_E - a*u) / u**b
        converges in law."""
        raise DomainError(f"no conditional-tail limit available for {self.family}")

    @property
    def params(self) -> dict:
        """The model's parameters by name, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def as_dict(self) -> dict:
        """The ``{"family": ..., **params}`` object that ``make_model`` reads."""
        return {"family": self.family, **self.params}

    def _corner(self, s):
        # one checked corner as a tuple of Python floats
        return tuple(_corners([s], self.dim)[0].tolist())

    def _check_growth(self, growth):
        g = tuple(float(v) for v in growth)
        if len(g) != self.dim:
            raise DomainError(
                f"{self.family} expects growth vectors of length {self.dim}"
            )
        if any(not math.isfinite(v) or v < 0.0 for v in g):
            raise DomainError(f"growth rates must be finite and >= 0: {g}")
        if all(v == 0.0 for v in g):
            raise DomainError("growth vector must not be identically zero")
        return g


@dataclass(frozen=True)
class BivariateNormal(CopulaModel):
    """Gaussian copula with correlation rho in (-1, 1).

    The joint survivor has no elementary form; it is computed by adaptive
    1-d quadrature of the conditional-normal integral, with the density of
    the integration variable factored out so that tiny probabilities retain
    relative accuracy.
    """

    rho: float
    family = "bvn"

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ConfigError("/rho", f"rho must lie in (-1, 1), got {self.rho}")

    @property
    def pqd(self):
        return self.rho >= 0.0

    @property
    def convex(self):
        # negative dependence makes the angular function concave
        return self.rho >= 0.0

    def sample(self, n, seed):
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        # scipy.special is imported here and in the other methods that use
        # it: it is slow to import, and reading and fitting a CSV never needs it
        from scipy.special import log_ndtr

        rng = np.random.default_rng(seed)
        z1 = rng.standard_normal(n)
        z2 = self.rho * z1 + math.sqrt(1.0 - self.rho**2) * rng.standard_normal(n)
        # -log of the normal survivor function = exact exponential margin
        pts = np.column_stack((-log_ndtr(-z1), -log_ndtr(-z2)))
        return ExponentialSample(pts, provenance="simulated")

    def _joint_upper_normal(self, s, t):
        """(log P(Z1 > s, Z2 > t), quad error estimate) for standard
        bivariate normal Z with correlation rho."""
        # imported here: only this quadrature needs scipy.integrate
        from scipy.integrate import quad

        rho = self.rho
        sig = math.sqrt(1.0 - rho * rho)
        if t < s:
            s, t = t, s  # exchangeable; integrate over the larger threshold
        log_phi_t = -0.5 * t * t - _LOG_SQRT_2PI

        def integrand(z):
            y = t + z
            return 0.5 * math.erfc((s - rho * y) / (sig * math.sqrt(2.0))) * math.exp(
                -t * z - 0.5 * z * z
            )

        val, err = quad(
            integrand,
            0.0,
            40.0,
            epsabs=1e-13,
            epsrel=1e-11,
            limit=300,
            points=[max(0.0, -t)],
        )
        if 0.0 < val < 1e-10:
            # the absolute floor dominated; rerun with the floor scaled to
            # the magnitude just found so the result is relatively accurate
            val, err = quad(
                integrand,
                0.0,
                40.0,
                epsabs=val * 1e-11,
                epsrel=1e-11,
                limit=300,
                points=[max(0.0, -t)],
            )
        if val <= 0.0 or not math.isfinite(val):
            raise QuadratureError("bivariate normal quadrature degenerated", err)
        if err > max(1e-12, 1e-7 * val):
            raise QuadratureError("bivariate normal quadrature did not converge", err)
        return log_phi_t + math.log(val), err

    def log_survivor(self, s):
        x, y = self._corner(s)
        if max(x, y) > _EXP_GUARD:
            raise NumericError(
                f"corner {x, y} exceeds the quadrature range of the normal model"
            )
        if x == 0.0:
            return -y
        if y == 0.0:
            return -x
        ux, uy = math.exp(-x), math.exp(-y)
        if ux == 1.0 and uy == 1.0:
            # both margins round to 1: S lies within x + y of 1, and
            # -max(x, y) is its log to double precision
            return -max(x, y)
        from scipy.special import ndtri

        sx = -ndtri(ux)  # normal upper quantile of the margin
        sy = -ndtri(uy)
        logp, _ = self._joint_upper_normal(sx, sy)
        return logp

    def kappa(self, growth):
        b, g = self._check_growth(growth)
        if b + g == math.inf:
            # homogeneous of degree one: halve a growth whose sum overflows
            return 2.0 * self.kappa((b / 2.0, g / 2.0))
        rho = self.rho
        if min(b, g) == 0.0:
            # exact marginal behaviour; for rho < 0 the interior form does
            # not extend continuously to the axes, where it tends to
            # (b + g) / (1 - rho^2)
            return b + g if rho < 0.0 else max(b, g)
        if rho < 0.0 or rho * rho < min(b / g, g / b):
            # the root of each factor where their product leaves the normal range
            bg = b * g
            root = math.sqrt(bg) if _TINY <= bg < math.inf else math.sqrt(b) * math.sqrt(g)
            return (b + g - 2.0 * rho * root) / (1.0 - rho * rho)
        return max(b, g)

    def lambda_deriv(self, omega):
        """Analytic derivative of the angular dependence function, valid in
        the interior regime rho^2 < min{w/(1-w), (1-w)/w} (or rho < 0)."""
        if not 0.0 < omega < 1.0:
            raise DomainError(f"omega must lie in (0, 1), got {omega}")
        rho = self.rho
        ratio = min(omega / (1.0 - omega), (1.0 - omega) / omega)
        if rho >= 0.0 and rho * rho >= ratio:
            # outside: lambda = max(w, 1-w), slope is +-1
            return 1.0 if omega > 0.5 else -1.0
        return (
            -rho
            * (1.0 - 2.0 * omega)
            / (math.sqrt(omega * (1.0 - omega)) * (1.0 - rho * rho))
        )

    def ht_limit(self):
        if self.rho <= 0.0:
            raise DomainError(
                f"the conditional-tail limit requires rho > 0, got rho = {self.rho}"
            )
        return self.rho * self.rho, 0.5


@dataclass(frozen=True)
class InvertedLogistic(CopulaModel):
    """Survival reflection of the max-stable logistic family.

    The joint survivor in exponential margins is the exact power
    exp(-(x**(1/alpha) + y**(1/alpha))**alpha): the slowly varying factor
    is identically one, so tail index estimators see no bias. alpha = 1 is
    independence; alpha -> 0 approaches complete dependence of the original
    logistic pair.
    """

    alpha: float
    family = "invlog"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("/alpha", f"alpha must lie in (0, 1], got {self.alpha}")

    def sample(self, n, seed):
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        s = _positive_stable(self.alpha, n, rng)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        # reflecting the frailty-mixture uniforms gives (E/S)**alpha exactly
        pts = np.column_stack(((e1 / s) ** self.alpha, (e2 / s) ** self.alpha))
        return ExponentialSample(pts, provenance="simulated")

    def log_survivor(self, s):
        x, y = self._corner(s)
        return -self.kappa_unchecked(x, y)

    def kappa_unchecked(self, b, g):
        a = self.alpha
        if b == 0.0:
            return g
        if g == 0.0:
            return b
        lb, lg = math.log(b) / a, math.log(g) / a
        m = max(lb, lg)
        if m > _EXP_GUARD:
            # logsumexp form of the power-norm, inf beyond the float range
            try:
                return math.exp(a * (m + math.log(math.exp(lb - m) + math.exp(lg - m))))
            except OverflowError:
                return math.inf
        return (b ** (1.0 / a) + g ** (1.0 / a)) ** a

    def kappa(self, growth):
        b, g = self._check_growth(growth)
        return self.kappa_unchecked(b, g)

    def lambda_deriv(self, omega):
        """Analytic derivative of the angular dependence function."""
        if not 0.0 < omega < 1.0:
            raise DomainError(f"omega must lie in (0, 1), got {omega}")
        a = self.alpha
        s = omega ** (1.0 / a) + (1.0 - omega) ** (1.0 / a)
        return (omega ** (1.0 / a - 1.0) - (1.0 - omega) ** (1.0 / a - 1.0)) * s ** (
            a - 1.0
        )

    def ht_limit(self):
        return 0.0, 1.0 - self.alpha


@dataclass(frozen=True)
class Morgenstern(CopulaModel):
    """Farlie-Gumbel-Morgenstern copula uv(1 + alpha(1-u)(1-v)).

    Weak dependence of either sign; the joint tail decay index is
    beta + gamma regardless of alpha, with constant slowly varying factor
    1 + alpha.
    """

    alpha: float
    family = "morgenstern"

    def __post_init__(self):
        if not -1.0 <= self.alpha <= 1.0:
            raise ConfigError("/alpha", f"alpha must lie in [-1, 1], got {self.alpha}")

    @property
    def pqd(self):
        return self.alpha >= 0.0

    def sample(self, n, seed):
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        u = rng.random(n)
        p = rng.random(n)
        a = self.alpha * (1.0 - 2.0 * u)
        # invert the conditional CDF v(1 + a(1 - v)) = p: root of the
        # quadratic a v^2 - (1 + a) v + p that lies inside [0, 1]; the
        # discriminant is >= (1-a)^2 >= 0 for |a| <= 1
        small = np.abs(a) < 1e-12
        a_safe = np.where(small, 1.0, a)
        v = np.where(
            small,
            p,
            ((1.0 + a) - np.sqrt((1.0 + a) ** 2 - 4.0 * a * p)) / (2.0 * a_safe),
        )
        pts = np.column_stack((-np.log1p(-u), -np.log1p(-v)))
        return ExponentialSample(pts, provenance="simulated")

    def log_survivor(self, s):
        x, y = self._corner(s)
        al = self.alpha
        if x + y > _EXP_GUARD:
            a = math.exp(-x) if x < _EXP_GUARD else 0.0
            b = math.exp(-y) if y < _EXP_GUARD else 0.0
        else:
            a = math.exp(-x)
            b = math.exp(-y)
        # 1 + alpha(1-a)(1-b) rearranged to avoid cancellation at alpha = -1
        c = (1.0 + al) - al * (a + b - a * b)
        if c <= 0.0:
            raise NumericError(f"survivor underflow at corner {(x, y)}")
        return -(x + y) + math.log(c)

    def kappa(self, growth):
        b, g = self._check_growth(growth)
        return b + g

    def lambda_deriv(self, omega):
        if not 0.0 < omega < 1.0:
            raise DomainError(f"omega must lie in (0, 1), got {omega}")
        return 0.0

    def ht_limit(self):
        return 0.0, 0.0


@dataclass(frozen=True)
class LogisticBEV(CopulaModel):
    """Max-stable logistic (Gumbel-Hougaard) copula.

    Strong joint tail dependence for alpha < 1: the decay index collapses
    to max(beta, gamma) and the angular dependence function is the kinked
    max(w, 1-w).
    """

    alpha: float
    family = "logistic"

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigError("/alpha", f"alpha must lie in (0, 1], got {self.alpha}")

    def sample(self, n, seed):
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        s = _positive_stable(self.alpha, n, rng)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        w1 = (e1 / s) ** self.alpha
        w2 = (e2 / s) ** self.alpha
        # U = exp(-w) is the copula uniform; the exponential coordinate is
        # -log(1 - U), computed through expm1 for tail accuracy
        pts = np.column_stack(
            (-np.log(-np.expm1(-w1)), -np.log(-np.expm1(-w2)))
        )
        return ExponentialSample(pts, provenance="simulated")

    def log_survivor(self, s):
        x, y = self._corner(s)
        if x > y:
            x, y = y, x  # exchangeable; keep the first survivor the larger
        if x == 0.0:
            return -y
        if y > _EXP_GUARD:
            return self._log_survivor_far(x, y)
        a = math.exp(-x)
        b = math.exp(-y)
        if b == 0.0:
            raise NumericError(f"survivor underflow at corner {(x, y)}")
        ap = _neg_log1mexp(x)
        bp = _neg_log1mexp(y)
        t = (bp / ap) ** (1.0 / self.alpha)  # <= 1 by the ordering above
        v_minus_ap = ap * math.expm1(self.alpha * math.log1p(t))
        surv = b + (1.0 - a) * math.expm1(-v_minus_ap)
        if surv <= 0.0:
            raise NumericError(f"survivor underflow at corner {(x, y)}")
        return math.log(surv)

    def _log_survivor_far(self, x, y):
        # 0 < x <= y, y beyond the guard. With a = e^-x, A = -log(1 - a),
        # b = e^-y and t = (b/A)^(1/alpha), the survivor is
        # b - (1 - a)(1 - e^-q), q = A((1 + t)^alpha - 1) <= b. Here
        # -log(1 - b) = b and 1 - e^-q = q to double precision, so
        # log S = -y + log1p(-r) with r = (1 - a) q / b, taken in logs
        alpha = self.alpha
        if alpha == 1.0:
            return -x - y  # independence: exactly e^-x e^-y
        if x > _EXP_GUARD:
            ap, log_ap = 0.0, -x  # A = a and log(1 - a) = 0 to double precision
        else:
            ap = _neg_log1mexp(x)
            log_ap = math.log(ap)
        d = log_ap + y  # log(A/b) >= 0
        if d / alpha < 600.0:
            log_q_over_ap = math.log(math.expm1(alpha * math.log1p(math.exp(-d / alpha))))
        else:
            log_q_over_ap = math.log(alpha) - d / alpha  # (1 + t)^alpha - 1 = alpha t
        r = math.exp(-ap + log_q_over_ap + d)
        if r >= 1.0:
            raise NumericError(f"survivor underflow at corner {(x, y)}")
        return -y + math.log1p(-r)

    def kappa(self, growth):
        b, g = self._check_growth(growth)
        return max(b, g)

    def ht_limit(self):
        return 1.0, 0.0


@dataclass(frozen=True)
class ClaytonLowerTail(CopulaModel):
    """Survival reflection of the Clayton copula (its lower joint tail).

    Strong joint tail dependence for every alpha > 0, with the exact joint
    survivor (e^{x/alpha} + e^{y/alpha} - 1)^{-alpha} in exponential
    margins.
    """

    alpha: float
    family = "clayton"

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ConfigError("/alpha", f"alpha must be > 0, got {self.alpha}")

    def sample(self, n, seed):
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        s = rng.gamma(self.alpha, 1.0, n)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        # gamma-frailty Clayton uniforms (1 + E/S)^{-alpha}; reflection
        # makes the exponential coordinate alpha*log1p(E/S) exactly
        pts = np.column_stack(
            (self.alpha * np.log1p(e1 / s), self.alpha * np.log1p(e2 / s))
        )
        return ExponentialSample(pts, provenance="simulated")

    def log_survivor(self, s):
        x, y = self._corner(s)
        a = self.alpha
        top = max(x, y)
        m = top / a
        if m == math.inf:
            # top / alpha overflows (alpha < 1): add top outside the scaling,
            # where exp(-top / alpha) is 0.0
            return -(top + a * math.log(math.exp((x - top) / a) + math.exp((y - top) / a)))
        inner = math.exp(x / a - m) + math.exp(y / a - m) - math.exp(-m)
        return -a * (m + math.log(inner))

    def kappa(self, growth):
        b, g = self._check_growth(growth)
        return max(b, g)

    def ht_limit(self):
        return 1.0, 0.0


@dataclass(frozen=True)
class TrivariateMaxPareto(CopulaModel):
    """(X, Y, Z) = (max(T,U), max(U,V), max(V,W)) for independent standard
    Pareto T, U, V, W, remapped to exact margins.

    The pairs (X,Y) and (Y,Z) share a component and are strongly tail
    dependent; (X,Z) are independent; the triple has weak joint tail
    dependence. Marginally each maximum has CDF G(w) = (1 - 1/w)^2, and the
    exact exponential coordinate is -log(1 - G)."""

    family = "trivariate"
    dim = 3
    # kappa(1,1,0) + kappa(0,1,1) = 2 < 3 = kappa(1,2,1): the shared-maximum
    # construction is not subadditive, so no convexity is claimed
    convex = False

    def sample(self, n, seed):
        if n < 1:
            raise DomainError(f"sample size must be >= 1, got {n}")
        rng = np.random.default_rng(seed)
        t = 1.0 / (1.0 - rng.random(n))
        u = 1.0 / (1.0 - rng.random(n))
        v = 1.0 / (1.0 - rng.random(n))
        w = 1.0 / (1.0 - rng.random(n))
        cols = []
        for m in (np.maximum(t, u), np.maximum(u, v), np.maximum(v, w)):
            # 1 - G(m) = 2/m - 1/m^2, so -log(1-G) = log(m^2/(2m-1))
            cols.append(2.0 * np.log(m) - np.log(2.0 * m - 1.0))
        return ExponentialSample(np.column_stack(cols), provenance="simulated")

    @staticmethod
    def _pareto_threshold(x):
        """Pareto-scale threshold whose maximum-survivor equals e^{-x}."""
        q = math.exp(-x)
        # 1 - sqrt(1-q) without cancellation
        return (1.0 + math.sqrt(1.0 - q)) / q

    def survivor(self, s):
        c = self._corner(s)
        if max(c) > _EXP_GUARD:
            raise NumericError(f"corner {c} exceeds the exp range")
        tx, ty, tz = (self._pareto_threshold(v) for v in c)

        def F(t):
            return 1.0 - 1.0 / t

        fx, fy, fz = F(tx), F(ty), F(tz)
        fxy = F(min(tx, ty))
        fyz = F(min(ty, tz))
        # inclusion-exclusion over the product-form joint CDF
        val = (
            1.0
            - fx * fx
            - fy * fy
            - fz * fz
            + fx * fxy * fy
            + fx * fx * fz * fz
            + fy * fyz * fz
            - fx * fxy * fyz * fz
        )
        if val < 1e-10:
            # the alternating sum loses all precision for deep corners;
            # re-evaluate by enumeration over the independent components
            val = self._survivor_by_enumeration(tx, ty, tz)
        return max(val, 0.0)

    @staticmethod
    def _survivor_by_enumeration(tx, ty, tz):
        """P(max(T,U)>tx, max(U,V)>ty, max(V,W)>tz) summed over the cells of
        U relative to (tx, ty) and V relative to (ty, tz); cancellation-free
        because every factor is a probability."""
        pu = [0.0, 0.0, 0.0]  # U below both, between, above both
        lo, hi = min(tx, ty), max(tx, ty)
        pu[0] = 1.0 - 1.0 / lo
        pu[1] = 1.0 / lo - 1.0 / hi
        pu[2] = 1.0 / hi
        pv = [0.0, 0.0, 0.0]
        lo2, hi2 = min(ty, tz), max(ty, tz)
        pv[0] = 1.0 - 1.0 / lo2
        pv[1] = 1.0 / lo2 - 1.0 / hi2
        pv[2] = 1.0 / hi2
        pt = 1.0 / tx  # P(T > tx)
        pw = 1.0 / tz  # P(W > tz)
        total = 0.0
        for iu in range(3):
            # the middle cell (lo, hi] exceeds a threshold iff that
            # threshold is the lower of the two boundaries
            u_above_x = (iu == 2) or (iu == 1 and tx <= ty)
            u_above_y = (iu == 2) or (iu == 1 and ty <= tx)
            for iv in range(3):
                v_above_y = (iv == 2) or (iv == 1 and ty <= tz)
                v_above_z = (iv == 2) or (iv == 1 and tz <= ty)
                if not (u_above_y or v_above_y):
                    continue
                w_factor = 1.0 if v_above_z else pw
                t_factor = 1.0 if u_above_x else pt
                total += pu[iu] * pv[iv] * t_factor * w_factor
        return total

    def log_survivor(self, s):
        val = self.survivor(s)
        if val <= 0.0:
            raise NumericError("trivariate survivor underflow")
        return math.log(val)

    def kappa(self, growth):
        b, g, d = self._check_growth(growth)
        if g >= b and g >= d:
            return g + min(b, g, d)
        return b + d


FAMILIES = {
    "bvn": BivariateNormal,
    "invlog": InvertedLogistic,
    "morgenstern": Morgenstern,
    "logistic": LogisticBEV,
    "clayton": ClaytonLowerTail,
    "trivariate": TrivariateMaxPareto,
}


def make_model(family, **params) -> CopulaModel:
    """Instantiate a model by family tag and its parameters by name.

    Every error is a ConfigError whose pointer locates the faulty entry of the
    model's ``as_dict()`` object: ``/family`` or ``/<parameter>``. Range
    errors carry the bound.
    """
    cls = FAMILIES.get(family) if isinstance(family, str) else None
    if cls is None:
        raise ConfigError(
            "/family", f"unknown family {family!r}; choose from {sorted(FAMILIES)}"
        )
    names = [f.name for f in fields(cls)]
    for name, value in params.items():
        if name not in names:
            raise ConfigError(
                f"/{name}", f"{name} is not a parameter of model {family!r}"
            )
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ConfigError(f"/{name}", f"{name} must be a number, got {value!r}")
    for name in names:
        if name not in params:
            raise ConfigError(f"/{name}", f"{name} is required for model {family!r}")
    return cls(**params)

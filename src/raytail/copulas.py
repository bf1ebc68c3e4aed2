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

``CopulaModel`` checks every input once: ``sample(n, seed)`` checks n,
seeds the generator and wraps the (n, dim) points of ``_draw(n, rng)``;
``log_survivor`` and ``kappa`` check the corner or growth vector and pass
its floats to ``_log_survivor`` or ``_kappa``. A family writes only these
three, its parameters, ``ht_limit`` and, where it has one, ``lambda_deriv``.
``log_survivors`` checks an array of corners for ``_log_survivors``, which
calls ``_log_survivor`` on each unless the family shares work across
corners, as bvn does.

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

from ._normal import log_ndtr, ndtri
from .errors import ConfigError, DomainError, NumericError, QuadratureError
from .margins import ExponentialSample

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EXP_GUARD = 700.0  # beyond this, plain exp/exp-inverse arithmetic degenerates
_TINY = sys.float_info.min  # the least positive normal float
_LOG_2 = math.log(2.0)
_EPS = sys.float_info.epsilon
# the bvn quadrature, _log_quad: a 10-point Gauss-Legendre rule checked
# against the 21-point one, the relative accuracy and interval limit of the
# earlier quad form, and the initial partition's steps away from the
# breakpoint, in units of 1/|t|. The rules are literals (below), so a bvn
# truth does not import numpy.polynomial.
_GAUSS_LO = 10
_QUAD_RTOL = 1e-11
_QUAD_LIMIT = 300
_QUAD_STEPS = 2.0 ** np.arange(12)
# The nodes of the 10- and 21-point Gauss-Legendre rules on [-1, 1], the
# 10-point rule's first, and the weights of each rule: the repr of what
# numpy.polynomial.legendre.leggauss(10) and leggauss(21) return at numpy
# 2.4.6, bit for bit. Correctly rounded weights differ from these by up to
# 7 ulp (10 points) and 88 ulp (21 points) and would move every bvn truth.
# test_gauss_rules_match_leggauss_and_integrate_polynomials pins them.
_GAUSS_NODES = np.array([
    -0.9739065285171717, -0.8650633666889845, -0.6794095682990244,
    -0.4333953941292472, -0.14887433898163122, 0.14887433898163122,
    0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
    0.9739065285171717,
    -0.9937521706203895, -0.9672268385663063, -0.9200993341504008,
    -0.8533633645833173, -0.7684399634756779, -0.6671388041974123,
    -0.5516188358872198, -0.4243421202074388, -0.2880213168024011,
    -0.1455618541608951, 0.0, 0.1455618541608951, 0.2880213168024011,
    0.4243421202074388, 0.5516188358872198, 0.6671388041974123,
    0.7684399634756779, 0.8533633645833173, 0.9200993341504008,
    0.9672268385663063, 0.9937521706203895,
])
_GAUSS_W_LO = np.array([
    0.06667134430868814, 0.1494513491505804, 0.219086362515982,
    0.2692667193099965, 0.2955242247147528, 0.2955242247147528,
    0.2692667193099965, 0.219086362515982, 0.1494513491505804,
    0.06667134430868814,
])
_GAUSS_W_HI = np.array([
    0.01601722825777436, 0.03695378977085188, 0.05713442542685717,
    0.07610011362837911, 0.09344442345603395, 0.1087972991671484,
    0.12183141605372864, 0.13226893863333763, 0.1398873947910734,
    0.14452440398997027, 0.1460811336496907, 0.14452440398997027,
    0.1398873947910734, 0.13226893863333763, 0.12183141605372864,
    0.1087972991671484, 0.09344442345603395, 0.07610011362837911,
    0.05713442542685717, 0.03695378977085188, 0.01601722825777436,
])


def _corners(targets, dim):
    """Upper-orthant corners (x0, y0[, z0]) in exponential margins, a
    sequence of corners or an (n, dim) array, as one checked (n, dim)
    float64 array: every coordinate finite and >= 0. An empty sequence is
    no corners."""
    try:
        c = np.asarray(targets, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"corners must be numbers of {dim} coordinates: {exc}") from None
    if c.shape == (0,):
        c = c.reshape(0, dim)
    if c.ndim != 2 or c.shape[1] != dim:
        raise DomainError(f"expected corners of {dim} coordinates, got shape {c.shape}")
    ok = np.all((c >= 0.0) & (c < np.inf), axis=1)
    if not ok.all():
        raise DomainError(f"corner coordinates must be finite and >= 0: {c[~ok][0].tolist()}")
    return c


def _rng(seed):
    """np.random.default_rng(seed), and a seed it rejects (a negative
    integer, a float, a string) as a DomainError."""
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:
        raise DomainError(
            f"seed must be an integer >= 0 or a sequence of them, got {seed!r}"
        ) from exc


def _neg_log1mexp(v):
    """-log(1 - e^-v) for v > 0, in its two stable forms split at log 2."""
    return -math.log1p(-math.exp(-v)) if v > _LOG_2 else -math.log(-math.expm1(-v))


def _log_diff(a, b):
    """log(e^a - e^b) for a >= b; -inf when they are equal."""
    if a == b:
        return -math.inf
    return a - _neg_log1mexp(a - b)


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


def _log_quad(log_f, edges):
    """Logs of the integrals of exp(log_f(z)) over [edges[k, 0], edges[k, -1]],
    one for each row k of the row-sorted (integrals, points) array ``edges``.

    Globally adaptive over the intervals between each row's distinct edges:
    each pass evaluates the log integrand at the nodes of a 10- and a
    21-point Gauss-Legendre rule on every open interval of every integral at
    once, shifts each integral by its largest value before exp, so nothing
    underflows that matters, and accepts an interval whose two rules agree
    to _QUAD_RTOL of its whole integral. Only the others are bisected. The
    allowance grows with |shift|: exp of a log integrand rounded to about
    |log_f| eps carries that relative error, which no subdivision removes.
    ``log_f(z, k)`` maps an (intervals, nodes) array elementwise, given the
    row ``k`` of each interval.
    """
    n = edges.shape[0]
    is_open = edges[:, 1:] > edges[:, :-1]
    k = np.nonzero(is_open)[0]
    a, b = edges[:, :-1][is_open], edges[:, 1:][is_open]
    acc, shift = np.zeros(n), np.full(n, -np.inf)
    count = np.bincount(k, minlength=n)
    while True:
        half = 0.5 * (b - a)
        mid = a + half
        g = log_f(mid[:, None] + half[:, None] * _GAUSS_NODES, k)
        row_max = g.max(axis=1)
        top = np.full(n, -np.inf)
        np.fmax.at(top, k, row_max)
        if np.isnan(row_max).any() or not np.isfinite(top[k]).all():
            raise QuadratureError("bivariate normal quadrature degenerated", math.nan)
        # rows whose largest value rose rescale what they accepted
        new = np.maximum(shift, top)
        acc *= np.exp(shift - new)
        shift = new
        f = np.exp(g - shift[k, None])
        lo = f[:, :_GAUSS_LO] @ _GAUSS_W_LO * half
        hi = f[:, _GAUSS_LO:] @ _GAUSS_W_HI * half
        err = np.abs(hi - lo)
        total = acc + np.bincount(k, hi, n)
        ok = err <= ((_QUAD_RTOL + 16.0 * _EPS * np.abs(shift)) * total)[k]
        acc += np.bincount(k[ok], hi[ok], n)
        if ok.all():
            return shift + np.log(acc)
        bad = ~ok
        count += np.bincount(k[bad], minlength=n)
        if count.max() > _QUAD_LIMIT:
            raise QuadratureError(
                "bivariate normal quadrature did not converge", float((err / total[k]).max())
            )
        a, b = np.concatenate((a[bad], mid[bad])), np.concatenate((mid[bad], b[bad]))
        k = np.concatenate((k[bad], k[bad]))


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

    def sample(self, n, seed) -> ExponentialSample:
        """Draw n i.i.d. points with exact standard exponential margins."""
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
            raise DomainError(f"sample size must be an integer >= 1, got {n!r}")
        pts = self._draw(n, _rng(seed))
        return ExponentialSample(pts)

    def log_survivor(self, s) -> float:
        """log P(X_E > x, Y_E > y) at the corner ``s``."""
        return self._log_survivor(*self._corner(s))

    def log_survivors(self, corners) -> np.ndarray:
        """``log_survivor`` at each of a sequence of corners or an (n, dim)
        array of them."""
        return self._log_survivors(_corners(corners, self.dim))

    def survivor(self, s) -> float:
        return math.exp(self.log_survivor(s))

    def kappa(self, growth) -> float:
        """Closed-form joint tail decay index for a growth vector."""
        return self._kappa(*self._check_growth(growth))

    @abstractmethod
    def _draw(self, n, rng):
        """(n, dim) array of exact standard exponential coordinates."""

    @abstractmethod
    def _log_survivor(self, *corner) -> float:
        """log survivor at a checked corner of Python floats."""

    def _log_survivors(self, c):
        # a family that shares work across corners overrides this
        return np.array([self._log_survivor(*p) for p in c.tolist()], dtype=np.float64)

    @abstractmethod
    def _kappa(self, *growth) -> float:
        """Decay index at a checked growth vector of Python floats."""

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

    The joint survivor has no elementary form; it is a 1-d integral of the
    conditional-normal survivor, computed in logs by ``_log_quad``: a
    Gauss-Legendre pair, adaptive over intervals, on the package's own
    normal functions (``_normal``). The density of the integration variable
    is factored out and the integrand shifted by its largest value, so tiny
    probabilities retain relative accuracy and far corners do not underflow.
    ``log_survivors`` integrates all its corners in one adaptive pass.
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

    def _draw(self, n, rng):
        z1 = rng.standard_normal(n)
        z2 = self.rho * z1 + math.sqrt(1.0 - self.rho**2) * rng.standard_normal(n)
        # -log of the normal survivor function = exact exponential margin;
        # one call a column: on both columns at once, log_ndtr's temporaries
        # were large enough that freeing them returned memory to the system,
        # about 85 page faults a sample of 5000
        return np.column_stack((-log_ndtr(-z1), -log_ndtr(-z2)))

    def _joint_upper_normal(self, s, t):
        """log P(Z1 > s, Z2 > t) at each pair of thresholds, for standard
        bivariate normal Z with correlation rho: log phi(t) plus the log of
        the integral over z in [0, 40] of exp(g(z)), g(z) = log Phi((rho (t
        + z) - s) / sig) - t z - z^2 / 2, with t the larger threshold of the
        pair (see ``_log_quad``)."""
        rho = self.rho
        sig = math.sqrt(1.0 - rho * rho)
        # exchangeable; integrate over the larger threshold
        s, t = np.minimum(s, t), np.maximum(s, t)
        # the breakpoint max(0, -t); the partition is graded away from it on
        # the scale 1/|t| of exp(-t z)
        c = np.maximum(0.0, -t)[:, None]
        steps = _QUAD_STEPS / np.maximum(1.0, np.abs(t))[:, None]
        ends = np.broadcast_to([0.0, 40.0], (t.size, 2))
        edges = np.sort(np.hstack((ends, c, c + steps, c - steps)).clip(0.0, 40.0), axis=1)

        def log_f(z, k):
            tk = t[k, None]
            return log_ndtr((rho * (tk + z) - s[k, None]) / sig) - z * (tk + 0.5 * z)

        return -0.5 * t * t - _LOG_SQRT_2PI + _log_quad(log_f, edges)

    def _log_survivor(self, x, y):
        return float(self._log_survivors(np.array([[x, y]]))[0])

    def _log_survivors(self, c):
        top = c.max(axis=1)
        far = np.flatnonzero(top > _EXP_GUARD)
        if far.size:
            raise NumericError(
                f"corner {tuple(c[far[0]].tolist())} exceeds the quadrature range"
                " of the normal model"
            )
        out = -top  # exact where a margin is 0
        # one integral per other corner, all in one quadrature: where
        # S >= 1 - px - py > 1/2 (px = 1 - e^-x, py likewise) it is
        # L = P(Z1 <= s, Z2 <= t) at the normal quantiles (s, t) of (px, py),
        # and log S = log1p(-(px + py - L)); elsewhere it runs at the normal
        # upper quantiles of the margins and gives log S itself
        rows, probs, near = [], [], []
        for i, (x, y) in enumerate(c.tolist()):
            if x > 0.0 and y > 0.0:
                px, py = -math.expm1(-x), -math.expm1(-y)
                rows.append(i)
                if px + py < 0.5:
                    probs.append((px, py))
                    near.append(px + py)
                else:
                    probs.append((math.exp(-x), math.exp(-y)))
                    near.append(None)
        if rows:
            q = -np.array([[ndtri(p) for p in pair] for pair in probs])
            logs = self._joint_upper_normal(q[:, 0], q[:, 1]).tolist()
            for i, lp, p in zip(rows, logs, near):
                out[i] = lp if p is None else math.log1p(-(p - math.exp(lp)))
        return out

    def _kappa(self, b, g):
        if b + g == math.inf:
            # homogeneous of degree one: halve a growth whose sum overflows
            return 2.0 * self._kappa(b / 2.0, g / 2.0)
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

    def _draw(self, n, rng):
        s = _positive_stable(self.alpha, n, rng)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        # reflecting the frailty-mixture uniforms gives (E/S)**alpha exactly
        return np.column_stack(((e1 / s) ** self.alpha, (e2 / s) ** self.alpha))

    def _log_survivor(self, x, y):
        return -self._kappa(x, y)

    def _kappa(self, b, g):
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

    def _draw(self, n, rng):
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
        return np.column_stack((-np.log1p(-u), -np.log1p(-v)))

    def _log_survivor(self, x, y):
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

    def _kappa(self, b, g):
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

    def _draw(self, n, rng):
        s = _positive_stable(self.alpha, n, rng)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        w1 = (e1 / s) ** self.alpha
        w2 = (e2 / s) ** self.alpha
        # U = exp(-w) is the copula uniform; the exponential coordinate is
        # -log(1 - U), computed through expm1 for tail accuracy
        return np.column_stack((-np.log(-np.expm1(-w1)), -np.log(-np.expm1(-w2))))

    def _log_survivor(self, x, y):
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

    def _kappa(self, b, g):
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
        if not 0.0 < self.alpha < math.inf:
            raise ConfigError("/alpha", f"alpha must be finite and > 0, got {self.alpha}")

    def _draw(self, n, rng):
        s = rng.gamma(self.alpha, 1.0, n)
        e1 = rng.standard_exponential(n)
        e2 = rng.standard_exponential(n)
        # gamma-frailty Clayton uniforms (1 + E/S)^{-alpha}; reflection
        # makes the exponential coordinate alpha*log1p(E/S) exactly
        return np.column_stack((self.alpha * np.log1p(e1 / s), self.alpha * np.log1p(e2 / s)))

    def _log_survivor(self, x, y):
        a = self.alpha
        top = max(x, y)
        m = top / a
        if m == math.inf:
            # top / alpha overflows (alpha < 1): add top outside the scaling,
            # where exp(-top / alpha) is 0.0
            return -(top + a * math.log(math.exp((x - top) / a) + math.exp((y - top) / a)))
        inner = math.exp(x / a - m) + math.exp(y / a - m) - math.exp(-m)
        return -a * (m + math.log(inner))

    def _kappa(self, b, g):
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

    def _draw(self, n, rng):
        t = 1.0 / (1.0 - rng.random(n))
        u = 1.0 / (1.0 - rng.random(n))
        v = 1.0 / (1.0 - rng.random(n))
        w = 1.0 / (1.0 - rng.random(n))
        cols = []
        for m in (np.maximum(t, u), np.maximum(u, v), np.maximum(v, w)):
            # 1 - G(m) = 2/m - 1/m^2, so -log(1-G) = log(m^2/(2m-1))
            cols.append(2.0 * np.log(m) - np.log(2.0 * m - 1.0))
        return np.column_stack(cols)

    @staticmethod
    def _log_tail(x):
        """(log p, log(1 - p)) for p = P(T > t) = 1/t at the Pareto threshold
        t whose maximum-survivor 1 - (1 - p)^2 equals e^{-x}: 1 - p is
        sqrt(1 - e^{-x}) and p = e^{-x} / (1 + sqrt(1 - e^{-x}))."""
        r = math.sqrt(-math.expm1(-x))
        return -x - math.log1p(r), (math.log(r) if r > 0.0 else -math.inf)

    def _log_survivor(self, x, y, z):
        # P(max(T,U) > tx, max(U,V) > ty, max(V,W) > tz) summed over the
        # cells of U relative to (tx, ty) and of V relative to (ty, tz):
        # below both thresholds, between them or above both. Every factor is
        # a probability, so each cell is a sum of log factors and the cells
        # combine by log-sum-exp, without cancellation and at any depth.
        (px, qx), (py, qy), (pz, qz) = (self._log_tail(v) for v in (x, y, z))
        # the larger p belongs to the lower threshold, i.e. the smaller corner
        u_cells = (qx if x <= y else qy, _log_diff(max(px, py), min(px, py)), min(px, py))
        v_cells = (qy if y <= z else qz, _log_diff(max(py, pz), min(py, pz)), min(py, pz))
        terms = []
        for iu, lu in enumerate(u_cells):
            # the middle cell exceeds a threshold iff it is the lower one
            u_above_x = iu == 2 or (iu == 1 and x <= y)
            u_above_y = iu == 2 or (iu == 1 and y <= x)
            for iv, lv in enumerate(v_cells):
                v_above_y = iv == 2 or (iv == 1 and y <= z)
                v_above_z = iv == 2 or (iv == 1 and z <= y)
                if u_above_y or v_above_y:
                    # T must exceed tx unless U does, W must exceed tz unless V does
                    terms.append(lu + lv + (0.0 if u_above_x else px) + (0.0 if v_above_z else pz))
        top = max(terms)
        if top == -math.inf:
            raise NumericError("trivariate survivor underflow")
        return top + math.log(math.fsum(math.exp(t - top) for t in terms))

    def _kappa(self, b, g, d):
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

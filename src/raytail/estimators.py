"""Joint tail probability estimators and their fit diagnostics.

Three competing estimators of P(X_E > x0, Y_E > y0) for a corner deep in
the joint tail, all operating on standard exponential margins:

``wt`` (ray extrapolation)
    The tail index of the structure variable T = min(X_E/w, Y_E/(1-w))
    along the ray through the corner is estimated by the reciprocal mean
    excess above a high threshold u (the Hill estimator, here named
    lambda_hat). The target probability is exp(-lambda_hat * v) times the
    empirical probability of the base set at u, where v is the distance
    travelled outward along the ray.

``lt`` (diagonal extrapolation)
    Classical joint-tail extrapolation parallel to the diagonal: the
    corner is slid back by (v, v) until it reaches empirical support, and
    the empirical base probability is scaled by exp(-v/eta_hat) with the
    tail dependence coefficient eta estimated on the diagonal ray,
    1/eta_hat = 2*lambda_hat(1/2).

``ht`` (conditional simulation)
    A conditional-tail model for X_E given Y_E large, with location
    a(y) = alpha*y and scale b(y) = y**beta fitted by a working-normal
    likelihood. The probability factorizes into the exact marginal
    exceedance term and a Monte Carlo estimate over resampled residuals.

Every angular fit runs through ``fit_lambda_rays``, which fits all the
rays of a sample from one (rays x m) structure matrix, and the ``wt`` and
``lt`` estimates through ``wt_probabilities_at`` and ``lt_probabilities``,
which take a sequence of corners. They return one slot per ray or corner:
the result of the one-item call (``fit_lambda``, ``wt_probability_at``,
``lt_probability``) or the typed error it raises, so a failed ray does not
stop the others.

The structure matrix of a large batch covers only candidate points.
T = min(x/w, y/(1-w)) is non-decreasing in both coordinates, so on every
ray a point that k others match or beat in both has T at or below the
k-th largest value: it neither sets the quantile threshold, which only
the top k values enter, nor exceeds it. A short staircase on the x order
finds most such points, and they are dropped before the matrix is built;
about a quarter of a sample stays at frac=0.1. Every fit is bitwise the
one on the full sample (see ``_fit_rays``).

Zero estimates are recorded outcomes, never exceptions: downstream
benchmarking counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .copulas import _corner2
from .errors import (
    DomainError,
    ExtrapolationError,
    InsufficientExceedancesError,
    OptimizerError,
    RaytailError,
)
from .margins import ExponentialSample

_MIN_EXCEEDANCES = 5
_MIN_HT_EXCEEDANCES = 50
_HT_GRID_POINTS = 121
_HT_BETA_LO = -1.0  # lower edge of the first beta grid
_HT_BETA_HI = 1.0 - 1e-8
_HT_BLOCK_ELEMS = 1 << 20
_RAY_BLOCK_ELEMS = 1 << 16
_SKYBAND_STEPS = 8  # corners of the candidate staircase in _candidates


@dataclass(frozen=True)
class AngularFit:
    """Hill fit of the structure-variable tail along one ray."""

    omega: float
    lambda_hat: float
    u: float
    k: int
    se: float

    def __post_init__(self):
        if not (self.lambda_hat > 0.0 and math.isfinite(self.lambda_hat)):
            raise DomainError(f"lambda_hat must be positive, got {self.lambda_hat}")
        if self.k < 1:
            raise DomainError(f"exceedance count must be >= 1, got {self.k}")
        if self.u < 0.0:
            raise DomainError(f"threshold must be >= 0, got {self.u}")


@dataclass(frozen=True)
class HTFit:
    """Fitted conditional-tail model for X_E given Y_E > u_y.

    ``alpha`` scales the linear location term, ``beta`` the power-law
    scale; ``residuals`` are z_i = (x_i - alpha*y_i) / y_i**beta with
    empirical location ``mu`` and scale ``sigma``.
    """

    alpha: float
    beta: float
    u_y: float
    residuals: np.ndarray
    mu: float
    sigma: float
    nll: float

    def __post_init__(self):
        if len(self.residuals) < 10:
            raise DomainError(
                f"need at least 10 residuals, got {len(self.residuals)}"
            )
        if not self.sigma > 0.0:
            raise DomainError(f"residual scale must be > 0, got {self.sigma}")

    @property
    def n_exceedances(self):
        return len(self.residuals)


@dataclass(frozen=True)
class ProbEstimate:
    """A tail probability estimate with its method tag and bookkeeping."""

    value: float
    method: str
    is_zero: bool
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0.0 or self.value > 1.0:
            raise DomainError(f"probability estimate outside [0, 1]: {self.value}")
        if self.is_zero != (self.value == 0.0):
            raise DomainError("is_zero flag inconsistent with value")
        if self.method not in ("wt", "lt", "ht", "empirical"):
            raise DomainError(f"unknown method tag {self.method!r}")

    def as_dict(self):
        return {
            "value": self.value,
            "method": self.method,
            "is_zero": self.is_zero,
            **self.meta,
        }


def _require_bivariate(sample: ExponentialSample):
    if sample.dim != 2:
        raise DomainError("estimators operate on bivariate samples only")


def structure_variable(sample: ExponentialSample, omega) -> np.ndarray:
    """T_i = min(x_i/w, y_i/(1-w)); by convention T = Y_E at w = 0 and
    T = X_E at w = 1."""
    _require_bivariate(sample)
    w = _as_omegas(omega)
    return _structure(sample.x, sample.y, w, 1.0 - w)[0]


def _as_omegas(omegas) -> np.ndarray:
    w = np.asarray(omegas, dtype=np.float64).reshape(-1)
    bad = w[~((w >= 0.0) & (w <= 1.0))]
    if bad.size:
        raise DomainError(f"omega must lie in [0, 1], got {bad[0]}")
    return w


def _structure(x, y, gx, gy) -> np.ndarray:
    # (rays x m) matrix of min(x/gx, y/gy); a zero weight drops its
    # coordinate: x/0 is inf, and fmin skips the NaN of 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin(x / gx[:, None], y / gy[:, None])


def _candidates(x, y, k) -> np.ndarray:
    """Mask of the points that can be among the k largest structure values
    on some ray: a superset of the k-skyband.

    A staircase is built on the x order. For ranks r spaced geometrically
    from k towards m, group r holds the r points of largest x, and b_r is
    the k-th largest y in it. A point outside group r with y < b_r is
    dropped. The k points of the group with y >= b_r are at least as large
    in both coordinates, so on every ray with non-negative weights their T
    is at least the dropped point's. They are never dropped themselves: a
    group they lie outside is a smaller one, whose b is no larger.
    """
    m = x.size
    ranks = sorted(
        {int(k * (m / k) ** (j / _SKYBAND_STEPS)) for j in range(_SKYBAND_STEPS)},
        reverse=True,
    )
    order = np.argsort(x)
    ys = y[order]
    b = [np.partition(ys[m - r:], r - k)[r - k] for r in ranks]
    # in x order, the largest group a point lies outside has the largest b
    floor = np.repeat(b + [-np.inf], np.diff([0, *(m - r for r in ranks), m]))
    keep = np.zeros(m, dtype=bool)
    keep[order[ys >= floor]] = True
    return keep


def _fit_rays(sample, omegas, gx, gy, frac, u) -> list:
    """Hill fits along the rays with weights (gx, gy), tagged with their
    angles ``omegas``; a failed ray's slot holds its typed error.

    With u None, each ray's threshold is np.quantile(T, 1 - frac) of its
    structure values T: numpy's linear method, the lerp between the order
    statistics at positions floor(h) and floor(h) + 1 of the m values,
    h = (m - 1)(1 - frac). Only the top k = m - floor(h) values enter it,
    and only values above it are exceedances. T is non-decreasing in both
    coordinates, so a point that k others match or beat in both is never
    needed: on a batch large enough to pay for it, _candidates drops most
    such points before the structure matrix is built. The kept points hold
    every ray's top k values and, in the same order, every exceedance, so
    each fit is bitwise the one on the full sample. An explicit ``u`` keeps
    every point, since its exceedances are not limited by rank.
    """
    _require_bivariate(sample)
    x, y = sample.x, sample.y
    if u is None:
        if not 0.0 < frac < 1.0:
            raise DomainError(f"frac must lie in (0, 1), got {frac}")
        h = (x.size - 1) * (1.0 - frac)
        k, gamma = x.size - math.floor(h), h - math.floor(h)
        # the staircase costs a sort and a fixed overhead; measured on two
        # cores it pays from about 7 rays at m=5000, 12 at m=2000 and 50 at
        # m=300
        if gx.size >= _SKYBAND_STEPS and gx.size * x.size >= _RAY_BLOCK_ELEMS // 2:
            keep = _candidates(x, y, k)
            x, y = x[keep], y[keep]
        lo = x.size - k  # position of the lower order statistic
    fits = []
    # the (ray x m) structure matrix is built in row blocks so that memory
    # stays bounded for long ray grids and large samples
    step = max(1, _RAY_BLOCK_ELEMS // x.size)
    for start in range(0, gx.size, step):
        block = slice(start, start + step)
        t = _structure(x, y, gx[block], gy[block])
        if u is None:
            # one selection: the next order statistic is the least of the
            # values partitioned above the lower one
            t_part = np.partition(t, lo, axis=1)
            a = t_part[:, lo]
            b = t_part[:, lo + 1:].min(axis=1) if k > 1 else a
            # numpy's lerp, as np.quantile applies it since numpy 1.22
            d = b - a
            us = a + d * gamma if gamma < 0.5 else b - d * (1.0 - gamma)
        else:
            us = np.full(len(t), u)
        for row, u_r, omega in zip(t, us.tolist(), omegas[block]):
            exc = row[row > u_r]
            k_r, total_excess = exc.size, float(np.sum(exc - u_r))
            if k_r < _MIN_EXCEEDANCES:
                fits.append(InsufficientExceedancesError(k_r, _MIN_EXCEEDANCES))
            elif total_excess <= 0.0:
                fits.append(DomainError("all excesses are zero; tail index undefined"))
            else:
                lam = k_r / total_excess
                fits.append(AngularFit(omega, lam, u_r, k_r, lam / math.sqrt(k_r)))
    return fits


def _one(results):
    (result,) = results
    if isinstance(result, RaytailError):
        raise result
    return result


def fit_lambda_rays(sample, omegas, frac=0.10, u=None) -> list:
    """Hill fits along every ray in ``omegas``: one slot per ray, holding
    its AngularFit or, where the fit fails, the typed error (not raised).
    A ray's fit does not depend on the other rays of the batch."""
    w = _as_omegas(omegas)
    return _fit_rays(sample, w.tolist(), w, 1.0 - w, frac, u)


def fit_lambda(sample, omega, frac=0.10, u=None) -> AngularFit:
    """Hill fit of the structure-variable tail index along the ray omega.

    The threshold is the empirical (1 - frac) quantile of T unless ``u``
    is given explicitly; lambda_hat = k / sum(T_i - u over T_i > u) with
    standard error lambda_hat / sqrt(k).
    """
    return _one(fit_lambda_rays(sample, [omega], frac=frac, u=u))


def fit_lambda_growth(sample, growth, frac=0.10, u=None) -> AngularFit:
    """Hill fit along a general growth direction (gx, gy); the estimator
    scales exactly as lambda_hat(h*g) = h * lambda_hat(g)."""
    gx, gy = (float(v) for v in growth)
    if gx < 0 or gy < 0 or gx + gy == 0.0:
        raise DomainError(f"invalid growth direction {growth}")
    omega = gx / (gx + gy)
    return _one(_fit_rays(sample, [omega], np.array([gx]), np.array([gy]), frac, u))


def wt_probability(sample, omega, u_n=None, v=0.0, frac=0.10, fit=None) -> ProbEstimate:
    """Ray-extrapolation estimate of P(X_E > w(u+v), Y_E > (1-w)(u+v)).

    The estimate is exp(-lambda_hat * v) times the empirical probability
    of the base set {X_E > w*u_n, Y_E > (1-w)*u_n}. With the default
    u_n = fit threshold, the base count equals the exceedance count of the
    Hill fit. An empty base set yields a zero estimate, never an error.
    """
    _require_bivariate(sample)
    if v < 0.0:
        raise DomainError(f"extrapolation distance v must be >= 0, got {v}")
    if fit is None:
        fit = fit_lambda(sample, omega, frac=frac)
    if u_n is None:
        u_n = fit.u
    if omega == 0.0:
        base = int(np.count_nonzero(sample.y > u_n))
    elif omega == 1.0:
        base = int(np.count_nonzero(sample.x > u_n))
    else:
        x0, y0 = omega * u_n, (1.0 - omega) * u_n
        base = int(np.count_nonzero((sample.x > x0) & (sample.y > y0)))
    value = math.exp(-fit.lambda_hat * v) * base / sample.n
    return ProbEstimate(
        value=value,
        method="wt",
        is_zero=(base == 0),
        meta={
            "omega": omega,
            "u_n": u_n,
            "v": v,
            "k": fit.k,
            "lambda_hat": fit.lambda_hat,
        },
    )


def wt_probabilities_at(sample, targets, frac=0.10) -> list:
    """Ray estimates at a sequence of corners from one batch of Hill fits,
    one ray through each corner (x0, y0) at radius s = x0 + y0: v = s - u
    beyond the fit threshold u, or v = 0 and the empirical probability at
    the corner inside it. One slot per corner: a ProbEstimate or a typed
    error."""
    corners = [_corner2(t) for t in targets]
    rays = [(i, x0 + y0) for i, (x0, y0) in enumerate(corners) if x0 + y0 > 0.0]
    fits = fit_lambda_rays(sample, [corners[i][0] / s for i, s in rays], frac=frac)
    out = [DomainError("target corner must not be the origin")] * len(corners)
    for (i, s), fit in zip(rays, fits):
        out[i] = fit if isinstance(fit, RaytailError) else wt_probability(
            sample, fit.omega, u_n=min(fit.u, s), v=max(s - fit.u, 0.0), fit=fit
        )
    return out


def wt_probability_at(sample, target, frac=0.10) -> ProbEstimate:
    """Ray estimate at an explicit corner: the ray is the one through the
    corner, and v is the outward distance from the fit threshold."""
    return _one(wt_probabilities_at(sample, [target], frac=frac))


def lt_probabilities(sample, targets, frac=0.10, baseline=None) -> list:
    """Diagonal-extrapolation estimates at a sequence of corners.

    Each corner is slid back along the diagonal by the largest v keeping
    both coordinates at or above the baseline; the empirical probability
    of the slid set is scaled by exp(-v / eta_hat) with
    1/eta_hat = 2*lambda_hat(1/2). The diagonal fit and the baseline (by
    default the per-margin empirical (1 - frac) quantiles) are computed
    once. One slot per corner; a failed diagonal fit fills every slot.
    """
    _require_bivariate(sample)
    corners = [_corner2(t) for t in targets]
    (diag_fit,) = fit_lambda_rays(sample, [0.5], frac=frac)
    if isinstance(diag_fit, RaytailError):
        return [diag_fit] * len(corners)
    eta_hat = 1.0 / (2.0 * diag_fit.lambda_hat)
    if baseline is not None:
        bx, by = (float(b) for b in baseline)
    else:
        bx = float(np.quantile(sample.x, 1.0 - frac))
        by = float(np.quantile(sample.y, 1.0 - frac))
    out = []
    for x0, y0 in corners:
        v = max(0.0, min(x0 - bx, y0 - by))
        base = int(np.count_nonzero((sample.x > x0 - v) & (sample.y > y0 - v)))
        out.append(ProbEstimate(
            value=math.exp(-v / eta_hat) * base / sample.n,
            method="lt",
            is_zero=(base == 0),
            meta={
                "eta_hat": eta_hat,
                "lambda_half": diag_fit.lambda_hat,
                "v": v,
                "base_corner": (x0 - v, y0 - v),
                "k": diag_fit.k,
            },
        ))
    return out


def lt_probability(sample, target, frac=0.10, baseline=None) -> ProbEstimate:
    """Diagonal-extrapolation estimate of the corner probability; see
    :func:`lt_probabilities`."""
    return _one(lt_probabilities(sample, [target], frac=frac, baseline=baseline))


def _ht_profile(betas, x, y, logy):
    """Profile negative log-likelihood and location slope along a beta vector.

    For fixed beta the residual variance var(x*y**-beta - alpha*y**(1-beta))
    is quadratic in alpha, so alpha*(beta) = cov / var clipped to [0, 1] is
    the exact constrained minimizer (variable projection). Betas with
    |beta * log y| > 600 for some y, and degenerate variances, get +inf.
    """
    nll = np.full(betas.size, np.inf)
    alpha = np.full(betas.size, np.nan)
    feasible = np.flatnonzero(
        (betas * np.max(logy) <= 600.0) & (betas * np.min(logy) >= -600.0)
    )
    # the (grid x exceedance) arrays are built in row blocks so that memory
    # stays bounded for very large conditioning tails
    step = max(1, _HT_BLOCK_ELEMS // x.size)
    for start in range(0, feasible.size, step):
        rows = feasible[start:start + step]
        yb = np.exp(betas[rows, None] * logy)
        a = x / yb
        c = y / yb
        a -= np.mean(a, axis=1, keepdims=True)
        c -= np.mean(c, axis=1, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            al = np.clip(np.sum(a * c, axis=1) / np.sum(c * c, axis=1), 0.0, 1.0)
            s2 = np.mean((a - al[:, None] * c) ** 2, axis=1)
            nll[rows] = 0.5 * x.size * np.log(s2) + betas[rows] * np.sum(logy)
        alpha[rows] = al
    nll[~np.isfinite(nll)] = np.inf
    return nll, alpha


def fit_ht(sample, quantile=0.90, u_y=None) -> HTFit:
    """Fit the conditional-tail model X_E | Y_E = y ~ Normal(alpha*y +
    mu*y**beta, (sigma*y**beta)**2) above the conditioning threshold.

    alpha is constrained to [0, 1] and beta to (-inf, 1 - 1e-8); mu and
    sigma are profiled out of the likelihood, and alpha in closed form for
    each beta, leaving a 1-D profile in beta. It is evaluated on a
    121-point grid ending at 1 - 1e-8, which widens downward while its
    minimum sits on the lower edge, then refined by bounded Brent search
    on the bracket around the best grid point. Raises OptimizerError when
    the likelihood is nowhere finite on the grid, the refinement fails, or
    the residual scale is degenerate.
    """
    _require_bivariate(sample)
    if u_y is None:
        if not 0.0 < quantile < 1.0:
            raise DomainError(f"quantile must lie in (0, 1), got {quantile}")
        u_y = float(np.quantile(sample.y, quantile))
    mask = sample.y > u_y
    n_exc = int(np.count_nonzero(mask))
    if n_exc < _MIN_HT_EXCEEDANCES:
        raise InsufficientExceedancesError(n_exc, _MIN_HT_EXCEEDANCES)
    x = sample.x[mask]
    y = sample.y[mask]
    if np.min(y) <= 0.0:
        raise DomainError("conditioning threshold must keep Y_E positive")
    logy = np.log(y)
    lo, hi = _HT_BETA_LO, _HT_BETA_HI
    while True:
        betas = np.linspace(lo, hi, _HT_GRID_POINTS)
        nll, alphas = _ht_profile(betas, x, y, logy)
        i = int(np.argmin(nll))
        # widen while the minimum sits on a finite lower edge; the
        # |beta * log y| guard makes that edge infinite eventually
        if i > 0 or not np.isfinite(nll[0]):
            break
        lo, hi = lo - 2.0 * (hi - lo), betas[1]
    if not np.isfinite(nll[i]):
        raise OptimizerError("conditional-tail likelihood never finite", None)
    # imported here: the CLI's wt/lt paths never fit ht and skip its load time
    from scipy.optimize import minimize_scalar

    res = minimize_scalar(
        lambda b: _ht_profile(np.array([b]), x, y, logy)[0][0],
        bounds=(betas[max(i - 1, 0)], betas[min(i + 1, betas.size - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    if not res.success:
        best = (float(alphas[i]), float(betas[i]))
        raise OptimizerError("conditional-tail fit did not converge", best)
    beta = float(res.x)
    fbest, abest = _ht_profile(np.array([beta]), x, y, logy)
    alpha = float(abest[0])
    z = (x - alpha * y) / np.exp(beta * logy)
    sigma = float(np.std(z))
    # a spread at the rounding level of the residuals themselves means the
    # likelihood is unbounded, e.g. x constant above the threshold
    if not sigma > 1.5e-8 * float(np.max(np.abs(z))):
        raise OptimizerError("degenerate residual scale", (alpha, beta))
    return HTFit(
        alpha=alpha,
        beta=beta,
        u_y=u_y,
        residuals=z,
        mu=float(np.mean(z)),
        sigma=sigma,
        nll=float(fbest[0]),
    )


def ht_probability(fit: HTFit, omega, u_n, r=10_000, seed=0) -> ProbEstimate:
    """Conditional-simulation estimate of P(X_E > w u_n, Y_E > (1-w) u_n).

    The marginal factor P(Y_E > (1-w)u_n) is the exact exponential
    survivor; the conditional factor is a Monte Carlo average over r
    conditioning draws Y* (exponential beyond the event threshold, by
    memorylessness) paired with residuals resampled from the fit.
    Deterministic for a fixed seed.
    """
    if not 0.0 <= omega < 1.0:
        raise DomainError(f"omega must lie in [0, 1), got {omega}")
    if r < 1:
        raise DomainError(f"draw count must be >= 1, got {r}")
    y_thresh = (1.0 - omega) * u_n
    if y_thresh < fit.u_y:
        raise ExtrapolationError(
            f"event threshold {y_thresh:.4f} lies below the fit threshold "
            f"{fit.u_y:.4f}"
        )
    rng = np.random.default_rng(seed)
    ystar = y_thresh + rng.standard_exponential(r)
    z = fit.residuals[rng.integers(0, fit.n_exceedances, size=r)]
    xs = fit.alpha * ystar + np.exp(fit.beta * np.log(ystar)) * z
    frac_cond = float(np.count_nonzero(xs > omega * u_n)) / r
    value = math.exp(-y_thresh) * frac_cond
    return ProbEstimate(
        value=value,
        method="ht",
        is_zero=(frac_cond == 0.0),
        meta={
            "omega": omega,
            "u_n": u_n,
            "r": r,
            "seed": seed,
            "alpha": fit.alpha,
            "beta": fit.beta,
        },
    )


def diagnose_linearity(sample, omega, c_grid) -> dict:
    """Log joint exceedance counts along nested ray corners.

    For each c in the grid, counts points in (c*w*log m, inf) x
    (c*(1-w)*log m, inf). Under a power-law joint tail the log counts are
    approximately linear in c; returns the pairs plus the least-squares
    slope and R^2 over the non-empty sets.
    """
    _require_bivariate(sample)
    if not 0.0 < omega < 1.0:
        raise DomainError(f"omega must lie in (0, 1), got {omega}")
    cs = np.asarray(list(c_grid), dtype=np.float64)
    if cs.size < 3 or np.any(np.diff(cs) <= 0.0):
        raise DomainError("c grid must be increasing with at least 3 values")
    logm = math.log(sample.n)
    pairs = []
    for c in cs:
        cnt = int(
            np.count_nonzero(
                (sample.x > c * omega * logm) & (sample.y > c * (1.0 - omega) * logm)
            )
        )
        if cnt > 0:
            pairs.append((float(c), math.log(cnt)))
    if len(pairs) < 3:
        raise InsufficientExceedancesError(len(pairs), 3)
    arr = np.asarray(pairs)
    slope, intercept = np.polyfit(arr[:, 0], arr[:, 1], 1)
    pred = slope * arr[:, 0] + intercept
    ss_res = float(np.sum((arr[:, 1] - pred) ** 2))
    ss_tot = float(np.sum((arr[:, 1] - np.mean(arr[:, 1])) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return {
        "omega": omega,
        "pairs": [list(p) for p in pairs],
        "slope": float(slope),
        "intercept": float(intercept),
        "r_squared": r2,
    }


def qq_excesses(fit: AngularFit, sample) -> np.ndarray:
    """Quantile pairs (theoretical, empirical) for the excesses of the
    structure variable above the fitted threshold, against the fitted
    exponential rate; returns an array of shape (k, 2)."""
    t = structure_variable(sample, fit.omega)
    exc = np.sort(t[t > fit.u] - fit.u)
    k = exc.size
    if k < 1:
        raise InsufficientExceedancesError(0, 1)
    probs = np.arange(1, k + 1) / (k + 1.0)
    theo = -np.log1p(-probs) / fit.lambda_hat
    return np.column_stack((theo, exc))

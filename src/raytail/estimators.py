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
rays of a sample from one (rays x m) structure matrix, and the estimates
through ``wt_probabilities_at``, ``lt_probabilities`` and
``ht_probabilities``, which take a sequence of corners. They return one slot
per ray or corner: the result of the one-item call (``fit_lambda``,
``wt_probability_at``, ``lt_probability``, ``ht_probability``) or the typed
error it raises, so a failed ray does not stop the others.

The ray fits are one array kernel, ``_hill_rays``, which returns each ray's
threshold, exceedance count k and summed excess as arrays; the slots of
``fit_lambda_rays`` wrap them, and the benchmark's angular curve reads them
directly. The structure matrix is built in cache-sized row blocks. In each
block one mask and one compress leave every row's excesses contiguous, and
each run of rows with equal k is summed as one (rows, k) array, row by row
pairwise as numpy sums a 1-D array, so every sum is bitwise the one of its
own row. The structure matrix of a large batch covers only candidate
points. T = min(x/w, y/(1-w)) is non-decreasing in both coordinates, so on
every ray a point that k others match or beat in both has T at or below
the k-th largest value: it neither sets the quantile threshold, which only
the top k values enter, nor exceeds it. A short staircase on the x order
finds most such points, and they are dropped before the matrix is built;
about a quarter of a sample stays at frac=0.1. Every fit is bitwise the
one on the full sample.

The ``wt`` and ``lt`` estimates are "fit, then kernel": one ray batch, then
``_wt_estimates`` or ``_lt_estimates``, which the benchmark calls on one
batch per sample shared by both methods. Every empirical joint count, the
``wt`` base sets, the ``lt`` slid corners and ``diagnose_linearity``'s
nested corners, goes through one count kernel, ``_joint_counts``: exact
integer counts of #{x > a, y > b} for a batch of corners, a -inf
coordinate standing for a zero weight.

Every interpolated order statistic goes through ``_quantile``, numpy's
default linear quantile from one partition and bitwise np.quantile's value:
the ray thresholds, the ``lt`` baselines, ``fit_ht``'s u_y and the
benchmark's lambda envelopes. Only the staircase of ``_candidates`` reads
exact k-th largest values, by its own partitions.

Zero estimates (an empty count) are recorded outcomes, never exceptions:
downstream benchmarking counts them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

import numpy as np

from .copulas import _corners, _rng
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
# The beta grid only brackets the profile minimum for the Brent refinement,
# which reaches xatol 1e-10 whatever the spacing. Against a 121-point grid,
# on 1080 fits (bvn rho 0.5, -0.3, +-0.9; invlog 2-log2(3) and 0.5; clayton
# 2; logistic 0.5; morgenstern 1; m 300/600/2000/5000; two sets of 15
# seeds), 21 points lose no fit by more than 2.3e-13 in nll, move beta by at
# most 1.7e-7 and change no typed error. No profile there has two minima.
# Where the minimum sits at the upper edge 1 - 1e-8, Brent stops about 2e-8
# short of it, at a point that depends on the bracket, so fit_ht compares
# its result with the profile at the edge itself. With that comparison
# every grid of 3-31, 41 and 61 points is within 2.3e-13 in nll of the
# 121-point one on 2100 fits (bvn rho 0.5 and +-0.9, invlog 2-log2(3),
# clayton 2, logistic 0.5, morgenstern 1; m 300/600/2000; quantiles 0.8
# and 0.9); without it 5, 7, 10, 11, 15-18, 24-29, 41 and 61 points lost
# edge fits by up to 3.4e-8. Below 21 points a fit at m=5000 costs about
# as much (1.0-1.1 ms), and a coarser grid would more easily step over a
# narrow minimum.
_HT_GRID_POINTS = 21
_HT_BETA_LO = -1.0  # lower edge of the first beta grid
_HT_BETA_HI = 1.0 - 1e-8
# (grid x points) arrays are built in row blocks of at most this many
# elements, which also bounds memory on long grids and large samples. The
# blocks are cache-sized: a temporary of more than about 128 KiB (glibc's
# default mmap threshold) is fresh memory from the kernel and page-faults on
# every allocation. At m=5000 on 2 cores, one fit_ht call took 558 minor
# faults and one 99-ray fit 510-584 with the earlier blocks of 2^20 and 2^16
# elements. Blocks of 2^14 (128 KiB) took 0 only while an import had raised
# glibc's adaptive threshold; without one, a replication request of the
# study took about 1700 faults, and at 2^13 it takes 2. Rows are
# independent, so the block size changes no result.
_BLOCK_ELEMS = 1 << 13
# a ray batch whose full structure matrix holds fewer elements skips the
# candidate pruning of fit_lambda_rays
_PRUNE_MIN_ELEMS = 1 << 15
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
    """A tail probability estimate with its method tag and bookkeeping.

    ``log_value`` is the log of the estimate from the same count and factor,
    log factor + log(count/n), or -inf for a zero count: it stays finite
    where ``value`` underflows to 0.0. ``is_zero`` follows it.
    """

    value: float
    log_value: float
    method: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0.0 or self.value > 1.0:
            raise DomainError(f"probability estimate outside [0, 1]: {self.value}")
        if not self.log_value <= 0.0:
            raise DomainError(f"log probability estimate must be <= 0: {self.log_value}")
        if self.method not in ("wt", "lt", "ht"):
            raise DomainError(f"unknown method tag {self.method!r}")

    @property
    def is_zero(self):
        return self.log_value == -math.inf

    def as_dict(self):
        # a zero's log is written as null: JSON has no -Infinity
        return {
            "value": self.value,
            "method": self.method,
            "is_zero": self.is_zero,
            "log_value": None if self.is_zero else self.log_value,
            **self.meta,
        }


def _log_prob(log_factor, count, n):
    # log of exp(log_factor) * count / n without forming the product
    return log_factor + math.log(count / n) if count else -math.inf


def _require_bivariate(sample: ExponentialSample):
    if sample.dim != 2:
        raise DomainError("estimators operate on bivariate samples only")


def structure_variable(sample: ExponentialSample, omega) -> np.ndarray:
    """T_i = min(x_i/w, y_i/(1-w)); by convention T = Y_E at w = 0 and
    T = X_E at w = 1."""
    _require_bivariate(sample)
    return _structure(sample.x, sample.y, _as_omegas(omega))[0]


def _as_omegas(omegas) -> np.ndarray:
    w = np.asarray(omegas, dtype=np.float64).reshape(-1)
    bad = w[~((w >= 0.0) & (w <= 1.0))]
    if bad.size:
        raise DomainError(f"omega must lie in [0, 1], got {bad[0]}")
    return w


def _quantile(v, q, n=None):
    """np.quantile(v, q, axis=-1), bitwise: numpy's default linear method
    (Hyndman & Fan type 7) as numpy computes it since 1.22.

    With h = (n - 1) q, the quantile lies between the order statistics at
    positions floor(h) and floor(h) + 1 of a row's n values, and is numpy's
    two-branch lerp between them with weight gamma = h - floor(h). One
    partition at the lower one finds both: the upper one is the least of
    the values partitioned above it.

    ``n`` is the size of the full sample; by default the row length. When
    it is larger, each row of ``v`` holds only part of its sample: it must
    hold the sample's k = n - floor(h) largest values, and each value it
    lacks must lie at or below the k-th largest. The result is then the
    quantile of the full sample. ``q`` is a float in [0, 1] and n >= 1.
    """
    n = v.shape[-1] if n is None else n
    h = (n - 1) * q
    k = n - math.floor(h)  # values at or above the lower order statistic
    gamma = h - math.floor(h)
    lo = v.shape[-1] - k
    part = np.partition(v, lo, axis=-1)
    a = part[..., lo]
    b = part[..., lo + 1:].min(axis=-1) if k > 1 else a
    d = b - a
    return a + d * gamma if gamma < 0.5 else b - d * (1.0 - gamma)


def _structure(x, y, w) -> np.ndarray:
    # (rays x m) matrix of min(x/w, y/(1-w)); a zero weight drops its
    # coordinate: x/0 is inf, and fmin skips the NaN of 0/0
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.fmin(x / w[:, None], y / (1.0 - w)[:, None])


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


def _hill_rays(x, y, w, frac, u):
    """Hill sums along the rays ``w`` of the sample (x, y): the arrays
    (u, k, total_excess) of each ray's threshold, count of exceedances and
    summed excess over the threshold. A ray's sums do not depend on the
    other rays of the batch. ``fit_lambda_rays`` wraps them into slots; the
    benchmark's angular curve reads them directly.

    With u None, each ray's threshold is the (1 - frac) quantile of its m
    structure values T (see ``_quantile``). Only the top k = m - floor(h)
    values enter it, h = (m - 1)(1 - frac), and only values above it are
    exceedances. T is non-decreasing in both coordinates, so a point that k
    others match or beat in both is never needed: on a batch large enough
    to pay for it, _candidates drops most such points before the structure
    matrix is built. The kept points hold every ray's top k values and, in
    the same order, every exceedance, so each sum is bitwise the one on the
    full sample. An explicit ``u`` keeps every point, since its exceedances
    are not limited by rank. An empty sample has k = 0 on every ray, and
    with u None a NaN threshold.

    The structure matrix is built in row blocks. In a block one mask and
    one compress leave each row's values above its threshold contiguous and
    in sample order. A run of rows with equal k is then one (rows, k)
    array: the thresholds are subtracted from it in place, and it is summed
    along its rows. np.add.reduce along a contiguous row is that row's own
    pairwise sum, bitwise the 1-D reduce of its excesses. np.add.reduceat
    is not pairwise, so it is not used.
    """
    m = x.size
    # the staircase costs a sort and a fixed overhead; measured on two cores
    # it pays from about 7 rays at m=5000, 12 at m=2000 and 50 at m=300
    if u is None and w.size >= _SKYBAND_STEPS and w.size * m >= _PRUNE_MIN_ELEMS:
        keep = _candidates(x, y, m - math.floor((m - 1) * (1.0 - frac)))
        x, y = x[keep], y[keep]
    us = np.full(w.size, math.nan if u is None else u)
    ks = np.zeros(w.size, dtype=np.intp)
    totals = np.zeros(w.size)
    if m == 0:
        return us, ks, totals
    step = max(1, _BLOCK_ELEMS // x.size)
    for start in range(0, w.size, step):
        block = slice(start, start + step)
        t = _structure(x, y, w[block])
        if u is None:
            us[block] = _quantile(t, 1.0 - frac, m)
        above = t > us[block, None]
        ks[block] = above.sum(axis=1)
        # the flat compress takes the same values in the same order as the
        # 2-D boolean index t[above], in about half its time
        exc = t.ravel().compress(above.ravel())
        at, row = 0, start
        for k, run in groupby(ks[block].tolist()):
            rows = len(list(run))
            excesses = exc[at:at + rows * k].reshape(rows, k)
            excesses -= us[row:row + rows, None]
            totals[row:row + rows] = np.add.reduce(excesses, axis=1)
            at, row = at + rows * k, row + rows
    return us, ks, totals


def fit_lambda_rays(sample, omegas, frac=0.10, u=None) -> list:
    """Hill fits along every ray in ``omegas``: one slot per ray, holding
    its AngularFit or, where the fit fails, the typed error (not raised).
    A ray's fit does not depend on the other rays of the batch.

    The threshold, count and summed excess of every ray come from one
    ``_hill_rays`` call: with u None, the (1 - frac) quantile of the ray's
    structure values T, else ``u``. lambda_hat = k / total excess; a ray
    with fewer than 5 exceedances, or whose excesses are all zero, fails.
    An empty sample fails every ray.
    """
    w = _as_omegas(omegas)
    _require_bivariate(sample)
    if u is None and not 0.0 < frac < 1.0:
        raise DomainError(f"frac must lie in (0, 1), got {frac}")
    us, ks, totals = _hill_rays(sample.x, sample.y, w, frac, u)
    fits = []
    for omega, u_r, k_r, total_excess in zip(*(a.tolist() for a in (w, us, ks, totals))):
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


def fit_lambda(sample, omega, frac=0.10, u=None) -> AngularFit:
    """Hill fit of the structure-variable tail index along the ray omega.

    The threshold is the empirical (1 - frac) quantile of T unless ``u``
    is given explicitly; lambda_hat = k / sum(T_i - u over T_i > u) with
    standard error lambda_hat / sqrt(k).
    """
    return _one(fit_lambda_rays(sample, [omega], frac=frac, u=u))


def _joint_counts(x, y, corners) -> np.ndarray:
    """#{x > a, y > b} for every corner (a, b) of the (n, 2) array
    ``corners``, as exact integers; a -inf coordinate counts every point on
    its axis. One comparison matrix is built in corner blocks of at most
    _BLOCK_ELEMS elements. With more than one corner it covers only the
    points above the corners' smallest a and smallest b, the only ones that
    can count; for one corner that selection is the count itself, and
    copying the selected coordinates out of the sample's rows would cost
    more than it saves (5x the direct count on 10^6 points)."""
    counts = np.zeros(len(corners), dtype=np.intp)
    a, b = corners[:, 0], corners[:, 1]
    if a.size > 1:
        # fmin skips a NaN corner, which counts no point
        near = (x > np.fmin.reduce(a)) & (y > np.fmin.reduce(b))
        x, y = x[near], y[near]
    step = max(1, _BLOCK_ELEMS // max(x.size, 1))
    for start in range(0, a.size, step):
        block = slice(start, start + step)
        hit = x > a[block, None]
        hit &= y > b[block, None]
        counts[block] = hit.sum(axis=1)
    return counts


def _wt_rays(corners):
    """Each corner's radius s = x0 + y0, and the ray x0 / s through each
    corner with 0 < s < inf, in corner order."""
    radii = [x0 + y0 for x0, y0 in corners]
    return radii, [c[0] / s for c, s in zip(corners, radii) if 0.0 < s < math.inf]


def _wt_estimates(sample, radii, fits) -> list:
    """Ray estimates at radius s on the ray of a fit: exp(-lambda_hat * v)
    times the empirical probability of the base set {X_E > w*u_n,
    Y_E > (1-w)*u_n}, with u_n = min(u, s) and v = max(s - u, 0) for the fit
    threshold u. At u_n = u the base count is the fit's exceedance count. An
    empty base set yields a zero estimate, never an error.

    One slot per radius. A radius that is 0 or not finite holds a
    DomainError; each other one takes the next slot of ``fits`` (slots left
    over are not read), and a slot holding a typed error passes through.
    One ``_joint_counts`` counts every base set, a zero weight dropping its
    coordinate.
    """
    fits = iter(fits)
    out = [
        next(fits) if 0.0 < s < math.inf
        else DomainError("target corner must not be the origin") if s == 0.0
        else DomainError(f"target radius x0 + y0 overflows to {s}")
        for s in radii
    ]
    rays = [
        (i, out[i], min(out[i].u, s))
        for i, s in enumerate(radii) if not isinstance(out[i], RaytailError)
    ]
    bases = [
        (fit.omega * u_n if fit.omega > 0.0 else -math.inf,
         (1.0 - fit.omega) * u_n if fit.omega < 1.0 else -math.inf)
        for _, fit, u_n in rays
    ]
    counts = _joint_counts(sample.x, sample.y, np.array(bases).reshape(-1, 2))
    for (i, fit, u_n), base in zip(rays, counts.tolist()):
        v = max(radii[i] - fit.u, 0.0)
        out[i] = ProbEstimate(
            value=math.exp(-fit.lambda_hat * v) * base / sample.n,
            log_value=_log_prob(-fit.lambda_hat * v, base, sample.n),
            method="wt",
            meta={
                "omega": fit.omega,
                "u_n": u_n,
                "v": v,
                "k": fit.k,
                "lambda_hat": fit.lambda_hat,
            },
        )
    return out


def _wt_estimate(sample, fit, s) -> ProbEstimate:
    """The ray estimate at radius s > 0 on the ray of ``fit``; see
    :func:`_wt_estimates`."""
    return _one(_wt_estimates(sample, [s], [fit]))


def wt_probabilities_at(sample, targets, frac=0.10) -> list:
    """Ray estimates at a sequence of corners from one batch of Hill fits,
    one ray through each corner (x0, y0) at radius s = x0 + y0: v = s - u
    beyond the fit threshold u, or v = 0 and the empirical probability at
    the corner inside it. One slot per corner: a ProbEstimate or a typed
    error."""
    radii, rays = _wt_rays(_corners(targets, 2).tolist())
    return _wt_estimates(sample, radii, fit_lambda_rays(sample, rays, frac=frac))


def wt_probability_at(sample, target, frac=0.10) -> ProbEstimate:
    """Ray estimate at an explicit corner: the ray is the one through the
    corner, and v is the outward distance from the fit threshold."""
    return _one(wt_probabilities_at(sample, [target], frac=frac))


def _lt_estimates(sample, corners, diag_fit, frac, baseline) -> list:
    """The estimates of ``lt_probabilities`` from its diagonal fit, a slot
    of ``fit_lambda_rays`` at w = 1/2: one slot per corner, every one the
    fit's error where it failed. One ``_joint_counts`` counts every slid
    corner."""
    if isinstance(diag_fit, RaytailError):
        return [diag_fit] * len(corners)
    eta_hat = 1.0 / (2.0 * diag_fit.lambda_hat)
    if baseline is not None:
        bx, by = (float(b) for b in baseline)
    else:
        bx = float(_quantile(sample.x, 1.0 - frac))
        by = float(_quantile(sample.y, 1.0 - frac))
    vs = [max(0.0, min(x0 - bx, y0 - by)) for x0, y0 in corners]
    slid = [(x0 - v, y0 - v) for (x0, y0), v in zip(corners, vs)]
    counts = _joint_counts(sample.x, sample.y, np.array(slid).reshape(-1, 2))
    return [
        ProbEstimate(
            value=math.exp(-v / eta_hat) * base / sample.n,
            log_value=_log_prob(-v / eta_hat, base, sample.n),
            method="lt",
            meta={
                "eta_hat": eta_hat,
                "lambda_half": diag_fit.lambda_hat,
                "v": v,
                "base_corner": base_corner,
                "k": diag_fit.k,
            },
        )
        for v, base_corner, base in zip(vs, slid, counts.tolist())
    ]


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
    corners = _corners(targets, 2).tolist()
    (diag_fit,) = fit_lambda_rays(sample, [0.5], frac=frac)
    return _lt_estimates(sample, corners, diag_fit, frac, baseline)


def lt_probability(sample, target, frac=0.10, baseline=None) -> ProbEstimate:
    """Diagonal-extrapolation estimate of the corner probability; see
    :func:`lt_probabilities`."""
    return _one(lt_probabilities(sample, [target], frac=frac, baseline=baseline))


def _ht_feasible(betas, logy_stats):
    # |beta log y| <= 600 at both ends of the range of log y; scalar or array
    logy_max, logy_min, _ = logy_stats
    return (abs(betas * logy_max) <= 600.0) & (abs(betas * logy_min) <= 600.0)


def _ht_block(b, x, y, logy, logy_sum):
    """Profile nll and location slope at betas that pass ``_ht_feasible``:
    ``b`` is a vector (a block of the grid scan) or a scalar (one Brent
    evaluation), and the one kernel serves both. The caller holds
    np.errstate(divide, invalid) and maps a non-finite nll to +inf.

    Each row is np.mean's arithmetic, bitwise: an np.add.reduce along the
    row divided by n. Three (rows x points) buffers hold y**beta, then c, a
    and the products; a and c are centred and reused in place. Per-row
    values act on the transposed buffers, so a scalar row needs no (1, 1)
    arrays, and a scalar beta's row is the same arithmetic as a grid row.
    """
    n = x.size
    c = np.multiply.outer(b, logy)
    np.exp(c, out=c)
    a = x / c
    np.divide(y, c, out=c)
    a_t, c_t = a.T, c.T  # a row's value broadcasts along its column here
    a_t -= np.add.reduce(a, axis=-1) / n
    c_t -= np.add.reduce(c, axis=-1) / n
    t = a * c
    cov = np.add.reduce(t, axis=-1)
    al = (cov / np.add.reduce(np.multiply(c, c, out=t), axis=-1)).clip(0.0, 1.0)
    c_t *= al
    a -= c
    a *= a
    nll = 0.5 * n * np.log(np.add.reduce(a, axis=-1) / n) + b * logy_sum
    return nll, al


def _ht_profile(betas, x, y, logy, logy_stats):
    """Profile negative log-likelihood and location slope along a beta vector.

    For fixed beta the residual variance var(x*y**-beta - alpha*y**(1-beta))
    is quadratic in alpha, so alpha*(beta) = cov / var clipped to [0, 1] is
    the exact constrained minimizer (variable projection). Betas with
    |beta * log y| > 600 for some y, and degenerate variances, get +inf.
    ``logy_stats`` is (max, min, sum) of logy, computed once per fit. The
    feasible betas go through ``_ht_block`` in cache-sized row blocks; the
    Brent refinement of ``fit_ht`` calls the same kernel on one scalar beta.
    """
    nll = np.full(betas.size, np.inf)
    alpha = np.full(betas.size, np.nan)
    feasible = np.flatnonzero(_ht_feasible(betas, logy_stats))
    step = max(1, _BLOCK_ELEMS // x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, feasible.size, step):
            rows = feasible[start:start + step]
            nll[rows], alpha[rows] = _ht_block(betas[rows], x, y, logy, logy_stats[2])
    nll[~np.isfinite(nll)] = np.inf
    return nll, alpha


def _fminbound(f, a, b, xatol, maxfun=500):
    """Minimise f on [a, b] by Brent's bounded search: golden-section steps,
    parabolic steps where the last three points allow one, and no point
    nearer than tol1 to the last (Brent 1973, ch. 5; the ``fmin`` of
    Forsythe, Malcolm & Moler 1977). Returns (x, f(x), converged, number of
    evaluations); converged is False when maxfun evaluations are spent first
    or x or f turns NaN.

    Step for step scipy.optimize.minimize_scalar(method="bounded") with
    maxiter=maxfun, on Python floats: the same points in the same order,
    so the same result bit for bit.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    # xf is the best point so far, nfc the second best, fulc the previous nfc
    fulc = nfc = xf = a + golden_mean * (b - a)
    rat = e = 0.0
    ffulc = fnfc = fx = f(xf)
    fu = math.inf
    num = 1
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            # the parabola through the three points
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                golden = False
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = golden_mean * e
        # a step of at least tol1 (rat is finite: f's NaN never reaches it)
        x = xf + (-1.0 if rat < 0.0 else 1.0) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            return xf, fx, False, num
    return xf, fx, not (math.isnan(xf) or math.isnan(fx) or math.isnan(fu)), num


def fit_ht(sample, quantile=0.90) -> HTFit:
    """Fit the conditional-tail model X_E | Y_E = y ~ Normal(alpha*y +
    mu*y**beta, (sigma*y**beta)**2) above the conditioning threshold.

    alpha is constrained to [0, 1] and beta to (-inf, 1 - 1e-8]; mu and
    sigma are profiled out of the likelihood, and alpha in closed form for
    each beta, leaving a 1-D profile in beta. It is evaluated on a
    21-point grid ending at 1 - 1e-8, which widens downward while its
    minimum sits on the lower edge, then refined by a bounded Brent search,
    ``_fminbound``, on the bracket around the best grid point. The refined
    point is kept unless the profile at the bound 1 - 1e-8 is lower, and
    its alpha is the one Brent evaluated with it. The grid and each Brent
    evaluation run the one profile kernel ``_ht_block``, on a block of
    betas or on one scalar beta (no (1, 1) arrays), inside one np.errstate
    held for the whole profile.
    Raises OptimizerError when the likelihood is nowhere finite on the
    grid, the refinement fails, or the residual scale is degenerate.
    """
    _require_bivariate(sample)
    if not 0.0 < quantile < 1.0:
        raise DomainError(f"quantile must lie in (0, 1), got {quantile}")
    if sample.n == 0:
        raise InsufficientExceedancesError(0, _MIN_HT_EXCEEDANCES)
    u_y = float(_quantile(sample.y, quantile))
    mask = sample.y > u_y
    n_exc = int(np.count_nonzero(mask))
    if n_exc < _MIN_HT_EXCEEDANCES:
        raise InsufficientExceedancesError(n_exc, _MIN_HT_EXCEEDANCES)
    x = sample.x[mask]
    y = sample.y[mask]
    logy = np.log(y)
    logy_stats = (float(np.max(logy)), float(np.min(logy)), float(np.sum(logy)))

    def one(b):
        # one beta of the refinement: the guard as a scalar check, then one
        # scalar kernel row; bitwise the value of _ht_profile at [b]
        if not _ht_feasible(b, logy_stats):
            return math.inf, math.nan
        nll, al = _ht_block(b, x, y, logy, logy_stats[2])
        return (nll if math.isfinite(nll) else math.inf), al

    evals = {}  # beta -> (nll, alpha) at every point Brent evaluates

    def refine(b):
        evals[b] = one(b)
        return evals[b][0]

    lo, hi = _HT_BETA_LO, _HT_BETA_HI
    with np.errstate(divide="ignore", invalid="ignore"):
        while True:
            betas = np.linspace(lo, hi, _HT_GRID_POINTS)
            nll, alphas = _ht_profile(betas, x, y, logy, logy_stats)
            if hi == _HT_BETA_HI:
                # the first grid ends at the upper bound, which Brent never
                # evaluates: it stops about 2e-8 short of a minimum there
                at_bound = (nll[-1], alphas[-1])
            i = int(np.argmin(nll))
            # widen while the minimum sits on a finite lower edge; the
            # |beta * log y| guard makes that edge infinite eventually
            if i > 0 or not np.isfinite(nll[0]):
                break
            lo, hi = lo - 2.0 * (hi - lo), betas[1]
        if not np.isfinite(nll[i]):
            raise OptimizerError("conditional-tail likelihood never finite", None)
        beta, _, converged, _ = _fminbound(
            refine,
            float(betas[max(i - 1, 0)]),
            float(betas[min(i + 1, betas.size - 1)]),
            1e-10,
        )
        if not converged:
            best = (float(alphas[i]), float(betas[i]))
            raise OptimizerError("conditional-tail fit did not converge", best)
    fbest, alpha = evals[beta]
    if at_bound[0] < fbest:
        beta, (fbest, alpha) = _HT_BETA_HI, at_bound
    alpha = float(alpha)
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
        nll=float(fbest),
    )


def _ht_estimates(fit: HTFit, corners, r, seed, rng=None) -> list:
    """Estimates of P(X_E > x0, Y_E > y0) at corners with y0 >= fit.u_y (an
    ExtrapolationError below it): the exact survivor P(Y_E > y0) times the
    share of r draws Y* = y0 + E (memorylessness) and resampled residuals z
    with X* > x0. E and then the residual indices are drawn once from
    default_rng(seed), or from ``rng`` where the caller built that generator
    already, shared by every corner (common random numbers). Corners run in
    y0 order, so each distinct y0 builds X* once.
    """
    rng = _rng(seed) if rng is None else rng
    e = rng.standard_exponential(r)
    z = fit.residuals[rng.integers(0, fit.n_exceedances, size=r)]
    out, last = [None] * len(corners), None
    for i, (x0, y0) in sorted(enumerate(corners), key=lambda c: c[1][1]):
        if y0 < fit.u_y:
            out[i] = ExtrapolationError(
                f"event threshold {y0:.4f} lies below the fit threshold {fit.u_y:.4f}"
            )
            continue
        if y0 != last:
            # X* = alpha * Y* + exp(beta * log Y*) * z, in one buffer beside Y*
            ystar = e + y0
            xs = np.log(ystar)
            xs *= fit.beta
            np.exp(xs, out=xs)
            xs *= z
            ystar *= fit.alpha
            xs += ystar
            last = y0
        count = int(np.count_nonzero(xs > x0))
        out[i] = ProbEstimate(
            value=math.exp(-y0) * (count / r),
            log_value=_log_prob(-y0, count, r),
            method="ht",
            meta={"r": r, "seed": seed, "alpha": fit.alpha, "beta": fit.beta},
        )
    return out


def ht_probabilities(sample, targets, quantile=0.90, r=10_000, seed=0) -> list:
    """Conditional-simulation estimates at a sequence of corners from one
    ``fit_ht`` and one set of r draws seeded by ``seed``, which every corner
    shares. One slot per corner: a ProbEstimate, or the ExtrapolationError
    of a corner whose y0 lies below the fit's conditioning threshold. A
    failed fit fills every slot."""
    corners = _corners(targets, 2).tolist()
    if r < 1:
        raise DomainError(f"draw count must be >= 1, got {r}")
    rng = _rng(seed)  # a bad seed fails before the fit
    try:
        fit = fit_ht(sample, quantile=quantile)
    except RaytailError as exc:
        return [exc] * len(corners)
    return _ht_estimates(fit, corners, r, seed, rng)


def ht_probability(sample, target, quantile=0.90, r=10_000, seed=0) -> ProbEstimate:
    """Conditional-simulation estimate of the corner probability; see
    :func:`ht_probabilities`."""
    return _one(ht_probabilities(sample, [target], quantile=quantile, r=r, seed=seed))


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
    if sample.n == 0:
        raise InsufficientExceedancesError(0, 3)
    logm = math.log(sample.n)
    corners = np.column_stack((cs * omega * logm, cs * (1.0 - omega) * logm))
    counts = _joint_counts(sample.x, sample.y, corners).tolist()
    pairs = [(c, math.log(cnt)) for c, cnt in zip(cs.tolist(), counts) if cnt > 0]
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

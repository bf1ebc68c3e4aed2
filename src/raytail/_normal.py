"""The standard normal quantile and log distribution function, on numpy and
math alone.

``ndtri`` is Cephes ``ndtri`` (Moshier 1989, *Methods and Programs for
Mathematical Functions*) step for step on Python floats. ``log_ndtr`` maps
an array through log Phi with one erfc kernel, t = a / sqrt(2): Cephes's
erf rational T/U for |t| < 1, its erfc rationals P/Q for 1 <= |t| < 8 and
R/S beyond, and the asymptotic series of log Phi for a <= -20.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT1_2 = math.sqrt(0.5)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# ndtri: y - 1/2 for |y - 1/2| <= 3/8; then z = sqrt(-2 log y) below and
# above 8, i.e. y down to exp(-32) and beyond
_S2PI = 2.50662827463100050242e0
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_P0 = (
    -5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
    1.39312609387279679503e1, -1.23916583867381258016e0,
)
_Q0 = (
    1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
    -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
    1.59056225126211695515e1, -1.18331621121330003142e0,
)
_P1 = (
    4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
    4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
    -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4,
)
_Q1 = (
    1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
    1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
    -3.80806407691578277194e-2, -9.33259480895457427372e-4,
)
_P2 = (
    3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
    1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
    3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9,
)
_Q2 = (
    6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
    2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
    2.89247864745380683936e-6, 6.79019408009981274425e-9,
)

# erf(x) = x T(x^2) / U(x^2) for |x| < 1; erfc(x) = exp(-x^2) P(x) / Q(x)
# for 1 <= x < 8 and exp(-x^2) R(x) / S(x) beyond
_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)

# Phi(a) = phi(a) / |a| (1 + sum_k (-1)^k (2k-1)!! / a^(2k)) as a -> -inf;
# ten terms, highest first, reach double precision from a = -20 on
_MILLS = tuple(float((-1) ** k * math.prod(range(1, 2 * k, 2))) for k in range(10, 0, -1))


def _polevl(x, coef):
    """coef[0] x^n + ... + coef[n] by Horner's rule, on a float or in place
    on a fresh array."""
    h = x * coef[0]
    h += coef[1]
    for c in coef[2:]:
        h *= x
        h += c
    return h


def _p1evl(x, coef):
    """x^n + coef[0] x^(n-1) + ... + coef[n-1], as ``_polevl``."""
    h = x + coef[0]
    for c in coef[1:]:
        h *= x
        h += c
    return h


def ndtri(y0: float) -> float:
    """The standard normal quantile of a probability y0, as a float."""
    if y0 == 0.0:
        return -math.inf
    if y0 == 1.0:
        return math.inf
    if not 0.0 < y0 < 1.0:
        return math.nan
    y, negate = y0, True
    if y > 1.0 - _EXP_M2:
        y, negate = 1.0 - y, False
    if y > _EXP_M2:
        y -= 0.5
        y2 = y * y
        return (y + y * (y2 * _polevl(y2, _P0) / _p1evl(y2, _Q0))) * _S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    if x < 8.0:
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
    else:
        x1 = z * _polevl(z, _P2) / _p1evl(z, _Q2)
    return x1 - x0 if negate else x0 - x1


def _erfcx(x):
    """erfc(x) exp(x^2) for an array x in [1, 40]: P/Q, and R/S from 8 on."""
    out = _polevl(x, _P) / _p1evl(x, _Q)
    i = np.flatnonzero(x >= 8.0)
    if i.size:
        v = x[i]
        out[i] = _polevl(v, _R) / _p1evl(v, _S)
    return out


def log_ndtr(a) -> np.ndarray:
    """log Phi(a) elementwise, as a float64 array of a's shape.

    a >= -1 gives log1p(-erfc(t) / 2), -20 < a < -1 gives log(erfc(-t) / 2)
    with the exp(-t^2) of erfc taken in logs, and a <= -20 the asymptotic
    series; +-inf and NaN pass through without a warning.
    """
    a = np.asarray(a, dtype=np.float64)
    shape = a.shape
    a = a.ravel()
    t = a * _SQRT1_2
    # for |t| < 1, Phi(a) = (1 + erf t) / 2: computed everywhere on t clipped
    # to [-1, 1], and overwritten below where |t| >= 1
    u = np.clip(t, -1.0, 1.0)
    z = u * u
    erf = _polevl(z, _T)
    erf *= u
    erf /= _p1evl(z, _U)
    i = np.flatnonzero((a < -1.0) & (t > -1.0))
    low = np.log(0.5 + 0.5 * erf[i])  # 1 + erf t is exact here
    erf *= 0.5
    erf -= 0.5
    out = np.log1p(erf, out=erf)  # log1p((erf t - 1) / 2)
    out[i] = low
    # |t| >= 1: erfc(|t|) = exp(-t^2) erfcx(|t|), and the series for a <= -20
    x = np.abs(t, out=u)
    i = np.flatnonzero(x >= 1.0)
    if i.size:
        v = a[i]
        x = np.minimum(x[i], 40.0)  # erfc(40) underflows; so do +-inf
        ratio = _erfcx(x)
        xx = x * x
        val = np.where(v > 0.0, np.log1p(-0.5 * np.exp(-xx) * ratio), np.log(0.5 * ratio) - xx)
        j = np.flatnonzero(v <= -20.0)
        if j.size:
            w = v[j]
            r = 1.0 / w
            r *= r
            series = np.log1p(r * _polevl(r, _MILLS)) - np.log(-w) - _LOG_SQRT_2PI
            with np.errstate(over="ignore"):  # a^2 / 2 beyond the float range is -inf
                val[j] = series - 0.5 * w * w
        out[i] = val
    return out.reshape(shape)

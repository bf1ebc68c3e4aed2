import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.stats import kstest

from raytail import copulas as cp
from raytail.errors import DomainError, NumericError, QuadratureError, RaytailError

ETA_075_ALPHA = -math.log(0.75) / math.log(2.0)  # diagonal decay 0.75


def bivariate_models():
    return [
        cp.BivariateNormal(0.5),
        cp.BivariateNormal(-0.4),
        cp.InvertedLogistic(0.5),
        cp.InvertedLogistic(ETA_075_ALPHA),
        cp.Morgenstern(1.0),
        cp.Morgenstern(-0.7),
        cp.LogisticBEV(0.6),
        cp.ClaytonLowerTail(1.2),
    ]


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "family,params,msg",
    [
        ("bvn", {"rho": 1.5}, r"\(-1, 1\)"),
        ("bvn", {"rho": -1.0}, r"\(-1, 1\)"),
        ("invlog", {"alpha": 0.0}, r"\(0, 1\]"),
        ("invlog", {"alpha": 1.2}, r"\(0, 1\]"),
        ("morgenstern", {"alpha": -1.01}, r"\[-1, 1\]"),
        ("logistic", {"alpha": 2.0}, r"\(0, 1\]"),
        ("clayton", {"alpha": 0.0}, "> 0"),
        ("clayton", {"alpha": math.inf}, "finite"),
    ],
)
def test_parameter_bounds_rejected(family, params, msg):
    with pytest.raises(DomainError, match=msg):
        cp.make_model(family, **params)


def test_unknown_family_rejected():
    with pytest.raises(DomainError, match="unknown family"):
        cp.make_model("gauss")


# ---------------------------------------------------------------------------
# the checks CopulaModel makes for every family
# ---------------------------------------------------------------------------

def family_model(family):
    cls = cp.FAMILIES[family]
    return cls(**{f.name: 0.5 for f in dataclasses.fields(cls)})


def with_last(values, last):
    """``values`` with its last entry replaced by ``last``, or made one
    entry longer ("wider") or shorter ("narrower")."""
    if last == "wider":
        return (*values, values[-1])
    if last == "narrower":
        return tuple(values[:-1])
    return (*values[:-1], last)


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
def test_a_family_writes_only_the_private_contract(family):
    cls = cp.FAMILIES[family]
    assert not {"sample", "log_survivor", "survivor", "kappa"} & set(vars(cls))
    assert {"_draw", "_log_survivor", "_kappa"} <= set(vars(cls))


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
@pytest.mark.parametrize("n", [0, -3, 2.5, True, "5"])
def test_sample_rejects_a_size_that_is_not_a_positive_integer(family, n):
    with pytest.raises(DomainError, match="sample size must be an integer >= 1"):
        family_model(family).sample(n, 1)


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
@pytest.mark.parametrize("seed", [-1, 2.5, "7", [3, -1]], ids=["negative", "float", "str", "seq"])
def test_sample_rejects_a_seed_that_numpy_rejects(family, seed):
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        family_model(family).sample(5, seed)


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
def test_sample_draws_from_the_generator_of_its_seed(family):
    # an integer or a tuple seed, as the study passes (seed, 7919), seeds
    # numpy's default generator itself
    m = family_model(family)
    for seed in (0, 11, (11, 7919), np.uint32(5)):
        want = m._draw(9, np.random.default_rng(seed))
        assert np.array_equal(m.sample(9, seed).points, want)


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
def test_sample_takes_a_numpy_integer_size(family):
    m = family_model(family)
    s = m.sample(np.int64(7), 3)
    assert s.provenance == "simulated" and s.points.shape == (7, m.dim)
    assert np.array_equal(s.points, m.sample(7, 3).points)


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
@pytest.mark.parametrize(
    "last", [-1.0, math.nan, math.inf, "wider", "narrower"],
    ids=["negative", "nan", "inf", "wider", "narrower"],
)
def test_every_family_rejects_a_bad_corner(family, last):
    m = family_model(family)
    for method in (m.log_survivor, m.survivor):
        with pytest.raises(DomainError, match="corner"):
            method(with_last((1.0,) * m.dim, last))


@pytest.mark.parametrize("family", sorted(cp.FAMILIES))
@pytest.mark.parametrize(
    "last,msg",
    [(0.0, "identically zero"), (-1.0, "finite and >= 0"), (math.nan, "finite and >= 0"),
     (math.inf, "finite and >= 0"), ("wider", "length"), ("narrower", "length")],
    ids=["zero", "negative", "nan", "inf", "wider", "narrower"],
)
def test_every_family_rejects_a_bad_growth_vector(family, last, msg):
    m = family_model(family)
    with pytest.raises(DomainError, match=msg):
        m.kappa(with_last((0.0,) * m.dim, last))


# ---------------------------------------------------------------------------
# exact survivor values
# ---------------------------------------------------------------------------

def test_inverted_logistic_survivor_closed_value():
    m = cp.InvertedLogistic(0.5)
    assert math.isclose(
        m.survivor((1.0, 1.0)), math.exp(-math.sqrt(2.0)), rel_tol=1e-14
    )


def test_morgenstern_survivor_closed_value():
    m = cp.Morgenstern(1.0)
    got = m.survivor((math.log(2.0), math.log(2.0)))
    assert math.isclose(got, 0.3125, rel_tol=1e-14)


@pytest.mark.parametrize("model", bivariate_models(), ids=lambda m: repr(m))
def test_marginal_corners(model):
    tol = 1e-9 if model.family == "bvn" else 1e-10
    for x in (0.3, 1.7, 4.0):
        assert math.isclose(
            model.survivor((x, 0.0)), math.exp(-x), rel_tol=tol
        )
        assert math.isclose(
            model.survivor((0.0, x)), math.exp(-x), rel_tol=tol
        )
    assert math.isclose(model.survivor((0.0, 0.0)), 1.0, rel_tol=tol)


def test_log_survivor_matches_survivor(subtests=None):
    for model in bivariate_models():
        for c in [(0.5, 0.5), (1.0, 2.0), (3.0, 0.7)]:
            assert math.isclose(
                math.exp(model.log_survivor(c)),
                model.survivor(c),
                rel_tol=1e-12,
            )


def test_deep_corner_log_survivor_stays_finite():
    # beyond exp underflow the algebraic families still evaluate in logs
    assert math.isclose(
        cp.ClaytonLowerTail(1.0).log_survivor((100.0, 130.0)),
        -130.0 - math.log1p(math.exp(-30.0) - math.exp(-130.0)),
        rel_tol=1e-12,
    )
    m = cp.Morgenstern(0.5)
    assert math.isclose(
        m.log_survivor((400.0, 500.0)), -900.0 + math.log(1.5), rel_tol=1e-12
    )
    il = cp.InvertedLogistic(0.5)
    assert math.isclose(
        il.log_survivor((800.0, 800.0)), -800.0 * math.sqrt(2.0), rel_tol=1e-12
    )


@pytest.mark.parametrize(
    "model",
    [cp.BivariateNormal(0.5), cp.InvertedLogistic(1.0), cp.InvertedLogistic(0.5),
     cp.Morgenstern(0.5), cp.LogisticBEV(0.6), cp.ClaytonLowerTail(0.5)],
    ids=["bvn", "invlog1", "invlog0.5", "morgenstern", "logistic", "clayton0.5"],
)
@pytest.mark.parametrize("corner", [(1e308, 1e308), (1.7e308, 1.7e308), (0.0, 1e308)])
def test_a_huge_corner_gives_a_log_probability_or_a_typed_error(model, corner):
    try:
        lp = model.log_survivor(corner)
    except RaytailError:
        return
    assert isinstance(lp, float) and not math.isnan(lp) and lp <= 0.0
    if corner[0] == 0.0:
        assert lp == -corner[1]  # the exact margin


def logistic_exponent(alpha, x, y):
    """Max-stable logistic exponent V(x, y) = (x**(-1/a) + y**(-1/a))**a."""
    return (x ** (-1.0 / alpha) + y ** (-1.0 / alpha)) ** alpha


def test_logistic_bev_survivor_against_direct_formula():
    # direct (cancellation-prone) evaluation is fine at moderate corners and
    # serves as an independent route
    m = cp.LogisticBEV(0.6)
    for c in [(0.5, 0.5), (1.0, 2.0), (2.5, 0.3), (3.0, 3.0)]:
        x, y = c
        a, b = math.exp(-x), math.exp(-y)
        v = logistic_exponent(m.alpha, -1.0 / math.log1p(-a), -1.0 / math.log1p(-b))
        direct = a + b - 1.0 + math.exp(-v)
        assert math.isclose(m.survivor(c), direct, rel_tol=1e-10)


@pytest.mark.parametrize("t", [700.1, 800.0, 1e4])
def test_logistic_bev_log_survivor_beyond_the_exp_guard(t):
    # beyond the exp guard the log survivor is taken in logs: on the
    # diagonal it is log(2 - 2^alpha) - t, off it -max(x, y)
    m = cp.LogisticBEV(0.6)
    assert math.isclose(m.log_survivor((t, t)), -t + math.log(2.0 - 2.0**0.6), rel_tol=1e-12)
    assert math.isclose(m.log_survivor((5.0, t)), -t, rel_tol=1e-12)
    assert math.isclose(m.log_survivor((t, 5.0)), -t, rel_tol=1e-12)
    # alpha = 1 is independence
    assert math.isclose(cp.LogisticBEV(1.0).log_survivor((5.0, 800.0)), -805.0, rel_tol=1e-12)


# frozen 1000-digit mpmath references: log(e^-x + e^-y - 1 + C) with C the
# logistic copula at (1 - e^-x, 1 - e^-y), at corners where e^-x or e^-y
# rounds to 1.0
LOGISTIC_TINY_REFERENCE = [
    (0.05, 1e-20, 5.0, -5.0),
    (0.05, 5.0, 1e-20, -5.0),
    (0.05, 1e-17, 1e-17, -1.7485241442453668092e-17),
    (0.05, 5e-324, 0.5, -0.5),
    (0.05, 1e-300, 1e-12, -9.9999999999999997989e-13),
    (0.05, 1e-17, 700.0, -700.0),
    (0.6, 1e-20, 5.0, -5.0),
    (0.6, 5.0, 1e-20, -5.0),
    (0.6, 1e-17, 1e-17, -1.9999999982906998512e-17),
    (0.6, 5e-324, 0.5, -0.5),
    (0.6, 1e-300, 1e-12, -9.9999999999999997989e-13),
    (0.6, 1e-17, 700.0, -700.0),
    (1.0, 1e-20, 5.0, -5.0),
    (1.0, 5.0, 1e-20, -5.0),
    (1.0, 1e-17, 1e-17, -2.0000000000000001431e-17),
    (1.0, 5e-324, 0.5, -0.5),
    (1.0, 1e-300, 1e-12, -9.9999999999999997989e-13),
    (1.0, 1e-17, 700.0, -700.00000000000000001),
]


@pytest.mark.parametrize("alpha,x,y,ref", LOGISTIC_TINY_REFERENCE)
def test_logistic_bev_log_survivor_where_a_margin_rounds_to_one(alpha, x, y, ref):
    # an absolute error in log S is the relative error of S
    lp = cp.LogisticBEV(alpha).log_survivor((x, y))
    assert abs(lp - ref) <= 1e-14 * max(1.0, abs(ref))


@pytest.mark.parametrize("rho", [0.5, -0.5, 0.99])
def test_bvn_log_survivor_where_both_margins_round_to_one(rho):
    assert cp.BivariateNormal(rho).log_survivor((1e-17, 5e-324)) == -1e-17


SURVIVOR_GRID = [
    0.0, 5e-324, 1e-300, 1e-17, 1.1e-16, 1e-12, 1e-3, 0.5, math.log(2.0), 1.0,
    5.0, 50.0, 699.0, 700.0, 700.5, 745.0, 800.0, 1e4, 1e300,
]


@pytest.mark.parametrize(
    "model",
    [cp.BivariateNormal(r) for r in (0.5, -0.5, 0.99)]
    + [cp.LogisticBEV(a) for a in (0.05, 0.6, 1.0)]
    + [cp.InvertedLogistic(a) for a in (0.05, 0.4, 1.0)]
    + [cp.Morgenstern(a) for a in (-1.0, 0.3, 1.0)]
    + [cp.ClaytonLowerTail(a) for a in (0.05, 1.0, 5.0)]
    + [cp.TrivariateMaxPareto()],
    ids=repr,
)
def test_log_survivor_on_the_corner_grid(model):
    # S <= e^-max(x, y) (each margin is standard exponential): every corner
    # gives a finite log S within rounding of that bound, or a typed error;
    # numeric and quadrature warnings are errors here
    for corner in itertools.product(SURVIVOR_GRID, repeat=model.dim):
        try:
            lp = model.log_survivor(corner)
        except RaytailError:
            continue
        top = max(corner)
        assert math.isfinite(lp) and lp <= -top + 1e-13 * max(1.0, top), (corner, lp)


# frozen 30-digit references: mpmath.quad of the corner integral
# erfc((s - rho*y)/sqrt(2(1-rho^2)))/2 * npdf(y) over [t, t+45] with
# (s, t) the normal upper quantiles of exp(-x), exp(-y)
BVN_REFERENCE = [
    (0.5, 0.5, 0.5, 0.44644254964660133),
    (0.5, 1.0, 3.0, 0.039006228358321919),
    (0.5, 6.0, 6.0, 0.00018875198752689045),
    (0.5, 13.8, 13.8, 4.5708054637978749e-9),
    (0.5, 0.67, 12.78, 2.8083269640447526e-6),
    (-0.4, 0.5, 0.5, 0.30823392149463722),
    (-0.4, 1.0, 3.0, 0.0052276050520295691),
    (-0.4, 6.0, 6.0, 1.3628515784426117e-8),
    (-0.4, 13.8, 13.8, 1.2315535312645801e-19),
    (-0.4, 0.67, 12.78, 5.9515396487799879e-8),
]


def test_bvn_quadrature_against_high_precision_reference():
    for rho, x, y, ref in BVN_REFERENCE:
        got = cp.BivariateNormal(rho).survivor((x, y))
        assert math.isclose(got, ref, rel_tol=1e-10), (rho, x, y, got, ref)


# frozen mpmath references (40 digits, printed to 20) at corners where the
# log survivor is far below exp's range: log phi(t) plus the log of the
# integral over z in [0, 45] of exp(-t z - z^2/2) ncdf((rho (t + z) - s) /
# sqrt(1 - rho^2)), with (s, t) the normal upper quantiles of the margins
# solved in mpmath and the integrand scaled by its value at the breakpoint
# max(0, -t). scipy's quad found no value at the rho < 0 corners; (0.5, *,
# 600) are the corners of the CI benchmark with y_corner 600 at w = 0.5 and
# w = 0.05.
BVN_FAR_REFERENCE = [
    (-0.9, 1.0, 300.0, -1607.1268612380362128),
    (-0.9, 300.0, 300.0, -5929.7523658008945013),
    (-0.9, 1.0, 699.0, -3726.4181661794049703),
    (-0.9, 699.0, 699.0, -13902.093082831207678),
    (-0.9, 13.8, 100.0, -889.57454845548818614),
    (-0.5, 300.0, 600.0, -1758.1128703349174706),
    (-0.3, 600.0, 600.0, -1711.1274859859398065),
    (0.5, 600.0, 600.0, -802.02136558104255414),
    (0.5, 31.578947368421055, 600.0, -600.0),
]


@pytest.mark.parametrize("rho, x, y, ref", BVN_FAR_REFERENCE)
def test_bvn_far_tail_log_survivor_against_high_precision_reference(rho, x, y, ref):
    # RuntimeWarnings are errors here: nothing may over- or underflow loudly
    model = cp.BivariateNormal(rho)
    for corner in ((x, y), (y, x)):
        got = model.log_survivor(corner)
        assert math.isclose(got, ref, rel_tol=1e-12), (rho, corner, got, ref)


# frozen mpmath references (40 digits, printed to 20) near the origin, where
# S > 1/2: log(1 - px - py + L), px = 1 - e^-x, py = 1 - e^-y, and L the
# integral over z < s of npdf(z) ncdf((t - rho z) / sqrt(1 - rho^2)), with
# (s, t) the normal quantiles of (px, py) solved in mpmath
BVN_NEAR_REFERENCE = [
    (0.5, 1e-6, 1e-6, -1.9955252141929682070e-6),
    (0.5, 1e-3, 1e-6, -1.0007611650328656584e-3),
    (0.5, 1e-9, 0.5, -0.50000000000101629603),
    (-0.3, 1e-6, 1e-6, -2.0000009999680661547e-6),
    (-0.3, 1e-3, 1e-6, -1.0010009996598955382e-3),
    (-0.3, 1e-9, 0.5, -0.50000000162677001261),
]


@pytest.mark.parametrize("rho, x, y, ref", BVN_NEAR_REFERENCE)
def test_bvn_near_origin_log_survivor_against_high_precision_reference(rho, x, y, ref):
    model = cp.BivariateNormal(rho)
    for corner in ((x, y), (y, x)):
        got = model.log_survivor(corner)
        assert math.isclose(got, ref, rel_tol=1e-13), (rho, corner, got, ref)


@pytest.mark.parametrize("m", [2000, 5000])
def test_bvn_study_corners_integrate_at_the_upper_quantiles(m):
    # the study's corners (y_corner = 1.5 log m) keep the survivor's own
    # integral; only corners with S > 1/2 take the complement
    from raytail import _normal
    from raytail.bench import BenchmarkConfig

    model = cp.BivariateNormal(0.5)
    corners = BenchmarkConfig(model, m=m).targets()
    q = -np.array([[_normal.ndtri(math.exp(-v)) for v in c] for c in corners.tolist()])
    assert model.log_survivors(corners).tolist() == model._joint_upper_normal(
        q[:, 0], q[:, 1]
    ).tolist()


def test_log_survivors_equals_log_survivor_at_each_corner():
    grid = [0.0, 1e-9, 1e-3, 0.5, 3.0, 12.8, 300.0]
    corners = list(itertools.product(grid, repeat=2))
    for model in (cp.BivariateNormal(0.5), cp.BivariateNormal(-0.9), cp.InvertedLogistic(0.5)):
        got = model.log_survivors(corners)
        assert got.dtype == np.float64 and got.shape == (len(corners),)
        assert got.tolist() == [model.log_survivor(c) for c in corners]
    assert cp.BivariateNormal(0.5).log_survivors(np.empty((0, 2))).shape == (0,)
    with pytest.raises(NumericError, match=r"\(701.0, 1.0\)"):
        cp.BivariateNormal(0.5).log_survivors([(1.0, 1.0), (701.0, 1.0)])
    with pytest.raises(DomainError):
        cp.BivariateNormal(0.5).log_survivors([(1.0, -1.0)])


def test_log_quad_closed_forms_and_failures():
    edges = np.array([[0.0, 0.5, 3.0]])
    # the integral of e^(c - z) over [0, 3] is e^c (1 - e^-3), at any shift c,
    # one integral a call or all in one, where a repeated edge adds nothing
    shifts = np.array([0.0, -1000.0, 700.0])
    want = shifts + math.log(-math.expm1(-3.0))
    for c, w in zip(shifts, want):
        got = cp._log_quad(lambda z, k: c - z, edges)
        assert got.shape == (1,)
        assert math.isclose(got[0], w, rel_tol=1e-15, abs_tol=1e-15)
    rows = np.array([[0.0, 0.5, 3.0], [0.0, 0.0, 3.0], [0.0, 3.0, 3.0]])
    got = cp._log_quad(lambda z, k: shifts[k, None] - z, rows)
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-15, abs_tol=1e-15)
    with pytest.raises(QuadratureError, match="degenerated"):
        cp._log_quad(lambda z, k: np.full(z.shape, np.nan), edges)
    with pytest.raises(QuadratureError, match="did not converge"):
        cp._log_quad(lambda z, k: np.log(2.0 + np.sin(1e5 * z)), edges)


def _quad_log_survivor(rho, x, y):
    # the earlier scipy.integrate.quad form of the bvn survivor; None where it
    # found no value, and its IntegrationWarning is an error
    from scipy.integrate import IntegrationWarning, quad
    from scipy.special import ndtri

    sig = math.sqrt(1.0 - rho * rho)
    s, t = sorted((-float(ndtri(math.exp(-x))), -float(ndtri(math.exp(-y)))))

    def integrand(z):
        return 0.5 * math.erfc((s - rho * (t + z)) / (sig * math.sqrt(2.0))) * math.exp(
            -t * z - 0.5 * z * z
        )

    opts = {"epsrel": 1e-11, "limit": 300, "points": [max(0.0, -t)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error", IntegrationWarning)
        val, err = quad(integrand, 0.0, 40.0, epsabs=1e-13, **opts)
        if 0.0 < val < 1e-10:
            val, err = quad(integrand, 0.0, 40.0, epsabs=val * 1e-11, **opts)
    if not (0.0 < val < math.inf and err <= max(1e-12, 1e-7 * val)):
        return None
    return -0.5 * t * t - 0.5 * math.log(2.0 * math.pi) + math.log(val)


@pytest.mark.parametrize("rho", [-0.9, -0.3, 0.1, 0.5, 0.9, 0.99])
def test_bvn_log_survivor_agrees_with_scipy_quad(rho):
    model = cp.BivariateNormal(rho)
    grid = [0.05, 0.5, 1.0, 3.0, 6.0, 12.8, 30.0, 100.0, 300.0, 699.0]
    compared = 0
    for x, y in itertools.combinations_with_replacement(grid, 2):
        want = _quad_log_survivor(rho, x, y)
        if want is None:
            continue
        got = model.log_survivor((x, y))
        assert math.isclose(got, want, rel_tol=1e-12), (rho, x, y, got, want)
        compared += 1
    assert compared >= 30


def test_bvn_quadrature_matches_monte_carlo():
    model = cp.BivariateNormal(0.5)
    n = 100_000
    s = model.sample(n, 2024)
    p = model.survivor((1.0, 1.0))
    emp = float(np.mean((s.x > 1.0) & (s.y > 1.0)))
    se = math.sqrt(p * (1.0 - p) / n)
    assert abs(emp - p) <= 3.0 * se


# ---------------------------------------------------------------------------
# closed-form decay indices
# ---------------------------------------------------------------------------

def test_bvn_kappa_regimes():
    m = cp.BivariateNormal(0.5)
    assert math.isclose(m.kappa((1.0, 1.0)), 4.0 / 3.0, rel_tol=1e-15)
    # ray below the regime boundary collapses to the larger rate
    assert m.kappa((1.0, 0.2)) == 1.0
    # boundary is continuous
    assert math.isclose(m.kappa((1.0, 0.25)), 1.0, rel_tol=1e-12)
    mneg = cp.BivariateNormal(-0.5)
    assert math.isclose(mneg.kappa((1.0, 1.0)), 4.0, rel_tol=1e-15)
    assert mneg.kappa((1.0, 0.0)) == 1.0


def test_bvn_kappa_at_huge_growth():
    t = 1e200
    for rho, want in ((0.5, 4.0 / 3.0), (-0.5, 4.0)):
        m = cp.BivariateNormal(rho)
        assert math.isclose(m.kappa((t, t)), want * t, rel_tol=1e-15)
        for g in ((1.0, 1.0), (1.0, 2.0), (0.3, 0.7), (1.0, 0.2)):
            assert math.isclose(m.kappa((t * g[0], t * g[1])), t * m.kappa(g), rel_tol=1e-15)
            assert math.isclose(m.kappa((g[0] / t, g[1] / t)), m.kappa(g) / t, rel_tol=1e-15)
    # the sum b + g overflows, the decay index does not
    assert math.isclose(cp.BivariateNormal(0.5).kappa((1e308, 1e308)), 4.0 / 3.0 * 1e308,
                        rel_tol=1e-15)


def test_bvn_eta_link():
    # diagonal decay index eta = (1+rho)/2 = 1/kappa(1,1)
    m = cp.BivariateNormal(0.5)
    assert math.isclose(1.0 / m.kappa((1.0, 1.0)), (1.0 + 0.5) / 2.0, rel_tol=1e-15)


def test_morgenstern_kappa_is_sum():
    for alpha in (-1.0, 0.0, 0.7):
        assert cp.Morgenstern(alpha).kappa((2.0, 3.0)) == 5.0


def test_trivariate_kappa_branches_and_reductions():
    tri = cp.TrivariateMaxPareto()
    assert tri.kappa((1.0, 2.0, 1.0)) == 3.0
    assert tri.kappa((2.0, 1.0, 3.0)) == 5.0
    # exact two-dimensional reductions when one rate vanishes
    assert tri.kappa((1.0, 2.0, 0.0)) == 2.0
    assert tri.kappa((3.0, 2.0, 0.0)) == 3.0
    assert tri.kappa((1.0, 0.0, 2.0)) == 3.0
    assert tri.kappa((0.0, 2.0, 3.0)) == 3.0
    assert tri.kappa((0.0, 3.0, 2.0)) == 3.0


def test_true_lambda_values():
    il = cp.InvertedLogistic(0.5)
    assert math.isclose(il.lam(0.5), 2.0 ** -0.5, rel_tol=1e-15)
    for model in bivariate_models():
        assert model.lam(0.0) == 1.0
        assert model.lam(1.0) == 1.0
    lb = cp.LogisticBEV(0.3)
    for w in (0.1, 0.3, 0.5, 0.8):
        assert lb.lam(w) == max(w, 1.0 - w)
    with pytest.raises(DomainError):
        il.lam(1.2)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", bivariate_models(), ids=lambda m: repr(m))
def test_sampler_determinism(model):
    a = model.sample(200, 99).points
    b = model.sample(200, 99).points
    c = model.sample(200, 100).points
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_morgenstern_zero_alpha_is_independence():
    n = 100_000
    s = cp.Morgenstern(0.0).sample(n, 5)
    corr = float(np.corrcoef(s.x, s.y)[0, 1])
    assert abs(corr) <= 3.0 / math.sqrt(n)


def test_inverted_logistic_margins_exponential():
    s = cp.InvertedLogistic(0.415).sample(10_000, 11)
    assert kstest(s.x, "expon").pvalue > 0.01
    assert kstest(s.y, "expon").pvalue > 0.01


@pytest.mark.parametrize("model", bivariate_models(), ids=lambda m: repr(m))
def test_monte_carlo_consistency_nine_corners(model):
    n = 100_000
    s = model.sample(n, 314159)
    corners = [(a, b) for a in (0.5, 1.0, 2.0) for b in (0.5, 1.0, 2.0)]
    for c in corners:
        p = model.survivor(c)
        emp = float(np.mean((s.x > c[0]) & (s.y > c[1])))
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(emp - p) <= 4.0 * se, f"corner {c}: emp={emp}, p={p}"


def test_morgenstern_conditional_inversion_exact():
    model = cp.Morgenstern(0.8)
    n = 10_000
    s = model.sample(n, 77)
    u = 1.0 - np.exp(-s.x)
    v = 1.0 - np.exp(-s.y)
    # pushing the draws back through the conditional CDF
    # C(v | u) = dC/du = v(1 + alpha(1 - 2u)(1 - v)) must give uniforms
    p = v * (1.0 + model.alpha * (1.0 - 2.0 * u) * (1.0 - v))
    assert kstest(p, "uniform").pvalue > 0.01


def _empirical_copula_matches(sample, copula_fn, n):
    u = 1.0 - np.exp(-sample.x)
    v = 1.0 - np.exp(-sample.y)
    grid = (0.1, 0.3, 0.5, 0.7, 0.9)
    for gu in grid:
        for gv in grid:
            c_true = copula_fn(gu, gv)
            c_emp = float(np.mean((u <= gu) & (v <= gv)))
            se = math.sqrt(c_true * (1.0 - c_true) / n)
            assert abs(c_emp - c_true) <= 4.0 * se, (gu, gv, c_emp, c_true)


def test_inverted_logistic_is_reflected_logistic():
    alpha = 0.5
    n = 50_000
    model = cp.InvertedLogistic(alpha)

    def printed_copula(u, v):
        vv = logistic_exponent(alpha, -1.0 / math.log1p(-u), -1.0 / math.log1p(-v))
        return u + v - 1.0 + math.exp(-vv)

    _empirical_copula_matches(model.sample(n, 21), printed_copula, n)


def test_clayton_lower_tail_is_reflected_clayton():
    alpha = 1.2
    n = 50_000

    def printed_copula(u, v):
        inner = (1.0 - u) ** (-1.0 / alpha) + (1.0 - v) ** (-1.0 / alpha) - 1.0
        return u + v - 1.0 + inner**-alpha

    _empirical_copula_matches(
        cp.ClaytonLowerTail(alpha).sample(n, 22), printed_copula, n
    )


# ---------------------------------------------------------------------------
# trivariate construction
# ---------------------------------------------------------------------------

def test_trivariate_margins_exponential():
    s = cp.TrivariateMaxPareto().sample(10_000, 8)
    for j in range(3):
        assert kstest(s.points[:, j], "expon").pvalue > 0.01


# log survivors of the trivariate model at corners given as floats, to 50
# digits: the nine-cell enumeration in 80-digit mpmath 1.3.0 arithmetic,
# checked against the inclusion-exclusion sum at 1500 digits. The corners
# with survivors near 1e-10 are where the earlier inclusion-exclusion path
# lost up to 2e-6 relative; the last two are far beyond e^-700
TRIVARIATE_LOG_SURVIVOR = {
    (0.5, 2.0, 1.0): "-2.7580667096436931200951228936951769228623154210109",
    (2.0, 2.0, 2.0): "-4.2641757524001052334939591747204752272641013151915",
    (0.0, 1.5, 0.0): "-1.5",
    (5.0, 0.25, 3.0): "-8.0577355326901316782677864875029944862181397478259",
    (9.45, 9.41, 13.07): "-22.807661505147895610433274803429852368694031712884",
    (11.28, 2.67, 11.11): "-22.65486249529612757648328838728848911517646201932",
    (12.8, 13.09, 9.13): "-22.897327540956276045628896434237479639378558151062",
    (12.0, 12.0, 12.0): "-24.287681048414553566032704185558236955303972944657",
    (25.0, 3.0, 25.0): "-50.271222586589700833697902185653993598900134977931",
    (40.0, 41.5, 39.0): "-80.910349310032329704708658079239289246220380526092",
    (700.0, 700.0, 700.0): "-1400.2876820724517809274392190059938274315035097109",
    (400.0, 1.0, 400.0): "-800.17201106075713025057795590014226427678216344918",
}


@pytest.mark.parametrize(
    "corner", list(TRIVARIATE_LOG_SURVIVOR), ids=lambda c: "-".join(map(repr, c))
)
def test_trivariate_log_survivor_matches_50_digit_references(corner):
    tri = cp.TrivariateMaxPareto()
    want = float(TRIVARIATE_LOG_SURVIVOR[corner])
    assert math.isclose(tri.log_survivor(corner), want, rel_tol=1e-13)
    if want > -700.0:
        assert math.isclose(tri.survivor(corner), math.exp(want), rel_tol=1e-13)


def test_trivariate_survivor_matches_monte_carlo():
    tri = cp.TrivariateMaxPareto()
    n = 1_000_000
    s = tri.sample(n, 4242)
    for c in [(0.5, 0.5, 0.5), (1.0, 1.0, 1.0), (2.0, 1.0, 0.5), (0.5, 2.0, 1.0)]:
        p = tri.survivor(c)
        emp = float(
            np.mean((s.x > c[0]) & (s.y > c[1]) & (s.points[:, 2] > c[2]))
        )
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(emp - p) <= 4.0 * se, (c, emp, p)


def test_trivariate_marginal_and_independence_reductions():
    tri = cp.TrivariateMaxPareto()
    for x in (0.7, 1.3, 2.1):
        assert math.isclose(tri.survivor((x, 0.0, 0.0)), math.exp(-x), rel_tol=1e-12)
        assert math.isclose(tri.survivor((0.0, x, 0.0)), math.exp(-x), rel_tol=1e-12)
        assert math.isclose(tri.survivor((0.0, 0.0, x)), math.exp(-x), rel_tol=1e-12)
    # the outer pair shares no component, so its joint survivor factorizes
    assert math.isclose(
        tri.survivor((1.0, 0.0, 2.0)), math.exp(-3.0), rel_tol=1e-12
    )


def test_trivariate_pairwise_tail_dependence_structure():
    # X,Y and Y,Z share a maximum component; X,Z do not
    tri = cp.TrivariateMaxPareto()
    n = 400_000
    s = tri.sample(n, 9)
    q = -math.log(0.02)  # marginal 98% level
    pxy = np.mean((s.x > q) & (s.y > q)) / 0.02
    pxz = np.mean((s.x > q) & (s.points[:, 2] > q)) / 0.02
    assert pxy > 0.25  # strongly dependent pair
    assert pxz < 0.10  # near-independent pair


# ---------------------------------------------------------------------------
# conditional-tail limits
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "model,limit",
    [
        pytest.param(cp.BivariateNormal(0.5), (0.25, 0.5), id="bvn0.5"),
        pytest.param(cp.InvertedLogistic(0.4), (0.0, 0.6), id="invlog0.4"),
        pytest.param(cp.InvertedLogistic(1.0), (0.0, 0.0), id="invlog1"),
        pytest.param(cp.Morgenstern(0.3), (0.0, 0.0), id="morgenstern"),
        pytest.param(cp.LogisticBEV(0.5), (1.0, 0.0), id="logistic"),
        pytest.param(cp.ClaytonLowerTail(2.0), (1.0, 0.0), id="clayton"),
        pytest.param(cp.BivariateNormal(-0.3), "rho > 0", id="bvn-0.3"),
        pytest.param(cp.TrivariateMaxPareto(), "trivariate", id="trivariate"),
    ],
)
def test_ht_limit(model, limit):
    if isinstance(limit, str):
        with pytest.raises(DomainError, match=limit):
            model.ht_limit()
    else:
        assert model.ht_limit() == limit


@pytest.mark.parametrize(
    "model",
    [
        cp.BivariateNormal(0.5),
        cp.BivariateNormal(0.8),
        cp.InvertedLogistic(0.5),
        cp.InvertedLogistic(2.0 - math.log2(3.0)),
        cp.Morgenstern(1.0),
        cp.Morgenstern(-0.5),
        cp.LogisticBEV(0.5),
        cp.ClaytonLowerTail(2.0),
    ],
    ids=repr,
)
def test_lam_leaves_its_lower_bound_where_ht_limit_says(model):
    # one limit set gives both (Nolde & Wadsworth 2022): lambda(w) = 1 - w
    # up to w = a/(1+a), and by exchangeability lambda(w) = w from 1/(1+a)
    a, _ = model.ht_limit()
    for w in np.arange(1001) / 1000:
        lam = model.lam(w)
        if w <= a / (1.0 + a):
            assert abs(lam - (1.0 - w)) <= 1e-12, w
        if w >= 1.0 / (1.0 + a):
            assert abs(lam - w) <= 1e-12, w
        if a / (1.0 + a) < w < 1.0 / (1.0 + a):
            assert lam > max(w, 1.0 - w), w

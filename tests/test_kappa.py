import math

import numpy as np
import pytest

from raytail import copulas as cp
from raytail import kappa as kp
from raytail.errors import DomainError, NonDifferentiableError

ETA_075_ALPHA = -math.log(0.75) / math.log(2.0)


def kf(model):
    return kp.KappaFunction.of_model(model)


ALL_MODELS = [
    cp.BivariateNormal(0.5),
    cp.BivariateNormal(-0.5),
    cp.InvertedLogistic(0.5),
    cp.Morgenstern(1.0),
    cp.LogisticBEV(0.6),
    cp.ClaytonLowerTail(1.2),
    cp.TrivariateMaxPareto(),
]

TRIVARIATE_REDUCTIONS = (
    kp.KappaFunction(lambda g: max(g)),       # drop first: (Y, Z) share a max
    kp.KappaFunction(lambda g: g[0] + g[1]),  # drop middle: X, Z independent
    kp.KappaFunction(lambda g: max(g)),       # drop last: (X, Y) share a max
)


# ---------------------------------------------------------------------------
# angular restriction and derivative
# ---------------------------------------------------------------------------

def test_lambda_of_values():
    assert kp.lambda_of(kf(cp.Morgenstern(0.4)), 0.37) == 1.0
    assert kp.lambda_of(kf(cp.LogisticBEV(0.5)), 0.3) == 0.7
    il = cp.InvertedLogistic(0.5)
    for w in (0.1, 0.5, 0.77):
        assert math.isclose(
            kp.lambda_of(kf(il), w), (w**2 + (1 - w) ** 2) ** 0.5, rel_tol=1e-15
        )
    with pytest.raises(DomainError):
        kp.lambda_of(kf(il), -0.01)


def test_lambda_derivative_symmetric_families_vanish_at_half():
    assert abs(kp.lambda_derivative(kf(cp.InvertedLogistic(0.5)), 0.5)) < 1e-10
    assert abs(kp.lambda_derivative(kf(cp.Morgenstern(0.8)), 0.3)) < 1e-12


def test_lambda_derivative_matches_analytic_inverted_logistic():
    model = cp.InvertedLogistic(0.5)
    # at w = 1/4 the closed form reduces to (1/4 - 3/4) / sqrt(0.625)
    analytic = model.lambda_deriv(0.25)
    assert math.isclose(analytic, -0.5 / math.sqrt(0.625), rel_tol=1e-12)
    fd = kp.lambda_derivative(kf(model), 0.25)
    assert abs(fd - analytic) <= 1e-6


@pytest.mark.parametrize("omega", [0.1, 0.25, 0.4, 0.6, 0.9])
def test_lambda_derivative_matches_analytic_across_rays(omega):
    for model in [cp.InvertedLogistic(0.3), cp.InvertedLogistic(ETA_075_ALPHA),
                  cp.Morgenstern(-0.5)]:
        fd = kp.lambda_derivative(kf(model), omega)
        assert abs(fd - model.lambda_deriv(omega)) <= 1e-6


def test_lambda_derivative_matches_analytic_bvn_interior():
    model = cp.BivariateNormal(0.5)
    for omega in (0.25, 0.4, 0.5, 0.6, 0.75):  # inside the quadratic regime
        fd = kp.lambda_derivative(kf(model), omega)
        assert abs(fd - model.lambda_deriv(omega)) <= 1e-6


def test_lambda_derivative_refuses_kink():
    with pytest.raises(NonDifferentiableError):
        kp.lambda_derivative(kf(cp.LogisticBEV(0.5)), 0.5)
    # away from the kink the max-form is perfectly smooth
    assert math.isclose(
        kp.lambda_derivative(kf(cp.LogisticBEV(0.5)), 0.7), 1.0, abs_tol=1e-9
    )


# ---------------------------------------------------------------------------
# shape parameters
# ---------------------------------------------------------------------------

def test_shape_parameters_fixed_points():
    sp = kp.shape_parameters(kf(cp.Morgenstern(0.2)), 0.3)
    assert (sp.kappa1, sp.kappa2) == (1.0, 1.0)

    sp = kp.shape_parameters(kf(cp.InvertedLogistic(0.5)), 0.5)
    assert math.isclose(sp.kappa1, 2.0**-0.5, rel_tol=1e-9)
    assert math.isclose(sp.kappa2, 2.0**-0.5, rel_tol=1e-9)

    sp = kp.shape_parameters(kf(cp.BivariateNormal(0.5)), 0.5)
    assert math.isclose(sp.kappa1, 2.0 / 3.0, rel_tol=1e-9)
    assert math.isclose(sp.kappa2, 2.0 / 3.0, rel_tol=1e-9)


def test_shape_parameters_recombine_to_lambda():
    grid = np.linspace(0.05, 0.95, 37)
    for model in [cp.InvertedLogistic(0.4), cp.Morgenstern(0.9)]:
        f = kf(model)
        for w in grid:
            sp = kp.shape_parameters(f, w)
            lam = kp.lambda_of(f, w)
            assert abs(w * sp.kappa1 + (1 - w) * sp.kappa2 - lam) <= 1e-8


def test_shape_parameters_error_at_kink():
    with pytest.raises(NonDifferentiableError):
        kp.shape_parameters(kf(cp.ClaytonLowerTail(1.0)), 0.5)


# ---------------------------------------------------------------------------
# numeric oracle vs closed forms
# ---------------------------------------------------------------------------

def test_oracle_exact_power_families():
    il = cp.InvertedLogistic(0.5)
    assert abs(kp.kappa_oracle(il, (1.0, 1.0)) - math.sqrt(2.0)) <= 1e-9
    assert abs(kp.kappa_oracle(il, (1.0, 2.0)) - il.kappa((1.0, 2.0))) <= 1e-9
    lb = cp.LogisticBEV(0.5)
    # distinct components: the correction decays polynomially fast
    assert abs(kp.kappa_oracle(lb, (1.0, 3.0)) - 3.0) <= 1e-9
    assert abs(kp.kappa_oracle(lb, (3.5, 1.0)) - 3.5) <= 1e-9


def test_oracle_constant_slowly_varying_families():
    n = 1_000_000
    mg = cp.Morgenstern(1.0)
    got = kp.kappa_oracle(mg, (1.0, 1.0), n)
    assert math.isclose(got, 1.9498284064384168, rel_tol=1e-12)  # frozen
    assert abs(got - 2.0) <= math.log(2.0) / math.log(n) + 1e-9
    cl = cp.ClaytonLowerTail(0.5)
    assert abs(kp.kappa_oracle(cl, (1.0, 2.0), n) - 2.0) <= 1e-9


def test_oracle_bvn_drift_toward_closed_form():
    model = cp.BivariateNormal(0.5)
    vals = [kp.kappa_oracle(model, (1.0, 1.0), n) for n in (10**4, 10**6, 10**8)]
    assert abs(vals[1] - 4.0 / 3.0) <= 0.08
    # monotone approach from above: the slowly varying factor shrinks
    assert vals[0] > vals[1] > vals[2] > 4.0 / 3.0


def test_oracle_strong_dependence_witness():
    assert abs(kp.kappa_oracle(cp.LogisticBEV(0.5), (1.0, 1.0), 10**8) - 1.0) <= 0.05


def test_oracle_input_validation():
    il = cp.InvertedLogistic(0.5)
    with pytest.raises(DomainError):
        kp.kappa_oracle(il, (1.0, 1.0), n=100)
    with pytest.raises(DomainError):
        kp.kappa_oracle(il, (0.0, 0.0))


# ---------------------------------------------------------------------------
# property suite
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: repr(m))
def test_property_suite_passes_with_correct_flags(model):
    report = kp.property_suite(
        kf(model),
        pqd=model.pqd,
        convex=model.convex,
        grid_size=200,
        seed=2718,
        reduced=TRIVARIATE_REDUCTIONS if model.dim == 3 else None,
    )
    assert report.all_passed, report.as_dict()
    names = {c.name for c in report.checks}
    assert {"homogeneity", "monotonicity", "marginal_identity", "lower_bound_max"} <= names
    if model.pqd:
        assert "upper_bound_sum" in names
    if model.convex:
        assert "subadditivity" in names
    if model.dim == 3:
        assert "dimension_consistency" in names


def test_negative_dependence_violates_sum_bound_without_flag():
    model = cp.BivariateNormal(-0.5)
    assert model.kappa((1.0, 1.0)) == 4.0 > 2.0
    # with the pqd flag off the bound is out of scope and nothing is flagged
    report = kp.property_suite(kf(model), pqd=False, convex=False, seed=1)
    assert report.all_passed
    assert "upper_bound_sum" not in {c.name for c in report.checks}
    # with the flag forced on, the suite must record the violation
    report = kp.property_suite(kf(model), pqd=True, convex=False, seed=1)
    failed = {c.name for c in report.checks if not c.passed}
    assert "upper_bound_sum" in failed


def test_corrupted_kappa_fails_homogeneity_and_marginal():
    bad = kp.KappaFunction(lambda g: g[0] + g[1] + 0.1)
    report = kp.property_suite(bad, pqd=True, seed=5)
    failed = {c.name for c in report.checks if not c.passed}
    assert "homogeneity" in failed
    assert "marginal_identity" in failed


def test_property_suite_requires_enough_grid_points():
    with pytest.raises(DomainError, match="at least 100"):
        kp.property_suite(kf(cp.Morgenstern(0.0)), pqd=True, grid_size=50)


def test_property_suite_deterministic():
    f = kf(cp.InvertedLogistic(0.7))
    a = kp.property_suite(f, pqd=True, seed=9).as_dict()
    b = kp.property_suite(f, pqd=True, seed=9).as_dict()
    assert a == b


def test_angular_bounds_on_grid_for_pqd_families():
    grid = np.linspace(0.01, 0.99, 99)
    for model in [
        cp.BivariateNormal(0.5),
        cp.InvertedLogistic(0.4),
        cp.Morgenstern(0.9),
        cp.LogisticBEV(0.3),
        cp.ClaytonLowerTail(2.0),
    ]:
        for w in grid:
            lam = model.lam(w)
            assert max(w, 1.0 - w) - 1e-12 <= lam <= 1.0 + 1e-12


@pytest.mark.parametrize("seed", [-1, 2.5, "7"], ids=["negative", "float", "str"])
def test_grid_seeds_that_numpy_rejects_are_domain_errors(seed):
    k = kf(cp.InvertedLogistic(0.5))
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        kp.property_suite(k, pqd=True, seed=seed)
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        kp.convexity_check(k, seed=seed)


def test_convexity_check_results():
    count, worst, _ = kp.convexity_check(kf(cp.InvertedLogistic(0.5)), seed=3)
    assert count == 0
    count, worst, pair = kp.convexity_check(kf(cp.BivariateNormal(-0.5)), seed=3)
    assert count > 0 and worst > 0.1 and pair is not None
    count, _, _ = kp.convexity_check(kf(cp.LogisticBEV(0.4)), seed=3)
    assert count == 0
    # the shared-maximum trivariate construction is genuinely not subadditive
    count, worst, _ = kp.convexity_check(kf(cp.TrivariateMaxPareto()), seed=3)
    assert count > 0


def test_trivariate_exact_consistency_identities():
    tri = cp.TrivariateMaxPareto()
    assert tri.kappa((1.3, 0.8, 0.0)) == max(1.3, 0.8)
    assert tri.kappa((1.3, 0.0, 0.8)) == 1.3 + 0.8
    assert tri.kappa((0.0, 0.8, 1.3)) == max(0.8, 1.3)

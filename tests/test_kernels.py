"""The array kernels inside the estimators, checked against direct numpy
references on one fixed exponential sample."""

import math

import numpy as np
import pytest

from raytail import estimators as est
from raytail.margins import ExponentialSample


@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(123)
    x = rng.standard_exponential(5000)
    y = rng.standard_exponential(5000)
    return x, y


@pytest.fixture(scope="module")
def sample(arrays):
    return ExponentialSample(np.column_stack(arrays), provenance="simulated")


def test_structure_min_matches_numpy_reference(arrays, sample):
    x, y = arrays
    ref = np.minimum(x / 0.3, y / (1.0 - 0.3))
    out = est.structure_variable(sample, 0.3)
    assert np.array_equal(out, ref)


def test_excess_stats(arrays, sample):
    x, y = arrays
    t = np.minimum(x / 0.3, y / (1.0 - 0.3))
    u = float(np.quantile(t, 0.9))
    fit = est.fit_lambda(sample, 0.3, u=u)
    exc = t[t > u]
    assert fit.k == exc.size
    assert np.isclose(fit.lambda_hat, exc.size / np.sum(exc - u), rtol=1e-12)


def test_count_joint_exceedances(arrays, sample):
    x, y = arrays
    omega, u_n = 0.4, 2.0
    p = est.wt_probability(sample, omega, u_n=u_n, v=0.0)
    ref = int(np.sum((x > omega * u_n) & (y > (1.0 - omega) * u_n)))
    assert p.value == ref / sample.n


def test_ht_indicator_fraction(arrays):
    x, y = arrays
    fit = est.HTFit(
        alpha=0.25,
        beta=0.5,
        u_y=2.0,
        residuals=y[:1000] - 1.0,
        mu=0.0,
        sigma=1.0,
        nll=0.0,
    )
    omega, u_n, r = 0.4, 5.0, 1000
    p = est.ht_probability(fit, omega, u_n, r=r, seed=7)
    rng = np.random.default_rng(7)
    y_thresh = (1.0 - omega) * u_n
    ystar = y_thresh + rng.standard_exponential(r)
    z = fit.residuals[rng.integers(0, fit.n_exceedances, size=r)]
    frac = np.mean(0.25 * ystar + ystar**0.5 * z > omega * u_n)
    assert 0.0 < frac < 1.0
    assert np.isclose(p.value, math.exp(-y_thresh) * frac, rtol=1e-12)

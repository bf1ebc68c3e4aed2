"""Acceptance suite: one test per numbered criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The full-scale benchmark (500 replications of 5000 points, ten rays, three
methods, both reference models) is computed once in module-scoped fixtures
and shared by the criteria that consume it; its wall time is part of what
criterion 9 checks.
"""

import math
import time

import numpy as np
import pytest

from raytail import bench
from raytail import copulas as cp
from raytail import estimators as est
from raytail import kappa as kp

ETA_075_ALPHA = -math.log(0.75) / math.log(2.0)
BVN = cp.BivariateNormal(0.5)
INVLOG = cp.InvertedLogistic(ETA_075_ALPHA)


def _report(number, message):
    print(f"\ncriterion {number}: PASS - {message}")


@pytest.fixture(scope="module")
def full_reports():
    """Full benchmark for both reference models, timed for criterion 9."""
    out = {}
    t0 = time.perf_counter()
    for model in (BVN, INVLOG):
        cfg = bench.BenchmarkConfig(model=model, reps=500, m=5000, seed_base=20_000)
        out[model.family] = bench.run_benchmark(cfg)
    out["wall"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def quick_runs():
    """Quick-profile runs: twice same seed plus a permuted-order rerun."""
    cfg = bench.BenchmarkConfig(model=INVLOG, seed_base=77).quick()
    t0 = time.perf_counter()
    first = bench.run_benchmark(cfg)
    first_wall = time.perf_counter() - t0
    second = bench.run_benchmark(cfg)
    order = np.random.default_rng(1).permutation(cfg.reps).tolist()
    permuted = bench.run_benchmark(cfg, rep_order=order)
    return first, second, permuted, first_wall


def test_criterion_1_diagonal_index_recovery():
    t0 = time.perf_counter()
    reps, m = 100, 5000
    means = {}
    for model in (BVN, INVLOG):
        lams = [
            est.fit_lambda(model.sample(m, 10_000 + r), 0.5, frac=0.10).lambda_hat
            for r in range(reps)
        ]
        means[model.family] = float(np.mean(lams))
    elapsed = time.perf_counter() - t0

    target = 2.0 / 3.0
    assert target - 0.02 <= means["bvn"] <= target + 0.08, means
    assert abs(means["invlog"] - target) <= 0.03, means
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    _report(
        1,
        f"mean diagonal index bvn={means['bvn']:.4f} (window [0.647, 0.747]), "
        f"invlog={means['invlog']:.4f} (target 0.667 +- 0.03) in {elapsed:.0f}s",
    )


def test_criterion_2_angular_curve_recovery():
    grid = np.round(np.arange(0.05, 0.951, 0.05), 3)
    cfg = bench.BenchmarkConfig(model=INVLOG, reps=100, m=5000, seed_base=30_000)
    rec = bench.lambda_recovery(cfg, omega_grid=grid)
    err = np.abs(rec.mean_lambda - rec.true_lambda)
    assert float(np.max(err)) <= 0.03, dict(zip(grid.tolist(), err.round(4).tolist()))
    _report(2, f"max |mean - true| over the ray grid = {float(np.max(err)):.4f} <= 0.03")


def test_criterion_3_zero_estimate_behaviour(full_reports):
    for fam in ("bvn", "invlog"):
        rep = full_reports[fam]
        for w in rep.config["omegas"]:
            assert rep.cell("wt", w).prop_zero <= 0.05, (fam, w)
            if w <= 0.2:
                assert rep.cell("lt", w).prop_zero >= 0.5, (fam, w)
            if w <= 0.25:
                lt_z = rep.cell("lt", w).prop_zero
                ht_z = rep.cell("ht", w).prop_zero
                wt_z = rep.cell("wt", w).prop_zero
                assert lt_z >= ht_z >= wt_z, (fam, w, lt_z, ht_z, wt_z)
    _report(
        3,
        "ray estimator never zero (<= 0.05), diagonal estimator zero >= 50% "
        "for w <= 0.2, ordering lt >= ht >= wt holds for w <= 0.25",
    )


def test_criterion_4_rmse_ordering(full_reports):
    for fam in ("bvn", "invlog"):
        rep = full_reports[fam]
        omegas = rep.config["omegas"]  # descending from 0.5 to 0.05
        ht = [rep.cell("ht", w).rmse_nonzero_log for w in omegas]
        inversions = sum(
            1 for a, b in zip(ht, ht[1:]) if b > a + 1e-12
        )
        assert inversions <= 1, (fam, ht)
    rep = full_reports["invlog"]
    wt = {w: rep.cell("wt", w).rmse_nonzero_log for w in rep.config["omegas"]}
    cap = 1.5 * wt[0.5]
    assert all(v <= cap for v in wt.values()), wt
    _report(
        4,
        "conditional-method rmse non-increasing toward the margin (<= 1 "
        f"inversion); ray rmse within 1.5x its diagonal value (cap {cap:.3f})",
    )


def test_criterion_5_property_suite_all_families():
    reductions = (
        kp.KappaFunction(lambda g: max(g)),
        kp.KappaFunction(lambda g: g[0] + g[1]),
        kp.KappaFunction(lambda g: max(g)),
    )
    models = [
        BVN,
        cp.BivariateNormal(-0.5),
        INVLOG,
        cp.Morgenstern(1.0),
        cp.LogisticBEV(0.6),
        cp.ClaytonLowerTail(1.2),
        cp.TrivariateMaxPareto(),
    ]
    for model in models:
        report = kp.property_suite(
            kp.KappaFunction.of_model(model),
            pqd=model.pqd,
            convex=model.convex,
            grid_size=200,
            seed=4242,
            tol=1e-9,
            reduced=reductions if model.dim == 3 else None,
        )
        assert report.all_passed, (model.family, report.as_dict())

    neg = cp.BivariateNormal(-0.5)
    assert neg.kappa((1.0, 1.0)) == 4.0 > 2.0
    count, worst, _ = kp.convexity_check(kp.KappaFunction.of_model(neg), seed=4242)
    assert count > 0 and worst > 0.0
    _report(
        5,
        "all six families pass the structural suite at 1e-9; negative-"
        f"dependence normal shows {count} recorded concavity violations and "
        "kappa(1,1) = 4 > 2 outside the orthant-dependence bound",
    )


def test_criterion_6_oracle_equivalence():
    n = 10**6
    log_n = math.log(n)

    il = cp.InvertedLogistic(0.5)
    for g in [(1.0, 1.0), (1.0, 2.0), (0.7, 1.9)]:
        assert abs(kp.kappa_oracle(il, g, n) - il.kappa(g)) <= 1e-9, g
    lb = cp.LogisticBEV(0.5)
    for g in [(1.0, 3.0), (3.5, 1.0)]:
        assert abs(kp.kappa_oracle(lb, g, n) - lb.kappa(g)) <= 1e-9, g

    mg = cp.Morgenstern(1.0)
    assert abs(kp.kappa_oracle(mg, (1.0, 1.0), n) - 2.0) <= math.log(2.0) / log_n + 1e-9

    drift = [kp.kappa_oracle(BVN, (1.0, 1.0), nn) for nn in (10**4, 10**6, 10**8)]
    assert abs(drift[1] - 4.0 / 3.0) <= 0.1
    assert drift[0] > drift[1] > drift[2] > 4.0 / 3.0  # monotone approach

    tri = cp.TrivariateMaxPareto()
    rng = np.random.default_rng(55)
    worst_rel = 0.0
    for _ in range(50):
        c = tuple(rng.uniform(0.2, 3.0, 3))
        tx, ty, tz = (tri._pareto_threshold(v) for v in c)
        oracle = tri._survivor_by_enumeration(tx, ty, tz)
        got = tri.survivor(c)
        worst_rel = max(worst_rel, abs(got - oracle) / oracle)
    assert worst_rel <= 1e-11

    s3 = tri.sample(1_000_000, 98765)
    for c in [(1.0, 1.0, 1.0), (0.5, 2.0, 1.0), (2.0, 0.5, 1.5)]:
        p = tri.survivor(c)
        emp = float(np.mean((s3.x > c[0]) & (s3.y > c[1]) & (s3.points[:, 2] > c[2])))
        se = math.sqrt(p * (1.0 - p) / 1e6)
        assert abs(emp - p) <= 4.0 * se, (c, emp, p)
    _report(
        6,
        f"power-family oracles within 1e-9; normal drift {[round(v, 4) for v in drift]} "
        f"monotone toward 4/3; trivariate dual-route worst rel {worst_rel:.2e}, "
        "Monte Carlo within 4 s.e.",
    )


def test_criterion_7_shape_parameter_identities():
    grid = np.linspace(0.02, 0.98, 50)
    worst_comb = 0.0
    worst_diff = 0.0
    for model in (INVLOG, cp.Morgenstern(0.8), BVN):
        f = kp.KappaFunction.of_model(model)
        for w in grid:
            sp = kp.shape_parameters(f, w)
            lam = kp.lambda_of(f, w)
            der = kp.lambda_derivative(f, w)
            worst_comb = max(
                worst_comb, abs(w * sp.kappa1 + (1 - w) * sp.kappa2 - lam)
            )
            worst_diff = max(worst_diff, abs(sp.kappa1 - sp.kappa2 - der))
            analytic = model.lambda_deriv(w)
            assert abs(der - analytic) <= 1e-6, (model.family, w)
    assert worst_comb <= 1e-8
    assert worst_diff <= 1e-8
    _report(
        7,
        f"recombination worst {worst_comb:.2e}, difference identity worst "
        f"{worst_diff:.2e} (<= 1e-8); finite differences match analytic "
        "derivatives to 1e-6",
    )


def test_criterion_8_conditional_normalization_recovery():
    reps, m = 100, 5000
    morgenstern = cp.Morgenstern(1.0)
    # the targets come from the models and stay fixed: rho^2 = 0.25 and 0
    assert BVN.ht_limit()[0] == 0.25 and morgenstern.ht_limit()[0] == 0.0
    lines = []
    for model, seed0 in ((BVN, 50_000), (morgenstern, 60_000)):
        a, b = model.ht_limit()
        fits = [
            est.fit_ht(model.sample(m, seed0 + r), quantile=0.90)
            for r in range(reps)
        ]
        alpha_mean = float(np.mean([f.alpha for f in fits]))
        beta_mean = float(np.mean([f.beta for f in fits]))
        assert abs(alpha_mean - a) <= 0.1, (model.family, alpha_mean)
        lines.append(
            f"{model.family} alpha {alpha_mean:.3f} (target {a} +- 0.1), "
            f"beta {beta_mean:.3f} (limit {b})"
        )
    _report(8, "mean fitted location slope and scale exponent: " + "; ".join(lines))


def test_criterion_9_determinism_and_runtime(full_reports, quick_runs):
    first, second, permuted, quick_wall = quick_runs
    assert first.as_dict() == second.as_dict()
    assert first.as_dict() == permuted.as_dict()
    assert quick_wall <= 60.0, f"quick profile took {quick_wall:.1f}s"
    full_wall = full_reports["wall"]
    assert full_wall <= 600.0, f"full configuration took {full_wall:.1f}s"
    _report(
        9,
        f"quick profile bitwise reproducible and order-independent in "
        f"{quick_wall:.1f}s (<= 60s); full two-model configuration in "
        f"{full_wall:.1f}s (<= 600s)",
    )

import itertools
import math

import numpy as np
import pytest
from scipy.stats import norm

from raytail import copulas as cp
from raytail import estimators as est
from raytail.errors import (
    DomainError,
    ExtrapolationError,
    InsufficientExceedancesError,
    OptimizerError,
    RaytailError,
)
from raytail.margins import ExponentialSample, rank_transform

ETA_075_ALPHA = -math.log(0.75) / math.log(2.0)


def make_sample(points):
    return ExponentialSample(np.asarray(points, dtype=float))


# ---------------------------------------------------------------------------
# structure variable
# ---------------------------------------------------------------------------

def test_structure_variable_fixtures():
    # a zero weight drops its coordinate: T = Y_E at w = 0 and X_E at w = 1
    x, y = np.array([2.0, 3.0, 1.0]), np.array([2.0, 1.0, 3.0])
    t = est._structure(x, y, np.array([0.5, 0.0, 1.0, 0.25]))
    assert np.array_equal(t[0], [4.0, 2.0, 2.0])
    assert np.array_equal(t[1], [2.0, 1.0, 3.0])
    assert np.array_equal(t[2], [2.0, 3.0, 1.0])
    assert t[3, 2] == 4.0  # min(1/0.25, 3/0.75)


def test_structure_variable_rejects_bad_omega():
    s = make_sample([[1.0, 1.0]])
    with pytest.raises(DomainError):
        est.fit_lambda_rays(s, [0.5, 1.5])


# ---------------------------------------------------------------------------
# array expressions inside the estimators, checked against direct numpy
# references on one fixed exponential sample
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def arrays():
    rng = np.random.default_rng(123)
    x = rng.standard_exponential(5000)
    y = rng.standard_exponential(5000)
    return x, y


@pytest.fixture(scope="module")
def sample(arrays):
    return ExponentialSample(np.column_stack(arrays))


def test_structure_min_matches_numpy_reference(arrays, sample):
    x, y = arrays
    ref = np.minimum(x / 0.3, y / (1.0 - 0.3))
    (out,) = est._structure(x, y, np.array([0.3]))
    assert np.array_equal(out, ref)


def test_excess_stats(arrays, sample):
    x, y = arrays
    t = np.minimum(x / 0.3, y / (1.0 - 0.3))
    u = float(np.quantile(t, 0.9))
    fit = est.fit_lambda(sample, 0.3, frac=0.1)
    exc = t[t > u]
    assert fit.u == u and fit.k == exc.size
    assert np.isclose(fit.lambda_hat, exc.size / np.sum(exc - u), rtol=1e-12)


def test_count_joint_exceedances(arrays, sample):
    x, y = arrays
    omega, u_n = 0.4, 2.0
    fit = est.fit_lambda(sample, omega)
    assert fit.u > u_n  # so u_n is the base level and v = 0
    (p,) = est._wt_estimates(sample, [u_n], [fit])
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
    (p,) = est._ht_estimates(fit, [(omega * u_n, (1.0 - omega) * u_n)], r, 7, est._rng(7))
    rng = np.random.default_rng(7)
    y_thresh = (1.0 - omega) * u_n
    ystar = y_thresh + rng.standard_exponential(r)
    z = fit.residuals[rng.integers(0, fit.n_exceedances, size=r)]
    frac = np.mean(0.25 * ystar + ystar**0.5 * z > omega * u_n)
    assert 0.0 < frac < 1.0
    assert np.isclose(p.value, math.exp(-y_thresh) * frac, rtol=1e-12)


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [0.025, 0.9, 0.975, 0.95, 0.75])
@pytest.mark.parametrize("n", [1, 2, 10, 5003])
@pytest.mark.parametrize("tied", [False, True], ids=["raw", "tied"])
def test_quantile_bitwise_equals_numpy(q, n, tied):
    rng = np.random.default_rng(n)
    v = rng.standard_exponential((7, n))
    if tied:
        v = np.floor(3.0 * v)
    # 1-D, and row-wise along the last axis
    for row in v:
        _same_bits(est._quantile(row, q), np.quantile(row, q))
    _same_bits(est._quantile(v, q), np.quantile(v, q, axis=1))
    # rows that hold only the top k values of their sample, in any order,
    # with or without a few values below them
    k = n - math.floor((n - 1) * q)
    for extra in (0, min(3, n - k)):
        top = rng.permuted(np.sort(v, axis=1)[:, n - k - extra:], axis=1)
        _same_bits(est._quantile(top, q, n), np.quantile(v, q, axis=1))
    # np.nanquantile of a column is _quantile of its finite values
    col = v[0].copy()
    col[rng.random(n) < 0.3] = np.nan
    if not np.isnan(col).all():
        _same_bits(est._quantile(col[~np.isnan(col)], q), np.nanquantile(col, q))


@pytest.mark.parametrize("elems", [1 << 8, 1 << 20])
def test_block_size_changes_no_result(monkeypatch, elems):
    # one row per block at 2^8, every row in one block at 2^20
    s = cp.InvertedLogistic(ETA_075_ALPHA).sample(5000, 31)
    grid = np.round(np.arange(0.0, 1.005, 0.01), 4)
    x, y = s.x[s.y > 2.0], s.y[s.y > 2.0]
    logy = np.log(y)
    stats = (logy.max(), logy.min(), logy.sum())
    betas = np.linspace(-3.0, 1.0 - 1e-8, 121)

    def run():
        return (
            est._ht_profile(betas, x, y, logy, stats),
            est.fit_lambda_rays(s, grid),
            est.fit_lambda_rays(s, grid, frac=0.5),
            est.fit_ht(s),
        )

    (nll, alpha), fits, fits_half, ht = run()
    monkeypatch.setattr(est, "_BLOCK_ELEMS", elems)
    (nll_b, alpha_b), fits_b, fits_half_b, ht_b = run()
    _same_bits(nll_b, nll)
    _same_bits(alpha_b, alpha)
    assert np.isfinite(nll).sum() > 100
    _assert_fits_equal(fits_b, fits)
    _assert_fits_equal(fits_half_b, fits_half)
    for name in ("alpha", "beta", "u_y", "mu", "sigma", "nll", "residuals"):
        _same_bits(getattr(ht_b, name), getattr(ht, name))


def test_empty_sample_fails_with_a_typed_error():
    s = ExponentialSample(np.empty((0, 2)))
    fits = est.fit_lambda_rays(s, np.linspace(0.0, 1.0, 99))
    assert len(fits) == 99
    assert all(isinstance(f, InsufficientExceedancesError) for f in fits)
    for call in (
        lambda: est.fit_lambda(s, 0.5),
        lambda: est.lt_probability(s, (2.0, 2.0)),
        lambda: est.wt_probability_at(s, (2.0, 2.0)),
        lambda: est.fit_ht(s),
        lambda: est.diagnose_linearity(s, 0.5, [0.2, 0.5, 0.8]),
    ):
        with pytest.raises(InsufficientExceedancesError):
            call()


# ---------------------------------------------------------------------------
# Hill fit of the angular index
# ---------------------------------------------------------------------------

def test_fit_lambda_reciprocal_mean_excess():
    # at m = 11 and frac = 0.5 the threshold is the 6th smallest T, exactly
    # (h = 10 * 0.5 = 5): u = 1. The excesses {0.5, 1.0, 1.5, 1.0, 1.0}
    # above it have mean 1 -> rate 1
    t = np.array([0.1] * 5 + [1.0] + [1.5, 2.0, 2.5, 2.0, 2.0])
    # on the diagonal T = min(x, y) / 0.5, so points (t/2, t/2) give T = t
    fit = est.fit_lambda(make_sample(np.column_stack((t / 2, t / 2))), 0.5, frac=0.5)
    assert fit.lambda_hat == 1.0
    assert fit.k == 5
    assert fit.u == 1.0
    assert math.isclose(fit.se, 1.0 / math.sqrt(5.0), rel_tol=1e-15)


def test_fit_lambda_constant_excesses():
    # u = 1 is the 6th smallest of 11 at frac = 0.5; the excesses above it
    # all equal 2
    t = np.array([0.0] * 5 + [1.0] + [3.0] * 5)
    fit = est.fit_lambda(make_sample(np.column_stack((t / 2, t / 2))), 0.5, frac=0.5)
    assert fit.u == 1.0 and fit.k == 5
    assert fit.lambda_hat == 0.5


def test_fit_lambda_insufficient_exceedances():
    # every T equals the threshold, so none exceeds it
    s = make_sample([[1.0, 1.0]] * 20)
    with pytest.raises(InsufficientExceedancesError) as exc:
        est.fit_lambda(s, 0.5)
    assert exc.value.count == 0


def test_fit_lambda_default_threshold_keeps_ten_percent():
    s = cp.InvertedLogistic(0.5).sample(5000, 1)
    fit = est.fit_lambda(s, 0.35, frac=0.10)
    assert fit.k == 500


def test_fit_lambda_positive_and_finite_on_tiny_samples():
    # at m = 9 and frac = 0.75 the threshold is the 3rd smallest T, exactly
    # (h = 8 * 0.25 = 2): u = 0, and the six points off the axes exceed it
    s = make_sample([[0.1, 0.2], [0.5, 0.9], [1.0, 1.2], [2.0, 2.5], [3.0, 3.1],
                     [4.0, 4.4], [0.0, 0.0], [0.0, 0.3], [0.3, 0.0]])
    fit = est.fit_lambda(s, 0.5, frac=0.75)
    assert fit.u == 0.0 and fit.k == 6
    assert 0.0 < fit.lambda_hat < math.inf


def test_fit_lambda_scales_exactly_with_the_sample():
    # growth (h*w, h*(1-w)) divides T by h, as the sample scaled by 1/h does,
    # so lambda_hat(h*g) = h * lambda_hat(g)
    s = cp.BivariateNormal(0.5).sample(3000, 12)
    base = est.fit_lambda(s, 0.35)
    for h in (0.5, 2.0, 7.3):
        scaled = est.fit_lambda(make_sample(s.points / h), 0.35)
        assert math.isclose(scaled.lambda_hat, h * base.lambda_hat, rel_tol=1e-12)
        assert math.isclose(scaled.u, base.u / h, rel_tol=1e-12)


def test_fit_lambda_boundary_rays_recover_marginal_rate():
    s = rank_transform(cp.BivariateNormal(0.5).sample(5000, 77).points)
    for w in (0.0, 1.0):
        fit = est.fit_lambda(s, w)
        assert abs(fit.lambda_hat - 1.0) <= 2.0 * fit.se


def test_diagonal_fit_equals_half_reciprocal_eta():
    # the diagonal structure variable is exactly twice min(x, y), so the
    # fitted rate must be exactly half the reciprocal mean excess of the min
    s = cp.InvertedLogistic(ETA_075_ALPHA).sample(5000, 5)
    fit = est.fit_lambda(s, 0.5, frac=0.10)
    m = np.minimum(s.x, s.y)
    u = float(np.quantile(m, 0.9))
    exc = m[m > u] - u
    eta_hat = float(np.mean(exc))
    assert math.isclose(fit.lambda_hat, (1.0 / eta_hat) / 2.0, rel_tol=1e-12)


def test_fit_lambda_unbiased_for_exact_power_family():
    model = cp.InvertedLogistic(ETA_075_ALPHA)
    true = model.lam(0.35)
    lams = [
        est.fit_lambda(model.sample(5000, 1000 + r), 0.35).lambda_hat
        for r in range(60)
    ]
    # se of the mean is ~0.004; allow a generous band for 60 replications
    assert abs(float(np.mean(lams)) - true) <= 0.02


def _tied_diagonal_sample():
    # 600 points with min(x, y) = 50 exactly tie above every other point on
    # the diagonal ray, where the 90% quantile then leaves no exceedances;
    # along every other ray their structure values are spread out. Two
    # points on the axes check that the boundary rays ignore the other
    # coordinate even where it is 0.
    base = cp.BivariateNormal(0.5).sample(5000, 31).points
    atoms = np.column_stack(
        (np.full(600, 50.0), 50.0 + np.random.default_rng(4).uniform(1.0, 100.0, 600))
    )
    atoms[300:] = atoms[300:, ::-1]
    return make_sample(np.vstack((base, atoms, [[0.0, 3.0], [3.0, 0.0]])))


def _hill_reference(s, w, frac=0.10):
    t = s.y if w == 0.0 else s.x if w == 1.0 else np.minimum(s.x / w, s.y / (1.0 - w))
    u = float(np.quantile(t, 1.0 - frac))
    exc = t[t > u]
    return u, exc.size, float(np.sum(exc - u))


def test_fit_lambda_rays_matches_one_ray_fits():
    s = _tied_diagonal_sample()
    grid = [0.0, 0.05, 0.3, 0.5, 0.77, 1.0]
    fits = est.fit_lambda_rays(s, grid)
    assert len(fits) == len(grid)
    for w, fit in zip(grid, fits):
        u, k, total_excess = _hill_reference(s, w)
        if w == 0.5:
            assert k < 5
            assert isinstance(fit, InsufficientExceedancesError)
            assert fit.count == k
            with pytest.raises(InsufficientExceedancesError):
                est.fit_lambda(s, w)
            continue
        assert fit == est.fit_lambda(s, w)
        assert fit.omega == w
        assert fit.u == u and fit.k == k
        assert math.isclose(fit.lambda_hat, k / total_excess, rel_tol=1e-14)


def test_fit_lambda_rays_independent_of_batch():
    # 99 rays span several row blocks; each ray's fit must not depend on
    # which rays share its batch or block
    s = _tied_diagonal_sample()
    grid = np.round(np.arange(0.01, 0.995, 0.01), 4)
    full = est.fit_lambda_rays(s, grid)
    backwards = est.fit_lambda_rays(s, grid[::-1])[::-1]
    for i, w in enumerate(grid):
        for other in (backwards[i], est.fit_lambda_rays(s, [w])[0]):
            if isinstance(full[i], est.AngularFit):
                assert other == full[i]
            else:
                assert type(other) is type(full[i])
                assert str(other) == str(full[i])
    assert isinstance(full[49], InsufficientExceedancesError)  # the diagonal


def _reference_fit(s, w, frac):
    # the Hill fit on the full sample, threshold by np.quantile
    u, k, total_excess = _hill_reference(s, w, frac)
    if k < 5:
        return InsufficientExceedancesError(k, 5)
    lam = k / total_excess
    return est.AngularFit(float(w), lam, u, k, lam / math.sqrt(k))


def _assert_fits_equal(fits, refs):
    for fit, ref in zip(fits, refs, strict=True):
        if isinstance(ref, est.AngularFit):
            # dataclass equality compares every float exactly
            assert fit == ref
        else:
            assert type(fit) is type(ref) and fit.count == ref.count


@pytest.mark.parametrize("frac", [0.05, 0.10, 0.25])
@pytest.mark.parametrize("m", [60, 305, 2000, 5003])
@pytest.mark.parametrize("tied", [False, True], ids=["raw", "tied"])
@pytest.mark.parametrize(
    "model", [cp.BivariateNormal(0.5), cp.InvertedLogistic(ETA_075_ALPHA)],
    ids=["bvn", "invlog"],
)
def test_fit_lambda_rays_bitwise_equals_full_sample_reference(model, tied, m, frac):
    # 99 rays from axis to axis: the batch prunes candidate points from
    # m=2000 on and keeps them all below; fits must not tell the difference.
    # At m=305 and 5003 the quantile's interpolation weight is >= 0.5.
    s = model.sample(m, 500 + m)
    if tied:
        s = make_sample(np.round(s.points, 1))
    grid = np.linspace(0.0, 1.0, 99)
    _assert_fits_equal(
        est.fit_lambda_rays(s, grid, frac=frac),
        [_reference_fit(s, w, frac) for w in grid],
    )
    # below the cut-off in ray count
    for few in ([0.0], [1.0, 0.4, 0.5]):
        _assert_fits_equal(
            est.fit_lambda_rays(s, few, frac=frac),
            [_reference_fit(s, w, frac) for w in few],
        )


def test_fit_lambda_rays_bitwise_on_tied_atoms_and_edge_frac():
    s = _tied_diagonal_sample()
    grid = np.linspace(0.0, 1.0, 101)
    # k = 1: 1 - frac rounds to 1 and the threshold is the maximum; at frac
    # 0.7 the staircase keeps most of the sample
    for frac in (0.1, 1e-17, 0.7):
        _assert_fits_equal(
            est.fit_lambda_rays(s, grid, frac=frac), [_reference_fit(s, w, frac) for w in grid]
        )


def _per_row_hill(s, omegas, frac):
    # the per-row loop the ray kernel replaced, on the full sample: one
    # threshold, one compress and one 1-D np.add.reduce per ray
    w = np.asarray(omegas, dtype=np.float64)
    if s.n == 0:
        return [(math.nan, 0, 0.0)] * w.size
    t = est._structure(s.x, s.y, w)
    us = est._quantile(t, 1.0 - frac)
    out = []
    for row, u_r in zip(t, us.tolist()):
        exc = row[row > u_r]
        exc -= u_r
        out.append((u_r, exc.size, float(np.add.reduce(exc))))
    return out


def _per_row_slot(omega, u, k, total):
    if k < 5:
        return InsufficientExceedancesError(k, 5)
    if total <= 0.0:
        return DomainError("all excesses are zero; tail index undefined")
    lam = k / total
    return est.AngularFit(omega, lam, u, k, lam / math.sqrt(k))


def _kernel_batches():
    # (name, sample, rays, frac): axis and interior rays, tied tiny samples
    # whose rays differ in k, and batches on both sides of the pruning
    # cut-off. A "-u" batch lowers the threshold u to the median (frac 0.5):
    # on the tied samples with the mixed rays (axes, repeats), on bvn with
    # the interior rays
    rng = np.random.default_rng(2023)
    interior = np.linspace(0.0, 1.0, 99)
    mixed = [0.0, 1.0, 0.5, 0.3, 1.0, 0.01, 0.99, 0.0, 0.72]
    for m in (8, 13, 40):
        for scale in (2.0, 5.0):
            pts = np.floor(scale * rng.standard_exponential((m, 2)))
            s = make_sample(pts)
            yield f"tied{m}x{scale}", s, interior, 0.25
            yield f"tied{m}x{scale}-u", s, mixed, 0.5
    bvn = cp.BivariateNormal(0.5).sample(2000, 77)
    tied = make_sample(np.round(bvn.points, 1))
    for name, s in (("bvn", bvn), ("bvn-tied", tied)):
        yield name + "-pruned", s, interior, 0.1
        yield name + "-few", s, mixed[:5], 0.1
        yield name + "-u", s, interior, 0.5
        yield name + "-one", s, [0.3], 0.1  # fit_lambda's one-ray batch
    yield "diagonal-atoms", _tied_diagonal_sample(), np.linspace(0.0, 1.0, 101), 0.1
    yield "empty", ExponentialSample(np.empty((0, 2))), mixed, 0.1


@pytest.mark.parametrize(
    "name, s, rays, frac", [pytest.param(*b, id=b[0]) for b in _kernel_batches()]
)
def test_ray_kernel_bitwise_equals_the_per_row_loop(name, s, rays, frac):
    # the kernel sums each run of rows with equal k as one 2-D array; every
    # slot, and every array entry, must be bitwise the per-row loop's
    ref = _per_row_hill(s, rays, frac)
    us, ks, lams = est._hill_rays(s.x, s.y, np.asarray(rays, dtype=np.float64), frac)
    assert ks.tolist() == [k for _, k, _ in ref]
    _same_bits(us, np.array([u_r for u_r, _, _ in ref]))  # NaN when empty
    # lambda_hat = k / total, NaN where the fit fails
    _same_bits(lams, np.array([
        k / total if k >= 5 and total > 0.0 else math.nan for _, k, total in ref
    ]))
    if name.startswith("tied"):
        assert len(set(ks.tolist())) > 1  # runs of unequal k
    fits = est.fit_lambda_rays(s, rays, frac=frac)
    for fit, omega, (u_r, k, total) in zip(fits, rays, ref, strict=True):
        want = _per_row_slot(float(omega), u_r, k, total)
        assert type(fit) is type(want) and str(fit) == str(want)
        if isinstance(want, est.AngularFit):
            _same_bits(
                [fit.omega, fit.lambda_hat, fit.u, fit.se],
                [want.omega, want.lambda_hat, want.u, want.se],
            )
            assert fit.k == want.k


@pytest.mark.parametrize("elems", [None, 16])
def test_joint_counts_equal_direct_counts(monkeypatch, elems):
    if elems is not None:
        monkeypatch.setattr(est, "_BLOCK_ELEMS", elems)  # many corner blocks
    rng = np.random.default_rng(5)
    x, y = np.floor(4.0 * rng.standard_exponential((2, 60)))
    # corners on sample values (x == a must not count), a -inf coordinate on
    # either axis or both, corners above every point, and a NaN corner;
    # more corners than _BLOCK_ELEMS / points
    on_points = np.column_stack((x, y))[rng.integers(0, 60, 300)]
    special = [
        (-np.inf, 2.0), (3.0, -np.inf), (-np.inf, -np.inf), (x.max(), 0.0),
        (0.0, y.max()), (x.max() + 1.0, y.max() + 1.0), (np.nan, 1.0), (-np.inf, np.inf),
    ]
    corners = np.vstack((on_points, special, on_points - 0.5))
    got = est._joint_counts(x, y, corners)
    want = [int(np.count_nonzero((x > a) & (y > b))) for a, b in corners]
    assert got.tolist() == want
    # a single corner counts without the selection
    assert [est._joint_counts(x, y, corners[i:i + 1])[0] for i in range(len(corners))] == want
    assert got[300:308].tolist() == [
        np.count_nonzero(y > 2.0), np.count_nonzero(x > 3.0), 60, 0, 0, 0, 0, 0
    ]
    assert est._joint_counts(x, y, np.empty((0, 2))).tolist() == []
    assert est._joint_counts(x[:0], y[:0], corners).tolist() == [0] * len(corners)


@pytest.mark.parametrize("k", [1, 2, 5, 40])
def test_candidates_keep_k_dominating_points_for_every_dropped_one(k):
    # a dropped point is safe when k kept points match or beat it in both
    # coordinates; small integer samples make ties and tight corners common
    rng = np.random.default_rng(k)
    dropped = 0
    for m in (k + 1, 60, 200, 2000):
        for scale in (3, 50, None):
            for _ in range(30 if m < 2000 else 1):
                x, y = rng.standard_exponential((2, m))
                if scale is not None:
                    x, y = np.floor(x * scale), np.floor(y * scale)
                keep = est._candidates(x, y, k)
                xk, yk = x[keep], y[keep]
                for xd, yd in zip(x[~keep], y[~keep]):
                    assert np.count_nonzero((xk >= xd) & (yk >= yd)) >= k
                dropped += np.count_nonzero(~keep)
                if m == 2000 and scale is None:
                    assert np.count_nonzero(keep) < m // 2
    assert dropped > 0


# ---------------------------------------------------------------------------
# ray-extrapolation probability
# ---------------------------------------------------------------------------

def test_wt_probability_closed_fixture():
    # lambda=1, v=log 2, base probability 0.1 -> estimate 0.05
    pts = [[0.1, 0.1]] * 9 + [[5.0, 5.0]]
    s = make_sample(pts)
    fit = est.AngularFit(omega=0.5, lambda_hat=1.0, u=4.0, k=1, se=1.0)
    (p,) = est._wt_estimates(s, [4.0 + math.log(2.0)], [fit])
    assert p.meta["u_n"] == 4.0
    assert math.isclose(p.value, 0.05, rel_tol=1e-15)
    assert math.isclose(p.log_value, math.log(0.05), rel_tol=1e-15)
    assert not p.is_zero


def test_wt_probability_v_zero_is_empirical():
    s = cp.InvertedLogistic(0.5).sample(2000, 9)
    fit = est.fit_lambda(s, 0.4)
    (p,) = est._wt_estimates(s, [fit.u], [fit])
    assert p.meta["v"] == 0.0
    base = np.mean((s.x > 0.4 * fit.u) & (s.y > 0.6 * fit.u))
    assert p.value == base
    # the base count at the fit threshold is the exceedance count itself
    assert p.meta["k"] == fit.k
    assert round(base * s.n) == fit.k


def test_wt_probability_zero_outcome_never_raises():
    s = make_sample([[0.5, 0.5]] * 50)
    fit = est.AngularFit(omega=0.5, lambda_hat=1.0, u=10.0, k=1, se=1.0)
    (p,) = est._wt_estimates(s, [11.0], [fit])
    assert p.is_zero and p.value == 0.0 and p.log_value == -math.inf
    assert p.as_dict()["log_value"] is None


def test_wt_probability_at_uses_ray_through_corner():
    s = cp.InvertedLogistic(0.5).sample(5000, 123)
    p = est.wt_probability_at(s, (4.0, 12.0))
    assert math.isclose(p.meta["omega"], 0.25, rel_tol=1e-12)
    assert p.value > 0.0


def test_wt_probability_at_inside_threshold_is_empirical():
    s = cp.InvertedLogistic(0.5).sample(5000, 123)
    assert est.fit_lambda(s, 0.25).u > 1.0
    x0, y0 = 0.25, 0.75  # on the ray 0.25 at radius 1, exactly
    p = est.wt_probability_at(s, (x0, y0))
    assert p.meta["v"] == 0.0
    assert p.meta["u_n"] == 1.0
    assert p.value == np.count_nonzero((s.x > x0) & (s.y > y0)) / s.n


def test_corner_sequence_forms_match_one_corner_calls():
    # the corner (6, 6) lies on the diagonal; without it lt adds the
    # diagonal ray to the batch. A batch of 8 rays prunes candidates: wt's
    # with that corner, and wt and lt's without it
    s = cp.InvertedLogistic(0.5).sample(5000, 123)
    corners = [(4.0, 12.0), (0.25, 0.75), (0.0, 0.0), (9.0, 0.0), (0.0, 7.0),
               np.array([6.0, 6.0]), (9.0, 12.0), (2.0, 9.0), (5.0, 8.0)]
    seed = (1, 5)
    one = {
        "wt": lambda c: est.wt_probability_at(s, c),
        "lt": lambda c: est.lt_probability(s, c),
        "ht": lambda c: est.ht_probability(s, c, r=2000, seed=seed),
    }
    methods_sets = (("wt",), ("lt",), ("wt", "lt"), ("lt", "ht"), est.METHODS)
    for targets, methods in itertools.product(
        (corners, corners[:5] + corners[6:]), methods_sets
    ):
        batch = est.probabilities(s, targets, methods, r=2000, seed=seed)
        assert tuple(batch) == methods
        for mth, slots in batch.items():
            assert len(slots) == len(targets)
            for c, got in zip(targets, slots):
                if isinstance(got, est.ProbEstimate):
                    want = one[mth](c)
                    assert got == want
                    _same_bits([got.value, got.log_value], [want.value, want.log_value])
                else:
                    with pytest.raises(type(got)):
                        one[mth](c)
    batch = est.probabilities(s, corners, r=2000, seed=seed)
    assert isinstance(batch["wt"][2], DomainError)
    # ht conditions on Y_E > y0: the corners with y0 below its threshold
    # fail; the others share one draw set, so at the shared y0 = 12 the
    # farther corner counts a subset of the nearer one's draws
    ht = batch["ht"]
    assert [isinstance(p, ExtrapolationError) for p in ht[:5]] == [False, True, True, True, False]
    assert not any(isinstance(p, ExtrapolationError) for p in ht[5:])
    assert all(p.meta["seed"] == seed for p in ht if isinstance(p, est.ProbEstimate))
    assert 0.0 < ht[-3].value < ht[0].value
    # a failed diagonal fit fills every lt slot with its error
    tied = _tied_diagonal_sample()
    assert all(
        isinstance(p, InsufficientExceedancesError)
        for p in est.probabilities(tied, corners, ("lt",))["lt"]
    )
    with pytest.raises(InsufficientExceedancesError):
        est.lt_probability(tied, corners[0])


@pytest.mark.parametrize(
    "methods", ["wt", ("wt", "xt"), ("ht", None)], ids=["bare-string", "unknown", "none"]
)
def test_probabilities_rejects_a_bad_method_before_any_fit(monkeypatch, methods):
    s = make_sample(cp.BivariateNormal(0.5).sample(20, 4).points)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran before the methods were checked")

    monkeypatch.setattr(est, "fit_lambda_rays", no_fit)
    monkeypatch.setattr(est, "fit_ht", no_fit)
    with pytest.raises(DomainError, match="methods"):
        est.probabilities(s, [(3.0, 7.0)], methods)


def test_probabilities_takes_methods_from_a_one_shot_iterable():
    # the methods check must not spend a generator before the fits read it
    s = cp.InvertedLogistic(0.5).sample(2000, 3)
    corners = [(3.0, 7.0), (6.0, 6.0)]
    want = est.probabilities(s, corners, ("wt", "lt"))
    got = est.probabilities(s, corners, iter(("wt", "lt")))
    assert list(got) == ["wt", "lt"] and got == want


def test_no_corners_as_a_list_or_an_array_run_no_fit(monkeypatch):
    s = cp.InvertedLogistic(0.5).sample(2000, 3)

    def no_fit(*args, **kwargs):
        raise AssertionError("a fit ran without a corner")

    monkeypatch.setattr(est, "fit_lambda_rays", no_fit)
    monkeypatch.setattr(est, "fit_ht", no_fit)
    empty = {m: [] for m in est.METHODS}
    assert est.probabilities(s, []) == est.probabilities(s, np.empty((0, 2))) == empty
    assert est.probabilities(s, (), ("lt",)) == {"lt": []}
    # the arguments are still checked
    with pytest.raises(DomainError, match="draw count"):
        est.probabilities(s, [], r=0)
    model = cp.BivariateNormal(0.5)
    for corners in ([], np.empty((0, 2))):
        out = model.log_survivors(corners)
        assert out.dtype == np.float64 and out.shape == (0,)


def test_wt_axis_corners_match_marginal_reference():
    # on an axis ray T is one margin and the base set that margin's
    # exceedances: a point with a zero in the other coordinate still counts
    pts = np.random.default_rng(31).standard_exponential((5000, 2))
    pts[:300, 0] = 0.0
    pts[300:600, 1] = 0.0
    s = make_sample(pts)
    for axis, corner_of in ((1, lambda c: (0.0, c)), (0, lambda c: (c, 0.0))):
        t = pts[:, axis]
        u = float(np.quantile(t, 0.9))
        exc = t[t > u]
        lam = exc.size / float(np.sum(exc - u))
        for c in (1.0, 9.0):  # inside and beyond the threshold u (about 2.3)
            v, u_n = max(c - u, 0.0), min(u, c)
            ref = math.exp(-lam * v) * np.count_nonzero(t > u_n) / s.n
            p = est.wt_probability_at(s, corner_of(c))
            assert p.meta["v"] == v and p.meta["u_n"] == u_n
            assert math.isclose(p.value, ref, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# diagonal-extrapolation probability
# ---------------------------------------------------------------------------

def test_lt_probability_inside_support_is_empirical():
    s = cp.BivariateNormal(0.5).sample(5000, 21)
    qx = float(np.quantile(s.x, 0.9))
    qy = float(np.quantile(s.y, 0.9))
    target = (qx - 0.5, qy - 0.5)  # inside the baseline: no shift applied
    p = est.lt_probability(s, target)
    emp = np.mean((s.x > target[0]) & (s.y > target[1]))
    assert p.value == emp
    assert p.log_value == math.log(emp)
    assert p.meta["v"] == 0.0


def test_lt_probability_independence_rate():
    # independent exponential coordinates: eta = 1/2, so a diagonal shift v
    # costs a factor e^{-2v}
    rng = np.random.default_rng(8)
    pts = np.column_stack(
        (rng.standard_exponential(200_000), rng.standard_exponential(200_000))
    )
    s = make_sample(pts)
    a = 2.0
    v = 1.0
    fits = est.fit_lambda_rays(s, [0.5])
    (p,) = est._lt_estimates(s, [(a + v, a + v)], fits[0], (a, a))
    emp_base = np.mean((s.x > a) & (s.y > a))
    expected = math.exp(-2.0 * v) * emp_base
    assert abs(p.value - expected) / expected < 0.08


def test_lt_probability_zero_outcome_recorded():
    s = cp.BivariateNormal(0.5).sample(500, 4)
    p = est.lt_probability(s, (2.0, 40.0))
    assert p.is_zero and p.value == 0.0


def test_an_estimate_that_underflows_is_a_recorded_zero():
    # each base set is non-empty; the extrapolation factor underflows, so
    # the value is 0.0 but its log is finite, and the estimate is no zero
    s = cp.BivariateNormal(0.5).sample(3000, 1)
    for p in (
        est.wt_probability_at(s, (700.0, 700.0)),
        est.lt_probability(s, (700.0, 700.0)),
        est.ht_probability(s, (0.0, 800.0), r=2000),
    ):
        assert p.value == 0.0 and not p.is_zero
        assert -math.inf < p.log_value < -745.0
        assert list(p.as_dict())[:4] == ["value", "method", "is_zero", "log_value"]
        assert p.as_dict()["log_value"] == p.log_value
    # lambda_hat v > 745; at the fit threshold the base count is k
    p = est.wt_probability_at(s, (700.0, 700.0))
    assert p.meta["lambda_hat"] * p.meta["v"] > 745.0 and p.meta["k"] > 0
    assert p.log_value == -p.meta["lambda_hat"] * p.meta["v"] + math.log(p.meta["k"] / s.n)


def test_a_corner_whose_radius_overflows_is_rejected():
    s = cp.BivariateNormal(0.5).sample(3000, 1)
    far, near = est.probabilities(s, [(1e308, 1e308), (1.0, 2.0)], ("wt",))["wt"]
    assert isinstance(far, DomainError)
    assert near == est.wt_probability_at(s, (1.0, 2.0))
    # ht has no radius: its estimate at that corner is a zero
    p = est.ht_probability(s, (1e308, 1e308))
    assert p.value == 0.0 and p.is_zero


def test_lt_equals_wt_on_diagonal_with_matching_base():
    s = cp.InvertedLogistic(ETA_075_ALPHA).sample(5000, 99)
    fit = est.fit_lambda(s, 0.5, frac=0.10)
    v = 9.0
    t0 = (fit.u + v) / 2.0
    (wt,) = est._wt_estimates(s, [fit.u + v], [fit])
    (lt,) = est._lt_estimates(s, [(t0, t0)], fit, (fit.u / 2.0, fit.u / 2.0))
    assert math.isclose(wt.value, lt.value, rel_tol=1e-12)
    assert math.isclose(
        lt.meta["lambda_half"], wt.meta["lambda_hat"], rel_tol=1e-15
    )


# ---------------------------------------------------------------------------
# conditional-tail fit and probability
# ---------------------------------------------------------------------------

def _ref_ht_profile(betas, x, y, logy, logy_stats):
    # the profile in its np.mean form, every feasible beta in one block:
    # the reference of the one block kernel, on the grid and on one row. It
    # keeps the earlier guard, which for beta < 0 checked the wrong ends of
    # log y; on these samples the fits are bitwise the same under both
    logy_max, logy_min, logy_sum = logy_stats
    nll = np.full(betas.size, np.inf)
    alpha = np.full(betas.size, np.nan)
    rows = np.flatnonzero((betas * logy_max <= 600.0) & (betas * logy_min >= -600.0))
    yb = np.exp(betas[rows, None] * logy)
    a = x / yb
    c = y / yb
    a -= np.mean(a, axis=1, keepdims=True)
    c -= np.mean(c, axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        al = np.clip(np.sum(a * c, axis=1) / np.sum(c * c, axis=1), 0.0, 1.0)
        s2 = np.mean((a - al[:, None] * c) ** 2, axis=1)
        nll[rows] = 0.5 * x.size * np.log(s2) + betas[rows] * logy_sum
    alpha[rows] = al
    nll[~np.isfinite(nll)] = np.inf
    return nll, alpha


def _ref_fit_ht(sample, quantile, grid_points):
    # grid scan, widening and bounded Brent refinement, each evaluation a
    # fresh call of the reference profile
    from scipy.optimize import minimize_scalar

    u_y = float(np.quantile(sample.y, quantile))
    x, y = sample.x[sample.y > u_y], sample.y[sample.y > u_y]
    logy = np.log(y)
    stats = (np.max(logy), np.min(logy), np.sum(logy))
    lo, hi = -1.0, 1.0 - 1e-8
    while True:
        betas = np.linspace(lo, hi, grid_points)
        nll, _ = _ref_ht_profile(betas, x, y, logy, stats)
        i = int(np.argmin(nll))
        if i > 0 or not np.isfinite(nll[0]):
            break
        lo, hi = lo - 2.0 * (hi - lo), betas[1]
    res = minimize_scalar(
        lambda b: _ref_ht_profile(np.array([b]), x, y, logy, stats)[0][0],
        bounds=(betas[max(i - 1, 0)], betas[min(i + 1, betas.size - 1)]),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert res.success
    beta = float(res.x)
    # the profile at the upper bound itself wins where it is lower
    at_bound = _ref_ht_profile(np.array([1.0 - 1e-8]), x, y, logy, stats)[0][0]
    if at_bound < _ref_ht_profile(np.array([beta]), x, y, logy, stats)[0][0]:
        beta = 1.0 - 1e-8
    fbest, abest = _ref_ht_profile(np.array([beta]), x, y, logy, stats)
    alpha = float(abest[0])
    z = (x - alpha * y) / np.exp(beta * logy)
    return {"alpha": alpha, "beta": beta, "u_y": u_y, "residuals": z,
            "mu": float(np.mean(z)), "sigma": float(np.std(z)),
            "nll": float(fbest[0])}


def _ref_ht_value(fit, omega, u_n, r, seed):
    rng = np.random.default_rng(seed)
    y_thresh = (1.0 - omega) * u_n
    ystar = y_thresh + rng.standard_exponential(r)
    z = fit.residuals[rng.integers(0, fit.n_exceedances, size=r)]
    xs = fit.alpha * ystar + np.exp(fit.beta * np.log(ystar)) * z
    return math.exp(-y_thresh) * (float(np.count_nonzero(xs > omega * u_n)) / r)


@pytest.mark.parametrize("m", [300, 2000, 5000])
@pytest.mark.parametrize(
    "model",
    [cp.BivariateNormal(0.5), cp.BivariateNormal(0.9), cp.BivariateNormal(-0.3),
     cp.InvertedLogistic(0.415), cp.InvertedLogistic(1.0)],
    ids=["bvn0.5", "bvn0.9", "bvn-0.3", "invlog0.415", "invlog1"],
)
def test_ht_path_bitwise_equals_reference(model, m):
    for seed in range(20):
        s = model.sample(m, 700 + seed)
        # 60 exceedances at m=300; two thresholds at the larger sizes
        quantile = 0.8 if m == 300 or seed % 2 else 0.9
        fit = est.fit_ht(s, quantile=quantile)
        ref = _ref_fit_ht(s, quantile, est._HT_GRID_POINTS)
        for name, want in ref.items():
            _same_bits(getattr(fit, name), want)
        for omega in (0.0, 0.3, 0.6):
            u_n = fit.u_y / (1.0 - omega) + 2.0
            corner = (omega * u_n, (1.0 - omega) * u_n)
            (p,) = est._ht_estimates(fit, [corner], 2000, seed, est._rng(seed))
            _same_bits(p.value, _ref_ht_value(fit, omega, u_n, 2000, seed))


def _ht_outcome(sample, quantile):
    try:
        return est.fit_ht(sample, quantile=quantile)
    except RaytailError as exc:
        return type(exc)


@pytest.mark.parametrize(
    "m, seeds", [(300, range(900, 1000)), (2000, range(900, 920))], ids=["m300", "m2000"]
)
def test_ht_grid_loses_no_fit_against_121_points(monkeypatch, m, seeds):
    # the grid only brackets the profile minimum: the same fit on a
    # 121-point grid is the oracle, which no fit may beat by more than 1e-9
    # in nll or fail differently from (m=300 at 0.9 has 30 exceedances). At
    # m=300 some profiles fall all the way to the upper edge of beta
    models = [cp.BivariateNormal(0.9), cp.BivariateNormal(-0.9), cp.ClaytonLowerTail(2.0),
              cp.LogisticBEV(0.5), cp.Morgenstern(1.0)]
    samples = [model.sample(m, seed) for model in models for seed in seeds]
    cases = [(s, q) for s in samples for q in (0.8, 0.9)]
    got = [_ht_outcome(s, q) for s, q in cases]
    monkeypatch.setattr(est, "_HT_GRID_POINTS", 121)
    at_edge = 0
    for (s, q), fit in zip(cases, got):
        want = _ht_outcome(s, q)
        if isinstance(want, type):
            assert fit is want
        else:
            assert fit.nll <= want.nll + 1e-9
            at_edge += want.beta > 1.0 - 1e-6
    assert at_edge > 0 or m > 300  # the m=300 cases include the edge


@pytest.mark.parametrize("seed", [920, 932, 947, 980, 994])
def test_fit_ht_reaches_the_upper_beta_bound_on_every_grid(monkeypatch, seed):
    # these profiles fall all the way to beta = 1 - 1e-8; bounded Brent
    # never evaluates the bound and stops about 2e-8 short of it, at a point
    # that depends on the bracket, so the profile at the bound itself wins
    s = cp.BivariateNormal(0.9).sample(300, seed)
    fits = []
    for points in (est._HT_GRID_POINTS, 5, 11, 16, 25):
        monkeypatch.setattr(est, "_HT_GRID_POINTS", points)
        fits.append(est.fit_ht(s, quantile=0.8))
    for fit in fits:
        assert fit.beta == 1.0 - 1e-8
        _same_bits([fit.alpha, fit.nll], [fits[0].alpha, fits[0].nll])
    u_y = float(np.quantile(s.y, 0.8))
    x, y = s.x[s.y > u_y], s.y[s.y > u_y]
    logy = np.log(y)
    stats = (np.max(logy), np.min(logy), np.sum(logy))
    betas = np.array([1.0 - 1e-8, 1.0 - 3e-8, 1.0 - 1e-7])
    nll, alpha = _ref_ht_profile(betas, x, y, logy, stats)
    assert nll[0] < nll[1] < nll[2]
    _same_bits([fits[0].nll, fits[0].alpha], [nll[0], alpha[0]])


def test_fit_ht_requires_enough_exceedances():
    s = cp.BivariateNormal(0.5).sample(100, 1)
    with pytest.raises(InsufficientExceedancesError):
        est.fit_ht(s, quantile=0.9)  # only ~10 exceedances


def test_fit_ht_degenerate_residual_scale_raises():
    # x constant: the working-normal likelihood grows without bound as
    # beta -> 0, so there is no fit to return
    y = np.random.default_rng(0).standard_exponential(1000)
    with pytest.raises(OptimizerError):
        est.fit_ht(make_sample(np.column_stack((np.ones_like(y), y))))


def test_fit_ht_returns_python_floats():
    # the Brent refinement runs on Python floats, so its beta is one too
    for model in (cp.BivariateNormal(0.5), cp.InvertedLogistic(ETA_075_ALPHA)):
        fit = est.fit_ht(model.sample(5000, 21))
        assert fit.beta < est._HT_BETA_HI  # a refined point, not the bound
        for name in ("alpha", "beta", "u_y", "mu", "sigma", "nll"):
            assert type(getattr(fit, name)) is float, name


def test_fit_ht_recovers_location_slope_bvn():
    model = cp.BivariateNormal(0.5)
    alphas = []
    betas = []
    for rep in range(20):
        fit = est.fit_ht(model.sample(5000, 3000 + rep))
        alphas.append(fit.alpha)
        betas.append(fit.beta)
    # the conditional location grows like rho^2 * y with sqrt-scale spread
    assert abs(float(np.mean(alphas)) - 0.25) <= 0.12
    assert 0.1 <= float(np.mean(betas)) <= 0.8


def test_fit_ht_near_zero_location_for_weak_dependence():
    model = cp.Morgenstern(1.0)
    alphas = [est.fit_ht(model.sample(5000, 4000 + rep)).alpha for rep in range(20)]
    assert abs(float(np.mean(alphas))) <= 0.1


def test_fit_ht_scale_exponent_tracks_true_normalization():
    # the true conditional scale grows as u**(1 - alpha) for the reflected
    # logistic family; the fitted power picks that up within the wide
    # finite-threshold identification slack
    model = cp.InvertedLogistic(0.415)
    betas = [est.fit_ht(model.sample(5000, 8000 + rep)).beta for rep in range(30)]
    assert abs(float(np.mean(betas)) - (1.0 - 0.415)) <= 0.25


def test_fit_ht_independence_residuals_track_conditioned_variable():
    rng = np.random.default_rng(55)
    pts = np.column_stack(
        (rng.standard_exponential(5000), rng.standard_exponential(5000))
    )
    s = make_sample(pts)
    fit = est.fit_ht(s)
    assert fit.alpha <= 0.05
    x_cond = s.x[s.y > fit.u_y]
    corr = float(np.corrcoef(fit.residuals, x_cond)[0, 1])
    assert corr > 0.99


def _steep_scale_sample(seed):
    # conditional scale y**-3 above y = 2: the best beta lies far below the
    # lower edge (-1) of the first profile grid
    rng = np.random.default_rng(seed)
    y = rng.standard_exponential(5000)
    tail = 0.3 * y + y**-3.0 * rng.standard_normal(5000)
    x = np.where(y > 2.0, tail, rng.standard_exponential(5000))
    return make_sample(np.column_stack((x, y)))


def _working_normal_nll(alpha, beta, x, y):
    # full negative log-likelihood of x ~ Normal(alpha*y + mu*y**beta,
    # (sigma*y**beta)**2) at the maximizing mu and sigma
    yb = y**beta
    z = (x - alpha * y) / yb
    return -float(np.sum(norm.logpdf(x, alpha * y + np.mean(z) * yb, np.std(z) * yb)))


@pytest.mark.parametrize(
    "sample",
    [
        cp.BivariateNormal(0.5).sample(5000, 17),
        cp.InvertedLogistic(0.415).sample(5000, 90020),  # alpha on its bound 0
        _steep_scale_sample(5),
    ],
    ids=["bvn", "invlog", "steep-scale"],
)
def test_fit_ht_not_beaten_on_2d_grid(sample):
    fit = est.fit_ht(sample)
    assert 0.0 <= fit.alpha <= 1.0
    mask = sample.y > fit.u_y
    x, y = sample.x[mask], sample.y[mask]
    best = _working_normal_nll(fit.alpha, fit.beta, x, y)
    k = x.size
    assert math.isclose(best - 0.5 * k * (1.0 + math.log(2.0 * math.pi)), fit.nll,
                        rel_tol=1e-10)
    alphas = np.clip(fit.alpha + np.linspace(-0.05, 0.05, 41), 0.0, 1.0)
    betas = np.minimum(fit.beta + np.linspace(-0.05, 0.05, 41), 1.0 - 1e-8)
    grid = min(_working_normal_nll(a, b, x, y) for a in alphas for b in betas)
    assert best <= grid + 1e-9 * abs(grid)


def test_fit_ht_widens_beta_grid_below_initial_edge():
    s = _steep_scale_sample(5)
    fit = est.fit_ht(s)
    assert fit.beta < -1.0
    assert abs(fit.beta + 3.0) <= 0.3
    assert abs(fit.alpha - 0.3) <= 0.01
    # betas with |beta * log y| > 600 for some y are infeasible, which is
    # what ends the widening
    x, y = s.x[s.y > fit.u_y], s.y[s.y > fit.u_y]
    logy = np.log(y)
    stats = (logy.max(), logy.min(), logy.sum())
    nll, _ = est._ht_profile(np.array([-1e6, fit.beta]), x, y, logy, stats)
    assert np.isinf(nll[0]) and np.isfinite(nll[1])


def test_ht_profile_reads_degenerate_variances_as_inf():
    # at beta = 0, x = y/2 leaves a residual variance of exactly 0 (log 0 is
    # -inf), and a constant y leaves the slope at 0/0 (NaN)
    y = np.random.default_rng(3).standard_exponential(200) + 1.0
    for x_, y_ in ((0.5 * y, y), (y, np.full_like(y, 2.0))):
        logy = np.log(y_)
        stats = (logy.max(), logy.min(), logy.sum())
        nll, _ = est._ht_profile(np.array([0.0]), x_, y_, logy, stats)
        assert nll[0] == np.inf


def test_ht_feasible_boundary_is_inclusive():
    # 300 * 2.0 and -300 * 2.0 are exactly +-600, the largest |beta log y|
    # the guard admits; one ulp beyond is out
    past = np.nextafter(300.0, np.inf)
    assert est._ht_feasible(300.0, (2.0, 0.5, 0.0))
    assert est._ht_feasible(-300.0, (0.5, 2.0, 0.0))
    assert not est._ht_feasible(past, (2.0, 0.5, 0.0))
    assert not est._ht_feasible(-past, (0.5, 2.0, 0.0))
    # both sides at once on logy in [-2, 2]
    betas = np.array([300.0, past, -300.0, -past])
    assert est._ht_feasible(betas, (2.0, -2.0, 0.0)).tolist() == [True, False, True, False]
    # a negative beta is bounded at the largest log y too: -500 * 3 = -1500
    assert not est._ht_feasible(-500.0, (3.0, 1.0, 0.0))


def test_ht_refinement_reads_non_finite_profile_as_inf(monkeypatch):
    # above the threshold x = 2^20 y^b0 exactly, with b0 the first point
    # bounded Brent evaluates in the bracket around the grid minimum: there
    # the residual variance is exactly 0 and the kernel's nll is -inf, which
    # the refinement must read as +inf, as the grid does
    rng = np.random.default_rng(3)
    y = rng.standard_exponential(1000)
    mask = y > est._quantile(y, 0.9)
    logy = np.log(y[mask])
    betas = np.linspace(est._HT_BETA_LO, est._HT_BETA_HI, est._HT_GRID_POINTS)
    i = int(np.argmin(np.abs(betas - 1.0 / 3.0)))
    lo, hi = betas[i - 1], betas[i + 1]
    b0 = lo + 0.5 * (3.0 - math.sqrt(5.0)) * (hi - lo)
    x = rng.standard_exponential(1000)
    x[mask] = 2.0**20 * np.exp(b0 * logy)
    with np.errstate(divide="ignore"):
        raw, _ = est._ht_block(b0, x[mask], y[mask], logy, logy.sum())
    assert raw == -np.inf

    seen, brent = [], est._fminbound

    def spy(fun, a, b, xatol):
        assert (a, b) == (lo, hi)
        return brent(lambda v: seen.append((v, fun(v))) or seen[-1][1], a, b, xatol)

    monkeypatch.setattr(est, "_fminbound", spy)
    with pytest.raises(OptimizerError, match="degenerate"):
        est.fit_ht(make_sample(np.column_stack((x, y))))
    assert seen[0] == (b0, np.inf)
    assert all(math.isfinite(v) or v == np.inf for _, v in seen)


@pytest.mark.parametrize(
    "model", [cp.BivariateNormal(0.5), cp.InvertedLogistic(0.415), cp.LogisticBEV(0.5)],
    ids=["bvn0.5", "invlog0.415", "logistic0.5"],
)
def test_ht_kernel_scalar_row_bitwise_equals_its_grid_row(model):
    # Brent evaluates one scalar beta at a time; each must be the row the
    # grid's block computes for it, in nll and alpha
    s = model.sample(5000, 41)
    mask = s.y > est._quantile(s.y, 0.9)
    x, y = s.x[mask], s.y[mask]
    logy = np.log(y)
    betas = np.linspace(-0.9, 1.0 - 1e-8, 16)
    with np.errstate(divide="ignore", invalid="ignore"):
        nll, alpha = est._ht_block(betas, x, y, logy, float(np.sum(logy)))
        for b, want in zip(betas.tolist(), zip(nll, alpha)):
            got = est._ht_block(b, x, y, logy, float(np.sum(logy)))
            _same_bits(np.array(got), np.array(want))


def _scipy_bounded(f, a, b, xatol, maxfun=500):
    from scipy.optimize import minimize_scalar

    # scipy computes on numpy scalars, which warn on inf - inf
    with np.errstate(invalid="ignore"):
        res = minimize_scalar(
            f, bounds=(a, b), method="bounded", options={"xatol": xatol, "maxiter": maxfun}
        )
    return float(res.x), float(res.fun), bool(res.success), int(res.nfev)


def _same_search(f, a, b, xatol, maxfun=500):
    got = est._fminbound(f, a, b, xatol, maxfun)
    want = _scipy_bounded(f, a, b, xatol, maxfun)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == w or (g != g and w != w), (got, want)
        assert type(g) is type(w)
    return got


@pytest.mark.parametrize(
    "model",
    [cp.BivariateNormal(0.5), cp.BivariateNormal(-0.3), cp.InvertedLogistic(0.415),
     cp.LogisticBEV(0.5), cp.ClaytonLowerTail(2.0)],
    ids=["bvn0.5", "bvn-0.3", "invlog0.415", "logistic0.5", "clayton2"],
)
def test_fminbound_equals_scipy_bounded_on_the_ht_profile(model):
    # the bracket and profile that fit_ht refines, evaluated as its grid does
    for seed in range(6):
        s = model.sample(2000, seed)
        mask = s.y > est._quantile(s.y, 0.9)
        x, y = s.x[mask], s.y[mask]
        logy = np.log(y)
        stats = (np.max(logy), np.min(logy), np.sum(logy))
        betas = np.linspace(est._HT_BETA_LO, est._HT_BETA_HI, est._HT_GRID_POINTS)
        nll, _ = est._ht_profile(betas, x, y, logy, stats)
        i = int(np.argmin(nll))
        a, b = float(betas[max(i - 1, 0)]), float(betas[min(i + 1, betas.size - 1)])
        x_min, _, ok, _ = _same_search(
            lambda v: float(est._ht_profile(np.array([v]), x, y, logy, stats)[0][0]),
            a, b, 1e-10,
        )
        assert ok and a <= x_min <= b


@pytest.mark.parametrize(
    "f, a, b",
    [
        (lambda v: 1.0, -2.0, 3.0),  # flat
        (lambda v: math.inf if v < 0.3 else (v - 0.5) ** 2, 0.0, 1.0),  # inf on the left
        (lambda v: (v + 0.2) ** 2 if v < 0.1 else math.inf, -1.0, 1.0),  # inf on the right
        (lambda v: math.inf if 0.2 < v < 0.6 else abs(v - 0.7), 0.0, 1.0),  # inf inside
        (lambda v: v, 0.0, 1.0),  # minimum at the lower bound
        (lambda v: -math.exp(v), -3.0, 2.0),  # minimum at the upper bound
        (lambda v: math.cos(7.0 * v) + 0.1 * v, -2.0, 2.0),  # several local minima
        (lambda v: (v - 1e-3) ** 4, -1.0, 1.0),  # flat bottom
    ],
    ids=["flat", "inf-left", "inf-right", "inf-inside", "at-lower", "at-upper",
         "multimodal", "quartic"],
)
@pytest.mark.parametrize("xatol", [1e-10, 1e-5])
def test_fminbound_equals_scipy_bounded(f, a, b, xatol):
    _, _, ok, nfev = _same_search(f, a, b, xatol)
    assert ok and nfev < 500


def test_fminbound_reports_the_evaluation_cap_and_nan():
    # a cusp defeats the parabolic steps, so the search runs long
    for maxfun in (2, 5, 12, 20):
        _, _, ok, nfev = _same_search(
            lambda v: math.sqrt(abs(v - 0.3)), 0.0, 1.0, 1e-10, maxfun
        )
        assert not ok and nfev == maxfun
    # a NaN at the best or the last point fails the search; one elsewhere is
    # just never chosen
    _, _, ok, _ = _same_search(lambda v: math.nan, 0.0, 1.0, 1e-8)
    assert not ok
    _, _, ok, _ = _same_search(lambda v: math.nan if v > 0.5 else -v, 0.0, 1.0, 1e-8)
    assert ok


def test_fit_ht_raises_optimizer_error_at_the_evaluation_cap(monkeypatch):
    # a refinement that stops at the cap leaves the grid's best point
    s = cp.BivariateNormal(0.5).sample(2000, 5)
    brent = est._fminbound
    monkeypatch.setattr(est, "_fminbound", lambda f, a, b, xatol: brent(f, a, b, xatol, 4))
    with pytest.raises(OptimizerError, match="did not converge"):
        est.fit_ht(s)


@pytest.mark.parametrize("seed", [-1, 2.5, "7", (3, -1)], ids=["negative", "float", "str", "seq"])
def test_ht_rejects_a_seed_that_numpy_rejects(seed):
    s = cp.BivariateNormal(0.5).sample(2000, 4)
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        est.ht_probability(s, (3.0, 7.0), seed=seed)
    # checked before the fit: a sample too small to fit still rejects it
    with pytest.raises(DomainError, match="seed must be an integer >= 0"):
        est.probabilities(make_sample(s.points[:20]), [(3.0, 7.0)], seed=seed)


@pytest.mark.parametrize("r", [0, 1.5, True, "3"], ids=["zero", "float", "bool", "str"])
def test_ht_rejects_a_draw_count_that_is_not_a_positive_integer(r):
    s = cp.BivariateNormal(0.5).sample(2000, 4)
    with pytest.raises(DomainError, match="draw count must be an integer >= 1"):
        est.ht_probability(s, (1.0, 6.0), r=r)


def test_ht_tuple_seed_draws_from_its_generator():
    # the study's (seed, 7919): the same draws as _ht_estimates seeded alike
    s = cp.BivariateNormal(0.5).sample(2000, 4)
    targets = [(3.0, 7.0), (1.0, 9.0)]
    fit = est.fit_ht(s)
    got = est.probabilities(s, targets, ("ht",), seed=(4, 7919))["ht"]
    want = est._ht_estimates(fit, targets, 10_000, (4, 7919), est._rng((4, 7919)))
    assert [p.log_value for p in got] == [p.log_value for p in want]
    assert got[0].meta["seed"] == (4, 7919)


def test_ht_probability_deterministic_and_seed_sensitive():
    fit = est.fit_ht(cp.BivariateNormal(0.5).sample(5000, 17))
    (a,) = est._ht_estimates(fit, [(0.3 * 15.0, (1.0 - 0.3) * 15.0)], 5000, 42, est._rng(42))
    (b,) = est._ht_estimates(fit, [(0.3 * 15.0, (1.0 - 0.3) * 15.0)], 5000, 42, est._rng(42))
    (c,) = est._ht_estimates(fit, [(0.3 * 15.0, (1.0 - 0.3) * 15.0)], 5000, 43, est._rng(43))
    assert a.value == b.value
    assert a.value != c.value
    # the estimate is the exact marginal factor times the indicator mean
    # over the seeded draws
    rng = np.random.default_rng(42)
    y_thresh = (1.0 - 0.3) * 15.0
    ystar = y_thresh + rng.standard_exponential(5000)
    z = fit.residuals[rng.integers(0, fit.n_exceedances, size=5000)]
    cond = np.mean(fit.alpha * ystar + ystar**fit.beta * z > 0.3 * 15.0)
    assert math.isclose(a.value, math.exp(-y_thresh) * cond, rel_tol=1e-12)


def test_ht_probability_marginal_boundary():
    # at omega=0 with non-negative residuals the indicator is always true,
    # so the estimate is exactly the marginal survivor of the threshold
    fit = est.HTFit(
        alpha=0.5,
        beta=0.0,
        u_y=2.0,
        residuals=np.abs(np.random.default_rng(1).standard_normal(50)),
        mu=0.8,
        sigma=0.6,
        nll=0.0,
    )
    (p,) = est._ht_estimates(fit, [(0.0, 7.0)], 2000, 0, est._rng(0))
    assert p.value == math.exp(-7.0)
    assert p.log_value == -7.0


def test_ht_probability_below_fit_threshold_raises():
    s = cp.BivariateNormal(0.5).sample(5000, 17)
    fit = est.fit_ht(s)
    with pytest.raises(ExtrapolationError):
        est.ht_probability(s, (0.5 * fit.u_y, 0.5 * fit.u_y))


def test_ht_probability_monte_carlo_convergence():
    fit = est.HTFit(
        alpha=0.0,
        beta=0.0,
        u_y=1.0,
        residuals=np.array([1.0] * 30 + [-1.0] * 10),  # P(z = 1) = 0.75
        mu=0.5,
        sigma=1.0,
        nll=0.0,
    )
    # x threshold 0.5 sits between the two residual atoms, so the indicator
    # hits exactly when z = +1, with probability 3/4 independent of y
    (p,) = est._ht_estimates(fit, [(0.05 * 10.0, (1.0 - 0.05) * 10.0)], 200_000, 3, est._rng(3))
    cond = p.value / math.exp(-9.5)
    assert abs(cond - 0.75) < 0.005


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_diagnose_linearity_power_family():
    s = cp.InvertedLogistic(ETA_075_ALPHA).sample(5000, 10)
    out = est.diagnose_linearity(s, 0.5, np.arange(0.2, 0.85, 0.1))
    assert out["r_squared"] >= 0.95
    assert out["slope"] < 0.0
    # slope approximates -lambda(1/2) * log m
    expected = -cp.InvertedLogistic(ETA_075_ALPHA).lam(0.5) * math.log(5000)
    assert abs(out["slope"] - expected) / abs(expected) < 0.25


def test_diagnose_linearity_insufficient_sets():
    s = make_sample([[0.1, 0.1]] * 100)
    with pytest.raises(InsufficientExceedancesError):
        est.diagnose_linearity(s, 0.5, [5.0, 6.0, 7.0])


def test_diagnose_linearity_grid_validation():
    s = cp.InvertedLogistic(0.5).sample(100, 0)
    with pytest.raises(DomainError):
        est.diagnose_linearity(s, 0.5, [0.5, 0.4, 0.6])

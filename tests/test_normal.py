import math
import warnings

import numpy as np

from raytail import _normal


def test_ndtri_equals_scipy_bitwise():
    from scipy.special import ndtri

    rng = np.random.default_rng(20)
    probs = np.concatenate(
        (
            rng.uniform(0.0, 1.0, 10_000),
            np.exp(-rng.uniform(0.0, 745.0, 6_000)),  # the lower tail to the last subnormals
            1.0 - rng.uniform(0.0, 1e-3, 4_000),  # the upper tail
            [0.0, 1.0, 0.5, 5e-324, 1e-300, 2.0**-53, 1.0 - 2.0**-53, math.exp(-2.0),
             1.0 - math.exp(-2.0), 0.125, 0.875, math.exp(-32.0)],
        )
    )
    want = ndtri(probs).tolist()
    got = [_normal.ndtri(p) for p in probs.tolist()]
    assert [g == w for g, w in zip(got, want)] == [True] * len(want)
    assert math.isnan(_normal.ndtri(-0.1)) and math.isnan(_normal.ndtri(math.nan))


def test_log_ndtr_against_scipy():
    from scipy.special import log_ndtr

    rng = np.random.default_rng(21)
    a = np.concatenate(
        (
            np.linspace(-1e4, 40.0, 200_001),
            np.linspace(-25.0, 40.0, 100_001),
            rng.normal(0.0, 3.0, 50_000),
            [-20.0, -1.0, 1.0, -math.sqrt(2.0), math.sqrt(2.0), 8.0 * math.sqrt(2.0), 0.0],
        )
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _normal.log_ndtr(a)
    want = log_ndtr(a)
    used = np.abs(want) >= 1e-300
    assert used.sum() > 300_000
    rel = np.abs(got[used] - want[used]) / np.abs(want[used])
    assert rel.max() <= 2e-15, (rel.max(), a[used][rel.argmax()])


def test_log_ndtr_shapes_and_special_values():
    from scipy.special import log_ndtr

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        special = _normal.log_ndtr([math.inf, -math.inf, math.nan, -1e300, 1e300])
        scalar = _normal.log_ndtr(0.5)
        empty = _normal.log_ndtr(np.empty((0, 2)))
        grid = _normal.log_ndtr(np.arange(-30.0, 30.0).reshape(3, 4, 5))
    assert special[0] == 0.0 and special[1] == -math.inf and math.isnan(special[2])
    assert special[3] == -math.inf and special[4] == 0.0
    assert scalar.shape == () and math.isclose(scalar, log_ndtr(0.5), rel_tol=2e-15)
    assert empty.shape == (0, 2) and empty.dtype == np.float64
    assert grid.shape == (3, 4, 5)
    assert np.array_equal(grid.ravel(), _normal.log_ndtr(np.arange(-30.0, 30.0)))

import dataclasses
import hashlib
import json
import math
import os
import warnings
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

from raytail import bench, margins
from raytail import copulas as cp
from raytail import estimators as est
from raytail.errors import (
    ConfigError,
    DomainError,
    InsufficientExceedancesError,
    NumericError,
)

ETA_075_ALPHA = -math.log(0.75) / math.log(2.0)


def tiny_config(**kw):
    defaults = dict(
        model=cp.InvertedLogistic(ETA_075_ALPHA),
        reps=6,
        m=600,
        seed_base=42,
        omegas=(0.5, 0.3, 0.1),
    )
    defaults.update(kw)
    return bench.BenchmarkConfig(**defaults)


def test_target_set_values():
    targets = tiny_config(m=5000, omegas=(0.5, 0.25)).targets()
    assert targets.shape == (2, 2) and targets.dtype == np.float64
    t, t_quarter = targets
    y = 1.5 * math.log(5000)
    assert math.isclose(t[0], y, rel_tol=1e-15)
    assert math.isclose(t[1], y, rel_tol=1e-15)
    assert math.isclose(t[0], 12.776, rel_tol=1e-4)

    t = t_quarter
    assert math.isclose(t[0], y / 3.0, rel_tol=1e-12)
    assert math.isclose(t[1], y, rel_tol=1e-15)


def test_target_set_lies_on_ray():
    omegas = (0.05, 0.2, 0.45)
    for w, t in zip(omegas, tiny_config(m=2000, omegas=omegas).targets()):
        x0, y0 = t
        assert math.isclose(y0, (1.0 - w) / w * x0, rel_tol=1e-12)


def test_target_set_rejects_boundary_rays():
    with pytest.raises(DomainError, match="rays"):
        tiny_config(omegas=(0.0,))
    with pytest.raises(DomainError, match="rays"):
        tiny_config(omegas=(1.0,))


def test_config_validation():
    with pytest.raises(DomainError, match="reps"):
        tiny_config(reps=0)
    with pytest.raises(DomainError, match="rays"):
        tiny_config(omegas=(0.5, 1.0))
    with pytest.raises(DomainError, match="methods"):
        tiny_config(methods=("wt", "xx"))
    with pytest.raises(DomainError, match="bivariate"):
        tiny_config(model=cp.TrivariateMaxPareto())
    with pytest.raises(DomainError, match="seed_base"):
        tiny_config(seed_base=-1)


@pytest.mark.parametrize(
    "field,value",
    [
        ("r_draws", 0),
        ("ht_quantile", 0.0),
        ("ht_quantile", 1.5),
        ("rank_transform", "no"),
        ("reps", 2.5),
        ("reps", True),
        ("m", 60.5),
        ("y_corner", -1.0),
    ],
)
def test_config_rejects_field_at_construction(field, value):
    with pytest.raises(ConfigError, match=field) as info:
        tiny_config(**{field: value})
    assert isinstance(info.value, DomainError)
    assert info.value.pointer == f"/{field}"


def test_config_rejects_repeated_methods():
    with pytest.raises(ConfigError, match="repeat") as info:
        tiny_config(methods=["wt", "lt", "wt"])
    assert info.value.pointer == "/methods/2"


def test_config_rejects_a_repeated_ray():
    with pytest.raises(ConfigError, match="repeat") as info:
        tiny_config(omegas=(0.5, 0.3, 0.5))
    assert info.value.pointer == "/omegas/2"


ROUND_TRIP_CONFIGS = [
    bench.BenchmarkConfig(model)
    for model in (
        cp.BivariateNormal(0.5), cp.InvertedLogistic(ETA_075_ALPHA), cp.Morgenstern(-0.3),
        cp.LogisticBEV(0.6), cp.ClaytonLowerTail(1.2),
    )
] + [
    tiny_config(y_corner=7.25),
    tiny_config(rank_transform=True),
    tiny_config(methods=("ht", "wt")),
    tiny_config(y_corner=7.25).quick(),
    bench.BenchmarkConfig(cp.BivariateNormal(0.5), seed_base=77).quick(),
]


@pytest.mark.parametrize("cfg", ROUND_TRIP_CONFIGS)
def test_config_reloads_from_its_json(cfg):
    # a report's config object is a config file, as written and as parsed
    doc = cfg.as_dict()
    assert bench.BenchmarkConfig.from_dict(doc) == cfg
    assert bench.BenchmarkConfig.from_dict(json.loads(json.dumps(doc))) == cfg


def test_quick_keeps_explicit_y_corner():
    assert tiny_config(y_corner=3.0).quick().y_corner == 3.0
    q = tiny_config(m=5000).quick()
    assert q.y_corner == 1.5 * math.log(2000)


def test_config_normalises_numpy_scalars_and_lists():
    cfg = tiny_config(
        reps=np.int64(3), m=np.int32(600), frac=np.float32(0.25),
        omegas=[np.float64(0.5), 0.25], y_corner=np.int64(9),
        methods=["wt"], rank_transform=np.bool_(True), ht_quantile=np.float64(0.9),
    )
    assert (type(cfg.reps), type(cfg.m), type(cfg.y_corner)) == (int, int, float)
    assert (cfg.frac, cfg.omegas, cfg.methods) == (0.25, (0.5, 0.25), ("wt",))
    assert cfg.rank_transform is True
    assert json.loads(json.dumps(cfg.as_dict()))["model"] == {
        "family": "invlog", "alpha": ETA_075_ALPHA
    }


def test_make_model_rejects_foreign_and_missing_parameters():
    with pytest.raises(ConfigError, match="not a parameter") as info:
        cp.make_model("bvn", alpha=0.4)
    assert info.value.pointer == "/alpha"
    with pytest.raises(ConfigError, match="required") as info:
        cp.make_model("bvn")
    assert info.value.pointer == "/rho"
    with pytest.raises(ConfigError, match="number") as info:
        cp.make_model("invlog", alpha="0.5")
    assert info.value.pointer == "/alpha"


def test_config_defaults():
    cfg = bench.BenchmarkConfig(model=cp.BivariateNormal(0.5))
    assert cfg.reps == 500
    assert cfg.m == 5000
    assert cfg.frac == 0.10
    assert cfg.omegas == tuple(round(0.5 - 0.05 * i, 2) for i in range(10))
    assert math.isclose(cfg.y_corner, 1.5 * math.log(5000), rel_tol=1e-15)
    q = cfg.quick()
    assert (q.reps, q.m) == (100, 2000)
    assert math.isclose(q.y_corner, 1.5 * math.log(2000), rel_tol=1e-15)


def test_report_bitwise_deterministic_and_order_independent():
    cfg = tiny_config()
    a = bench.run_benchmark(cfg).as_dict()
    b = bench.run_benchmark(cfg).as_dict()
    assert a == b
    order = np.random.default_rng(0).permutation(cfg.reps).tolist()
    c = bench.run_benchmark(cfg, rep_order=order).as_dict()
    assert a == c


def test_single_replication_report_reproducible():
    cfg = tiny_config(reps=1, model=cp.BivariateNormal(0.5))
    assert bench.run_benchmark(cfg).as_dict() == bench.run_benchmark(cfg).as_dict()


def test_report_rejects_bad_rep_order():
    cfg = tiny_config()
    with pytest.raises(DomainError, match="permutation"):
        bench.run_benchmark(cfg, rep_order=[0, 0, 1, 2, 3, 4])


def test_metric_identities_per_cell():
    rep = bench.run_benchmark(tiny_config())
    for cell in rep.cells:
        if cell.n_reps_used == 0:
            continue
        assert cell.prop_zero + cell.n_nonzero / cell.n_reps_used == pytest.approx(1.0)
        assert 0.0 <= cell.prop_exceed <= 1.0
        assert 0.0 <= cell.prop_zero <= 1.0


def _cells_per_cell_reference(config, log_truths, log_values, lambdas):
    # the report's per-cell aggregation as it was before it became
    # array-wise; log_values and lambdas are (methods, reps, rays)
    cells, failures = [], {}
    for mth, vals, lams in zip(config.methods, log_values, lambdas):
        failures[mth] = int(np.sum(np.all(np.isnan(vals), axis=1)))
        for i, w in enumerate(config.omegas):
            col = vals[:, i]
            used = col[~np.isnan(col)]
            n_used = used.size
            nonzero = used[used > -np.inf]
            if nonzero.size:
                rmse = float(np.sqrt(np.mean((nonzero - log_truths[i]) ** 2)))
            else:
                rmse = math.nan
            prop_exceed = float(np.mean(used > log_truths[i])) if n_used else math.nan
            prop_zero = float(np.mean(used == -np.inf)) if n_used else math.nan
            lcol = lams[:, i][~np.isnan(lams[:, i])]
            mean_lam = lo = hi = math.nan
            if lcol.size:
                mean_lam = float(np.mean(lcol))
                lo = float(est._quantile(lcol, 0.025))
                hi = float(est._quantile(lcol, 0.975))
            cells.append(bench.BenchmarkCell(
                mth, w, math.exp(log_truths[i]), rmse, prop_exceed, prop_zero,
                n_used, int(nonzero.size), mean_lam, lo, hi,
            ))
    return cells, failures


def _bits(cell):
    # every field, floats by their bit pattern
    return [
        (type(v), np.float64(v).tobytes() if isinstance(v, float) else v)
        for v in dataclasses.astuple(cell)
    ]


@pytest.mark.parametrize("reps", [1, 10, 137, 500])
def test_report_cells_bitwise_equal_per_cell_reference(monkeypatch, reps):
    # seeded stand-in replications: per ray a different share of failed
    # (NaN) and zero (-inf) estimates, so the rays' valid counts differ; ray
    # 0.1 fails on every replication and every ht lambda is NaN. 137 and 500
    # replications reach numpy's unrolled pairwise sum
    cfg = tiny_config(reps=reps, omegas=(0.5, 0.4, 0.3, 0.2, 0.1))
    log_truths = cfg.model.log_survivors(cfg.targets()).tolist()
    p_fail = np.array([0.0, 0.05, 0.2, 0.5, 1.0])
    p_zero = np.array([0.0, 0.3, 0.1, 0.0, 0.2])
    seen = {}

    def replicate(config, rep):
        rng = np.random.default_rng([reps, rep])
        shape = (len(config.methods), len(config.omegas))
        logs = np.asarray(log_truths) + rng.normal(0.0, 1.5, shape)
        logs[rng.random(shape) < p_zero] = -np.inf
        logs[rng.random(shape) < p_fail] = np.nan
        lams = rng.gamma(20.0, 0.07, shape)
        lams[np.isnan(logs)] = np.nan
        lams[config.methods.index("ht")] = np.nan
        seen[rep] = np.stack([logs, lams])
        return seen[rep]

    monkeypatch.setenv("RAYTAIL_THREADS", "1")  # the stand-in records in this process
    monkeypatch.setattr(bench, "_run_single_rep", replicate)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = bench.run_benchmark(cfg)
    log_values, lambdas = np.stack([seen[rep] for rep in range(reps)], axis=2)
    cells, failures = _cells_per_cell_reference(cfg, log_truths, log_values, lambdas)
    assert report.n_failures == failures
    assert [_bits(c) for c in report.cells] == [_bits(c) for c in cells]
    counts = {c.n_reps_used for c in report.cells if c.method == "wt"}
    assert 0 in counts and (reps < 10 or len(counts) >= 3)


@pytest.mark.parametrize(
    "grid", [[[0.3, 0.4]], [0.3, math.nan], [math.nan], [0.5, math.inf], 0.5]
)
def test_lambda_recovery_rejects_a_bad_grid_before_any_replication(monkeypatch, grid):
    def replicate(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setenv("RAYTAIL_THREADS", "1")
    monkeypatch.setattr(bench, "_recover_rep", replicate)
    with pytest.raises(DomainError, match="omega grid"):
        bench.lambda_recovery(tiny_config(reps=2), omega_grid=grid)


def test_truth_column_is_exact_survivor():
    cfg = tiny_config()
    rep = bench.run_benchmark(cfg)
    for w, target in zip(cfg.omegas, cfg.targets()):
        expected = cfg.model.survivor(target)
        assert rep.cell("wt", w).true_prob == expected


def test_wt_and_lt_share_diagonal_lambda_summary():
    rep = bench.run_benchmark(tiny_config(reps=10))
    wt = rep.cell("wt", 0.5)
    lt = rep.cell("lt", 0.5)
    assert wt.mean_lambda == lt.mean_lambda
    assert wt.lambda_lo == lt.lambda_lo
    assert wt.lambda_hi == lt.lambda_hi


def test_ht_failures_recorded_not_raised():
    # 30 conditioning exceedances < 50: every replication's ht fit fails
    cfg = tiny_config(m=300, reps=3)
    rep = bench.run_benchmark(cfg)
    assert rep.n_failures["ht"] == 3
    for w in cfg.omegas:
        assert rep.cell("ht", w).n_reps_used == 0
    # other methods unaffected
    assert rep.n_failures["wt"] == 0
    assert rep.cell("wt", 0.5).n_reps_used == 3


def test_a_failed_ht_fit_fills_every_slot():
    # 30 conditioning exceedances < 50 in every replication
    cfg = bench.BenchmarkConfig(cp.InvertedLogistic(0.5), reps=2, m=300)
    slots = est.probabilities(bench._sample(cfg, cfg.seed_base), cfg.targets(), ("ht",))["ht"]
    assert len(slots) == len(cfg.omegas)
    assert isinstance(slots[0], InsufficientExceedancesError)
    assert all(p is slots[0] for p in slots)
    rep = bench.run_benchmark(cfg)
    assert rep.n_failures["ht"] == 2
    assert all(rep.cell("ht", w).n_reps_used == 0 for w in cfg.omegas)


def test_the_study_calls_the_ht_estimator_with_one_seed_per_replication():
    cfg = bench.BenchmarkConfig(cp.InvertedLogistic(0.5), reps=4, m=2000, seed_base=11)
    rep = 3
    row = bench._run_single_rep(cfg, rep)[0, cfg.methods.index("ht")]
    sample = bench._sample(cfg, cfg.seed_base + rep)
    want = [
        est.ht_probability(
            sample, c, cfg.ht_quantile, cfg.r_draws, seed=(cfg.seed_base + rep, 7919)
        ).log_value
        for c in cfg.targets()
    ]
    assert not np.any(np.isnan(row))  # every ht estimate ran
    assert row.tobytes() == np.array(want).tobytes()


def test_underflowing_estimates_are_recorded_zeros():
    # on the diagonal ray at y_corner=520 the wt factor exp(-lambda_hat v)
    # underflows to 0.0 over a non-empty base set; the study scores the log
    # estimate, which stays finite, so it is not a zero
    cfg = bench.BenchmarkConfig(
        cp.BivariateNormal(0.5), reps=3, m=2000, y_corner=520.0
    )
    rep = bench.run_benchmark(cfg)
    assert rep.n_failures == {"wt": 0, "lt": 0, "ht": 0}
    cell = rep.cell("wt", 0.5)
    assert cell.n_reps_used == 3 and cell.prop_zero == 0.0
    assert math.isfinite(cell.rmse_nonzero_log)


def test_study_runs_where_the_truth_underflows():
    # the bvn truth at (600, 600) underflows to 0.0, but its log, about
    # -802, is finite; every wt estimate's log is finite too
    cfg = bench.BenchmarkConfig(
        cp.BivariateNormal(0.5), reps=3, m=2000, y_corner=600.0
    )
    rep = bench.run_benchmark(cfg)
    assert rep.cell("wt", 0.5).true_prob == 0.0
    for w in cfg.omegas:
        cell = rep.cell("wt", w)
        assert cell.n_reps_used == 3 and cell.prop_zero == 0.0, w
        assert math.isfinite(cell.rmse_nonzero_log), w


def test_untyped_errors_surface(monkeypatch):
    # only RaytailError is a recorded replication failure; anything else is
    # a bug and must propagate
    def broken(*args, **kwargs):
        raise TypeError("bug")

    # workers forked earlier do not see a patch made now
    monkeypatch.setenv("RAYTAIL_THREADS", "1")
    monkeypatch.setattr(bench.est, "_hill_rays", broken)
    cfg = tiny_config(reps=1, methods=("wt", "lt"))
    with pytest.raises(TypeError):
        bench.run_benchmark(cfg)
    with pytest.raises(TypeError):
        bench.lambda_recovery(cfg, omega_grid=[0.5])


def test_truth_underflow_raises_before_any_replication(monkeypatch):
    # the bvn log survivor at the diagonal corner (800, 800) lies beyond the
    # model's quadrature range, and a log truth that is not finite fails the
    # study's own check
    def replicate(*args):
        raise AssertionError("a replication ran")

    monkeypatch.setenv("RAYTAIL_THREADS", "1")
    monkeypatch.setattr(bench, "_run_single_rep", replicate)
    cfg = bench.BenchmarkConfig(cp.BivariateNormal(0.5), reps=3, m=2000, y_corner=800.0)
    with pytest.raises(NumericError, match=r"corner \(800.0, 800.0\)"):
        bench.run_benchmark(cfg)
    monkeypatch.setattr(
        cp.BivariateNormal, "log_survivors", lambda self, c: np.full(len(c), -math.inf)
    )
    with pytest.raises(NumericError, match=r"log truth at corner \(6.0, 6.0\) is -inf"):
        bench.run_benchmark(replace(cfg, y_corner=6.0))


def test_a_logistic_study_beyond_the_exp_guard_runs():
    # every log truth of the corners (w/(1-w)*750, 750) is finite
    cfg = bench.BenchmarkConfig(cp.LogisticBEV(0.6), reps=2, m=500, y_corner=750.0, methods=("wt",))
    rep = bench.run_benchmark(cfg)
    assert rep.n_failures == {"wt": 0}
    assert all(c.true_prob == 0.0 and c.n_reps_used == 2 for c in rep.cells)


def _reports_with_threads(monkeypatch, threads):
    if threads is None:
        monkeypatch.delenv("RAYTAIL_THREADS", raising=False)
    else:
        monkeypatch.setenv("RAYTAIL_THREADS", threads)
    cfg = tiny_config(reps=5, m=600)
    order = [3, 0, 4, 2, 1]
    return (
        bench.run_benchmark(cfg).as_dict(),
        bench.run_benchmark(cfg, rep_order=order).as_dict(),
        bench.lambda_recovery(cfg, omega_grid=[0.1, 0.5, 0.9]).as_dict(),
    )


def test_process_pool_matches_serial(monkeypatch):
    serial = _reports_with_threads(monkeypatch, "1")
    assert serial[0] == serial[1]
    assert {c["method"] for c in serial[0]["cells"]} == {"wt", "lt", "ht"}
    assert _reports_with_threads(monkeypatch, None) == serial
    assert _reports_with_threads(monkeypatch, "2") == serial
    assert _reports_with_threads(monkeypatch, "3") == serial


def test_a_rank_transform_study_matches_serial(monkeypatch):
    # with every column long enough for the pool, the rank transform of each
    # replication maps inside a study's chunk, which runs it serially
    monkeypatch.setattr(margins, "_PART_BYTES", 8)
    cfg = tiny_config(reps=4, rank_transform=True)
    digests = {}
    for threads in ("1", "2"):
        monkeypatch.setenv("RAYTAIL_THREADS", threads)
        doc = json.dumps(bench.run_benchmark(cfg).as_dict(), sort_keys=True)
        digests[threads] = hashlib.sha256(doc.encode()).hexdigest()
    assert digests["1"] == digests["2"]


def _exit_on_rep_three(config, rep):
    # reps 2 and 3 form the worker's chunk on 2 processes; the caller runs
    # reps 0 and 1
    if rep == 3:
        os._exit(1)
    return rep


def test_broken_pool_is_dropped(monkeypatch):
    monkeypatch.setenv("RAYTAIL_THREADS", "2")
    cfg = tiny_config(reps=4, m=600)
    with pytest.raises(BrokenProcessPool):
        bench._map_reps(_exit_on_rep_three, cfg, range(cfg.reps))
    pooled = bench.run_benchmark(cfg).as_dict()
    monkeypatch.setenv("RAYTAIL_THREADS", "1")
    assert pooled == bench.run_benchmark(cfg).as_dict()


def test_lambda_recovery_summary():
    cfg = tiny_config(reps=10, m=2000)
    rec = bench.lambda_recovery(cfg, omega_grid=[0.2, 0.5, 0.8])
    assert rec.omegas.tolist() == [0.2, 0.5, 0.8]
    for i, w in enumerate((0.2, 0.5, 0.8)):
        assert math.isclose(rec.true_lambda[i], cfg.model.lam(w), rel_tol=1e-15)
        assert abs(rec.mean_lambda[i] - rec.true_lambda[i]) < 0.15
        assert rec.lo[i] <= rec.mean_lambda[i] <= rec.hi[i]


@pytest.mark.parametrize("model", [
    cp.BivariateNormal(0.5),
    cp.BivariateNormal(-0.3),
    cp.InvertedLogistic(ETA_075_ALPHA),
    cp.InvertedLogistic(1.0),
    cp.Morgenstern(1.0),
    cp.LogisticBEV(0.5),
    cp.ClaytonLowerTail(2.0),
])
@pytest.mark.parametrize("grid", [None, [1e-300, 0.3, 0.5, 0.7, 1.0 - 2**-53]])
def test_lambda_recovery_true_lambda_bitwise_equals_model_lam(monkeypatch, model, grid):
    monkeypatch.setenv("RAYTAIL_THREADS", "1")
    rec = bench.lambda_recovery(bench.BenchmarkConfig(model, reps=1, m=200), omega_grid=grid)
    want = np.array([model.lam(w) for w in rec.omegas])
    assert rec.true_lambda.tobytes() == want.tobytes()


def test_lambda_recovery_dict_writes_null_for_a_ray_that_always_fails():
    # 3 exceedances of 60 at frac=0.05: every fit on the ray fails
    cfg = bench.BenchmarkConfig(cp.InvertedLogistic(0.5), reps=2, m=60, frac=0.05)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no all-NaN slice reaches numpy
        doc = bench.lambda_recovery(cfg, omega_grid=[0.5]).as_dict()
    assert (doc["mean_lambda"], doc["lo"], doc["hi"]) == ([None], [None], [None])
    assert json.loads(json.dumps(doc, allow_nan=False)) == doc


def _plain_by_container(value):
    # the JSON walk with the containers tested before the leaves
    if isinstance(value, cp.CopulaModel):
        return value.as_dict()
    if dataclasses.is_dataclass(value):
        return {f.name: _plain_by_container(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return _plain_by_container(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_plain_by_container(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain_by_container(v) for k, v in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def test_json_walk_writes_the_same_bytes_as_a_container_first_walk():
    # the report's ht cells carry NaN lambda summaries, and every fit of the
    # curve fails (3 exceedances of 60), so both write null
    report = bench.run_benchmark(tiny_config(reps=2))
    want = _plain_by_container(report)
    del want["wall_seconds"]
    cfg = bench.BenchmarkConfig(cp.InvertedLogistic(0.5), reps=2, m=60, frac=0.05)
    curve = bench.lambda_recovery(cfg, omega_grid=[0.3, 0.5])
    for got, want in ((report.as_dict(), want), (curve.as_dict(), _plain_by_container(curve))):
        text = json.dumps(got, sort_keys=True)
        assert text == json.dumps(want, sort_keys=True)
        assert "null" in text


def test_lambda_recovery_summaries_bitwise_equal_per_ray_mean_and_nanquantile(monkeypatch):
    # a stand-in for the ray kernel fails ray 0 on every replication and the
    # others on some, by leaving them no exceedance
    hill_rays, seen = est._hill_rays, []

    def flaky(x, y, w, frac):
        us, k, lam = hill_rays(x, y, w, frac)
        rep = len(seen)
        seen.append([
            math.nan if j == 0 or (rep + j) % 3 == 0 else lam[j] for j in range(w.size)
        ])
        return us, np.where(np.isnan(seen[-1]), 0, k), np.array(seen[-1])

    monkeypatch.setenv("RAYTAIL_THREADS", "1")  # the stand-in records in this process
    monkeypatch.setattr(est, "_hill_rays", flaky)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = bench.lambda_recovery(tiny_config(reps=12, m=300))
    fits = np.array(seen)
    # the mean of each ray's valid fits, as the study's cells take it
    means = [np.mean(col[~np.isnan(col)]) if np.any(~np.isnan(col)) else math.nan
             for col in fits.T]
    assert math.isnan(means[0])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # ray 0: all-NaN slice
        want = (
            np.array(means),
            np.nanquantile(fits, 0.025, axis=0),
            np.nanquantile(fits, 0.975, axis=0),
        )
    for got, ref in zip((rec.mean_lambda, rec.lo, rec.hi), want):
        assert got.tobytes() == ref.tobytes()


def test_recovered_lambdas_are_bitwise_the_ray_fits(monkeypatch):
    # the curve reads the ray kernel's lambda_hat; on these small samples
    # with tied values the rays near 0 and 1 have fewer than 5 exceedances,
    # and their slots must read NaN where fit_lambda_rays holds the error
    def tied(config, seed):
        return margins.ExponentialSample(np.floor(2.0 * config.model.sample(config.m, seed).points))

    monkeypatch.setattr(bench, "_sample", tied)
    cfg = tiny_config(model=cp.BivariateNormal(0.5), reps=2, m=60)
    grid = np.round(np.arange(0.01, 0.995, 0.01), 4)
    for rep in range(cfg.reps):
        got = bench._recover_rep(cfg, rep, grid)
        fits = est.fit_lambda_rays(tied(cfg, cfg.seed_base + rep), grid, frac=cfg.frac)
        want = np.array([
            f.lambda_hat if isinstance(f, est.AngularFit) else math.nan for f in fits
        ])
        assert got.tobytes() == want.tobytes()
        assert isinstance(fits[0], InsufficientExceedancesError)
        assert isinstance(fits[-1], InsufficientExceedancesError)
        assert np.isnan(got[[0, -1]]).all() and not np.isnan(got[49])


def test_lambda_recovery_boundary_rays_near_unit_rate():
    cfg = tiny_config(reps=30, m=5000)
    rec = bench.lambda_recovery(cfg, omega_grid=[0.01, 0.99])
    # beside either axis the structure variable is nearly the marginal
    # coordinate, whose rate is 1; a single fit's s.e. is lambda/sqrt(k)
    k = cfg.frac * cfg.m
    for i in range(2):
        se = rec.mean_lambda[i] / math.sqrt(k)
        assert abs(rec.mean_lambda[i] - 1.0) <= 2.0 * se


def test_tidy_rows_long_format():
    rep = bench.run_benchmark(tiny_config(reps=2))
    rows = rep.tidy_rows()
    assert all(len(r) == 4 for r in rows)
    methods = {r[0] for r in rows}
    assert methods == {"wt", "lt", "ht"}
    metrics = {r[2] for r in rows}
    assert "rmse_nonzero_log" in metrics or "prop_zero" in metrics

"""Seeded simulation benchmark comparing the three tail estimators.

For each replication a fresh sample is drawn, each estimator is pointed at
the same family of corners (one per ray), and the estimates are compared
against the exact survivor of the generating model. Per (method, ray) cell
the report carries the root mean squared error of the non-zero log
estimates, the proportion of estimates exceeding the truth (zero estimates
never exceed), the proportion of exactly-zero estimates, and for the ray
and diagonal methods the mean fitted angular index with its 95% envelope.

Replications are keyed by seed_base + rep, so the report is a pure
function of the configuration: reruns are bitwise identical and the
execution order of replications is irrelevant. Set the environment
variable RAYTAIL_THREADS > 1 to evaluate replications in a process pool.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import estimators as est
from . import margins
from .copulas import CopulaModel, SurvivorSet
from .errors import ConfigError, DomainError, RaytailError

DEFAULT_OMEGAS = tuple(round(0.5 - 0.05 * i, 2) for i in range(10))
METHODS = ("wt", "lt", "ht")


def _integer(name, value, lo):
    ok = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if ok and value >= lo:
        return int(value)
    raise ConfigError(f"/{name}", f"{name} must be an integer >= {lo}, got {value!r}")


def _number(name, value, hi=1.0, pointer=None):
    # every real field of the config lies in an open interval (0, hi)
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if ok and 0.0 < value < hi:
        return float(value)
    raise ConfigError(
        pointer or f"/{name}", f"{name} must be a number in (0, {hi:g}), got {value!r}"
    )


def _boolean(name, value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ConfigError(f"/{name}", f"{name} must be a boolean, got {value!r}")


def _method(pointer, value):
    if isinstance(value, str) and value in METHODS:
        return str(value)
    raise ConfigError(pointer, f"methods must be one of {METHODS}, got {value!r}")


def _sequence(name, value, item):
    """``value`` as a non-empty tuple, each element checked by ``item``."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) == 0:
        raise ConfigError(f"/{name}", f"{name} must be a non-empty list, got {value!r}")
    return tuple(item(f"/{name}/{i}", v) for i, v in enumerate(value))


def _methods(value):
    methods = _sequence("methods", value, _method)
    for i, mth in enumerate(methods):
        if mth in methods[:i]:
            raise ConfigError(f"/methods/{i}", f"methods must not repeat, got {mth!r} twice")
    return methods


def _plain(value):
    """JSON form of a config or report value: models as ``as_dict()``, other
    dataclasses field by field, tuples as lists and NaN as null."""
    if isinstance(value, CopulaModel):
        return value.as_dict()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


@dataclass(frozen=True)
class BenchmarkConfig:
    """Configuration of the replication study.

    Construction checks the type and range of every field and normalises it
    (integers to ``int``, reals to ``float``, sequences to tuples). A bad
    field raises ConfigError carrying the JSON pointer of the field in
    ``as_dict()``, such as ``/reps`` or ``/omegas/1``.
    """

    model: CopulaModel
    reps: int = 500
    m: int = 5000
    frac: float = 0.10
    omegas: tuple = DEFAULT_OMEGAS
    y_corner: float = None
    seed_base: int = 0
    methods: tuple = METHODS
    rank_transform: bool = False
    r_draws: int = 10_000
    ht_quantile: float = 0.90

    def __post_init__(self):
        if not isinstance(self.model, CopulaModel) or self.model.dim != 2:
            raise ConfigError(
                "/model",
                f"the benchmark compares bivariate estimators only, got {self.model!r}",
            )
        checked = {
            "reps": _integer("reps", self.reps, 1),
            "m": _integer("m", self.m, 50),
            "frac": _number("frac", self.frac),
            "omegas": _sequence(
                "omegas", self.omegas, lambda p, w: _number("rays", w, pointer=p)
            ),
            "y_corner": None
            if self.y_corner is None
            else _number("y_corner", self.y_corner, math.inf),
            "seed_base": _integer("seed_base", self.seed_base, 0),
            "methods": _methods(self.methods),
            "rank_transform": _boolean("rank_transform", self.rank_transform),
            "r_draws": _integer("r_draws", self.r_draws, 1),
            "ht_quantile": _number("ht_quantile", self.ht_quantile),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)
        if self.y_corner is None:
            object.__setattr__(self, "y_corner", 1.5 * math.log(self.m))

    def quick(self) -> "BenchmarkConfig":
        """CI profile: 100 replications of size 2000. A y_corner at its
        default 1.5*log(m) follows the new m; any other value is kept."""
        default = self.y_corner == 1.5 * math.log(self.m)
        return replace(self, reps=100, m=2000, y_corner=None if default else self.y_corner)

    def targets(self):
        return [
            SurvivorSet((w / (1.0 - w) * self.y_corner, self.y_corner))
            for w in self.omegas
        ]

    def as_dict(self) -> dict:
        return _plain(self)


@dataclass(frozen=True)
class BenchmarkCell:
    """Aggregated metrics for one (method, ray) combination."""

    method: str
    omega: float
    true_prob: float
    rmse_nonzero_log: float
    prop_exceed: float
    prop_zero: float
    n_reps_used: int
    n_nonzero: int
    mean_lambda: float = math.nan
    lambda_lo: float = math.nan
    lambda_hi: float = math.nan


@dataclass(frozen=True)
class BenchmarkReport:
    config: dict
    n_failures: dict
    cells: tuple
    wall_seconds: float

    def cell(self, method, omega) -> BenchmarkCell:
        for c in self.cells:
            if c.method == method and abs(c.omega - omega) < 1e-12:
                return c
        raise KeyError(f"no cell for ({method}, {omega})")

    def as_dict(self) -> dict:
        # wall_seconds stays out: the report must be a pure function of the
        # configuration, bitwise reproducible across reruns
        doc = _plain(self)
        del doc["wall_seconds"]
        return doc

    def tidy_rows(self):
        """Long-format rows (method, omega, metric, value) for plotting."""
        rows = []
        for c in self.cells:
            for metric in (
                "true_prob",
                "rmse_nonzero_log",
                "prop_exceed",
                "prop_zero",
                "mean_lambda",
                "lambda_lo",
                "lambda_hi",
            ):
                val = getattr(c, metric)
                if isinstance(val, float) and math.isnan(val):
                    continue
                rows.append((c.method, c.omega, metric, val))
        return rows


def _ht_draw_seed(seed_rep, omega_index):
    # distinct deterministic stream per (replication, ray); independent of
    # execution order
    return (int(seed_rep), 7919, int(omega_index))


def _slots(batch, get):
    # NaN where a slot of a batch estimate holds the typed error of a failed ray
    return np.array([math.nan if isinstance(r, RaytailError) else get(r) for r in batch])


def _run_single_rep(config: BenchmarkConfig, rep: int) -> dict:
    """One replication; returns per-method estimate/lambda arrays (NaN on
    failure) so aggregation stays order-independent."""
    seed = config.seed_base + rep
    sample = config.model.sample(config.m, seed)
    if config.rank_transform:
        sample = margins.rank_transform(sample.points)
    targets = config.targets()
    out = {}

    if "wt" in config.methods:
        ests = est.wt_probabilities_at(sample, targets, frac=config.frac)
        out["wt"] = {
            "values": _slots(ests, lambda p: p.value),
            "lambda": _slots(ests, lambda p: p.meta["lambda_hat"]),
        }

    if "lt" in config.methods:
        ests = est.lt_probabilities(sample, targets, frac=config.frac)
        out["lt"] = {
            "values": _slots(ests, lambda p: p.value),
            "lambda": _slots(ests, lambda p: p.meta["lambda_half"]),
        }

    if "ht" in config.methods:
        values = np.full(len(config.omegas), np.nan)
        # every ray's event threshold is y_corner, so a ray that cannot be
        # extrapolated means none can: one failure ends the sample's rays
        try:
            fit_h = est.fit_ht(sample, quantile=config.ht_quantile)
            for i, w in enumerate(config.omegas):
                values[i] = est.ht_probability(
                    fit_h,
                    w,
                    config.y_corner / (1.0 - w),
                    r=config.r_draws,
                    seed=_ht_draw_seed(seed, i),
                ).value
        except RaytailError:
            pass
        out["ht"] = {"values": values}
    return out


def _worker_count() -> int:
    raw = os.environ.get("RAYTAIL_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_benchmark(config: BenchmarkConfig, rep_order=None) -> BenchmarkReport:
    """Run the full replication study and aggregate the report.

    ``rep_order`` permutes the execution order only; results are stored by
    replication index, so any order yields the identical report.
    """
    t_start = time.perf_counter()
    n_omegas = len(config.omegas)
    order = list(range(config.reps)) if rep_order is None else list(rep_order)
    if sorted(order) != list(range(config.reps)):
        raise DomainError("rep_order must be a permutation of range(reps)")

    values = {
        mth: np.full((config.reps, n_omegas), np.nan) for mth in config.methods
    }
    lambdas = {
        mth: np.full((config.reps, n_omegas), np.nan)
        for mth in config.methods
        if mth in ("wt", "lt")
    }

    workers = _worker_count()
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = dict(
                zip(order, pool.map(_run_single_rep, [config] * len(order), order))
            )
    else:
        results = {rep: _run_single_rep(config, rep) for rep in order}

    for rep, res in results.items():
        for mth in config.methods:
            values[mth][rep] = res[mth]["values"]
            if mth in lambdas:
                lambdas[mth][rep] = res[mth]["lambda"]

    truths = [config.model.survivor(t) for t in config.targets()]
    cells = []
    failures = {}
    for mth in config.methods:
        vals = values[mth]
        failures[mth] = int(np.sum(np.all(np.isnan(vals), axis=1)))
        for i, w in enumerate(config.omegas):
            col = vals[:, i]
            used = col[~np.isnan(col)]
            n_used = used.size
            nonzero = used[used > 0.0]
            if nonzero.size:
                rmse = float(
                    np.sqrt(np.mean((np.log(nonzero) - math.log(truths[i])) ** 2))
                )
            else:
                rmse = math.nan
            prop_exceed = float(np.mean(used > truths[i])) if n_used else math.nan
            prop_zero = float(np.mean(used == 0.0)) if n_used else math.nan
            mean_lam = lo = hi = math.nan
            if mth in lambdas:
                lcol = lambdas[mth][:, i]
                lcol = lcol[~np.isnan(lcol)]
                if lcol.size:
                    mean_lam = float(np.mean(lcol))
                    lo = float(np.quantile(lcol, 0.025))
                    hi = float(np.quantile(lcol, 0.975))
            cells.append(
                BenchmarkCell(
                    method=mth,
                    omega=w,
                    true_prob=truths[i],
                    rmse_nonzero_log=rmse,
                    prop_exceed=prop_exceed,
                    prop_zero=prop_zero,
                    n_reps_used=n_used,
                    n_nonzero=int(nonzero.size),
                    mean_lambda=mean_lam,
                    lambda_lo=lo,
                    lambda_hi=hi,
                )
            )
    return BenchmarkReport(
        config=config.as_dict(),
        cells=tuple(cells),
        n_failures=failures,
        wall_seconds=time.perf_counter() - t_start,
    )


@dataclass(frozen=True)
class LambdaRecovery:
    """Per-ray summary of repeated angular-index fits."""

    omegas: np.ndarray
    true_lambda: np.ndarray
    mean_lambda: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    reps: int

    def as_dict(self):
        # a ray whose every fit failed has NaN summaries, written as null
        return _plain({
            "reps": self.reps,
            "omegas": self.omegas.tolist(),
            "true_lambda": self.true_lambda.tolist(),
            "mean_lambda": self.mean_lambda.tolist(),
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
        })


def lambda_recovery(config: BenchmarkConfig, omega_grid=None) -> LambdaRecovery:
    """Repeatedly fit the angular index across a ray grid and summarize
    against the generating model's closed form."""
    if omega_grid is None:
        omega_grid = np.round(np.arange(0.01, 0.995, 0.01), 4)
    grid = np.asarray(omega_grid, dtype=np.float64)
    if np.any((grid <= 0.0) | (grid >= 1.0)):
        raise DomainError("omega grid must lie strictly inside (0, 1)")
    fits = np.full((config.reps, grid.size), np.nan)
    for rep in range(config.reps):
        sample = config.model.sample(config.m, config.seed_base + rep)
        if config.rank_transform:
            sample = margins.rank_transform(sample.points)
        fits[rep] = _slots(
            est.fit_lambda_rays(sample, grid, frac=config.frac), lambda f: f.lambda_hat
        )
    return LambdaRecovery(
        omegas=grid,
        true_lambda=np.array([config.model.lam(w) for w in grid]),
        mean_lambda=np.nanmean(fits, axis=0),
        lo=np.nanquantile(fits, 0.025, axis=0),
        hi=np.nanquantile(fits, 0.975, axis=0),
        reps=config.reps,
    )

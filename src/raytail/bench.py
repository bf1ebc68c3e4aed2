"""Seeded simulation benchmark comparing the three tail estimators.

For each replication a fresh sample is drawn, each estimator is pointed at
the same family of corners (one per ray), and the log estimates are compared
against the exact log survivor of the generating model. Per (method, ray)
cell the report carries the root mean squared error of the non-zero log
estimates, the proportion of estimates exceeding the truth (zero estimates
never exceed), the proportion of zero estimates, and for the ray and
diagonal methods the mean fitted angular index with its 95% envelope.

Replications are keyed by seed_base + rep, so the report is a pure
function of the configuration: reruns are bitwise identical and the
execution order of replications is irrelevant. The ``ht`` draws of seed s
are one set, seeded by (s, 7919) and shared by its rays. Replications run
in the package's one process pool (``_pool``), forked once per process and
shared with the CSV reader, with as many workers as the environment
variable RAYTAIL_THREADS says (default: the usable cores);
RAYTAIL_THREADS=1 runs them serially in the caller.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import _pool, margins
from . import estimators as est
from .copulas import CopulaModel, _corners
from .errors import ConfigError, DomainError, NumericError, RaytailError

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
    dataclasses field by field, tuples and arrays as lists and NaN as null.
    The leaves, most of the nodes, are tested first."""
    if isinstance(value, float):
        return None if math.isnan(value) else value
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, CopulaModel):
        return value.as_dict()
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return _plain(value.tolist())
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
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

    def targets(self) -> np.ndarray:
        """The (rays, 2) array of corners (w/(1-w) y_corner, y_corner)."""
        corners = [(w / (1.0 - w) * self.y_corner, self.y_corner) for w in self.omegas]
        return _corners(corners, 2)

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


def _slots(batch, get):
    # NaN where a slot of a batch estimate holds the typed error of a failed ray
    return np.array([math.nan if isinstance(r, RaytailError) else get(r) for r in batch])


def _sample(config: BenchmarkConfig, seed: int):
    sample = config.model.sample(config.m, seed)
    return margins.rank_transform(sample.points) if config.rank_transform else sample


def _run_single_rep(config: BenchmarkConfig, rep: int) -> np.ndarray:
    """One replication: a (2, methods, rays) array of log estimates and of
    fitted lambdas, NaN where an estimate failed and for ht's lambda, so
    aggregation stays order-independent."""
    seed = config.seed_base + rep
    sample = _sample(config, seed)
    targets = config.targets()
    out = np.full((2, len(config.methods), len(targets)), np.nan)
    for j, mth in enumerate(config.methods):
        if mth == "wt":
            ests, lam = est.wt_probabilities_at(sample, targets, frac=config.frac), "lambda_hat"
        elif mth == "lt":
            ests, lam = est.lt_probabilities(sample, targets, frac=config.frac), "lambda_half"
        else:
            ests, lam = est.ht_probabilities(
                sample, targets, config.ht_quantile, config.r_draws, seed=(int(seed), 7919)
            ), None
        out[0, j] = _slots(ests, lambda p: p.log_value)
        if lam:
            out[1, j] = _slots(ests, lambda p: p.meta[lam])
    return out


def _map_reps(fn, config, order, *args):
    """``{rep: fn(config, rep, *args)}`` for every rep of ``order``, run on the
    package's process pool. Results are keyed by replication, so they are
    bitwise the serial ones."""
    n = len(order)
    return dict(zip(order, _pool.map(fn, [config] * n, order, *([a] * n for a in args))))


def run_benchmark(config: BenchmarkConfig, rep_order=None) -> BenchmarkReport:
    """Run the full replication study and aggregate the report.

    ``rep_order`` permutes the execution order only; results are stored by
    replication index, so any order yields the identical report. Raises
    NumericError when a log truth is not a finite number <= 0, before any
    replication runs.
    """
    t_start = time.perf_counter()
    order = list(range(config.reps)) if rep_order is None else list(rep_order)
    if sorted(order) != list(range(config.reps)):
        raise DomainError("rep_order must be a permutation of range(reps)")

    # truths first: what they import before the pool forks, every worker
    # inherits instead of importing
    targets = config.targets()
    log_truths = config.model.log_survivors(targets).tolist()
    for t, lp in zip(targets, log_truths):
        if not -math.inf < lp <= 0.0:
            raise NumericError(
                f"the log truth at corner {tuple(t.tolist())} is {lp!r}, not a log probability"
            )

    results = _map_reps(_run_single_rep, config, order)
    log_values, lambdas = np.stack([results[rep] for rep in range(config.reps)], axis=2)

    cells = []
    failures = {}
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
            cells.append(
                BenchmarkCell(
                    method=mth,
                    omega=w,
                    true_prob=math.exp(log_truths[i]),
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

    reps: int
    omegas: np.ndarray
    true_lambda: np.ndarray
    mean_lambda: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    def as_dict(self):
        # a ray whose every fit failed has NaN summaries, written as null
        return _plain(self)


def _recover_rep(config: BenchmarkConfig, rep: int, grid) -> np.ndarray:
    """One replication's angular-index fits over ``grid``; NaN on failure."""
    fits = est.fit_lambda_rays(_sample(config, config.seed_base + rep), grid, frac=config.frac)
    return _slots(fits, lambda f: f.lambda_hat)


def lambda_recovery(config: BenchmarkConfig, omega_grid=None) -> LambdaRecovery:
    """Repeatedly fit the angular index across a ray grid and summarize
    against the generating model's closed form."""
    if omega_grid is None:
        omega_grid = np.round(np.arange(0.01, 0.995, 0.01), 4)
    grid = np.asarray(omega_grid, dtype=np.float64)
    if np.any((grid <= 0.0) | (grid >= 1.0)):
        raise DomainError("omega grid must lie strictly inside (0, 1)")
    fits = np.array(list(_map_reps(_recover_rep, config, range(config.reps), grid).values()))
    ok = ~np.isnan(fits)
    # np.nanmean's own sum and count over the whole array, so the mean is
    # bitwise its value; 0/0 gives NaN where every fit of a ray failed
    with np.errstate(invalid="ignore"):
        mean = np.sum(np.where(ok, fits, 0.0), axis=0) / np.count_nonzero(ok, axis=0)
    cols = [fits[ok[:, j], j] for j in range(grid.size)]
    lo = np.array([est._quantile(c, 0.025) if c.size else math.nan for c in cols])
    hi = np.array([est._quantile(c, 0.975) if c.size else math.nan for c in cols])
    return LambdaRecovery(
        omegas=grid,
        true_lambda=np.array([config.model.lam(w) for w in grid]),
        mean_lambda=mean,
        lo=lo,
        hi=hi,
        reps=config.reps,
    )

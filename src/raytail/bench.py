"""Seeded simulation benchmark comparing the three tail estimators.

For each replication a fresh sample is drawn, each estimator is pointed at
the same family of corners (one per ray), and the log estimates are compared
against the exact log survivor of the generating model. Per (method, ray)
cell the report carries the root mean squared error of the non-zero log
estimates, the proportion of estimates exceeding the truth (zero estimates
never exceed), the proportion of zero estimates, and for the ray and
diagonal methods the mean fitted angular index with its 95% envelope.
The cells are aggregated array-wise: per method, the replications of each
ray are one contiguous row, and the rays with equal valid counts are
compressed into one array, whose row sums and quantiles are bitwise each
cell's own np.mean and quantile.

Replications are keyed by seed_base + rep, so the report is a pure
function of the configuration: reruns are bitwise identical and the
execution order of replications is irrelevant. Each sample's estimates
come from one ``estimators.probabilities`` call, in which ``wt`` and ``lt``
share one ray batch; the angular curve of ``lambda_recovery`` reads the ray
kernel's arrays directly. The ``ht`` draws of seed s are one set, seeded by
(s, 7919) and shared by its rays.
Replications run in the package's one process pool (``_pool``), shared
with the CSV reader: the environment variable RAYTAIL_THREADS says how many
processes share a study, the caller included (default: the usable cores).
The caller runs the first contiguous chunk of replications itself and
forked workers run the others; RAYTAIL_THREADS=1 runs them all serially in
the caller.
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
from .estimators import METHODS

DEFAULT_OMEGAS = tuple(round(0.5 - 0.05 * i, 2) for i in range(10))


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
    """``value`` as a non-empty tuple without repeats, each element checked
    by ``item``."""
    if not isinstance(value, (list, tuple, np.ndarray)) or len(value) == 0:
        raise ConfigError(f"/{name}", f"{name} must be a non-empty list, got {value!r}")
    checked = tuple(item(f"/{name}/{i}", v) for i, v in enumerate(value))
    for i, v in enumerate(checked):
        if v in checked[:i]:
            raise ConfigError(f"/{name}/{i}", f"{name} must not repeat, got {v!r} twice")
    return checked


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
            "methods": _sequence("methods", self.methods, _method),
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
    batch = est.probabilities(
        _sample(config, seed),
        config.targets(),
        methods=config.methods,
        frac=config.frac,
        quantile=config.ht_quantile,
        r=config.r_draws,
        seed=(int(seed), 7919),
    )
    out = np.full((2, len(config.methods), len(config.omegas)), np.nan)
    for j, (mth, ests) in enumerate(batch.items()):
        out[0, j] = _slots(ests, lambda p: p.log_value)
        lam = {"wt": "lambda_hat", "lt": "lambda_half"}.get(mth)
        if lam:
            out[1, j] = _slots(ests, lambda p: p.meta[lam])
    return out


def _map_reps(fn, config, order, *args):
    """``{rep: fn(config, rep, *args)}`` for every rep of ``order``, run on the
    package's process pool. Results are keyed by replication, so they are
    bitwise the serial ones."""
    n = len(order)
    return dict(zip(order, _pool.map(fn, [config] * n, order, *([a] * n for a in args))))


def _shares(hits, n):
    # each row's count of hits over n, exactly; NaN where n is 0
    out = np.full(n.size, math.nan)
    return np.divide(np.count_nonzero(hits, axis=1), n, out=out, where=n > 0)


def _row_stats(v, ok, qs=(), mean=True):
    """Per row of ``v``, over its entries where ``ok``: the mean (if
    ``mean``) and the ``_quantile`` at each of ``qs`` (NaN for a row with
    none), and the counts. The rows with c such entries are compressed into
    one (rows, c) array, in replication order; a row's np.add.reduce there
    divided by c is bitwise np.mean of that row alone."""
    counts = np.count_nonzero(ok, axis=1)
    first = int(mean)  # the row of the first quantile
    out = np.full((first + len(qs), len(v)), math.nan)
    # a set, not np.unique: its sort code alone adds 0.6 MB of resident
    # pages to a process that sorts nothing else
    for c in set(counts.tolist()) - {0}:
        rows = counts == c
        kept = v[rows].ravel().compress(ok[rows].ravel()).reshape(-1, c)
        if mean:
            out[0, rows] = np.add.reduce(kept, axis=1) / c
        for j, q in enumerate(qs, first):
            out[j, rows] = est._quantile(kept, q)
    return out, counts


def run_benchmark(config: BenchmarkConfig, rep_order=None) -> BenchmarkReport:
    """Run the full replication study and aggregate the report.

    ``rep_order`` permutes the execution order only; results are stored by
    replication index, so any order yields the identical report. Raises
    NumericError when a log truth is not a finite number <= 0, before any
    replication runs. Proportions come from exact counts, and the RMSE and
    lambda summaries from ``_row_stats``.
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
    # (2, methods, rays, reps): each ray's replications are one contiguous row
    log_values, lambdas = np.stack([results[rep] for rep in range(config.reps)], axis=-1)
    truths = np.array(log_truths)[:, None]

    cells = []
    failures = {}
    for mth, vals, lams in zip(config.methods, log_values, lambdas):
        used = ~np.isnan(vals)
        failures[mth] = int(np.count_nonzero(~used.any(axis=0)))
        n_used = np.count_nonzero(used, axis=1)
        prop_exceed = _shares(vals > truths, n_used)
        prop_zero = _shares(vals == -np.inf, n_used)
        (mse,), n_nonzero = _row_stats((vals - truths) ** 2, vals > -np.inf)
        lam, _ = _row_stats(lams, ~np.isnan(lams), (0.025, 0.975))
        for w, lt, *stats in zip(
            config.omegas,
            log_truths,
            *(a.tolist() for a in (np.sqrt(mse), prop_exceed, prop_zero, n_used, n_nonzero)),
            *lam.tolist(),
        ):
            cells.append(BenchmarkCell(mth, w, math.exp(lt), *stats))
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
    """One replication's angular-index fits over ``grid``: the ray kernel's
    lambda_hat, NaN where the fit fails."""
    sample = _sample(config, config.seed_base + rep)
    return est._hill_rays(sample.x, sample.y, grid, config.frac)[2]


def lambda_recovery(config: BenchmarkConfig, omega_grid=None) -> LambdaRecovery:
    """Repeatedly fit the angular index across a ray grid and summarize
    against the generating model's closed form."""
    if omega_grid is None:
        omega_grid = np.round(np.arange(0.01, 0.995, 0.01), 4)
    grid = np.asarray(omega_grid, dtype=np.float64)
    # NaN fails both comparisons
    if grid.ndim != 1 or not np.all((grid > 0.0) & (grid < 1.0)):
        raise DomainError("omega grid must be a 1-D list of numbers strictly inside (0, 1)")
    fits = np.array(list(_map_reps(_recover_rep, config, range(config.reps), grid).values()))
    ok = ~np.isnan(fits)
    (lo, hi), n_ok = _row_stats(fits.T, ok.T, (0.025, 0.975), mean=False)
    # the curve's digest holds np.nanmean's value, a sum over the (reps,
    # rays) array in replication order, not _row_stats' pairwise row sum;
    # 0/0 gives NaN where every fit of a ray failed
    with np.errstate(invalid="ignore"):
        mean = np.sum(np.where(ok, fits, 0.0), axis=0) / n_ok
    # the grid is checked above, so each ray's lam(w) is the family's own
    # _kappa(w, 1 - w), without lam's checks
    kappa = config.model._kappa
    return LambdaRecovery(
        omegas=grid,
        true_lambda=np.array([kappa(w, 1.0 - w) for w in grid.tolist()]),
        mean_lambda=mean,
        lo=lo,
        hi=hi,
        reps=config.reps,
    )

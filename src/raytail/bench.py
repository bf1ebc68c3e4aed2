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
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import estimators as est
from . import margins
from .copulas import CopulaModel, SurvivorSet
from .errors import DomainError, RaytailError

DEFAULT_OMEGAS = tuple(round(0.5 - 0.05 * i, 2) for i in range(10))
METHODS = ("wt", "lt", "ht")


@dataclass(frozen=True)
class BenchmarkConfig:
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
        if self.model.dim != 2:
            raise DomainError("the benchmark compares bivariate estimators only")
        if self.reps < 1:
            raise DomainError(f"reps must be >= 1, got {self.reps}")
        if self.m < 50:
            raise DomainError(f"sample size must be >= 50, got {self.m}")
        if not 0.0 < self.frac < 1.0:
            raise DomainError(f"frac must lie in (0, 1), got {self.frac}")
        if self.seed_base < 0:
            raise DomainError(f"seed_base must be >= 0, got {self.seed_base}")
        omegas = tuple(float(w) for w in self.omegas)
        if not omegas or any(not 0.0 < w < 1.0 for w in omegas):
            raise DomainError(f"all rays must lie in (0, 1): {omegas}")
        bad = [mth for mth in self.methods if mth not in METHODS]
        if bad:
            raise DomainError(f"unknown methods {bad}; choose from {METHODS}")
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "methods", tuple(self.methods))
        if self.y_corner is None:
            object.__setattr__(self, "y_corner", 1.5 * math.log(self.m))

    def quick(self) -> "BenchmarkConfig":
        """CI profile: 100 replications of size 2000."""
        return replace(self, reps=100, m=2000, y_corner=None)

    def targets(self):
        return [
            SurvivorSet((w / (1.0 - w) * self.y_corner, self.y_corner))
            for w in self.omegas
        ]

    def as_dict(self) -> dict:
        return {
            "model": {"family": self.model.family, **self.model.params},
            "reps": self.reps,
            "m": self.m,
            "frac": self.frac,
            "omegas": list(self.omegas),
            "y_corner": self.y_corner,
            "seed_base": self.seed_base,
            "methods": list(self.methods),
            "rank_transform": self.rank_transform,
            "r_draws": self.r_draws,
            "ht_quantile": self.ht_quantile,
        }


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
    cells: tuple
    n_failures: dict
    wall_seconds: float

    def cell(self, method, omega) -> BenchmarkCell:
        for c in self.cells:
            if c.method == method and abs(c.omega - omega) < 1e-12:
                return c
        raise KeyError(f"no cell for ({method}, {omega})")

    def as_dict(self) -> dict:
        # wall_seconds stays out: the report must be a pure function of the
        # configuration, bitwise reproducible across reruns
        def _clean(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        return {
            "config": self.config,
            "n_failures": dict(self.n_failures),
            "cells": [
                {
                    "method": c.method,
                    "omega": c.omega,
                    "true_prob": c.true_prob,
                    "rmse_nonzero_log": _clean(c.rmse_nonzero_log),
                    "prop_exceed": c.prop_exceed,
                    "prop_zero": c.prop_zero,
                    "n_reps_used": c.n_reps_used,
                    "n_nonzero": c.n_nonzero,
                    "mean_lambda": _clean(c.mean_lambda),
                    "lambda_lo": _clean(c.lambda_lo),
                    "lambda_hi": _clean(c.lambda_hi),
                }
                for c in self.cells
            ],
        }

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
        return {
            "reps": self.reps,
            "omegas": self.omegas.tolist(),
            "true_lambda": self.true_lambda.tolist(),
            "mean_lambda": self.mean_lambda.tolist(),
            "lo": self.lo.tolist(),
            "hi": self.hi.tolist(),
        }


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

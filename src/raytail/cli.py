"""Command line interface: simulate / kappa / estimate / benchmark / diagnose.

Every subcommand echoes its fully resolved configuration (defaults and all,
including the seed) in its output, so any run can be reproduced from the
artifact alone (a benchmark report's ``config`` is a --config file, read
by ``bench.BenchmarkConfig.from_dict``). ``estimate prob`` is one
``estimators.probabilities`` call. Structured output is a single JSON
document on stdout unless --out is given; bulk data goes to CSV. The sample
read from a regular --input file of 1 MiB or more is cached by its bytes
(see ``_samplecache``), so a repeat query on the file skips the parse.

Exit codes: 0 success, 2 usage or configuration error (a named path that
cannot be opened and an input file that does not decode included), 3
numeric failure, 4 standard output closed before all output was written
(the CLI exits quietly, as a pipe into ``head`` closes it).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import _samplecache, estimators, margins
from .copulas import FAMILIES, make_model
from .errors import (
    ConfigError,
    DomainError,
    ExtrapolationError,
    InsufficientExceedancesError,
    NumericError,
    RaytailError,
)

EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_PIPE = 4
# diagnose fits one count per --c-grid value and echoes the grid in its JSON
MAX_C_GRID = 10_000


def _model_from_args(args):
    params = {
        name: getattr(args, name)
        for name in ("rho", "alpha")
        if getattr(args, name) is not None
    }
    try:
        return make_model(args.model, **params)
    except ConfigError as exc:
        # the pointer names a parameter, and each parameter has its own flag
        raise DomainError(f"--{exc.pointer[1:]}: {exc.message}") from None


def _add_model_flags(parser):
    parser.add_argument(
        "--model", required=True, choices=sorted(FAMILIES), help="dependence family"
    )
    parser.add_argument("--rho", type=float, help="correlation for bvn, in (-1, 1)")
    parser.add_argument(
        "--alpha",
        type=float,
        help="dependence parameter (invlog/logistic: (0,1]; morgenstern: [-1,1]; "
        "clayton: finite, > 0)",
    )


def _seed(text):
    """Type of the seed flags: numpy's generators take integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _StdoutClosed(Exception):
    """stdout's reader went away before all of the output was written."""


def _print(text):
    # the CLI's one writer to stdout: flushing here makes a closed stdout
    # raise inside main, and not in the interpreter's last flush, and a
    # broken pipe on any other file is not taken for it
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        raise _StdoutClosed from None


def _emit(document, out_path):
    text = json.dumps(document, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        _print(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args):
    model = _model_from_args(args)
    sample = model.sample(args.n, args.seed)
    names = ("x", "y", "z")[: sample.dim]
    resolved = {
        "subcommand": "simulate",
        "model": model.as_dict(),
        "n": args.n,
        "seed": args.seed,
        "out": args.out,
    }
    if args.out:
        margins.write_csv(args.out, sample.points, names)
        _emit({"config": resolved, "rows": sample.n}, None)
    else:
        json.dump({"config": resolved, "rows": sample.n}, sys.stderr)
        sys.stderr.write("\n")
        _print(margins.csv_text(sample.points, names))
    return 0


def _parse_growth(text, dim):
    parts = [p for p in text.split(",") if p.strip() != ""]
    try:
        growth = tuple(float(p) for p in parts)
    except ValueError:
        raise DomainError(f"--growth must be a comma list of numbers, got {text!r}")
    if len(growth) != dim:
        raise DomainError(
            f"--growth needs {dim} components for this model, got {len(growth)}"
        )
    return growth


def _cmd_kappa(args):
    model = _model_from_args(args)
    resolved = {
        "subcommand": "kappa",
        "model": model.as_dict(),
    }
    result = {}
    if args.suite:
        from . import kappa

        resolved.update({"grid_size": args.grid_size, "grid_seed": args.grid_seed})
        kf = kappa.KappaFunction.of_model(model)
        report = kappa.property_suite(
            kf,
            pqd=model.pqd,
            convex=model.convex,
            grid_size=args.grid_size,
            seed=args.grid_seed,
        )
        result = {
            "family": model.family,
            "params": model.params,
            **report.as_dict(),
        }
    elif args.growth is not None:
        growth = _parse_growth(args.growth, model.dim)
        resolved["growth"] = list(growth)
        result["kappa"] = model.kappa(growth)
    elif args.omega is not None:
        resolved["omega"] = args.omega
        result["lambda"] = model.lam(args.omega)
    else:
        raise DomainError("one of --growth, --omega or --suite is required")
    _emit({"config": resolved, "result": result}, args.out)
    return 0


def _cmd_estimate_lambda(args):
    sample = _samplecache.cached(args.input, args.rank_transform)
    fit = estimators.fit_lambda(sample, args.omega, frac=args.frac)
    resolved = {
        "subcommand": "estimate lambda",
        "input": args.input,
        "omega": args.omega,
        "frac": args.frac,
        "rank_transform": args.rank_transform,
    }
    result = {
        "omega": fit.omega,
        "lambda_hat": fit.lambda_hat,
        "k": fit.k,
        "u": fit.u,
        "se": fit.se,
    }
    _emit({"config": resolved, "result": result}, args.out)
    return 0


def _cmd_estimate_prob(args):
    sample = _samplecache.cached(args.input, args.rank_transform)
    batch = estimators.probabilities(
        sample, [(args.x, args.y)], (args.method,), frac=args.frac,
        quantile=args.ht_quantile, r=args.r, seed=args.seed,
    )
    estimate = estimators._one(batch[args.method])
    resolved = {
        "subcommand": "estimate prob",
        "method": args.method,
        "input": args.input,
        "x": args.x,
        "y": args.y,
        "frac": args.frac,
        "r": args.r,
        "seed": args.seed,
        "ht_quantile": args.ht_quantile,
        "rank_transform": args.rank_transform,
    }
    _emit({"config": resolved, "result": estimate.as_dict()}, args.out)
    return 0


def _cmd_diagnose(args):
    sample = _samplecache.cached(args.input, args.rank_transform)
    try:
        start_s, stop_s, step_s = args.c_grid.split(":")
        start, stop, step = float(start_s), float(stop_s), float(step_s)
    except ValueError:
        raise DomainError(
            f"--c-grid must look like start:stop:step, got {args.c_grid!r}"
        )
    if step <= 0.0 or stop < start:
        raise DomainError("--c-grid needs step > 0 and stop >= start")
    span = (stop - start) / step
    if not all(map(math.isfinite, (start, stop, step, span))):
        raise DomainError(f"--c-grid needs finite values and step count, got {args.c_grid!r}")
    n_steps = int(math.floor(span + 1e-9)) + 1
    if n_steps > MAX_C_GRID:
        raise DomainError(f"--c-grid allows at most {MAX_C_GRID} values, got {args.c_grid!r}")
    grid = [start + i * step for i in range(n_steps)]
    result = estimators.diagnose_linearity(sample, args.omega, grid)
    resolved = {
        "subcommand": "diagnose",
        "input": args.input,
        "omega": args.omega,
        "c_grid": grid,
        "rank_transform": args.rank_transform,
    }
    _emit({"config": resolved, "result": result}, args.out)
    return 0


def _cmd_benchmark(args):
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError("", f"invalid JSON: {exc}")
    from . import bench

    config = bench.BenchmarkConfig.from_dict(doc)
    if args.quick:
        config = config.quick()
    report = bench.run_benchmark(config)
    sys.stderr.write(f"benchmark completed in {report.wall_seconds:.1f}s\n")
    for mth, nf in report.n_failures.items():
        if nf:
            sys.stderr.write(f"{mth}: {nf} replications failed and were excluded\n")
    _emit(report.as_dict(), args.out)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("method,omega,metric,value\n")
            for mth, w, metric, value in report.tidy_rows():
                fh.write(f"{mth},{w!r},{metric},{value!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raytail",
        description="Joint tail probability estimation by ray extrapolation "
        "in exponential margins",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_sim = sub.add_parser("simulate", help="draw a sample and write CSV")
    _add_model_flags(p_sim)
    p_sim.add_argument("--n", type=int, required=True, help="number of rows")
    p_sim.add_argument("--seed", type=_seed, default=0, help="RNG seed (default 0)")
    p_sim.add_argument("--out", help="output CSV path (default: stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_kap = sub.add_parser(
        "kappa", help="closed-form decay index, angular value, or property suite"
    )
    _add_model_flags(p_kap)
    p_kap.add_argument("--growth", help="comma list, e.g. 1,2 or 1,2,1")
    p_kap.add_argument("--omega", type=float, help="ray in [0, 1] for lambda")
    p_kap.add_argument(
        "--suite", action="store_true", help="run the structural property suite"
    )
    p_kap.add_argument("--grid-size", type=int, default=200)
    p_kap.add_argument("--grid-seed", type=_seed, default=0)
    p_kap.add_argument("--out")
    p_kap.set_defaults(func=_cmd_kappa)

    data_flags = argparse.ArgumentParser(add_help=False)
    data_flags.add_argument("--input", required=True, help="CSV sample path")
    data_flags.add_argument(
        "--rank-transform", action="store_true",
        help="rank-transform the input first (for raw data)",
    )
    data_flags.add_argument("--out", help="JSON result path (default: stdout)")

    p_est = sub.add_parser("estimate", help="fit tail quantities from a CSV sample")
    est_sub = p_est.add_subparsers(dest="what", required=True)

    p_lam = est_sub.add_parser("lambda", parents=[data_flags], help="angular index along one ray")
    p_lam.add_argument("--omega", type=float, required=True)
    p_lam.add_argument("--frac", type=float, default=0.10)
    p_lam.set_defaults(func=_cmd_estimate_lambda)

    p_prob = est_sub.add_parser(
        "prob", parents=[data_flags], help="joint tail probability at a corner"
    )
    p_prob.add_argument("--method", required=True, choices=estimators.METHODS)
    p_prob.add_argument("--x", type=float, required=True)
    p_prob.add_argument("--y", type=float, required=True)
    p_prob.add_argument("--frac", type=float, default=0.10)
    p_prob.add_argument("--r", type=int, default=10_000, help="MC draws (ht)")
    p_prob.add_argument("--seed", type=_seed, default=0, help="MC seed (ht, default 0)")
    p_prob.add_argument("--ht-quantile", type=float, default=0.90)
    p_prob.set_defaults(func=_cmd_estimate_prob)

    p_bench = sub.add_parser("benchmark", help="replicated estimator comparison")
    p_bench.add_argument("--config", required=True, help="JSON configuration path")
    p_bench.add_argument("--out", help="JSON report path (default: stdout)")
    p_bench.add_argument("--csv", help="tidy CSV path (method,omega,metric,value)")
    p_bench.add_argument(
        "--quick", action="store_true", help="CI profile: 100 reps of size 2000"
    )
    p_bench.set_defaults(func=_cmd_benchmark)

    p_diag = sub.add_parser(
        "diagnose", parents=[data_flags], help="log-count linearity diagnostic along a ray"
    )
    p_diag.add_argument("--omega", type=float, required=True)
    p_diag.add_argument("--c-grid", required=True, help="start:stop:step")
    p_diag.set_defaults(func=_cmd_diagnose)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except (NumericError, InsufficientExceedancesError, ExtrapolationError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return EXIT_NUMERIC
    except RaytailError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_NUMERIC
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, PermissionError) as exc:
        # a named path that cannot be opened
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except _StdoutClosed:
        # stdout's reader is gone; what is left in its buffer goes to
        # devnull, so the interpreter's last flush cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())

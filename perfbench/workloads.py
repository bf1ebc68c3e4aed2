"""The benchmark's workloads: seeded inputs, one request, output checks.

Every workload is a closed loop driven from one process, one request at a
time. A workload's inputs are a fixed list of request configurations made
from the seed (one "pass"); the timed section cycles through that list, so
every request after the first pass repeats an earlier one and must
reproduce its output digest bit for bit. The accuracy metrics are taken
from the first pass only, which makes them a function of the seed and not
of how fast the program runs.

Why these workloads (see README.md for the per-layer predictions):

* ``replication`` -- the paper's study as the acceptance criteria run it:
  ``bench.run_benchmark`` on bvn and on invlog at m=5000 with ten rays and
  all three methods, plus ``bench.lambda_recovery`` on invlog over the
  99-ray grid. The conditional-tail fit dominates; it is the only workload
  that computes truths by quadrature.
* ``cli_raw`` -- fresh-interpreter CLI calls on a raw-scale CSV of 1M rows.
  Import, CSV parsing and the rank transform dominate, each estimator runs
  one ray on a very large sample, and the conditional-tail code never runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
from raytail import bench, copulas, estimators, margins

INVLOG_ALPHA = 0.4150374992788438  # 2 - log2(3), the paper's invlog model
BVN_RHO = 0.5


def digest(document) -> str:
    """Stable hash of a JSON-able result; floats keep all their digits."""
    text = json.dumps(document, sort_keys=True, allow_nan=True)
    return hashlib.sha256(text.encode()).hexdigest()


class CheckFailed(Exception):
    """An output check failed; the run must report no numbers."""


def check(cond, message):
    if not cond:
        raise CheckFailed(message)


def _pooled_rmse(sq_sum, count):
    return math.sqrt(sq_sum / count) if count else math.nan


class Replication:
    """In-process replication study. Request k is one block of it, on the
    replication seeds of block k: the estimator comparison on bvn and on
    invlog, then the angular-curve recovery on invlog."""

    name = "replication"
    REPS = 10  # replications per model and per curve recovery in a request
    PASS = 20  # requests per pass: 200 replications of each part
    M = 5000

    def __init__(self, seed):
        self.seed = seed
        self.pass_len = self.PASS
        self.digests = {}  # request index -> digest of its first output
        self.attempted = 0
        self.failed = 0
        self.ok_estimates = 0
        self.all_estimates = 0
        self.models = (
            copulas.BivariateNormal(BVN_RHO),
            copulas.InvertedLogistic(INVLOG_ALPHA),
        )
        self.sq = {}  # method -> [sum of n*rmse^2, n]
        self.lam_sq = [0.0, 0]

    def config(self, model, index, reps=None, m=None):
        reps = reps or self.REPS
        # disjoint replication seeds per (workload seed, request)
        seed_base = self.seed * 1_000_000 + index * reps
        return bench.BenchmarkConfig(model=model, reps=reps, m=m or self.M, seed_base=seed_base)

    def request(self, index):
        """Run request ``index`` of the pass and check its output."""
        self.attempted += 1
        try:
            doc = self.run_one(index)
        except Exception:
            self.failed += 1
            raise
        d = digest(doc)
        if index not in self.digests:
            self.digests[index] = d
            self.account(doc)
        check(
            d == self.digests[index],
            f"{self.name}: request {index} is not bitwise reproducible in one process",
        )

    def run_one(self, index):
        reports = [bench.run_benchmark(self.config(mdl, index)).as_dict() for mdl in self.models]
        for rep in reports:
            for cell in rep["cells"]:
                t = cell["true_prob"]
                check(
                    isinstance(t, float) and math.isfinite(t) and 0.0 < t < 1.0,
                    f"{self.name}: truth {t!r} at ray {cell['omega']} is not a probability",
                )
        curve = bench.lambda_recovery(self.config(self.models[1], index))
        check(
            bool(np.all(np.isfinite(curve.true_lambda)) and np.all(curve.true_lambda > 0)),
            f"{self.name}: a true angular index is not finite and positive",
        )
        return {"reports": reports, "curve": curve.as_dict()}

    def account(self, doc):
        for rep in doc["reports"]:
            reps = rep["config"]["reps"]
            for cell in rep["cells"]:
                self.all_estimates += reps
                self.ok_estimates += cell["n_reps_used"]
                if cell["n_nonzero"]:
                    acc = self.sq.setdefault(cell["method"], [0.0, 0])
                    acc[0] += cell["n_nonzero"] * cell["rmse_nonzero_log"] ** 2
                    acc[1] += cell["n_nonzero"]
        # lambda_recovery averages the fits that succeeded; a ray counts as
        # failed only when every replication's fit on it failed
        mean = np.array(doc["curve"]["mean_lambda"], dtype=float)
        true = np.array(doc["curve"]["true_lambda"], dtype=float)
        finite = np.isfinite(mean)
        self.all_estimates += mean.size
        self.ok_estimates += int(np.count_nonzero(finite))
        err = mean[finite] - true[finite]
        self.lam_sq[0] += float(np.sum(err * err))
        self.lam_sq[1] += err.size

    def rmse_by_method(self):
        """Log-scale RMSE of the probability estimates, per method."""
        return {mth: _pooled_rmse(*acc) for mth, acc in self.sq.items()}

    def accuracy(self):
        per_method = self.rmse_by_method()
        check(per_method and all(map(math.isfinite, per_method.values())),
              f"{self.name}: no non-zero estimates to score")
        return {
            "rmse_log": float(np.mean(list(per_method.values()))),
            "lambda_rmse": _pooled_rmse(*self.lam_sq),
        }

    def ok_frac(self):
        return self.ok_estimates / self.all_estimates

    def probe_argv(self, perfbench_dir):
        return [sys.executable, os.path.join(perfbench_dir, "probe.py"), "--seed", str(self.seed)]

    def child_env(self):
        return dict(os.environ)

    def check_probe(self, out, _usage):
        probe_digest = json.loads(out.strip().splitlines()[-1])["digest"]
        check(
            probe_digest == self.digests[0],
            f"{self.name}: a fresh interpreter computes a different first request",
        )

    def pool_check(self):
        """The process pool must give bitwise the serial report. Run once per
        run on a reduced configuration, untimed."""
        cfg = self.config(self.models[1], 0, reps=4, m=2000)
        serial = digest(bench.run_benchmark(cfg).as_dict())
        saved = os.environ.get("RAYTAIL_THREADS")
        os.environ["RAYTAIL_THREADS"] = "2"
        try:
            pooled = digest(bench.run_benchmark(cfg).as_dict())
        finally:
            if saved is None:
                del os.environ["RAYTAIL_THREADS"]
            else:
                os.environ["RAYTAIL_THREADS"] = saved
        check(pooled == serial, f"{self.name}: pool report differs from the serial report")


class CliRaw:
    """Fresh-interpreter CLI calls on a raw-scale CSV.

    The CSV holds correlated standard normals (rho=0.5), so after
    ``--rank-transform`` the data follow the bvn reference model exactly and
    its closed forms are the truth.
    """

    name = "cli_raw"
    ROWS = 1_000_000
    OMEGA = 0.35  # ray of the lambda fit and of the probability corner
    # a quarter of the sample above the threshold: the Hill bias on bvn then
    # outweighs the sampling noise, so the accuracy error is a property of
    # the method rather than of the draw
    FRAC = 0.25

    def __init__(self, seed, src_dir, tmp_dir):
        self.seed = seed
        self.src_dir = src_dir
        self.tmp_dir = tmp_dir
        self.model = copulas.BivariateNormal(BVN_RHO)
        rng = np.random.default_rng([seed, 20131221])
        z1 = rng.standard_normal(self.ROWS)
        z2 = BVN_RHO * z1 + math.sqrt(1.0 - BVN_RHO**2) * rng.standard_normal(self.ROWS)
        raw = np.column_stack((z1, z2))
        self.csv_path = os.path.join(tmp_dir, "raw.csv")
        with open(self.csv_path, "w") as fh:
            fh.write("x,y\n")
            fh.write("\n".join(f"{a!r},{b!r}" for a, b in raw.tolist()))
            fh.write("\n")
        y0 = math.log(self.ROWS)
        self.corner = (self.OMEGA / (1.0 - self.OMEGA) * y0, y0)
        sample = margins.rank_transform(raw)
        # what each CLI call must print, computed in process on the same data
        fit = estimators.fit_lambda(sample, self.OMEGA, frac=self.FRAC)
        self.expected = [
            {"omega": fit.omega, "lambda_hat": fit.lambda_hat, "k": fit.k,
             "u": fit.u, "se": fit.se},
            estimators.wt_probability_at(sample, self.corner, frac=self.FRAC).as_dict(),
            estimators.lt_probability(sample, self.corner, frac=self.FRAC).as_dict(),
        ]
        self.expected = json.loads(json.dumps(self.expected))
        self.truth = self.model.survivor(self.corner)
        check(math.isfinite(self.truth) and self.truth > 0.0,
              f"{self.name}: truth at the corner is not finite")
        x, y = (repr(v) for v in self.corner)
        common = ["--input", self.csv_path, "--frac", repr(self.FRAC), "--rank-transform"]
        self.calls = [
            ["estimate", "lambda", "--omega", repr(self.OMEGA)] + common,
            ["estimate", "prob", "--method", "wt", "--x", x, "--y", y] + common,
            ["estimate", "prob", "--method", "lt", "--x", x, "--y", y] + common,
        ]
        self.pass_len = len(self.calls)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0

    def child_env(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src_dir, env.get("PYTHONPATH")) if p
        )
        return env

    def cli_argv(self, index):
        return [sys.executable, "-m", "raytail.cli"] + self.calls[index]

    def probe_argv(self, perfbench_dir):
        return self.cli_argv(0)

    def check_probe(self, out, usage):
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.check_output(0, out)

    def request(self, index, argv=None):
        """One CLI call. ``argv`` replaces the plain command line; the traced
        run passes a wrapper script that records spans in the child."""
        self.attempted += 1
        argv = argv or self.cli_argv(index)
        code, out, err, _wall, usage = run_child(argv, self.tmp_dir, self.child_env())
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        if code != 0:
            self.failed += 1
        check(code == 0, f"{self.name}: CLI call {index} exited {code}: {err.strip()[-500:]}")
        self.check_output(index, out)

    def check_output(self, index, out):
        result = json.loads(out)["result"]
        check(result == self.expected[index],
              f"{self.name}: CLI call {index} printed {result}, "
              f"the in-process call gives {self.expected[index]}")
        self.digests.setdefault(index, digest(result))

    def _lambda_errors(self):
        lam_w = self.model.lam(self.OMEGA)
        e = self.expected
        return [e[0]["lambda_hat"] - lam_w, e[1]["lambda_hat"] - lam_w,
                e[2]["lambda_half"] - self.model.lam(0.5)]

    def rmse_by_method(self):
        return {
            mth: abs(math.log(self.expected[i]["value"] / self.truth))
            for mth, i in (("wt", 1), ("lt", 2))
            if self.expected[i]["value"] > 0
        }

    def accuracy(self):
        log_err = list(self.rmse_by_method().values())
        check(log_err, f"{self.name}: every probability estimate is zero")
        lam_err = self._lambda_errors()
        return {
            "rmse_log": math.sqrt(sum(e * e for e in log_err) / len(log_err)),
            "lambda_rmse": math.sqrt(sum(e * e for e in lam_err) / len(lam_err)),
        }

    def ok_frac(self):
        return (self.attempted - self.failed) / self.attempted


def run_child(argv, out_dir, env=None, timeout=170.0):
    """Run a child to completion; returns (exit code, stdout, stderr, wall
    seconds, rusage of that child alone). Output goes through files in
    ``out_dir`` so the child can be reaped with wait4, which reports its
    own peak memory and CPU time."""
    out_path = os.path.join(out_dir, "child.out")
    err_path = os.path.join(out_dir, "child.err")
    with open(out_path, "w") as out_fh, open(err_path, "w") as err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out_fh, stderr=err_fh, env=env)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as fh:
        out = fh.read()
    with open(err_path) as fh:
        err = fh.read()
    return proc.returncode, out, err, wall, usage


WORKLOADS = {"replication": Replication, "cli_raw": CliRaw}

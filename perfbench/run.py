#!/usr/bin/env python3
"""raytail benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload replication --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: ``replication`` and ``cli_raw`` (see workloads.py and
README.md).

``--trace 0`` measures the end-to-end metrics named in BENCHMARK.json:
set-up time (median of fresh-interpreter probes that import the package and
make the first request), the median wall time of one request in the timed
section, peak memory, the share of estimates that succeeded, and two
accuracy figures against the exact truth. ``--trace 1`` runs untraced and
traced passes of the same requests instead and reports the per-layer
metrics, computed from in-memory spans around raytail's public functions.

Every request's output is checked; if a check fails, the run prints a
result with ``"correct": false`` and no metrics, and exits 1. The last
stdout line is always the JSON result. The line before it records the
environment. Spans, layer summaries and results also go to
``.perfbench_out/`` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import re
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_PROBES = 3


def environment():
    """Facts that decide how fast the program can run on this machine. The
    benchmark reads the BLAS thread variables and never sets them."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "numba_present": importlib.util.find_spec("numba") is not None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "RAYTAIL_THREADS": os.environ.get("RAYTAIL_THREADS"),
    }


def version_hash():
    """Identifies the program and benchmark version in a checkout that is
    not a git repository: a hash over the .py files under src/raytail and
    perfbench, which together decide every output."""
    h = hashlib.sha256()
    for top in (os.path.join(SRC, "raytail"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_digest_store(wl, seed):
    """Outputs of one program version must be bitwise equal across runs:
    compare this run's request digests with those an earlier run of the
    same version and seed recorded, then record them."""
    path = os.path.join(OUT, "digests.json")
    store = {}
    if os.path.exists(path):
        with open(path) as fh:
            store = json.load(fh)
    key = f"{version_hash()}:{wl.name}:{seed}"
    seen = store.setdefault(key, {})
    for index, d in wl.digests.items():
        prev = seen.setdefault(str(index), d)
        check(prev == d, f"{wl.name}: request {index} differs from an earlier run of this version")
    with open(path + ".tmp", "w") as fh:
        json.dump(store, fh)
    os.replace(path + ".tmp", path)


def run_pass(wl, argv_for=None):
    """One request per input of the pass; returns per-request wall times."""
    walls = []
    for index in range(wl.pass_len):
        t0 = time.perf_counter()
        if argv_for is None:
            wl.request(index)
        else:
            wl.request(index, argv=argv_for(index))
        walls.append(time.perf_counter() - t0)
    return walls


def cpu_snapshot():
    t = os.times()
    return time.perf_counter(), t.user + t.system, t.children_user + t.children_system


def cpu_delta(before):
    wall, cpu, children = (a - b for a, b in zip(cpu_snapshot(), before))
    return {
        "process.cpu_s": cpu,
        "process.children_cpu_s": children,
        "process.cpu_per_wall": (cpu + children) / wall,
    }


def measure_end_to_end(wl, seconds, tmp):
    setup = []
    for _ in range(SETUP_PROBES):
        code, out, err, wall, usage = run_child(wl.probe_argv(HERE), tmp, wl.child_env())
        check(code == 0, f"{wl.name}: set-up probe exited {code}: {err.strip()[-500:]}")
        wl.check_probe(out, usage)
        setup.append(wall)

    walls = []
    deadline = time.perf_counter() + seconds
    index = 0
    while index < wl.pass_len or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        wl.request(index % wl.pass_len)
        walls.append(time.perf_counter() - t0)
        index += 1
    if isinstance(wl, CliRaw):
        peak_kb = wl.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": peak_kb / 1024.0,
        "ok_frac": wl.ok_frac(),
        **wl.accuracy(),
    }
    sys.stderr.write(
        f"{wl.name}: {len(walls)} timed requests, wall per request "
        f"min {min(walls):.4f} median {metrics['wall_s']:.4f} max {max(walls):.4f} s; "
        f"set-up samples {[round(s, 4) for s in setup]}\n"
    )
    return metrics


def import_times(tmp):
    """Cumulative import seconds of raytail's CLI and of scipy.integrate, from
    ``python -X importtime`` in a fresh interpreter (0 if not imported)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    code, _out, err, _wall, _usage = run_child(
        [sys.executable, "-X", "importtime", "-c", "import raytail.cli"],
        tmp, env,
    )
    check(code == 0, f"importing raytail.cli failed: {err.strip()[-500:]}")
    cumulative = {}
    for line in err.splitlines():
        m = re.match(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|\s*(\S.*)$", line)
        if m:
            cumulative.setdefault(m.group(3).strip(), int(m.group(2)) / 1e6)
    return {
        "cli.import_s": cumulative.get("raytail.cli", 0.0),
        "cli.import.scipy_integrate_s": cumulative.get("scipy.integrate", 0.0),
    }


def measure_traced(wl, seconds, tmp, run_tag):
    """Alternate untraced and traced passes over the same requests until
    ``seconds`` have passed (at least one pair)."""
    from spans import Tracer, import_raytail_modules, summarize

    modules = import_raytail_modules()
    untraced, traced, process, summaries = [], [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        before = cpu_snapshot()
        untraced.append(sum(run_pass(wl)))
        process.append(cpu_delta(before))

        if isinstance(wl, CliRaw):
            paths = [os.path.join(tmp, f"spans-{i}.json") for i in range(wl.pass_len)]

            def argv_for(i):
                return [sys.executable, os.path.join(HERE, "traced_cli.py"), paths[i]] + wl.calls[i]

            traced.append(sum(run_pass(wl, argv_for)))
            exports = []
            for p in paths:
                with open(p) as fh:
                    exports.append(json.load(fh))
        else:
            tracer = Tracer()
            tracer.install(modules)
            try:
                traced.append(sum(run_pass(wl)))
            finally:
                tracer.uninstall()
            exports = [tracer.export()]
        summaries.append(summarize(*exports))
        if len(summaries) == 1:
            with open(os.path.join(OUT, f"spans-{run_tag}.json"), "w") as fh:
                json.dump(exports, fh)

    first = summaries[0]
    layers = first["layers"]
    for name, st in layers.items():
        for field in ("self_s", "total_s"):
            st[field] = statistics.median(
                s["layers"].get(name, {}).get(field, 0.0) for s in summaries
            )
    extra = {key: statistics.median(p[key] for p in process) for key in process[0]}
    extra.update(import_times(tmp))
    extra["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    extra["trace.absent"] = len(first["absent"])
    extra["trace.spans"] = sum(st["calls"] for st in layers.values())
    extra["trace.passes"] = len(summaries)
    for key, val in wl.accuracy().items():
        extra[f"accuracy.{key}"] = val
    for mth, val in wl.rmse_by_method().items():
        extra[f"accuracy.rmse_log.{mth}"] = val
    with open(os.path.join(OUT, f"layers-{run_tag}.json"), "w") as fh:
        json.dump({"summary": first, "extra": extra}, fh, indent=1, sort_keys=True)
    top = sorted(layers.items(), key=lambda kv: -kv[1]["self_s"])[:8]
    total_self = sum(st["self_s"] for st in layers.values()) or 1.0
    sys.stderr.write(f"{wl.name}: traced pass {statistics.median(traced):.3f} s, "
                     f"untraced {statistics.median(untraced):.3f} s; largest self time:\n")
    for name, st in top:
        sys.stderr.write(f"  {name:44s} {st['self_s']:9.4f} s {100 * st['self_s'] / total_self:5.1f}%"
                         f"  calls {st['calls']}\n")
    if first["absent"]:
        sys.stderr.write(f"  absent wrap targets: {', '.join(first['absent'])}\n")
    return layers, first["counters"], extra


def layer_metric(name, layers, counters, extra, rows):
    """Resolve a per-layer metric name from BENCHMARK.json to a value.
    Metric names may not start with "_", so "kernels.*" names the spans of
    the ``_kernels`` module."""
    if name.startswith("kernels."):
        name = "_" + name
    if name in extra:
        return extra[name]
    if name in counters:
        return counters[name]
    if name.endswith(".bytes_computed"):
        return 0.0  # layer absent or never called

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    if name == "estimators.fit_ht.starts_per_fit":
        fits = calls("estimators.fit_ht")
        return calls("estimators.minimize") / fits if fits else 0.0
    if name == "estimators.fit_ht.evals_per_fit":
        fits = calls("estimators.fit_ht")
        return calls("_kernels.ht_profile_nll_grad") / fits if fits else 0.0
    if name == "margins.read_raw_csv.rows_per_s":
        st = layers.get("margins.read_raw_csv")
        return st["calls"] * rows / st["total_s"] if st and st["total_s"] > 0 else 0.0
    if ".errors." in name:
        layer, cls = name.split(".errors.", 1)
        return layers.get(layer, {}).get("errors", {}).get(cls, 0)
    layer, _, field = name.rpartition(".")
    st = layers.get(layer)
    if field == "errors":
        return sum(st["errors"].values()) if st else 0
    if field in ("calls", "self_s", "total_s"):
        return st[field] if st else 0
    if name.startswith("accuracy."):
        return 0.0  # the workload does not run that method
    raise KeyError(f"no rule computes the per-layer metric {name!r}")


def make_workload(name, seed, tmp):
    if name == "cli_raw":
        return CliRaw(seed, SRC, tmp)
    return WORKLOADS[name](seed)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # on SIGTERM, unwind normally: the running child is killed and reaped
    # and the temporary directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    env = environment()
    run_tag = f"{args.workload}-seed{args.seed}"
    wl = None
    try:
        wl = make_workload(args.workload, args.seed, tmp)
        if not isinstance(wl, CliRaw):  # a CLI call starts a fresh process
            wl.request(0)  # warm-up: lazy imports and caches, untimed
        if isinstance(wl, Replication):
            wl.pool_check()
        if args.trace:
            layers, counters, extra = measure_traced(wl, args.seconds, tmp, run_tag)
            rows = getattr(wl, "ROWS", 0)
            values = {m["name"]: layer_metric(m["name"], layers, counters, extra, rows)
                      for m in wanted}
        else:
            values = measure_end_to_end(wl, args.seconds, tmp)
        check_digest_store(wl, args.seed)
    except CheckFailed as exc:
        sys.stderr.write(f"output check failed: {exc}\n")
        attempted = max(1, wl.attempted) if wl else 1
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": wl.failed if wl else 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted}
    result = {"correct": True, "attempted": wl.attempted, "failed": wl.failed, "metrics": metrics}
    with open(os.path.join(OUT, "results.jsonl"), "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "environment": env, **result}) + "\n")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


def _bootstrap():
    """Make raytail and the benchmark modules importable; exit 2 when the
    checkout holds no package source."""
    if not os.path.isfile(os.path.join(SRC, "raytail", "__init__.py")):
        sys.stderr.write(f"error: no raytail package source under {SRC}\n")
        sys.exit(2)
    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        sys.stderr.write(f"error: no BENCHMARK.json in {ROOT}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


if __name__ == "__main__":
    _bootstrap()
    from workloads import WORKLOADS, CheckFailed, CliRaw, Replication, check, run_child

    sys.exit(main())

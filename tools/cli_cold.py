"""Time cold CLI calls of the ``cli_raw`` workload on two source trees in turn.

The benchmark's ``cli_raw`` workload repeats its calls on one CSV, so after
its first call the CLI's sample cache answers them and the parse and the
rank transform go untimed. This script times the other case: every call
gets an empty ``XDG_CACHE_HOME``, so the CLI parses and ranks the file
and, where the tree has the cache, also hashes the file and stores an
entry (a miss). The two trees run alternately, the side that runs first
alternating by pair, and pair i makes the workload's call i mod 3. Every
output is checked against the library's own result.

    python3 tools/cli_cold.py --pairs 10 PARENT CHANGE

PARENT and CHANGE are checkouts, each holding ``src/raytail``; the CSV and
the calls are those of ``perfbench``'s ``cli_raw`` at ``--seed``. The
environment, ``RAYTAIL_THREADS`` included, passes to the calls. Prints one
JSON document: per tree every call's wall seconds, their median and
quartiles, and the pairs in which CHANGE was faster. Exits 1 where CHANGE's
median exceeds PARENT's by more than the ``wall_s`` bound in
``BENCHMARK.json``, the bound the benchmark holds its own workloads to.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]
    from workloads import CliRaw, run_child

    sides = {"parent": args.parent, "change": args.change}
    walls = {side: [] for side in sides}
    with tempfile.TemporaryDirectory() as tmp:
        workload = CliRaw(args.seed, os.path.join(ROOT, "src"), tmp)
        for i in range(args.pairs):
            index = i % len(workload.calls)
            order = list(sides) if i % 2 == 0 else list(sides)[::-1]
            for side in order:
                env = dict(os.environ)
                env["PYTHONPATH"] = os.path.join(os.path.abspath(sides[side]), "src")
                with tempfile.TemporaryDirectory() as cache:
                    env["XDG_CACHE_HOME"] = cache
                    argv = [sys.executable, "-m", "raytail.cli"] + workload.calls[index]
                    code, out, err, wall, _ = run_child(argv, tmp, env)
                if code != 0 or err:
                    sys.exit(f"{side}, call {index}: exit {code}\n{err}")
                workload.check_output(index, out)
                walls[side].append(round(wall, 4))
    report = {}
    for side, runs in walls.items():
        q1, median, q3 = statistics.quantiles(runs, n=4)
        report[side] = {"median": median, "q1": q1, "q3": q3, "runs": runs}
    report["change_faster_pairs"] = sum(c < p for p, c in zip(walls["parent"], walls["change"]))
    report["pairs"] = args.pairs
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        (bound,) = (m["bound"] for m in json.load(fh)["end_to_end"] if m["name"] == "wall_s")
    report["wall_s_bound"] = bound
    print(json.dumps(report, indent=1))
    return int(report["change"]["median"] > report["parent"]["median"] * (1.0 + bound))


if __name__ == "__main__":
    sys.exit(main())

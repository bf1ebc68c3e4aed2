"""Set-up probe: a fresh interpreter imports raytail and makes the first
request of the replication workload, then prints that request's digest.

run.py times this whole process (interpreter start, import, first call) as
one set-up sample and checks that the digest equals its own.

    python3 perfbench/probe.py --seed 1
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from workloads import Replication  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    wl = Replication(args.seed)
    wl.request(0)
    print(json.dumps({"digest": wl.digests[0]}))


if __name__ == "__main__":
    main()

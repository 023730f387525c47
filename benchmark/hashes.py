#!/usr/bin/env python3
"""Print the content_hash of the rrp and cascade instances the benchmark builds.

    python3 benchmark/hashes.py --seeds 1 2 3

Round r of seed n is the instance a benchmark run with --seed n builds in
its r-th round (counting from 0), for r below ROUNDS.  The traces are built
by the same functions the build worker calls.  The hashes are for
reference: a change that corrects a construction may change them.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads as wl  # noqa: E402
import worker  # noqa: E402

ROUNDS = 5  # 30-second runs reached round 4 at most
BUILDS = [("rrp", wl.rrp_instance, wl.rrp_spec, worker.rrp_trace),
          ("cascade", wl.cascade_instance, wl.cascade_spec, worker.cascade_trace)]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args()
    for workload, instance, spec, make_trace in BUILDS:
        for seed in args.seeds:
            for r in range(ROUNDS):
                h = make_trace(spec(instance(seed, r))).content_hash()
                print(f"{workload:7s} seed {seed:4d} round {r} {h}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

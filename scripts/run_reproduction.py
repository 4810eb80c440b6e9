#!/usr/bin/env python
"""Regenerate the full paper reproduction from the command line.

Runs every bench the ``benchmarks/`` directory declares (without
pytest): each sweeps its experiment, asserts the paper's shape, prints
its paper-vs-measured table and rewrites its ``BENCH_<name>.json``.

Usage:
    python scripts/run_reproduction.py [--full] [--quick]

--quick runs each bench's CI-sized sweep and writes no JSON;
--full sets the paper's 10 MB scale (same as REPRO_FULL=1).
"""

import argparse
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "benchmarks"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="paper-scale 10 MB workloads")
    parser.add_argument("--quick", action="store_true",
                        help="each bench's reduced sweep, no JSON written")
    args = parser.parse_args()
    if args.full:
        os.environ["REPRO_FULL"] = "1"

    from _bench import load_benches

    started = time.time()
    for bench in load_benches():
        bench.run(quick=args.quick)
    print(f"\ntotal wall time: {time.time() - started:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

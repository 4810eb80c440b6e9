#!/usr/bin/env python
"""Write or check the ledger's seed-determined values: the local
"no ``sim changed``" gate.

``benchmarks/ledger/compare.py`` needs a parent run and a change run;
this needs only the checkout.  It runs the ledger once at a small scale
(read-only use of ``benchmarks/ledger/run.py``), keeps ``attempted``,
``failed`` and every metric that is not on the host clock or in host
memory — by its ``BENCHMARK.json`` unit: everything but ``s``, ``us``,
``1/s`` and ``MiB``, i.e. the ``sim_*`` values, ``sim.events`` and the
``machine.*``/``storage.*``/``efs.*``/``core.*``/``traffic.*``/
``elastic.*`` counters — and compares them with the committed
``tests/baselines/ledger_sim.json``.  Those values are a pure function
of the seed, so any difference is a behaviour change, not noise.

Usage:
    python scripts/ledger_sim_baseline.py --check    # exit 1 on drift (CI)
    python scripts/ledger_sim_baseline.py --write    # rewrite the baseline
    python scripts/ledger_sim_baseline.py --write --workload cached_read
        # a declared change: rewrite that workload's section only, and
        # write nothing (exit 1) if any other workload drifted; repeat
        # --workload to declare several
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "tests", "baselines", "ledger_sim.json")
RUN = os.path.join(REPO, "benchmarks", "ledger", "run.py")
RUN_ARGS = ("--trace", "0", "--reps", "1", "--scale", "0.05")
HOST_UNITS = ("s", "us", "1/s", "MiB")


def seed_determined():
    """``{workload: {name: value}}`` from one small ledger run."""
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    units = {metric["name"]: metric["unit"]
             for metric in contract["end_to_end"] + contract["per_layer"]}
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "ledger.json")
        done = subprocess.run(
            [sys.executable, RUN, *RUN_ARGS, "--out", out],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        if done.returncode != 0:
            print(done.stdout)
            raise SystemExit("the ledger run failed; see its output above")
        with open(out, encoding="utf-8") as handle:
            records = json.load(handle)["workloads"]
    values = {}
    for record in records:
        kept = {"attempted": record["attempted"], "failed": record["failed"]}
        for name, metric in record["metrics"].items():
            if units[name] not in HOST_UNITS:
                kept[name] = metric["value"]
        values[record["workload"]] = kept
    return values


def load_baseline(path):
    """The committed ``{workload: {name: value}}``, or a message saying
    why there is none to compare with."""
    if not os.path.exists(path):
        return None, f"no baseline at {path}; run with --write first"
    with open(path, encoding="utf-8") as handle:
        committed = json.load(handle)
    if committed["run_args"] != list(RUN_ARGS):
        return None, (f"baseline was written with {committed['run_args']}, "
                      f"this script runs {list(RUN_ARGS)}; re-write it")
    return committed["workloads"], None


def write_baseline(path, workloads, count) -> int:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"run_args": list(RUN_ARGS), "workloads": workloads},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"ledger sim baseline written: {count} values, {path}")
    return 0


def drifted(baseline, fresh, skip=()):
    """One ``sim changed`` line per value that differs, the workloads
    in ``skip`` aside."""
    drift = []
    for workload in sorted((set(baseline) | set(fresh)) - set(skip)):
        was, now = baseline.get(workload, {}), fresh.get(workload, {})
        for name in sorted(set(was) | set(now)):
            if was.get(name) != now.get(name):
                drift.append(f"  sim changed  {workload:18s} {name:36s} "
                             f"{was.get(name)!r} -> {now.get(name)!r}")
    return drift


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true",
                      help="rewrite the committed baseline")
    mode.add_argument("--check", action="store_true",
                      help="compare a fresh run against the baseline "
                           "(the default)")
    parser.add_argument("--workload", action="append", default=[],
                        help="with --write: a workload whose values are "
                             "meant to move (repeatable); refuse if another "
                             "drifted")
    parser.add_argument("--baseline", default=BASELINE,
                        help="baseline path (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.workload and not args.write:
        parser.error("--workload declares a re-baseline: use it with --write")

    fresh = seed_determined()
    count = sum(len(kept) for kept in fresh.values())
    if args.write and not args.workload:
        return write_baseline(args.baseline, fresh, count)

    baseline, problem = load_baseline(args.baseline)
    unknown = [name for name in args.workload if name not in fresh]
    if problem is None and unknown:
        problem = f"the ledger has no workload {unknown[0]!r}"
    if problem is not None:
        print(problem)
        return 1
    drift = drifted(baseline, fresh, skip=args.workload)
    if args.write:
        if drift:
            print(f"nothing written: the declared change is "
                  f"{', '.join(args.workload)}, but other workloads drifted")
            print("\n".join(drift))
            return 1
        declared = {name: fresh[name] for name in args.workload}
        return write_baseline(args.baseline, {**baseline, **declared}, count)
    if not drift:
        print(f"ledger sim baseline check OK: {count} seed-determined "
              f"values identical on {len(fresh)} workloads")
        return 0
    print("ledger sim baseline check FAILED: simulated behaviour drifted")
    print("\n".join(drift))
    print("if workloads are meant to move, declare each: "
          "--write --workload NAME [--workload NAME ...]")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

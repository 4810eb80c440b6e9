#!/usr/bin/env python
"""Export or check the acceptance-workload span-tree baseline.

The acceptance workload (``repro.workloads.acceptance``) drives every
Bridge Server operation on the default single-server configuration and
exports a byte-deterministic Chrome trace.  The committed baseline at
``tests/baselines/trace_acceptance.json`` pins the seed event sequence:
CI re-exports the trace and fails with the offending subtree if any
refactor of the request path drifts the sequence.

Usage:
    python scripts/span_baseline.py --check     # exit 1 on drift (CI)
    python scripts/span_baseline.py --update    # rewrite the baseline
"""

import argparse
import json
import os
import sys
import tempfile

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(REPO, "tests", "baselines", "trace_acceptance.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the committed baseline")
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh export against the baseline "
                             "(the default)")
    parser.add_argument("--baseline", default=BASELINE,
                        help="baseline path (default: %(default)s)")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(REPO, "src"))
    from repro.obs import (
        diff_trace_documents,
        export_chrome_trace,
        validate_trace_document,
    )
    from repro.harness import BridgeSystem, SystemSpec
    from repro.workloads.acceptance import acceptance_driver

    system = BridgeSystem(SystemSpec.preset("acceptance"))
    summary = acceptance_driver(system)
    print(f"acceptance workload: {len(system.obs.spans)} spans, "
          f"sim time {system.sim.now:.6f}s, summary {summary}")

    if args.update:
        export_chrome_trace(system.obs, args.baseline)
        document = json.loads(open(args.baseline, encoding="utf-8").read())
        problems = validate_trace_document(document)
        if problems:
            print("baseline failed trace validation:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"baseline written: {args.baseline}")
        return 0

    if not os.path.exists(args.baseline):
        print(f"no baseline at {args.baseline}; run with --update first")
        return 1
    with tempfile.NamedTemporaryFile("r", suffix=".json", delete=False) as handle:
        fresh_path = handle.name
    try:
        export_chrome_trace(system.obs, fresh_path)
        fresh_bytes = open(fresh_path, "rb").read()
    finally:
        os.unlink(fresh_path)
    baseline_bytes = open(args.baseline, "rb").read()
    if fresh_bytes == baseline_bytes:
        print("span baseline check OK: trace is byte-identical to the baseline")
        return 0
    report = diff_trace_documents(
        json.loads(baseline_bytes.decode("utf-8")),
        json.loads(fresh_bytes.decode("utf-8")),
    )
    print("span baseline check FAILED: event-sequence drift detected")
    for line in report or ["(bytes differ but span events match; "
                           "check JSON formatting)"]:
        print(line)
    return 1


if __name__ == "__main__":
    raise SystemExit(main())

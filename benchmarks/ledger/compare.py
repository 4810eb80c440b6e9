"""Compare two ledger records: ``python3 compare.py A.json B.json``.

A and B are ``run.py --out`` files from the same seed and scale (A is
the parent commit, B the change).  One row per (workload, end-to-end
metric) gives both values, the bound from ``BENCHMARK.json`` and a
verdict: ``same``, ``better``, ``worse``, or ``unresolved`` when either
run's own repetitions spread wider than the bound.  Simulated-clock
values are a pure function of the seed, so any difference at all in a
``sim_*`` metric, an event/message/device count or the failed count is
reported as a hard ``sim changed`` line.  Exits non-zero unless every
row is ``same`` or ``better`` and nothing simulated changed.
"""

import json
import pathlib
import sys

CONTRACT = json.loads(
    (pathlib.Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)
#: ``setup_s`` may move by this much however small it is (seconds).
SETUP_FLOOR_S = 0.02
EXACT = ("sim.events", "machine.messages", "machine.rpcs",
         "storage.reads", "storage.writes")


def is_exact(name):
    return name.startswith("sim_") or name in EXACT


def load(path):
    records = json.loads(pathlib.Path(path).read_text())["workloads"]
    return {(r["workload"], r["trace"]): r for r in records}


def verdict(a, b, metric, spread_a, spread_b):
    bound = metric["bound"]
    if max(spread_a, spread_b) > bound:
        return "unresolved"
    limit = bound * abs(a)
    if metric["name"] == "setup_s":
        limit = max(limit, SETUP_FLOOR_S)
    worse_by = b - a if metric["better"] == "lower" else a - b
    if worse_by > limit:
        return "worse"
    return "better" if -worse_by > limit else "same"


def compare(a_records, b_records):
    """Returns ``(rows, changed)``: verdict rows and sim-changed lines."""
    rows, changed = [], []
    for key in sorted(a_records.keys() & b_records.keys()):
        a, b = a_records[key], b_records[key]
        workload, trace = key
        if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
            raise SystemExit(
                f"{workload}: seeds or scales differ; simulated values "
                "are only comparable at the same seed and scale")
        if trace == 0:
            for metric in CONTRACT["end_to_end"]:
                name = metric["name"]
                va = a["metrics"][name]["value"]
                vb = b["metrics"][name]["value"]
                rows.append((workload, name, va, vb, metric["bound"], verdict(
                    va, vb, metric, a["spread"].get(name, 0.0),
                    b["spread"].get(name, 0.0))))
        for name in sorted(a["metrics"].keys() | b["metrics"].keys()):
            if is_exact(name):
                va = a["metrics"].get(name, {}).get("value")
                vb = b["metrics"].get(name, {}).get("value")
                if va != vb:
                    changed.append(f"sim changed: {workload} {name} "
                                   f"{va!r} -> {vb!r}")
        for name in ("attempted", "failed"):
            if a[name] != b[name]:
                changed.append(f"sim changed: {workload} {name} "
                               f"{a[name]} -> {b[name]}")
    return rows, changed


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__.split("\n\n")[0])
    rows, changed = compare(load(argv[0]), load(argv[1]))
    print(f"{'workload':18s} {'metric':12s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    for workload, name, va, vb, bound, word in rows:
        print(f"{workload:18s} {name:12s} {va:12.4f} {vb:12.4f} "
              f"{(vb - va) / va:+8.1%} {bound:6.0%}  {word}")
    for line in changed:
        print(line)
    bad = changed or any(r[5] in ("worse", "unresolved") for r in rows)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

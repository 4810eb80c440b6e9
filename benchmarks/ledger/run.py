"""The two-clock performance ledger: one command, seven workloads.

    python3 benchmarks/ledger/run.py [--workload W] [--seed 7]
        [--seconds 10 | --reps N] [--trace 0|1] [--out F] [--trace-out F]

Without ``--workload`` it runs every workload, each pass in a
subprocess of its own (so ``peak_rss_mb`` belongs to one workload), and
merges their records.  It prints every metric by name with its unit,
checks every workload's output, and exits non-zero when a check fails.
The last line of standard output is the JSON object the benchmark
contract reads: ``--trace 0`` carries the end-to-end metrics of
``BENCHMARK.json``, ``--trace 1`` the per-layer ones.

Procedure (``--trace 0``): repetitions until ``--seconds`` of drive time
are spent (at least 3), each on a fresh system with ``gc.collect()``
before the timed drive and gc left on, in two replicas pinned one per
CPU; a host-clock metric is the sum of its span's millisecond slices,
each at its fastest over all repetitions (``spans.py`` says why not a
median).  ``README.md`` in this directory defines every metric.
"""

import argparse
import cProfile
import gc
import heapq
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

import layers
from spans import SpanLog, durations, fastest_slices
from workloads import WORKLOADS

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
CONTRACT = json.loads((LEDGER_DIR.parents[1] / "BENCHMARK.json").read_text())
E2E = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
UNITS = {name: m["unit"] for name, m in {**PER_LAYER, **E2E}.items()}
#: Workloads that also run full size with ``obs=True`` (``host_s_obs``).
OBS_WORKLOADS = ("naive_stream", "traffic_mix")
MIN_REPS = 3
DRIFT_LIMIT = 0.10
#: Units of values measured on the host (its clock, then its memory):
#: they differ from run to run.
CLOCK_UNITS = ("s", "us", "1/s")
HOST_UNITS = CLOCK_UNITS + ("MiB",)
#: Untraced runs measure on this many CPUs at once (see
#: ``measure_on_every_cpu``).
REPLICAS = 2


def calibrate():
    """Seconds a fixed pure-python heap + generator loop takes (best of
    3): the host's speed right now, independent of ``repro``."""
    def ticks(count):
        for i in range(count):
            yield (i * 2654435761) & 0xFFFF

    best = float("inf")
    for _ in range(3):
        heap = []
        start = time.perf_counter()
        for value in ticks(60_000):
            heapq.heappush(heap, value)
            if len(heap) > 64:
                heapq.heappop(heap)
        best = min(best, time.perf_counter() - start)
    return best


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_rep(workload, seed, scale, log, *, obs=False, profile=None,
            label="rep"):
    """One repetition: fresh system, timed set-up and drive, checks.

    Returns ``(state, slices, sim)``: the workload state, the ledger's
    slices of this repetition, and the seed-determined metrics.
    Garbage of the previous repetition is collected first, so peak
    memory is one system's, however many repetitions run."""
    gc.collect()
    st = workload.new_state(seed, scale, obs)
    with log.span(label, workload=workload.name, seed=seed) as record:
        with log.span("setup"):
            with log.span("build"):
                workload.build(st)
            with log.span("preload"):
                workload.preload(st)
        before = layers.snapshot(st)
        gc.collect()
        with log.span("drive"):
            if profile is not None:
                profile.enable()
            try:
                workload.drive(st, log)
            finally:
                if profile is not None:
                    profile.disable()
        after = layers.snapshot(st)
        with log.span("verify"):
            workload.verify(st)
    sim = layers.counter_metrics(before, after)
    sim.update(workload.sim_metrics(st))
    return st, log.slices_under(record), sim


def host_values(workload, ops, events, slices):
    """Every host-clock metric of an untraced run, from its slices."""
    host = durations(slices)
    return {
        "host_s": host["drive"],
        "setup_s": host["setup"],
        "sim.events_per_host_s": events / host["drive"],
        "phase.build_host_s": host["build"],
        "phase.preload_host_s": host["preload"],
        "phase.drive_host_s": host["drive"],
        "phase.verify_host_s": host["verify"],
        **workload.host_metrics(ops, host),
    }


def spread(values):
    """How far the second-fastest repetition sits above the fastest,
    as a share of it: whether the minimum is corroborated."""
    fastest, second = sorted(values)[:2]
    return (second - fastest) / fastest


def measure_e2e(workload, args, log):
    """The untraced pass: repetitions until ``--seconds`` of drive time
    are spent, at least ``MIN_REPS``.  Returns the last state, the
    seed-determined values, the fastest slices and each repetition's
    own drive and set-up times.  The first, cold repetition is measured
    like the rest and rarely wins a slice."""
    repetitions, sims, reps = [], [], {"host_s": [], "setup_s": []}
    st = None
    while (len(sims) < args.reps if args.reps
           else sum(reps["host_s"]) < args.seconds or len(sims) < MIN_REPS):
        st = None  # let run_rep free the previous system before it builds
        st, slices, sim = run_rep(workload, args.seed, args.scale, log)
        own = durations(slices)
        reps["host_s"].append(own["drive"])
        reps["setup_s"].append(own["setup"])
        repetitions.append(slices)
        sims.append(sim)
    if any(sim != sims[-1] for sim in sims):
        workload.check(st, False, "repetitions disagree on the sim clock")
    values = {"peak_rss_mb": peak_rss_mb(), **sims[-1]}
    return st, values, fastest_slices(repetitions), reps


def measure_traced(workload, args, log):
    """The traced pass: obs-on full size, one untraced reference, a
    profiled drive and a trace-scale analyzer run, in that order so the
    obs run's peak RSS is read before anything larger has run."""
    trace_scale = workload.trace_scale * args.scale
    run_rep(workload, args.seed, trace_scale, log, label="warmup")
    values = {}
    failures = []  # (failed, notes) of the repetitions besides the plain one

    def rep(label, scale=args.scale, **how):
        st, slices, _sim = run_rep(workload, args.seed, scale, log,
                                   label=label, **how)
        failures.append((st.failed, st.notes))
        return st, durations(slices)["drive"]

    if workload.name in OBS_WORKLOADS:
        _st, values["host_s_obs"] = rep("obs-rep", obs=True)
        values["obs.peak_rss_mb"] = peak_rss_mb()
        del _st
    st, slices, sim = run_rep(workload, args.seed, args.scale, log)
    values.update(sim)
    plain = durations(slices)["drive"]
    if "host_s_obs" in values:
        values["obs.host_overhead_ratio"] = values["host_s_obs"] / plain

    profile = cProfile.Profile()
    _st, profiled = rep("profile-rep", profile=profile)
    values.update(layers.host_split(profile))
    values["profile.overhead_ratio"] = profiled / plain
    del _st, profile

    traced, _drive = rep("analyzer-rep", scale=trace_scale, obs=True)
    with log.span("attribute"):
        split, seconds_per_op = layers.sim_split(workload, traced)
    values.update(split)
    model = workload.model_seconds_per_op(traced)
    if model:
        values["cp.model_rel_err"] = abs(seconds_per_op - model) / model
    for failed, notes in failures:
        st.failed += failed
        st.notes += notes
    return st, values, slices, {"host_s": [plain]}


def measure(workload, args):
    """Measure one workload in this process; returns its record, whose
    metrics are still without the host-clock ones (see ``finish``)."""
    log = SpanLog()
    calib = calibrate()
    with log.span(workload.name, seed=args.seed, trace=args.trace):
        passes = measure_traced if args.trace else measure_e2e
        st, values, slices, reps = passes(workload, args, log)
    return {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "scale": args.scale, "attempted": st.attempted, "failed": st.failed,
        "notes": st.notes, "read_samples": getattr(st, "read_samples", None),
        "calib_s": calib, "calib_drift": calibrate() / calib,
        "metrics": values, "slices": slices, "reps": reps,
        "ops": {name: ops for name, (_sim_s, ops) in st.phases.items()},
        "events": log.chrome_events(),
    }


def finish(workload, record):
    """Turn a record's slices into its host-clock metrics, and give
    every metric its unit."""
    values = record["metrics"]
    host = host_values(workload, record["ops"], values["sim.events"],
                       record.pop("slices"))
    if record["trace"]:  # the contract's end-to-end names are untraced
        del host["host_s"], host["setup_s"]
    values.update(host)
    record["metrics"] = {name: {"value": value, "unit": UNITS[name]}
                         for name, value in values.items()}
    record["spread"] = {name: spread(times)
                        for name, times in record["reps"].items()
                        if len(times) > 1}


def child_record(args, name, trace, *more):
    """Start ``run.py`` again for one workload and pass with this run's
    settings; returns the process, whose last line of output will be
    its record."""
    return subprocess.Popen(
        [sys.executable, str(LEDGER_DIR / "run.py"), "--record",
         "--workload", name, "--trace", str(trace), "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--reps", str(args.reps),
         "--scale", str(args.scale), *more],
        stdout=subprocess.PIPE, text=True)


def collect(process):
    """Wait for a child; returns ``(printed text, record or None)``."""
    out, _ = process.communicate()
    text, _, last = out.rstrip("\n").rpartition("\n")
    return text, json.loads(last) if process.returncode == 0 else None


def measure_on_every_cpu(workload, args, cpus):
    """The untraced pass once per CPU, at the same time, each replica
    pinned to its own; returns their records merged.

    The host's slow spells mostly hit one vCPU at a time and two busy
    vCPUs do not slow each other, so the replicas are independent
    samples of one deterministic run: each slice counts at its fastest
    over all of them, and everything not on the host clock must agree
    exactly."""
    children = [child_record(args, workload.name, 0, "--cpu", str(cpu))
                for cpu in cpus]
    records = [record for _text, record in map(collect, children)]
    if None in records:
        raise SystemExit(f"{workload.name}: a measuring replica crashed")
    merged = records[0]
    merged["slices"] = fastest_slices([r["slices"] for r in records])
    for other in records[1:]:
        for key in ("attempted", "failed"):
            merged[key] += other[key]
        merged["notes"] += other["notes"]
        merged["events"] += other["events"]
        merged["calib_s"] = min(merged["calib_s"], other["calib_s"])
        merged["calib_drift"] = max(
            merged["calib_drift"], other["calib_drift"],
            key=lambda drift: abs(drift - 1.0))
        for name, times in other["reps"].items():
            merged["reps"][name] += times
        for name, mine in merged["metrics"].items():
            theirs = other["metrics"][name]
            if UNITS[name] in HOST_UNITS:
                merged["metrics"][name] = min(mine, theirs)
            elif mine != theirs:
                merged["failed"] += 1
                merged["notes"].append(f"replicas disagree on {name}")
    return merged


def report(record):
    """Print every metric by name with its unit, then the checks."""
    noisy = abs(record["calib_drift"] - 1.0) > DRIFT_LIMIT
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"reps {len(record['reps']['host_s'])}  trace {record['trace']}  "
          f"scale {record['scale']}")
    for name, metric in record["metrics"].items():
        flag = "  noisy" if noisy and metric["unit"] in CLOCK_UNITS else ""
        print(f"  {name:36s} {metric['value']:16.6f} {metric['unit']}{flag}")
    share = record["failed"] / record["attempted"]
    print(f"  {'failed_share':36s} {share:16.6f} ratio   "
          f"({record['failed']} of {record['attempted']})")
    print(f"  {'host.calib_s':36s} {record['calib_s']:16.6f} s")
    print(f"  {'host.calib_drift':36s} {record['calib_drift']:16.6f} ratio"
          f"{'  noisy: host metrics above are suspect' if noisy else ''}")
    if record["read_samples"]:
        print(f"  read percentiles: exact nearest rank over n = "
              f"{record['read_samples']} reads")
    for note in record["notes"]:
        print(f"  FAILED CHECK: {note}")


def write_outputs(args, records):
    if args.out:
        slim = [{key: value for key, value in record.items()
                 if key != "events"} for record in records]
        pathlib.Path(args.out).write_text(
            json.dumps({"workloads": slim}, indent=1) + "\n")
    if args.trace_out:
        events = [event for record in records for event in record["events"]]
        pathlib.Path(args.trace_out).write_text(
            json.dumps({"traceEvents": events}) + "\n")


def run_workload(workload, args):
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    cpus = sorted(os.sched_getaffinity(0))[:REPLICAS]
    if args.trace == 0 and args.cpu is None and len(cpus) > 1:
        record = measure_on_every_cpu(workload, args, cpus)
    else:
        record = measure(workload, args)
    if args.cpu is None:
        finish(workload, record)
        report(record)
        write_outputs(args, [record])
    if args.record:
        print(json.dumps(record))
    else:
        # The contract's object: exactly the declared metrics; one that
        # does not apply to this workload reads 0.
        declared = PER_LAYER if args.trace else E2E
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {
                name: record["metrics"].get(
                    name, {"value": 0.0, "unit": m["unit"]})
                for name, m in declared.items()
            },
        }))
    return 0 if record["failed"] == 0 else 1


def run_all(args):
    """Every workload, each pass in a subprocess of its own."""
    records = []
    for name in WORKLOADS:
        for trace in ((0, 1) if args.trace else (0,)):
            text, record = collect(child_record(args, name, trace))
            print(text)
            if record is None:
                raise SystemExit(f"{name}: the measuring process crashed")
            records.append(record)
    write_outputs(args, records)
    failed = sum(record["failed"] for record in records)
    print(json.dumps({
        "correct": failed == 0, "failed": failed, "metrics": {},
        "attempted": sum(record["attempted"] for record in records),
    }))
    return 0 if failed == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        default=CONTRACT["run_seconds"],
                        help="drive time to measure per run")
    parser.add_argument("--reps", type=int, default=0,
                        help="exact repetition count, instead of --seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every size (tests only)")
    parser.add_argument("--out", help="write the full record as JSON")
    parser.add_argument("--trace-out",
                        help="write the ledger's spans as Chrome-trace JSON")
    parser.add_argument("--cpu", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--record", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(WORKLOADS[args.workload], args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())

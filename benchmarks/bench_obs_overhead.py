"""S19 — observability overhead smoke.

With ``obs=None`` every hook in the hot paths is a single
``if sim.obs is not None`` guard, so instrumentation must be free when
disabled.  It asserts **exactly zero simulated overhead**: the obs-off
and obs-on runs execute the same number of events and end at the same
simulated clock (recording is synchronous — no extra events are
scheduled).  The median ratio of two obs-off runs executed back-to-back
in every round is printed as the host noise floor.

The obs-on arm reports the real cost of recording spans and metrics,
and exports a validated Chrome trace
(``benchmarks/results/trace_obs.json``) that the CI job uploads as a
workflow artifact.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_obs_overhead.py --quick
"""

import gc
import json
import pathlib
import time

from _bench import Bench
from repro.harness import paper_system
from repro.obs import validate_trace_document
from repro.workloads import write_then_stream

TRACE_PATH = pathlib.Path(__file__).parent / "results" / "trace_obs.json"
FULL_P = 8


def _run_arm(p: int, blocks: int, obs: bool, trace_export=None):
    system = paper_system(p, obs=obs, trace_export=trace_export)
    # Collect the previous run's garbage outside the timed region so
    # deferred collection cost is not attributed to whichever arm
    # happens to run next.
    gc.collect()
    start = time.perf_counter()
    system.run(write_then_stream(system, "ov", blocks))
    return time.perf_counter() - start, system


def sweep(quick):
    p, blocks, rounds = (4 if quick else FULL_P), 512, 9
    TRACE_PATH.parent.mkdir(exist_ok=True)
    off_a, off_b, on = [], [], []
    arms = {}
    # Warm-up: the very first run pays import and allocator start-up
    # cost that would otherwise bias batch A.
    _run_arm(p, blocks, obs=False)
    for round_index in range(rounds):
        # Interleave the batches so drift (thermal, scheduler) hits all
        # three arms alike instead of biasing whichever ran last.
        host, system = _run_arm(p, blocks, obs=False)
        off_a.append(host)
        arms["off"] = system
        host, _system = _run_arm(p, blocks, obs=False)
        off_b.append(host)
        trace = str(TRACE_PATH) if round_index == rounds - 1 else None
        host, system = _run_arm(p, blocks, obs=True, trace_export=trace)
        on.append(host)
        arms["on"] = system
    ratios = sorted(b / a for a, b in zip(off_a, off_b))
    return {
        "p": p,
        "blocks": blocks,
        "rounds": rounds,
        "host_off_a": min(off_a),
        "host_off_b": min(off_b),
        "host_on": min(on),
        "off_ratio_median": ratios[len(ratios) // 2],
        "events_off": arms["off"].sim.events_executed,
        "events_on": arms["on"].sim.events_executed,
        "clock_off": arms["off"].sim.now,
        "clock_on": arms["on"].sim.now,
        "spans": len(arms["on"].obs.spans),
    }


def check(result) -> None:
    # Disabled observability schedules nothing: same events, same clock.
    assert result["events_off"] == result["events_on"], result
    assert result["clock_off"] == result["clock_on"], result
    # The exported trace is well-formed and carries the span tree.
    document = json.loads(TRACE_PATH.read_text())
    problems = validate_trace_document(document)
    assert not problems, problems
    assert result["spans"] > 0
    assert any(
        event.get("name", "").startswith("call.seq_read")
        for event in document["traceEvents"]
    )


# No payload: every number here but the asserted-equal event counts is
# host wall-clock, which _emit.py's rule keeps out of BENCH_*.json.
BENCH = Bench("obs_overhead", sweep, check)
test_obs_overhead = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

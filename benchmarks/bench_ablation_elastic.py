"""S22 — resize-under-load: grow 2->4 and shrink 4->2 mid-traffic.

Each arm drives the S21 open-loop generator through three equal arrival
windows over one live system: steady-state at the starting size, the
same traffic while the consistent-hash ring flips and the migration
sweep relocates every reassigned namespace entry (throttled, with the
double-read forwarding window redirecting in-flight requests), and
steady-state at the final size.  The check asserts the S22 safety
claim — zero lost, misrouted, or duplicated files; every surviving file
byte-identical when read through the fabric vs reconstructed directly
from the LFS blocks; EFS fsck clean; zero hard failures in any phase —
and the capacity claim: growing the fabric improves steady-state read
p99, shrinking it degrades p99, and during-migration p99 stays within
an order of magnitude of the surrounding steady states (migration
shares the fabric, it does not stall it).

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_elastic.py --quick
"""

from _bench import Bench
from repro.harness.experiments import run_elastic_experiment

RATE = 60.0
DURATION = 2.0
QUICK_DURATION = 0.75
SEED = 7
PROVISIONED = 4
MOVES_PER_SECOND = 50.0

#: (label, start_servers, end_servers) — one grow arm, one shrink arm.
ARMS = (("grow", 2, 4), ("shrink", 4, 2))

PHASES = ("before", "during", "after")


def sweep(quick):
    duration = QUICK_DURATION if quick else DURATION
    return {
        "rate": RATE,
        "phase_duration": duration,
        "seed": SEED,
        "moves_per_second": MOVES_PER_SECOND,
        "arms": {
            label: run_elastic_experiment(
                rate=RATE, duration=duration, start_servers=start,
                end_servers=end, provisioned=PROVISIONED, seed=SEED,
                moves_per_second=MOVES_PER_SECOND,
            )
            for label, start, end in ARMS
        },
    }


def read_p99(run, phase):
    """One phase's read p99 (seconds) from its SLO summary."""
    return float(run["phases"][phase]["classes"]["read"]["p99"])


def check(document) -> None:
    runs = document["arms"]
    for label, run in runs.items():
        # The resize actually happened, in the advertised direction.
        assert run["direction"] == label, (label, run["direction"])
        assert run["planned_moves"] > 0, label
        assert run["moved"] + run["vanished"] == run["planned_moves"], label
        # Zero lost or misrouted files: ownership scan, duplicate scan,
        # routed-vs-direct byte compare, and EFS fsck all clean.
        assert (run["lost"] == run["misrouted"] == run["duplicated"]
                == run["content_mismatched"] == 0 and run["fsck_clean"]), (
            label, run)
        # No phase saw a hard failure and every phase made progress.
        phases = run["phases"]
        assert sum(int(summary["failed"])
                   for summary in phases.values()) == 0, (label, phases)
        for phase in PHASES:
            assert int(phases[phase]["completed"]) > 0, (label, phase)
        # Migration never stalls traffic: during-migration read p99 stays
        # within 10x of the better surrounding steady state.
        during = read_p99(run, "during")
        steady = min(read_p99(run, "before"), read_p99(run, "after"))
        assert during < 10 * max(steady, 1e-4), (label, during, steady)

    # Capacity follows the ring: growing 2->4 improves steady-state read
    # p99, shrinking 4->2 degrades it.
    grow, shrink = runs["grow"], runs["shrink"]
    assert (read_p99(grow, "after")
            < read_p99(grow, "before")), grow["phases"]
    assert (read_p99(shrink, "after")
            > read_p99(shrink, "before")), shrink["phases"]


BENCH = Bench("elastic", sweep, check)
test_elastic_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

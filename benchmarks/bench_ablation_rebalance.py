"""S24 — load-aware rebalancing: heat-driven arc shedding off vs on.

Both arms drive the same Zipf-skewed S21 open-loop mix at 4 partitions
over the consistent-hash fabric, with the heat map installed and the
control loop sweeping; the *static* arm runs the loop ``watch_only`` (it
records the identical imbalance trajectory but never acts) while the
*rebalance* arm lets the policy shed hot arcs through the live migration
sweep.  The diff between the arms is therefore exactly the policy's
effect.  The check asserts the S24 headline — the rebalancer narrows the
hot/cold partition busy-fraction spread, improves goodput (mixed-
workload speedup toward the route bound) and read p99, and raises the
popularity-weighted route bound of the final ring — and the safety
claim: zero lost, misrouted, or duplicated files, routed-vs-direct
byte-identical read-back, and clean fsck across every automatic sweep.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_rebalance.py --quick
"""

from _bench import Bench
from repro.harness.experiments import run_rebalance_experiment

RATE = 150.0
DURATION = 16.0
QUICK_DURATION = 8.0
SERVERS = 4
SKEW = 1.2
SEED = 7

#: (label, active) — identical traffic, policy watching vs acting.
ARMS = (("static", False), ("rebalance", True))


def sweep(quick):
    duration = QUICK_DURATION if quick else DURATION
    return {
        "rate": RATE,
        "duration": duration,
        "servers": SERVERS,
        "skew": SKEW,
        "seed": SEED,
        "arms": {
            label: run_rebalance_experiment(
                rate=RATE, duration=duration, servers=SERVERS, skew=SKEW,
                seed=SEED, active=active,
            )
            for label, active in ARMS
        },
    }


def read_p99(run):
    """The final cumulative read p99 (seconds)."""
    return float(run["summary"]["classes"]["read"]["p99"])


def check(document) -> None:
    runs = document["arms"]
    static, rebalance = runs["static"], runs["rebalance"]
    # The arms are what they claim: watcher never acts, policy does.
    assert not static["active"] and static["actions"] == 0, static["sweeps"]
    assert rebalance["active"] and rebalance["actions"] >= 1, (
        rebalance["sweeps"])
    assert rebalance["moves"] >= 1 and rebalance["arcs_shed"] >= 1
    # Safety across every automatic sweep: ownership scan, duplicate
    # scan, routed-vs-direct byte compare, and EFS fsck all clean.
    for label, run in runs.items():
        assert (run["lost"] == run["misrouted"] == run["duplicated"]
                == run["content_mismatched"] == 0 and run["fsck_clean"]), (
            label, run)
        assert int(run["summary"]["completed"]) > 0, label
        assert int(run["summary"]["failed"]) == 0, (label, run["summary"])
    # The headline: shedding hot arcs narrows the hot/cold busy spread...
    assert rebalance["utilization_spread"] < static["utilization_spread"], (
        rebalance["busy_fractions"], static["busy_fractions"]
    )
    # ...and the final ring's popularity-weighted route bound moved
    # toward the perfect SERVERS bound (the static arm's never changes).
    assert static["route_bound_final"] == static["route_bound_static"]
    assert rebalance["route_bound_final"] > rebalance["route_bound_static"], (
        rebalance["route_bound_static"], rebalance["route_bound_final"]
    )
    if document["duration"] < DURATION:
        # The short smoke run stops before the migration cost amortizes;
        # the latency/goodput headline is a full-duration claim.
        return
    # ...recovers mixed-workload speedup (goodput at equal offered load)
    # and read latency.
    assert rebalance["goodput"] > static["goodput"], (
        rebalance["goodput"], static["goodput"]
    )
    assert read_p99(rebalance) < read_p99(static), (
        read_p99(rebalance), read_p99(static)
    )


BENCH = Bench("rebalance", sweep, check)
test_rebalance_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

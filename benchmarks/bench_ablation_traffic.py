"""S21 — production traffic: latency vs offered load, with and without
admission control.

The sweep drives one Bridge server (fast fixed-latency disks, so the
server's serial request loop is the bottleneck) with open-loop
multi-class traffic at offered loads spanning the saturation knee:
roughly 0.5x, 1x, and 2x the measured service capacity (~80 req/s —
the 70 ms directory probes carried by the metadata class dominate the
mean service time).  Three arms per load:

* ``none`` — no admission policy.  Open-loop arrivals keep coming while
  the server falls behind, the queue grows without bound for the whole
  run, and p99 latency collapses past the knee.
* ``token-bucket`` — rate-limit near capacity; excess arrivals get a
  sub-ms typed refusal instead of a queue slot.
* ``fair`` — bounded queue (shed past depth) + per-class weighted fair
  queueing, so tool/parallel jobs cannot starve the naive classes.

Every (policy, load) cell runs under two arrival processes: ``poisson``
(memoryless, the S21 headline) and ``burst`` (the two-state MMPP built
in PR 6 — same mean rate, arrivals concentrated 4x during burst
periods), so the committed trajectory shows how admission control holds
up when load arrives in clumps rather than smoothly.

The check asserts the headline S21 claim on the Poisson arms: at the
highest load the no-policy arm's p99 has degraded by an order of
magnitude over its uncongested value, while at least one admission arm
keeps p99 bounded *and* holds goodput within 10% of its own peak across
the sweep.  On the burst arms it asserts the MMPP actually bites —
below the knee, clumped arrivals already push the unprotected p99 well
above its Poisson twin.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_traffic.py --quick
"""

from _bench import Bench, fields
from repro.harness.experiments import run_traffic_experiment

#: Offered loads (req/s) spanning the knee of a ~80 req/s server.
LOADS = (40, 80, 160)
QUICK_LOADS = (40, 160)

#: Policy arms: (policy, its ``build_admission`` parameters).
ARMS = (
    ("fair", {"depth": 32}),
    ("none", {}),
    ("token-bucket", {"rate": 75}),
)

SEED = 7
DURATION = 2.0

#: Arrival processes per (policy, load) cell: memoryless, and the
#: two-state MMPP with the default 4x burst concentration (same mean).
ARRIVAL_KINDS = ("poisson", "burst")


def sweep(quick):
    # Every cell is a fresh system, so the sweep runs in the order the
    # table and the JSON trajectory list them: load, arrivals, policy.
    return {
        (policy, rate, kind): run_traffic_experiment(
            rate=rate, duration=DURATION, seed=SEED,
            arrival_kind=kind, policy=policy, admission_params=params,
        )
        for rate in (QUICK_LOADS if quick else LOADS)
        for kind in sorted(ARRIVAL_KINDS)
        for policy, params in ARMS
    }


def _by_policy(runs, kind="poisson"):
    table = {}
    for (policy, _rate, run_kind), run in runs.items():
        if run_kind == kind:
            table.setdefault(policy, []).append(run)
    return table


def check(runs) -> None:
    by_policy = _by_policy(runs, kind="poisson")
    loads = sorted({rate for _policy, rate, _kind in runs})
    top = loads[-1]

    for run in runs.values():
        # Open-loop: the source issued what the arrival process said,
        # and every arrival resolved to exactly one outcome.
        summary = run.summary
        resolved = sum(
            summary[outcome]
            for outcome in ("completed", "throttled", "shed",
                            "abandoned", "failed")
        )
        assert resolved == run.offered, (run.policy, run.offered_rate)
        assert summary["failed"] == 0, (run.policy, run.offered_rate)

    # The sweep spans the knee: the lowest load leaves the server
    # unsaturated, the highest drives the unprotected arm to ~100% busy.
    none_runs = {r.offered_rate: r for r in by_policy["none"]}
    assert none_runs[loads[0]].server_utilization < 0.9
    assert none_runs[top].server_utilization > 0.95

    # Past the knee the unprotected arm collapses: p99 grows by an
    # order of magnitude over the uncongested point.
    base_p99 = max(none_runs[loads[0]].class_quantile("read", "p99"), 1e-4)
    collapsed_p99 = none_runs[top].class_quantile("read", "p99")
    assert collapsed_p99 > 10 * base_p99, (base_p99, collapsed_p99)

    # At least one admission arm keeps p99 bounded at the top load
    # while holding goodput within 10% of its own peak.
    protected = []
    for policy, arm_runs in by_policy.items():
        if policy == "none":
            continue
        at_top = next(r for r in arm_runs if r.offered_rate == top)
        refusals = at_top.summary["shed"] + at_top.summary["throttled"]
        assert refusals > 0, policy  # the policy actually engaged
        peak_goodput = max(r.goodput for r in arm_runs)
        p99 = at_top.class_quantile("read", "p99")
        if (p99 < collapsed_p99 / 2.0
                and at_top.goodput >= 0.9 * peak_goodput):
            protected.append(policy)
    assert protected, {
        policy: next(r for r in arm_runs if r.offered_rate == top).goodput
        for policy, arm_runs in by_policy.items()
    }

    # The MMPP bites: below the knee, clumped arrivals already push the
    # unprotected arm's p99 well above its Poisson twin at the same mean
    # rate (transient queueing during burst periods).
    burst_none = {
        r.offered_rate: r
        for r in _by_policy(runs, kind="burst")["none"]
    }
    low = loads[0]
    poisson_low = max(none_runs[low].class_quantile("read", "p99"), 1e-4)
    burst_low = burst_none[low].class_quantile("read", "p99")
    assert burst_low > 1.5 * poisson_low, (poisson_low, burst_low)


def payload(runs) -> dict:
    trajectory = []
    for (policy, rate, kind), run in runs.items():
        trajectory.append({
            "policy": policy,
            "offered_rate": rate,
            "arrival_kind": kind,
            "arrivals": run.offered,
            **{key: run.summary[key]
               for key in ("goodput", "completed", "throttled", "shed",
                           "abandoned", "failed")},
            **fields(run, "server_utilization", "queue_wait_p99",
                     "queue_peak_depth", "predicted_wait_mm1",
                     "predicted_wait_md1", "makespan"),
            "classes": run.summary["classes"],
        })
    return {
        "duration": DURATION,
        "seed": SEED,
        "loads": list(sorted({rate for _p, rate, _k in runs})),
        "policies": sorted({policy for policy, _r, _k in runs}),
        "arrival_kinds": list(ARRIVAL_KINDS),
        "trajectory": trajectory,
    }


BENCH = Bench("traffic", sweep, check, payload)
test_traffic_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

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

from _bench import Bench, fields
from repro.analysis import format_table
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
        label: run_elastic_experiment(
            rate=RATE, duration=duration, start_servers=start,
            end_servers=end, provisioned=PROVISIONED, seed=SEED,
            moves_per_second=MOVES_PER_SECOND,
        )
        for label, start, end in ARMS
    }


def check(runs) -> None:
    for label, run in runs.items():
        # The resize actually happened, in the advertised direction.
        assert run.direction == label, (label, run.direction)
        assert run.planned > 0, label
        assert run.moved + run.vanished == run.planned, label
        # Zero lost or misrouted files: ownership scan, duplicate scan,
        # routed-vs-direct byte compare, and EFS fsck all clean.
        assert run.files_intact and run.fsck_clean, (label, run)
        # No phase saw a hard failure and every phase made progress.
        assert run.failed() == 0, (label, run.phases)
        for phase in PHASES:
            assert int(run.phases[phase]["completed"]) > 0, (label, phase)
        # Migration never stalls traffic: during-migration read p99 stays
        # within 10x of the better surrounding steady state.
        during = run.phase_quantile("during", "read", "p99")
        steady = min(run.phase_quantile("before", "read", "p99"),
                     run.phase_quantile("after", "read", "p99"))
        assert during < 10 * max(steady, 1e-4), (label, during, steady)

    # Capacity follows the ring: growing 2->4 improves steady-state read
    # p99, shrinking 4->2 degrades it.
    grow, shrink = runs["grow"], runs["shrink"]
    assert (grow.phase_quantile("after", "read", "p99")
            < grow.phase_quantile("before", "read", "p99")), grow.phases
    assert (shrink.phase_quantile("after", "read", "p99")
            > shrink.phase_quantile("before", "read", "p99")), shrink.phases


def render(runs) -> str:
    rows = []
    for label, run in runs.items():
        for phase in PHASES:
            summary = run.phases[phase]
            rows.append([
                f"{label} {run.start_servers}->{run.end_servers}",
                phase,
                int(summary["offered"]),
                int(summary["completed"]),
                int(summary["failed"]),
                round(run.phase_quantile(phase, "read", "p50") * 1e3, 2),
                round(run.phase_quantile(phase, "read", "p99") * 1e3, 1),
            ])
        rows.append([
            f"{label} moves", f"{run.moved}/{run.planned}",
            run.forwarded, "-", "-", "-",
            round(run.migration_seconds, 2),
        ])
    return format_table(
        ["resize", "phase", "offered", "ok", "failed",
         "read p50 ms", "p99 ms / mig s"],
        rows,
        title=(f"resize under load, {RATE:g} req/s, "
               f"{MOVES_PER_SECOND:g} moves/s, seed {SEED}"),
    )


def payload(runs) -> dict:
    arms = {
        label: {
            **fields(run, "start_servers", "end_servers", "provisioned"),
            "planned_moves": run.planned,
            **fields(run, "moved", "vanished", "forwarded", "disruption",
                     "migration_seconds", "lost", "misrouted", "duplicated",
                     "content_mismatched", "fsck_clean"),
            "read_p99_ms": {
                phase: run.phase_quantile(phase, "read", "p99") * 1e3
                for phase in PHASES
            },
            **fields(run, "phases", "makespan"),
        }
        for label, run in runs.items()
    }
    return {
        "rate": RATE,
        "phase_duration": DURATION,
        "seed": SEED,
        "moves_per_second": MOVES_PER_SECOND,
        "arms": arms,
    }


BENCH = Bench("elastic", sweep, check, render, payload)
test_elastic_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

"""S17 — noncontiguous access: naive vs list I/O vs two-phase.

Per-block RPC pays one Bridge->EFS round trip per access; list I/O ships
each worker's whole pattern as at most p batched EFS requests; two-phase
aligns aggregators to the interleave so the whole *job* costs one batched
local request per touched LFS, plus exchange/redistribution messages.
The sweep crosses the three arms with the three pattern shapes (strided /
random scatter / hotspot) and checks the analytic message model against
the measured counts exactly — the combinatorics are not approximate.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_collective.py --quick
"""

from _bench import Bench, fields
from repro.analysis import format_table
from repro.harness.experiments import run_collective_experiment

PATTERNS = ("strided", "scatter", "hotspot")


def sweep(quick):
    if quick:
        return {
            "strided": run_collective_experiment(
                p=4, blocks=64, accesses=16, pattern="strided"
            )
        }
    return {
        pattern: run_collective_experiment(
            p=8, blocks=256, accesses=64, pattern=pattern
        )
        for pattern in PATTERNS
    }


def check(runs) -> None:
    for pattern, run in runs.items():
        # All three arms moved identical bytes.
        assert run.content_ok, pattern
        # The analytic message model is exact, not approximate.
        assert run.model_exact, (pattern, run)
        # List I/O caps each worker at p batched requests.
        assert run.listio_efs_requests <= run.workers * run.p
        assert run.listio_efs_requests < run.naive_efs_requests
        # Two-phase: one batched request per touched LFS, at most p.
        assert run.twophase_efs_requests <= run.p
        # Both optimizations strictly beat naive on every pattern.
        assert run.listio_seconds < run.naive_seconds, pattern
        assert run.twophase_seconds < run.naive_seconds, pattern


def render(runs) -> str:
    rows = []
    for pattern, run in runs.items():
        for arm, seconds, requests in (
            ("naive", run.naive_seconds, run.naive_efs_requests),
            ("list-io", run.listio_seconds, run.listio_efs_requests),
            ("two-phase", run.twophase_seconds, run.twophase_efs_requests),
        ):
            rows.append([
                pattern, arm, requests, seconds,
                run.accesses / seconds if seconds > 0 else 0.0,
            ])
    sample = next(iter(runs.values()))
    return format_table(
        ["pattern", "arm", "EFS reqs", "seconds", "blocks/s"],
        rows,
        title=(
            f"{sample.accesses} noncontiguous accesses, "
            f"{sample.workers} workers, p = {sample.p}"
        ),
    )


def payload(runs) -> dict:
    return {
        **fields(next(iter(runs.values())),
                 "p", "blocks", "accesses", "workers"),
        "patterns": {
            pattern: fields(
                run, "naive_seconds", "listio_seconds", "twophase_seconds",
                "naive_efs_requests", "listio_efs_requests",
                "twophase_efs_requests", "model_exact", "content_ok",
            )
            for pattern, run in runs.items()
        },
    }


BENCH = Bench("collective", sweep, check, render, payload)
test_collective_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

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

from _bench import Bench
from repro.harness.experiments import run_collective_experiment

PATTERNS = ("strided", "scatter", "hotspot")


def sweep(quick):
    # One worker per LFS (the runner's default), each with its share of
    # the accesses.
    p, blocks, accesses, patterns = (
        (4, 64, 16, PATTERNS[:1]) if quick else (8, 256, 64, PATTERNS))
    return {
        "p": p,
        "blocks": blocks,
        "accesses": accesses,
        "workers": p,
        "patterns": {
            pattern: run_collective_experiment(
                p=p, blocks=blocks, accesses=accesses, pattern=pattern
            )
            for pattern in patterns
        },
    }


def check(document) -> None:
    p = document["p"]
    for pattern, run in document["patterns"].items():
        # All three arms moved identical bytes.
        assert run["content_ok"], pattern
        # The analytic message model is exact, not approximate.
        assert run["model_exact"], (pattern, run)
        # List I/O caps each worker at p batched requests.
        assert run["listio_efs_requests"] <= document["workers"] * p
        assert run["listio_efs_requests"] < run["naive_efs_requests"]
        # Two-phase: one batched request per touched LFS, at most p.
        assert run["twophase_efs_requests"] <= p
        # Both optimizations strictly beat naive on every pattern.
        assert run["listio_seconds"] < run["naive_seconds"], pattern
        assert run["twophase_seconds"] < run["naive_seconds"], pattern


BENCH = Bench("collective", sweep, check)
test_collective_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

"""S18 — server-side caching and striped read-ahead ablation.

The naive view's sequential read pays one synchronous Bridge->LFS round
trip per block, leaving p - 1 disks idle.  The ablation streams the same
file twice per arm through five Bridge configurations — cache off (the
paper's system), LRU cache only, and read-ahead windows 1/2/4 — and
shows the pipeline collapsing the cold pass to the client round trip
(>= 3x at p = 8) while the cache-only arm only helps the repeat pass.
Byte identity against the cache-off arm is asserted for every pass.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_prefetch.py --quick
"""

from _bench import Bench
from repro.harness.experiments import run_prefetch_experiment

WINDOWS = (1, 2, 4)


def sweep(quick):
    p, blocks, windows = (4, 64, (1,)) if quick else (8, 256, WINDOWS)
    return {
        "p": p,
        "blocks": blocks,
        "arms": run_prefetch_experiment(p=p, blocks=blocks, windows=windows),
    }


def check(document) -> None:
    runs = document["arms"]
    by_arm = {run["arm"]: run for run in runs}
    off = by_arm["off"]
    cache = by_arm["cache"]
    # Every arm returns byte-identical data on both passes.
    assert all(run["content_ok"] for run in runs), [r["arm"] for r in runs]
    # The cache alone cannot speed up a cold single pass...
    assert cache["cold_seconds"] == off["cold_seconds"]
    # ...but serves the repeat pass without EFS traffic.
    assert cache["repeat_seconds"] < off["repeat_seconds"]
    for run in runs:
        if not run["prefetch_window"]:
            continue
        # Read-ahead pipelines the cold pass; at p = 8 the acceptance
        # bar is 3x (quick mode runs p = 4, where the bar is parity
        # with the supply rate, i.e. clearly faster than the serial
        # baseline).
        assert run["cold_seconds"] < off["cold_seconds"], run["arm"]
        if document["p"] >= 8:
            assert run["speedup"] >= 3.0, (run["arm"], run["speedup"])
        # The closed-form model bounds the measured cold pass from
        # below and is within startup distance of it.
        assert (run["model_seconds"] <= run["cold_seconds"]
                <= run["model_seconds"] * 1.25)
        assert run["prefetch_wasted"] <= run["prefetch_issued"] // 10


BENCH = Bench("prefetch", sweep, check)
test_prefetch_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

"""E10 — the three user views, on both network models.

Section 4.1/6: the naive view is transparently correct but serialized at
the server; the parallel open gives lock-step multi-block transfers
(virtual when t > p); the tool view exports the code to the data.  On
the Butterfly the tool's edge over parallel-open is "modest"; on a
shared Ethernet it is decisive because naive/parallel must move every
block across the bus.
"""

from _bench import Bench, fields
from repro.analysis import format_table
from repro.harness.experiments import run_views_experiment


def sweep(quick):
    return {
        network: run_views_experiment(8, blocks=256, network=network)
        for network in ("butterfly", "ethernet")
    }


def check(runs):
    butterfly, ethernet = runs["butterfly"], runs["ethernet"]
    # Every parallel view beats naive on both networks.
    for run in runs.values():
        assert run.tool_seconds < run.naive_seconds
        assert run.parallel_open_seconds < run.naive_seconds
    # Butterfly: tool and parallel-open comparable (modest edge at most).
    assert butterfly.tool_seconds < butterfly.parallel_open_seconds * 2.0
    # Ethernet: the tool wins decisively — blocks never cross the bus.
    assert ethernet.tool_seconds < ethernet.parallel_open_seconds * 0.75
    # Virtual parallelism (t = 2p) is no substitute for real width.
    assert ethernet.virtual_parallel_seconds > ethernet.parallel_open_seconds * 0.8


def render(runs):
    return format_table(
        ["network", "view", "blocks/s"],
        [[network, view, value]
         for network, run in runs.items()
         for view, value in run.as_throughput().items()],
        title=f"Reading a {runs['butterfly'].blocks}-block file, p = 8",
    )


def payload(runs):
    return {
        "blocks": runs["butterfly"].blocks,
        "p": 8,
        "by_network": {
            network: {
                **fields(run, "naive_seconds", "parallel_open_seconds",
                         "virtual_parallel_seconds", "tool_seconds"),
                "throughput_blocks_per_second": run.as_throughput(),
            }
            for network, run in runs.items()
        },
    }


BENCH = Bench("views", sweep, check, render, payload)
test_views_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

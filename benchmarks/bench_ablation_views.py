"""E10 — the three user views, on both network models.

Section 4.1/6: the naive view is transparently correct but serialized at
the server; the parallel open gives lock-step multi-block transfers
(virtual when t > p); the tool view exports the code to the data.  On
the Butterfly the tool's edge over parallel-open is "modest"; on a
shared Ethernet it is decisive because naive/parallel must move every
block across the bus.
"""

from _bench import Bench
from repro.harness.experiments import run_views_experiment

P = 8
BLOCKS = 256


def sweep(quick):
    return {
        "blocks": BLOCKS,
        "p": P,
        "by_network": {
            network: run_views_experiment(P, blocks=BLOCKS, network=network)
            for network in ("butterfly", "ethernet")
        },
    }


def check(document):
    runs = document["by_network"]
    butterfly, ethernet = runs["butterfly"], runs["ethernet"]
    # Every parallel view beats naive on both networks.
    for run in runs.values():
        assert run["tool_seconds"] < run["naive_seconds"]
        assert run["parallel_open_seconds"] < run["naive_seconds"]
    # Butterfly: tool and parallel-open comparable (modest edge at most).
    assert (butterfly["tool_seconds"]
            < butterfly["parallel_open_seconds"] * 2.0)
    # Ethernet: the tool wins decisively — blocks never cross the bus.
    assert ethernet["tool_seconds"] < ethernet["parallel_open_seconds"] * 0.75
    # Virtual parallelism (t = 2p) is no substitute for real width.
    assert (ethernet["virtual_parallel_seconds"]
            > ethernet["parallel_open_seconds"] * 0.8)


BENCH = Bench("views", sweep, check)
test_views_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

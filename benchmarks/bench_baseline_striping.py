"""E12 — Bridge vs disk striping vs a conventional sequential FS.

Section 2: striping removes the device bottleneck but "striped files...
are limited by the throughput of the file system software"; Bridge's
whole point is to parallelize the software too.  This bench copies/reads
the same data volume through all three systems across device counts.
"""

from _bench import PAPER_PS, Bench
from repro.harness.experiments import run_striping_comparison


def sweep(quick):
    # The crossover claim needs the full 2..32 range; quick shrinks the file.
    blocks = 512 if quick else 1024
    return {
        "blocks": blocks,
        "by_devices": {str(d): run_striping_comparison(d, blocks=blocks)
                       for d in PAPER_PS},
    }


def check(document):
    runs = document["by_devices"]
    for run in runs.values():
        # striping always beats one disk behind one FS
        assert run["striped_seconds"] < run["sequential_seconds"]
        # Bridge beats the sequential FS everywhere
        assert run["bridge_tool_seconds"] < run["sequential_seconds"]
    # Bridge keeps scaling where striping's serial software flattens:
    narrow, wide = runs["2"], runs["32"]
    stripe_gain = narrow["striped_seconds"] / wide["striped_seconds"]
    bridge_gain = narrow["bridge_tool_seconds"] / wide["bridge_tool_seconds"]
    assert bridge_gain > stripe_gain
    # and at 32 devices Bridge is the fastest system outright (the
    # crossover the paper's section 2 argument predicts)
    assert wide["bridge_tool_seconds"] < wide["striped_seconds"]


BENCH = Bench("striping", sweep, check)
test_bridge_vs_striping_vs_sequential = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

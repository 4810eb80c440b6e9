"""S23 — batched metadata ops vs per-name loops (E24).

The parallel-utilities argument in one table: the same metadata-pure
name family (empty width-1 files) pushed through a per-name RPC loop
and through the batched ``mcreate``/``mopen``/``mstat``/``mdelete``
surface, on fabrics of 1, 2, and 4 partitions plus one
window-constrained arm (``bridge_fanout_limit = 16`` at 4 partitions,
so partition sub-batches actually split).

Two claims are checked, one soft and one exact.  Soft: at 4 partitions
the batched open/stat/delete beat the per-name loop by at least 2x
wall-clock (in practice far more — the per-name loop pays the fixed
``bridge_request + bridge_directory_probe`` charge and a full message
round trip per name, the batch pays it once per sub-RPC).  Exact: the
observed Bridge-Server request counters equal
``sum(ceil(k_i / window))`` from :func:`repro.analysis.batched_rpc_count`
for every op and every arm — the model is combinatorial, so equality,
not shape, is the bar.

Also runnable as a script (the CI smoke job)::

    python benchmarks/bench_ablation_metadata.py --quick
"""

from _bench import Bench
from repro.harness.experiments import run_metadata_experiment

SEED = 0
NAMES = 256
QUICK_NAMES = 48

OPS = ("create", "open", "stat", "delete")

#: (label, servers, window) — partition sweep plus one windowed arm.
ARMS = (
    ("p1", 1, 0),
    ("p2", 2, 0),
    ("p4", 4, 0),
    ("p4w16", 4, 16),
)


def sweep(quick):
    names = QUICK_NAMES if quick else NAMES
    return {
        "names": names,
        "seed": SEED,
        "arms": {
            label: run_metadata_experiment(
                servers=servers, names=names, seed=SEED, window=window,
            )
            for label, servers, window in ARMS
        },
    }


def check(document) -> None:
    runs = document["arms"]
    for label, run in runs.items():
        # The combinatorial model is exact: observed server request
        # deltas equal the predicted counts for every op.
        for op in OPS:
            assert run["per_name_rpcs"][op] == run["model_per_name_rpcs"], (
                label, op, run["per_name_rpcs"])
            assert run["batched_rpcs"][op] == run["model_batched_rpcs"], (
                label, op, run["batched_rpcs"], run["model_batched_rpcs"])
        # Every name settled cleanly and both arms agree on what the
        # namespace looked like (stat shapes) and freed (delete totals).
        assert run["errors"] == 0, (label, run["errors"])
        assert run["content_ok"], label
    # The headline: at the widest fabric the batched ops beat the
    # per-name loop by at least 2x wall-clock.
    speedup = runs["p4"]["speedup"]
    for op in ("open", "stat", "delete"):
        assert speedup[op] >= 2.0, (op, speedup[op])
    # Windowing trades RPC count for fan-out bound, never correctness:
    # the windowed arm issues at least as many RPCs, same outcomes.
    assert (runs["p4w16"]["model_batched_rpcs"]
            >= runs["p4"]["model_batched_rpcs"])


BENCH = Bench("metadata", sweep, check)
test_metadata_ablation = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

"""E13 — section 6's fault-intolerance discussion, made measurable.

One disk failure ruins every interleaved file; mirroring (shadow copy
shifted one node) survives it at exactly 2x storage; rotating parity
(S16) survives it at p/(p-1)x storage plus a read-modify-write penalty
on every write.  One sweep — every redundancy scheme through the full
fail -> degraded read -> repair -> online rebuild lifecycle — and two
tables:

* the survival table: the ``none`` and ``mirror`` rows' outcome next to
  the analytic loss fractions for the placement alternatives;
* the lifecycle table, with storage overhead, device write traffic,
  degraded-read latency, and rebuild time — the section 6 cost argument
  made quantitative.
"""

from _bench import Bench
from repro.harness.experiments import run_redundancy_experiment
from repro.redundancy import (
    SCHEMES,
    files_lost_fraction_interleaved,
    files_lost_fraction_mirrored,
    files_lost_fraction_parity,
    files_lost_fraction_single_node,
)

PS = (4, 8, 16)
#: File size per LFS slot: the dead column holds this many blocks.
BLOCKS_PER_SLOT = 4


def sweep(quick):
    runs = {
        (p, scheme): run_redundancy_experiment(
            scheme, p=p, blocks=BLOCKS_PER_SLOT * p)
        for p in PS
        for scheme in SCHEMES
    }
    return {
        # Per p, the one-failure outcome of the unprotected and the
        # mirrored file beside the analytic loss fractions.
        "survival": {
            str(p): {
                "plain_lost": not runs[(p, "none")]["survived"],
                "mirrored_recovered": (runs[(p, "mirror")]["survived"]
                                       and runs[(p, "mirror")]["content_ok"]),
                "mirror_fallbacks":
                    runs[(p, "mirror")]["degraded_reconstructions"],
                "storage_factor": runs[(p, "mirror")]["storage_factor"],
                "loss_fraction_interleaved": files_lost_fraction_interleaved(p),
                "loss_fraction_single_node": files_lost_fraction_single_node(p),
                "loss_fraction_mirrored_two_failures":
                    files_lost_fraction_mirrored(p, 2),
                "loss_fraction_parity_two_failures":
                    files_lost_fraction_parity(p, 2),
            }
            for p in PS
        },
        "lifecycle": {f"p{p}.{scheme}": row
                      for (p, scheme), row in sorted(runs.items())},
    }


def check(document):
    lifecycle = document["lifecycle"]
    for p, row in document["survival"].items():
        assert row["plain_lost"], f"p={p}: interleaved file survived?!"
        assert row["mirrored_recovered"]
        assert row["storage_factor"] == 2.0
        # the dead column: one block in p of the 4p-block file
        assert row["mirror_fallbacks"] == BLOCKS_PER_SLOT
    for label, run in lifecycle.items():
        p, scheme = label[1:].split(".")
        assert run["fsck_clean"], f"{scheme}@p={p}: fsck found errors"
        if scheme == "none":
            assert not run["survived"]
            assert run["storage_factor"] == 1.0
        else:
            assert run["survived"] and run["content_ok"], f"{scheme}@p={p}"
            assert run["degraded_reconstructions"] > 0
        if scheme == "mirror":
            assert run["storage_factor"] == 2.0
        if scheme == "parity":
            # p/(p-1), up to the final partial stripe's rounding
            expected = int(p) / (int(p) - 1)
            assert abs(run["storage_factor"] - expected) < 0.1, (
                f"parity storage {run['storage_factor']} != ~{expected}"
            )
            assert (run["rebuild_seconds"] is not None
                    and run["rebuild_seconds"] > 0)
            assert run["rebuild_blocks"] > 0
            # parity writes cost more device traffic than none, and less
            # storage than the mirror's 2x (one file size per p)
            assert (run["write_ops_per_block"]
                    > lifecycle[f"p{p}.none"]["write_ops_per_block"])
            assert (run["storage_factor"]
                    < lifecycle[f"p{p}.mirror"]["storage_factor"])


BENCH = Bench("faults", sweep, check)
test_fault_tolerance = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

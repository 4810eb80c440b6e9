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

from _bench import Bench, fields
from repro.harness.experiments import run_redundancy_experiment
from repro.redundancy import (
    SCHEMES,
    files_lost_fraction_interleaved,
    files_lost_fraction_mirrored,
    files_lost_fraction_parity,
    files_lost_fraction_single_node,
)

PS = (4, 8, 16)


def sweep(quick):
    return {
        (p, scheme): run_redundancy_experiment(scheme, p=p, blocks=4 * p)
        for p in PS
        for scheme in SCHEMES
    }


def survival(lifecycle):
    """Per p, the one-failure outcome of the unprotected and the
    mirrored file, read off the lifecycle rows."""
    rows = {}
    for p in PS:
        none, mirror = lifecycle[(p, "none")], lifecycle[(p, "mirror")]
        rows[p] = {
            "plain_lost": not none.survived,
            "mirrored_recovered": mirror.survived and mirror.content_ok,
            "mirror_fallbacks": mirror.degraded_reconstructions,
            "storage_factor": mirror.storage_factor,
        }
    return rows


def check(lifecycle):
    for p, row in survival(lifecycle).items():
        assert row["plain_lost"], f"p={p}: interleaved file survived?!"
        assert row["mirrored_recovered"]
        assert row["storage_factor"] == 2.0
        # the dead column: one block in p of the 4p-block file
        assert row["mirror_fallbacks"] == lifecycle[(p, "mirror")].blocks // p
    for (p, scheme), run in lifecycle.items():
        assert run.fsck_clean, f"{scheme}@p={p}: fsck found errors"
        if scheme == "none":
            assert not run.survived
            assert run.storage_factor == 1.0
        else:
            assert run.survived and run.content_ok, f"{scheme}@p={p}"
            assert run.degraded_reconstructions > 0
        if scheme == "mirror":
            assert run.storage_factor == 2.0
        if scheme == "parity":
            # p/(p-1), up to the final partial stripe's rounding
            expected = p / (p - 1)
            assert abs(run.storage_factor - expected) < 0.1, (
                f"parity storage {run.storage_factor} != ~{expected}"
            )
            assert run.rebuild_seconds is not None and run.rebuild_seconds > 0
            assert run.rebuild_blocks > 0
            # parity writes cost more device traffic than none, and less
            # storage than the mirror's 2x
            assert run.write_device_ops > lifecycle[(p, "none")].write_device_ops
            assert run.storage_blocks < lifecycle[(p, "mirror")].storage_blocks


def payload(lifecycle):
    return {
        "survival": {
            str(p): {
                **row,
                "loss_fraction_interleaved": files_lost_fraction_interleaved(p),
                "loss_fraction_single_node": files_lost_fraction_single_node(p),
                "loss_fraction_mirrored_two_failures":
                    files_lost_fraction_mirrored(p, 2),
                "loss_fraction_parity_two_failures":
                    files_lost_fraction_parity(p, 2),
            }
            for p, row in survival(lifecycle).items()
        },
        "lifecycle": {
            f"p{p}.{scheme}": {
                **fields(run, "storage_factor", "write_ops_per_block"),
                "healthy_read_ms_per_block": run.healthy_read_s_per_block * 1e3,
                "degraded_read_ms_per_block": (
                    None if run.degraded_read_s_per_block is None
                    else run.degraded_read_s_per_block * 1e3
                ),
                **fields(run, "degraded_reconstructions", "rebuild_seconds",
                         "survived", "content_ok", "fsck_clean"),
            }
            for (p, scheme), run in sorted(lifecycle.items())
        },
    }


BENCH = Bench("faults", sweep, check, payload)
test_fault_tolerance = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

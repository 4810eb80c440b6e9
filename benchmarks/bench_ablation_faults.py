"""E13 — section 6's fault-intolerance discussion, made measurable.

One disk failure ruins every interleaved file; mirroring (shadow copy
shifted one node) survives it at exactly 2x storage; rotating parity
(S16) survives it at p/(p-1)x storage plus a read-modify-write penalty
on every write.  Two tables:

* the original survival table (observed outcome + analytic loss
  fractions for the placement alternatives);
* the redundancy-scheme ablation: none / mirror / parity through the
  full fail -> degraded read -> repair -> online rebuild lifecycle, with
  storage overhead, device write traffic, degraded-read latency, and
  rebuild time — the section 6 cost argument made quantitative.
"""

from _bench import Bench, fields
from repro.analysis import format_table
from repro.harness.experiments import (
    run_faults_experiment,
    run_redundancy_experiment,
)
from repro.redundancy import (
    SCHEMES,
    files_lost_fraction_interleaved,
    files_lost_fraction_mirrored,
    files_lost_fraction_parity,
    files_lost_fraction_single_node,
)


def sweep(quick):
    survival = {p: run_faults_experiment(p=p, blocks=4 * p) for p in (4, 8, 16)}
    lifecycle = {
        (p, scheme): run_redundancy_experiment(scheme, p=p, blocks=4 * p)
        for p in (4, 8)
        for scheme in SCHEMES
    }
    return survival, lifecycle


def check(results):
    survival, lifecycle = results
    for p, run in survival.items():
        assert run.plain_lost, f"p={p}: interleaved file survived?!"
        assert run.mirrored_recovered
        assert run.mirror_storage_blocks == 2 * run.plain_storage_blocks
        assert run.mirror_fallbacks == run.blocks // p  # the dead column
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


def render(results):
    survival, lifecycle = results
    widest = survival[max(survival)]
    survival_table = format_table(
        ["p", "plain file", "mirrored file", "shadow reads",
         "storage factor", "loss frac interleaved",
         "loss frac single-node", "loss frac mirrored (2 fails)",
         "loss frac parity (2 fails)"],
        [
            [
                p,
                "LOST" if run.plain_lost else "ok",
                "recovered" if run.mirrored_recovered else "LOST",
                run.mirror_fallbacks,
                run.mirror_storage_blocks / run.plain_storage_blocks,
                files_lost_fraction_interleaved(p),
                files_lost_fraction_single_node(p),
                files_lost_fraction_mirrored(p, 2),
                files_lost_fraction_parity(p, 2),
            ]
            for p, run in sorted(survival.items())
        ],
        title="One disk failure: observed outcome and analytic loss fractions",
    )
    lifecycle_table = format_table(
        ["p", "scheme", "storage factor", "dev writes/blk",
         "healthy read ms/blk", "degraded read ms/blk", "reconstructions",
         "rebuild s", "content", "fsck"],
        [
            [
                p,
                scheme,
                run.storage_factor,
                run.write_ops_per_block,
                run.healthy_read_s_per_block * 1e3,
                ("LOST" if run.degraded_read_s_per_block is None
                 else run.degraded_read_s_per_block * 1e3),
                run.degraded_reconstructions,
                ("-" if run.rebuild_seconds is None
                 else run.rebuild_seconds),
                "ok" if run.content_ok else "CORRUPT",
                "clean" if run.fsck_clean else "DIRTY",
            ]
            for (p, scheme), run in sorted(lifecycle.items())
        ],
        title=("Redundancy schemes through fail -> degraded -> repair -> "
               "rebuild (storage p/(p-1) for parity vs 2x for mirror)"),
    )
    return (
        f"{survival_table}\n\n"
        f"plain interleaved file lost: {widest.plain_lost}\n"
        f"mirrored file recovered:     {widest.mirrored_recovered} "
        f"({widest.mirror_fallbacks} blocks from the shadow at p = {widest.p})"
        f"\n\n{lifecycle_table}"
    )


def payload(results):
    survival, lifecycle = results
    return {
        "survival": {
            str(p): {
                **fields(run, "plain_lost", "mirrored_recovered",
                         "mirror_fallbacks"),
                "storage_factor": (
                    run.mirror_storage_blocks / run.plain_storage_blocks
                ),
                "loss_fraction_interleaved": files_lost_fraction_interleaved(p),
                "loss_fraction_single_node": files_lost_fraction_single_node(p),
            }
            for p, run in sorted(survival.items())
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


BENCH = Bench("faults", sweep, check, render, payload)
test_fault_tolerance = BENCH.test()

if __name__ == "__main__":
    BENCH.main()

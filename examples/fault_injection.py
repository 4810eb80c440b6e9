"""Murphy's law for interleaved files (paper section 6) — and the remedies.

Interleaved files touch every disk, so a single device failure ruins
every file.  This example runs one file through the section 6 lifecycle
under each redundancy scheme — write it, kill a disk, read it, repair
the disk — and shows that the plain file is gone, the mirrored file
(shadow copy shifted by one node) reads back completely at exactly 2x
the storage, as the paper prices it, and rotating parity (S16) survives
too at p/(p-1)x storage, plus an online rebuild after the repair.

Run: python examples/fault_injection.py
"""

from repro.harness.experiments import run_redundancy_experiment
from repro.redundancy import (
    SCHEMES,
    files_lost_fraction_interleaved,
    files_lost_fraction_single_node,
)


def main(p: int = 8, blocks: int = 24, victim: int = 3) -> None:
    print(f"{p}-node Bridge system; one {blocks}-block file per redundancy "
          f"scheme, then the disk on LFS node {victim} fails\n")
    for scheme in SCHEMES:
        run = run_redundancy_experiment(scheme, p=p, blocks=blocks, seed=13,
                                        victim=victim)
        if run["survived"]:
            outcome = (f"recovered {blocks}/{blocks} blocks "
                       f"({run['degraded_reconstructions']} rebuilt from "
                       f"redundancy, content "
                       f"{'ok' if run['content_ok'] else 'CORRUPT'})")
        else:
            outcome = "LOST"
        print(f"{scheme:<7} {run['storage_factor']:.2f}x storage -> {outcome}")
        if run["rebuild_seconds"] is not None:
            print(f"        disk repaired; online rebuild rewrote "
                  f"{run['rebuild_blocks']} blocks in "
                  f"{run['rebuild_seconds']:.3f} simulated seconds, fsck "
                  f"{'clean' if run['fsck_clean'] else 'ERRORS'}")

    print("\nexpected loss under one disk failure:")
    print(f"  interleaved, unreplicated: "
          f"{files_lost_fraction_interleaved(p) * 100:.0f}% of files")
    print(f"  single-node files:         "
          f"{files_lost_fraction_single_node(p) * 100:.1f}% of files")
    print("  mirrored or parity:        0% (any single failure)")
    print("\n'Replication helps, but only at very high cost.  Storage capacity"
          "\nmust be doubled in order to tolerate single-drive failures.'")


if __name__ == "__main__":
    main()

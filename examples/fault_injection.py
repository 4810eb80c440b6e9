"""Murphy's law for interleaved files (paper section 6) — and the remedies.

Interleaved files touch every disk, so a single device failure ruins
every file.  This example writes a plain interleaved file and a mirrored
one (shadow copy shifted by one node), kills a disk, and shows that the
plain file is gone while the mirrored file reads back completely — at
exactly 2x the storage, as the paper prices it.  It then does the same
with rotating parity (S16): same survival, p/(p-1)x storage, plus an
online rebuild after the disk is repaired.

Run: python examples/fault_injection.py
"""

from repro.errors import DeviceFailedError
from repro.harness import paper_system
from repro.redundancy import (
    FaultInjector,
    MirroredFile,
    files_lost_fraction_interleaved,
    files_lost_fraction_single_node,
)
from repro.workloads import build_file, pattern_chunks


def main(p: int = 8, blocks: int = 24) -> None:
    system = paper_system(p, seed=13)
    print(f"{p}-node Bridge system; writing two {blocks}-block files\n")

    build_file(system, "plain", pattern_chunks(blocks))
    mirrored = MirroredFile(system, "guarded")

    def setup():
        yield from mirrored.create()
        yield from mirrored.write_all(pattern_chunks(blocks))
        return (yield from mirrored.storage_blocks())

    mirror_storage = system.run(setup())
    print(f"plain file:    {blocks} blocks of storage")
    print(f"mirrored file: {mirror_storage} blocks of storage "
          f"({mirror_storage / blocks:.0f}x)\n")

    # force future reads to touch the devices, then kill one disk
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
    victim = 3
    FaultInjector(system).fail_slot(victim)
    print(f"*** disk on LFS node {victim} has failed ***\n")

    client = system.naive_client()

    def read_plain():
        recovered = 0
        try:
            for block in range(blocks):
                yield from client.random_read("plain", block)
                recovered += 1
        except DeviceFailedError:
            return recovered, True
        return recovered, False

    recovered, lost = system.run(read_plain())
    print(f"plain interleaved file: read {recovered}/{blocks} blocks before "
          f"hitting the dead disk -> file {'LOST' if lost else 'ok'}")

    def read_mirrored():
        return (yield from mirrored.read_all())

    chunks, stats = system.run(read_mirrored())
    print(f"mirrored file: recovered {len(chunks)}/{blocks} blocks "
          f"({stats.fallbacks} served from the shadow copy)\n")

    print("expected loss under one disk failure:")
    print(f"  interleaved, unreplicated: "
          f"{files_lost_fraction_interleaved(p) * 100:.0f}% of files")
    print(f"  single-node files:         "
          f"{files_lost_fraction_single_node(p) * 100:.1f}% of files")
    print("  mirrored interleaved:      0% (any single failure)")
    print("\n'Replication helps, but only at very high cost.  Storage capacity"
          "\nmust be doubled in order to tolerate single-drive failures.'")

    parity_demo(p, blocks)


def parity_demo(p: int = 8, blocks: int = 24) -> None:
    """The cheaper remedy: rotating XOR parity with online rebuild."""
    from repro.efs.fsck import check_system

    system = paper_system(p, seed=13, redundancy="parity")
    pfile = system.redundant_file("insured")

    def setup():
        yield from pfile.create()
        yield from pfile.write_all(pattern_chunks(blocks))
        return (yield from pfile.storage_blocks())

    storage = system.run(setup())
    print(f"\n--- rotating parity (RAID-5 style), same {blocks}-block file ---")
    print(f"parity file: {storage} blocks of storage "
          f"({storage / blocks:.2f}x vs 2x for mirroring; "
          f"ideal p/(p-1) = {p / (p - 1):.2f}x)\n")

    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
    victim = 3
    injector = FaultInjector(system)
    injector.fail_slot(victim)
    print(f"*** disk on LFS node {victim} has failed ***")

    def read_parity():
        return (yield from pfile.read_all())

    chunks, stats = system.run(read_parity())
    print(f"parity file: recovered {len(chunks)}/{blocks} blocks "
          f"({stats.degraded} reconstructed from peer XOR, "
          f"{stats.peer_reads} peer reads)")

    # keep writing while degraded, then repair: the manager auto-starts
    # an online stripe-by-stripe rebuild of the dead constituent
    def append():
        yield from pfile.write_all(pattern_chunks(4, stamp=b"NEW"))

    system.run(append())
    print(f"appended 4 blocks while degraded "
          f"(file now {pfile.logical_blocks} blocks)")

    repaired_at = system.sim.now
    injector.repair_slot(victim)
    system.sim.run()  # drain the rebuild sweep
    rebuild = system.redundancy.rebuilds[-1]
    print(f"disk repaired; online rebuild rewrote "
          f"{rebuild.progress.blocks_written} blocks in "
          f"{system.sim.now - repaired_at:.3f} simulated seconds")
    clean = all(report.clean for report in check_system(system))
    print(f"fsck after rebuild: {'clean' if clean else 'ERRORS'}")


if __name__ == "__main__":
    main()

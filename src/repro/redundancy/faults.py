"""Fault injection and survival analysis (paper section 6).

"Interleaved files (like striped files and storage arrays) are inherently
intolerant of faults.  A failure anywhere in the system is fatal; it
ruins every file.  Replication helps, but only at very high cost."

:class:`FaultInjector` fails individual node disks in a live system;
the analytic helpers price expected file loss under every placement
strategy and remedy — unprotected, mirrored
(:mod:`repro.redundancy.mirror`), rotating parity
(:mod:`repro.redundancy.parity`).
"""

from __future__ import annotations


class FaultInjector:
    """Fail and repair storage devices in a
    :class:`~repro.harness.builders.BridgeSystem`.

    Works against the storage-kernel contract
    (:meth:`~repro.storage.base.BlockStoreABC.fail` /
    :meth:`~repro.storage.base.BlockStoreABC.repair`), so it injects
    faults into any registered driver — ram, host-fs, object-store —
    without knowing which one a node runs.

    The device's own ``failed`` flag is the one record of a failed
    disk: failing a failed slot or repairing a healthy one is a no-op,
    and a slot failed through one injector can be repaired through
    another.  A repair *transition* tells the system's redundancy
    manager, which under parity starts the online rebuild.
    """

    def __init__(self, system) -> None:
        self.system = system

    def fail_slot(self, slot: int) -> None:
        """Fail the disk behind LFS ``slot``."""
        disk = self.system.disks[slot]
        if not disk.failed:
            disk.fail()

    def repair_slot(self, slot: int) -> None:
        disk = self.system.disks[slot]
        if not disk.failed:
            return
        disk.repair()
        self.system.redundancy.on_repair(slot)

# ---------------------------------------------------------------------------
# Survival analysis
# ---------------------------------------------------------------------------


def files_lost_fraction_interleaved(width: int, failed_disks: int = 1) -> float:
    """Fraction of width-``width`` interleaved files lost when any disk
    fails: 1.0 for any failure (every file touches every disk)."""
    if failed_disks <= 0:
        return 0.0
    return 1.0 if width > 0 else 0.0


def files_lost_fraction_single_node(node_count: int, failed_disks: int = 1) -> float:
    """Fraction of unreplicated width-1 files lost: failed/node_count
    (files are spread evenly across nodes)."""
    if node_count <= 0:
        return 0.0
    return min(1.0, failed_disks / node_count)


def files_lost_fraction_mirrored(width: int, failed_disks: int = 1) -> float:
    """Mirrored interleaved files survive any single failure; a second
    failure is fatal only if it hits the partner copy — with the simple
    next-neighbor mirroring of :mod:`repro.redundancy.mirror`, two failures
    are fatal iff they are ring-adjacent."""
    if failed_disks <= 1:
        return 0.0
    if width <= 1:
        return 1.0
    # probability two uniform distinct failures are adjacent on the ring
    if width == 2:
        return 1.0
    return 2.0 / (width - 1)


def files_lost_fraction_parity(width: int, failed_disks: int = 1) -> float:
    """Fraction of parity-protected files lost: zero for a single failure,
    everything for two or more (every stripe spans every node)."""
    if failed_disks <= 1:
        return 0.0
    return 1.0 if width > 0 else 0.0

"""Online reconstruction of a repaired node (S16).

After :meth:`repro.redundancy.faults.FaultInjector.repair_slot`
reconnects a device, the node's constituent files are stale: every block written while the
device was down is missing (a *write hole* — the parity block absorbed
the new contents, the data block never landed), and pre-failure blocks
may have been logically overwritten.  :class:`OnlineRebuild` is a
discrete-event process (:mod:`repro.sim`) that walks the parity group
stripe by stripe, XOR-reconstructs the repaired slot's block from the
surviving peers, and rewrites it — in place where the constituent already
has the block, appended where the outage left the constituent short.
Foreground traffic keeps flowing the whole time: each stripe is repaired
under the file's stripe lock, so writes interleave *between* stripes, and
writes that race ahead of the sweep are caught because the sweep re-reads
the file size every iteration.

The sweep runs at full speed; foreground requests interleave between
its stripes.  :class:`RebuildProgress` exposes completed/total stripe
counts and the start and finish times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.redundancy.degraded import DegradedReader, DegradedReadStats


@dataclass
class RebuildProgress:
    """Live progress of one rebuild sweep (readable from outside the sim)."""

    slot: int
    total_stripes: int = 0
    rebuilt_stripes: int = 0
    blocks_written: int = 0
    started_at: float = 0.0
    finished_at: Optional[float] = None

    def elapsed(self, now: float) -> float:
        end = self.finished_at if self.finished_at is not None else now
        return end - self.started_at

@dataclass
class RebuildStats:
    """Final outcome of one rebuild sweep."""

    slot: int
    stripes: int
    blocks_written: int
    elapsed: float
    progress: RebuildProgress = field(repr=False, default=None)


class OnlineRebuild:
    """Stripe-by-stripe reconstruction of one slot of one parity file.

    Usage (auto-wired by :class:`repro.redundancy.manager.RedundancyManager`
    when the fault injector reports a repair)::

        rebuild = OnlineRebuild(parity_file, slot)
        process = rebuild.start()          # spawns the DES process
        ...                                # foreground traffic continues
        stats = yield process.join()       # or let system.run() drain it
    """

    def __init__(self, parity_file, slot: int) -> None:
        if not 0 <= slot < parity_file.geometry.width:
            raise ValueError(
                f"slot {slot} outside [0, {parity_file.geometry.width})"
            )
        self.file = parity_file
        self.slot = slot
        self.progress = RebuildProgress(slot=slot)

    # ------------------------------------------------------------------

    def run(self):
        """The rebuild process body; returns :class:`RebuildStats`."""
        file = self.file
        sim = file.system.sim
        reader = DegradedReader(file, stats=DegradedReadStats())
        progress = self.progress
        progress.started_at = sim.now
        progress.total_stripes = file.stripes
        while progress.rebuilt_stripes < file.stripes:
            progress.total_stripes = file.stripes  # foreground may append
            stripe = progress.rebuilt_stripes
            yield file._lock.acquire()
            try:
                # In a partial tail stripe this slot may hold a *logical*
                # position past the end of the file; there is nothing to
                # rebuild there, and writing a zero block would corrupt
                # the strict layout (a data block with no logical owner).
                logical = file.geometry.logical_of(stripe, self.slot)
                if logical is None or logical < file.logical_blocks:
                    data = yield from reader.reconstruct(
                        stripe, self.slot, locked=True
                    )
                    yield from file.write_local(self.slot, stripe, data)
                    progress.blocks_written += 1
            finally:
                file._lock.release()
            progress.rebuilt_stripes += 1
        progress.finished_at = sim.now
        return RebuildStats(
            slot=self.slot,
            stripes=progress.rebuilt_stripes,
            blocks_written=progress.blocks_written,
            elapsed=progress.elapsed(sim.now),
            progress=progress,
        )

    def start(self):
        """Spawn the sweep as a simulated process; returns the Process."""
        return self.file.system.sim.spawn(
            self.run(),
            name=f"rebuild:{self.file.name}:slot{self.slot}",
        )

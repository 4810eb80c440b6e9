"""Degraded-mode reads: transparent XOR reconstruction (S16).

When a :class:`~repro.redundancy.parity.ParityFile` read hits a failed
device (:class:`~repro.errors.DeviceFailedError`, or the device flag the
fault injector flips), the reader fans out *parallel* reads of the
stripe's surviving peers and XOR-reconstructs the missing block:

    data = parity XOR (every other data block of the stripe)

because the parity block is the XOR of all data blocks.  The fan-out
must tolerate *per-peer* misses (a surviving constituent may simply be
shorter than the stripe index when the tail stripe is partial), so it is
:func:`repro.machine.gather_settled`, which hands each leg's error back
instead of failing on the first one the way ``gather`` does.

Every reconstruction is counted in the file's per-file
:class:`DegradedReadStats`; a second dead device inside the same stripe
is a double failure and raises :class:`DeviceFailedError` — exactly the
RAID-5 contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    DeviceFailedError,
    EFSBlockNotFoundError,
)
from repro.machine import gather_settled


def xor_blocks(*blocks: Optional[bytes]) -> bytes:
    """XOR byte strings of (possibly) unequal length, padding with zeros.

    ``None`` entries count as all-zero blocks, so absent constituents
    (blocks past a constituent's end, or never-written holes) drop out of
    the parity sum naturally.
    """
    present = [b for b in blocks if b]
    if not present:
        return b""
    length = max(len(b) for b in present)
    out = bytearray(length)
    for block in present:
        for i, byte in enumerate(block):
            out[i] ^= byte
    return bytes(out)


@dataclass
class DegradedReadStats:
    """Per-file accounting of the degraded read path."""

    blocks: int = 0  # logical blocks served
    degraded: int = 0  # blocks served by XOR reconstruction
    peer_reads: int = 0  # surviving-constituent reads issued for those
    errors_detected: int = 0  # DeviceFailedErrors caught in the fast path


class DegradedReader:
    """The read path of one parity file, failure-aware.

    Healthy blocks are read straight from their home constituent; a block
    whose device is down (or whose constituent is missing the block — a
    write hole awaiting rebuild) is reconstructed from the stripe's
    surviving peers.  Shares the file's stripe lock so reconstruction
    never observes a half-updated stripe.
    """

    def __init__(self, parity_file, stats: Optional[DegradedReadStats] = None) -> None:
        self.file = parity_file
        # Default to the file's own per-file stats; the rebuild sweep
        # passes a private object so reconstruction-for-rebuild does not
        # inflate the file's degraded-*read* accounting.
        self.stats: DegradedReadStats = (
            stats if stats is not None else parity_file.read_stats
        )

    # ------------------------------------------------------------------

    def read_block(self, logical: int):
        """Read one logical block, degrading transparently."""
        file = self.file
        if not 0 <= logical < file.logical_blocks:
            raise ValueError(
                f"{file.name!r}: logical block {logical} outside file of "
                f"{file.logical_blocks} blocks"
            )
        stripe, slot = file.geometry.locate(logical)
        self.stats.blocks += 1
        if not file.slot_failed(slot):
            try:
                return (yield from file.read_local(slot, stripe))
            except DeviceFailedError:
                self.stats.errors_detected += 1
            except EFSBlockNotFoundError:
                pass  # write hole on a repaired slot: reconstruct below
        return (yield from self.reconstruct(stripe, slot))

    # ------------------------------------------------------------------

    def reconstruct(self, stripe: int, missing_slot: int, locked: bool = False):
        """XOR the stripe's surviving blocks to recover ``missing_slot``.

        Works for data *and* parity slots (parity is just the XOR of the
        rest).  Holds the file's stripe lock for the duration so a
        concurrent writer cannot leave the stripe half-updated under us;
        pass ``locked=True`` when the caller (the rebuild sweep) already
        holds it.
        """
        file = self.file
        obs = file.node.machine.sim.obs
        span = None
        prev = None
        if obs is not None:
            prev = obs.current
            span = obs.begin("degraded_read", "client", node=file.node.index)
            obs.set_current(span)
            obs.metrics.counter("redundancy.degraded_read").inc()
        if not locked:
            yield self.file._lock.acquire()
        try:
            peers = [s for s in range(file.geometry.width) if s != missing_slot]
            calls = [
                (file._port(peer), "read",
                 {"file_number": file.file_id, "block_number": stripe,
                  "hint": None}, 0)
                for peer in peers
            ]
            outcomes = yield from gather_settled(file.node, calls)
            parts = []
            for peer, (value, error) in zip(peers, outcomes):
                self.stats.peer_reads += 1
                if error is None:
                    parts.append(value.data)
                elif isinstance(error, EFSBlockNotFoundError):
                    parts.append(None)  # short constituent: zero block
                elif isinstance(error, DeviceFailedError):
                    raise DeviceFailedError(
                        f"{file.name!r} stripe {stripe}: slots "
                        f"{missing_slot} and {peer} both unavailable "
                        "(double failure, data lost)"
                    )
                else:
                    raise error
            self.stats.degraded += 1
            return xor_blocks(*parts)
        finally:
            if obs is not None:
                obs.end(span, stripe=stripe, missing_slot=missing_slot)
                obs.set_current(prev)
            if not locked:
                self.file._lock.release()

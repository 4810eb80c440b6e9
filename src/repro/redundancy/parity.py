"""Rotating-parity stripe geometry and the parity-protected file (S16).

Section 6 of the paper concedes that interleaved files are "inherently
intolerant of faults" and that replication "helps, but only at very high
cost" — 2x storage and 2x write traffic.  This module implements the
RAID-5-style middle ground over the interleaved Bridge layout: files are
organized into *stripes* of ``p - 1`` data blocks plus one XOR parity
block, and the parity block rotates across the ``p`` LFS nodes (the
parity block of stripe ``s`` lives on slot ``s mod p``) so no single node
becomes a parity hot spot.  Storage overhead drops from 2x to
``p / (p - 1)`` while any single node failure remains survivable.

Two layers live here:

* :class:`ParityGeometry` — pure arithmetic, the redundancy counterpart
  of :class:`repro.core.addressing.InterleaveMap`: it maps *logical*
  (user-visible) block numbers to ``(stripe, slot)`` placements and back.
* :class:`ParityFile` — the read/write layer.  It creates one Bridge
  file of width ``p`` (so every constituent EFS file carries consistent
  Bridge headers) and then, tool-style, talks to the LFS instances
  directly: every stripe contributes exactly one block — data or parity —
  to every constituent, so constituent ``c`` holds the stripe-``s`` block
  at local block number ``s``.  Writes maintain parity with the classic
  read-modify-write: read the old data and old parity, XOR both deltas
  into the parity block, write data and parity (1 extra read + 1 extra
  write per logical write, versus mirroring's write-everything-twice).

Degraded reads (transparent XOR reconstruction after a device failure)
live in :mod:`repro.redundancy.degraded`; the online reconstruction
process that repopulates a repaired node lives in
:mod:`repro.redundancy.rebuild`.

Single-failure semantics: like RAID-5, the scheme guarantees correctness
with at most one failed (or repaired-but-not-yet-rebuilt) slot at a time.
A second concurrent failure loses data, which
:func:`repro.redundancy.faults.files_lost_fraction_parity` prices
analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.config import DATA_BYTES_PER_BLOCK
from repro.errors import (
    DeviceFailedError,
    EFSBlockNotFoundError,
)
from repro.machine import gather
from repro.redundancy.degraded import (
    DegradedReader,
    DegradedReadStats,
    xor_blocks,
)
from repro.sim import Lock


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ParityGeometry:
    """Rotating-parity placement arithmetic for one parity group.

    ``width`` is p, the number of LFS slots in the group.  Logical block
    ``n`` lives in stripe ``n // (p - 1)`` at in-stripe index
    ``n % (p - 1)``; stripe ``s`` keeps its parity block on slot
    ``s mod p`` and its ``p - 1`` data blocks on the remaining slots in
    increasing slot order.  Every stripe therefore touches every slot
    exactly once, which is what makes the per-constituent layout strictly
    sequential (stripe ``s`` is local block ``s`` on *every* slot).
    """

    width: int

    def __post_init__(self) -> None:
        if self.width < 3:
            raise ValueError(
                f"rotating parity needs at least 3 LFS nodes, got "
                f"{self.width} (with 2, parity degenerates to mirroring: "
                "use repro.redundancy.mirror)"
            )

    @property
    def data_per_stripe(self) -> int:
        """Data blocks per stripe: p - 1."""
        return self.width - 1

    # ------------------------------------------------------------------
    # Logical -> physical
    # ------------------------------------------------------------------

    def stripe_of(self, logical: int) -> int:
        self._check_logical(logical)
        return logical // self.data_per_stripe

    def index_in_stripe(self, logical: int) -> int:
        self._check_logical(logical)
        return logical % self.data_per_stripe

    def parity_slot(self, stripe: int) -> int:
        """The slot carrying stripe ``s``'s parity block: s mod p."""
        if stripe < 0:
            raise ValueError(f"negative stripe {stripe}")
        return stripe % self.width

    def data_slot(self, stripe: int, index: int) -> int:
        """The slot of the ``index``-th data block of ``stripe``.

        Data slots are the non-parity slots in increasing order, so the
        index skips over the rotating parity slot.
        """
        if not 0 <= index < self.data_per_stripe:
            raise ValueError(
                f"data index {index} outside [0, {self.data_per_stripe})"
            )
        parity = self.parity_slot(stripe)
        return index if index < parity else index + 1

    def locate(self, logical: int) -> Tuple[int, int]:
        """``(stripe, slot)`` for a logical block number."""
        stripe = self.stripe_of(logical)
        return stripe, self.data_slot(stripe, self.index_in_stripe(logical))

    # ------------------------------------------------------------------
    # Physical -> logical
    # ------------------------------------------------------------------

    def logical_of(self, stripe: int, slot: int) -> Optional[int]:
        """The logical block stored at ``(stripe, slot)``; ``None`` if the
        slot carries the stripe's parity block."""
        self._check_slot(slot)
        parity = self.parity_slot(stripe)
        if slot == parity:
            return None
        index = slot if slot < parity else slot - 1
        return stripe * self.data_per_stripe + index

    # ------------------------------------------------------------------
    # Size arithmetic
    # ------------------------------------------------------------------

    def stripes_for(self, logical_blocks: int) -> int:
        """Stripes needed to hold ``logical_blocks`` data blocks."""
        if logical_blocks < 0:
            raise ValueError(f"negative block count {logical_blocks}")
        return -(-logical_blocks // self.data_per_stripe)

    # ------------------------------------------------------------------

    def _check_logical(self, logical: int) -> None:
        if logical < 0:
            raise ValueError(f"negative logical block {logical}")

    def _check_slot(self, slot: int) -> None:
        if not 0 <= slot < self.width:
            raise ValueError(f"slot {slot} outside [0, {self.width})")


# ---------------------------------------------------------------------------
# The parity-protected file
# ---------------------------------------------------------------------------


class ParityFile:
    """RAID-5-style access to one parity-protected interleaved file.

    The file is created through the Bridge Server (so the directory entry
    and per-constituent Bridge headers stay consistent and
    ``efs.fsck``-checkable) but block traffic goes to the LFS instances
    directly, tool-style: stripe ``s`` is local block ``s`` on every
    constituent.  All generator methods must be driven inside a simulated
    process (``yield from``).

    A per-file :class:`~repro.sim.Lock` serializes stripe updates so that
    foreground writes, degraded reconstructions, and the online rebuild
    sweep never interleave mid-stripe (the classic RAID-5 write hole).
    """

    def __init__(self, system, name: str) -> None:
        self.system = system
        self.name = name
        self.geometry = ParityGeometry(system.width)
        self.node = system.client_node
        self.file_id: Optional[int] = None
        self._logical = 0
        self._hints: Dict[int, Optional[int]] = {}
        self._lock = Lock(f"parity:{name}")
        self.degraded_writes = 0  # data writes deferred to rebuild
        self.parity_rmw_reads = 0  # old-parity / old-data reads
        self.read_stats = DegradedReadStats()
        self._reader = DegradedReader(self)
        system.redundancy.register(self)

    # ------------------------------------------------------------------

    @property
    def logical_blocks(self) -> int:
        """User-visible size in blocks (the data blocks, not parity)."""
        return self._logical

    @property
    def stripes(self) -> int:
        return self.geometry.stripes_for(self._logical)

    def slot_failed(self, slot: int) -> bool:
        """Ground truth from the device (the injector flips this flag)."""
        return self.system.disks[slot].failed

    def _port(self, slot: int):
        return self.system.efs_servers[slot].port

    # ------------------------------------------------------------------
    # Creation
    # ------------------------------------------------------------------

    def create(self):
        """Create the underlying width-p Bridge file (start 0)."""
        client = self.system.naive_client(self.node)
        self.file_id = yield from client.create(
            self.name, width=self.geometry.width, start=0
        )
        return self.file_id

    def _require_created(self) -> None:
        if self.file_id is None:
            raise RuntimeError(f"parity file {self.name!r}: call create() first")

    # ------------------------------------------------------------------
    # Low-level constituent access
    # ------------------------------------------------------------------

    def read_local(self, slot: int, stripe: int):
        """Read the stripe-``stripe`` block of constituent ``slot``.

        Raises :class:`DeviceFailedError` on a failed device and
        :class:`EFSBlockNotFoundError` past the constituent's end.
        """
        self._require_created()
        results = yield from gather(
            self.node,
            [(self._port(slot), "read",
              {"file_number": self.file_id, "block_number": stripe,
               "hint": self._hints.get(slot)}, 0)],
        )
        result = results[0]
        self._hints[slot] = result.next_addr
        return result.data

    def write_local(self, slot: int, stripe: int, data: bytes):
        """Write (in place or append) the stripe block of one constituent."""
        self._require_created()
        results = yield from gather(
            self.node,
            [(self._port(slot), "write",
              {"file_number": self.file_id, "block_number": stripe,
               "data": data, "hint": self._hints.get(slot)},
              DATA_BYTES_PER_BLOCK)],
        )
        self._hints[slot] = results[0].addr
        return results[0]

    # ------------------------------------------------------------------
    # Writes (parity read-modify-write)
    # ------------------------------------------------------------------

    def write_block(self, logical: int, data: bytes):
        """Write one logical block, maintaining the stripe's parity.

        Healthy path: read old data (omitted for appends), read old
        parity, write new data, write ``parity ^ old ^ new``.  Degraded
        path (the data slot's device is down or the block is a write hole
        awaiting rebuild): skip the data write but fold the new value
        into the parity block so the online rebuild — or any degraded
        read — reconstructs the *new* contents.  Writing while both the
        data and parity slots are down is a double failure and raises
        :class:`DeviceFailedError`.
        """
        if len(data) > DATA_BYTES_PER_BLOCK:
            raise ValueError(
                f"write of {len(data)} bytes exceeds data area "
                f"{DATA_BYTES_PER_BLOCK}"
            )
        if not 0 <= logical <= self._logical:
            raise ValueError(
                f"{self.name!r}: logical block {logical} outside writable "
                f"range [0, {self._logical}]"
            )
        stripe, slot = self.geometry.locate(logical)
        parity_slot = self.geometry.parity_slot(stripe)
        yield self._lock.acquire()
        try:
            old: Optional[bytes] = None
            wrote_data = False
            if not self.slot_failed(slot):
                try:
                    if logical < self._logical:
                        old = yield from self.read_local(slot, stripe)
                        self.parity_rmw_reads += 1
                    yield from self.write_local(slot, stripe, data)
                    wrote_data = True
                except (DeviceFailedError, EFSBlockNotFoundError):
                    old = None  # fall through to the degraded path
            if wrote_data:
                yield from self._update_parity_delta(
                    stripe, parity_slot, old, data
                )
            else:
                # Degraded write: the device is down (or the slot is a
                # repaired-but-unrebuilt write hole).  Recompute parity
                # from the surviving data blocks plus the new value.
                self.degraded_writes += 1
                if self.slot_failed(parity_slot):
                    raise DeviceFailedError(
                        f"{self.name!r} stripe {stripe}: data slot {slot} "
                        f"and parity slot {parity_slot} both unavailable "
                        "(double failure)"
                    )
                yield from self._recompute_parity(stripe, slot, data)
            self._logical = max(self._logical, logical + 1)
        finally:
            self._lock.release()
        return logical

    def _update_parity_delta(self, stripe: int, parity_slot: int,
                             old: Optional[bytes], new: bytes):
        """Classic read-modify-write: parity ^= old ^ new."""
        if self.slot_failed(parity_slot):
            return  # parity slot down: the rebuild sweep will recompute it
        try:
            current = yield from self.read_local(parity_slot, stripe)
            self.parity_rmw_reads += 1
        except EFSBlockNotFoundError:
            current = None  # first block of a fresh stripe
        except DeviceFailedError:
            return
        parity = xor_blocks(current, old, new)
        yield from self.write_local(parity_slot, stripe, parity)

    def _recompute_parity(self, stripe: int, skip_slot: int, new: bytes):
        """Full-stripe parity rebuild: XOR of every surviving data block
        plus the value being written to the unavailable ``skip_slot``."""
        parts: List[Optional[bytes]] = [new]
        parity_slot = self.geometry.parity_slot(stripe)
        for peer in range(self.geometry.width):
            if peer in (parity_slot, skip_slot):
                continue
            try:
                parts.append((yield from self.read_local(peer, stripe)))
                self.parity_rmw_reads += 1
            except EFSBlockNotFoundError:
                parts.append(None)  # unwritten tail of a partial stripe
        yield from self.write_local(parity_slot, stripe, xor_blocks(*parts))

    def write_all(self, chunks):
        """Append every chunk in logical order; returns the count."""
        count = 0
        for chunk in chunks:
            yield from self.write_block(self._logical, chunk)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Reads (delegated to the degraded-mode reader)
    # ------------------------------------------------------------------

    def read_block(self, logical: int):
        """Read one logical block, reconstructing transparently if its
        home device is down (see :mod:`repro.redundancy.degraded`)."""
        return (yield from self._reader.read_block(logical))

    def read_all(self):
        """Read the whole file; returns ``(chunks, DegradedReadStats)``."""
        chunks = []
        for logical in range(self._logical):
            chunks.append((yield from self.read_block(logical)))
        return chunks, self.read_stats

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def storage_blocks(self):
        """Total blocks on disk across all constituents (data + parity).

        Requires all devices healthy (it asks every LFS for its size)."""
        self._require_created()
        infos = yield from gather(
            self.node,
            [(self._port(slot), "info", {"file_number": self.file_id}, 0)
             for slot in range(self.geometry.width)],
        )
        return sum(info.size_blocks for info in infos)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParityFile({self.name!r}, p={self.geometry.width}, "
            f"blocks={self._logical})"
        )

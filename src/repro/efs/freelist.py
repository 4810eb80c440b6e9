"""Free-block management for one EFS instance.

A simple in-memory map (the paper's EFS does not describe its allocator;
persistence of the free map is not modeled — each operation is charged
``cpu.efs_free_op`` instead, which is where a real implementation would pay
for its allocation bookkeeping I/O).

Allocation is lowest-address-first, which gives sequentially written files
physically contiguous blocks — that contiguity is what makes the cache's
full-track buffering effective for sequential reads.

The map is a *frontier* — every address at or above it is free — plus
the freed holes below it, so an empty 65 536-block device costs two
integers, not a 65 536-element set.
"""

from __future__ import annotations

import heapq
from typing import List, Set

from repro.errors import EFSOutOfSpaceError


class FreeList:
    """Tracks free block addresses in ``[start, capacity)``."""

    def __init__(self, capacity: int, start: int = 0) -> None:
        if not 0 <= start <= capacity:
            raise ValueError(f"bad free region [{start}, {capacity})")
        self.capacity = capacity
        self.start = start
        # An address in ``[start, capacity)`` is free iff it is at or
        # above ``frontier`` or in ``hole_set``: the EFS server's hint
        # probes test this in line.
        self.frontier = start
        self._holes: List[int] = []  # min-heap of the free addresses below it
        self.hole_set: Set[int] = set()

    # ------------------------------------------------------------------

    def allocate(self) -> int:
        """Claim and return the lowest free address."""
        if self._holes:
            address = heapq.heappop(self._holes)
            self.hole_set.remove(address)
            return address
        if self.frontier >= self.capacity:
            raise EFSOutOfSpaceError(
                f"no free blocks (capacity {self.capacity}, start {self.start})"
            )
        self.frontier += 1
        return self.frontier - 1

    def free(self, address: int) -> None:
        """Return a block to the pool; double frees are programming errors."""
        if not self.start <= address < self.capacity:
            raise ValueError(f"address {address} outside free region")
        if address >= self.frontier or address in self.hole_set:  # is_free
            raise ValueError(f"double free of block {address}")
        heapq.heappush(self._holes, address)
        self.hole_set.add(address)

    # ------------------------------------------------------------------

    def is_free(self, address: int) -> bool:
        return (
            self.frontier <= address < self.capacity
            or address in self.hole_set
        )

    def allocated(self) -> List[int]:
        """Every allocated address, ascending: ``[start, frontier)``
        minus the holes."""
        holes = self.hole_set
        return [address for address in range(self.start, self.frontier)
                if address not in holes]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        used = self.frontier - self.start - len(self._holes)
        return f"FreeList({used} used / {self.capacity - self.start})"

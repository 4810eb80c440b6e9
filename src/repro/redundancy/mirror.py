"""Block mirroring: the replication remedy of section 6.

Every block is written twice: to its home file and to a shadow file whose
round-robin start is shifted by one, so block n's two copies always live
on *different* nodes ((n+k) mod p vs (n+k+1) mod p).  Reads try the home
copy first and transparently fall back to the shadow when the home disk
has failed.  The price is exactly the paper's: double the storage and
double the write traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core import BridgeClient
from repro.errors import DeviceFailedError


def shadow_name(name: str) -> str:
    return f"{name}.mirror"


@dataclass
class MirroredReadStats:
    """How many reads needed the shadow copy."""

    blocks: int = 0
    fallbacks: int = 0


class MirroredFile:
    """Write-both / read-with-fallback access to a mirrored pair.

    Requires an interleave width of at least 2 (with one node, there is
    nowhere independent to put the shadow).
    """

    def __init__(self, system, name: str) -> None:
        if system.width < 2:
            raise ValueError("mirroring needs at least two LFS nodes")
        self.system = system
        self.name = name
        self.client: BridgeClient = system.naive_client()
        self._written = 0

    # ------------------------------------------------------------------

    def create(self):
        """Create the home file (start 0) and its shadow (start 1)."""
        yield from self.client.create(self.name, start=0)
        yield from self.client.create(shadow_name(self.name), start=1)

    def write_all(self, chunks: List[bytes]):
        """Append every chunk to both copies (2x write traffic)."""
        for chunk in chunks:
            yield from self.client.seq_write(self.name, chunk)
            yield from self.client.seq_write(shadow_name(self.name), chunk)
        self._written += len(chunks)
        return len(chunks)

    def read_all(self):
        """Read the file, falling back per block to the shadow.

        Returns ``(chunks, stats)``.  Raises :class:`DeviceFailedError`
        only if *both* copies of some block are unreachable.

        Deliberately avoids Open (which gathers per-LFS info and would
        itself fail on a dead disk): block count and random-read routing
        come from the Bridge Server's cached directory entry, which is
        current because every write above went through the server.
        """
        stats = MirroredReadStats()
        chunks: List[bytes] = []
        for block in range(self._written):
            stats.blocks += 1
            try:
                data = yield from self.client.random_read(self.name, block)
            except DeviceFailedError:
                stats.fallbacks += 1
                data = yield from self.client.random_read(
                    shadow_name(self.name), block
                )
            chunks.append(data)
        return chunks, stats

    def storage_blocks(self):
        """Total blocks consumed by both copies (the 2x cost, observable).

        Requires all disks healthy (it opens both files to count blocks
        from the authoritative LFS sizes)."""
        primary = yield from self.client.open(self.name)
        shadow = yield from self.client.open(shadow_name(self.name))
        return primary.total_blocks + shadow.total_blocks

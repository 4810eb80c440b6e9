"""The Bridge directory: names -> interleaved file structure.

"The main file system directory lists the names of the constituent LFS
files for each interleaved file" (section 3).  All Create/Delete/Open
traffic goes through the Bridge Server, which wraps this directory in
what "amounts to a monitor around all file management operations"
(section 4.2) — tools read structure through the server but never mutate
the directory themselves.

The entry store is in-memory; persistence costs are charged by the server
(``bridge_directory_probe`` / ``bridge_directory_update``) so the timing
model still reflects metadata I/O.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import DATA_BYTES_PER_BLOCK
from repro.core.addressing import InterleaveMap
from repro.errors import (
    BridgeBadRequestError,
    BridgeFileExistsError,
    BridgeFileNotFoundError,
)


@dataclass
class BridgeFileEntry:
    """Directory record for one interleaved file."""

    name: str
    file_id: int
    width: int
    start: int
    #: Machine node index per slot (0..width-1).
    node_indexes: List[int] = field(default_factory=list)
    #: Constituent EFS file number per slot.
    efs_file_numbers: List[int] = field(default_factory=list)
    #: Cached global size in blocks (refreshed on open, advanced on writes
    #: made through the server; tools that bypass the server are picked up
    #: at the next open).
    total_blocks: int = 0
    #: Section 3's relaxation: blocks scattered arbitrarily rather than
    #: round-robin.  ``block_map[n] = (slot, local_block)``.  Disordered
    #: files must be written through the Bridge Server (the map is the
    #: only global->local record besides the on-disk Bridge headers).
    disordered: bool = False
    block_map: Optional[List[Tuple[int, int]]] = None

    @property
    def interleave(self) -> InterleaveMap:
        return InterleaveMap(self.width, self.start)

    def locate_block(self, global_block: int) -> Tuple[int, int]:
        """(slot, local block) of a global block, honoring disorder."""
        if self.disordered:
            if self.block_map is None or not 0 <= global_block < len(self.block_map):
                raise ValueError(
                    f"{self.name!r}: no map entry for block {global_block}"
                )
            return self.block_map[global_block]
        # InterleaveMap.locate, spelled out: ((n + k) mod p, n div p)
        if global_block < 0:
            raise ValueError(f"negative global block {global_block}")
        return ((global_block + self.start) % self.width,
                global_block // self.width)


def check_block_writes(name: str, total_blocks: int, writes) -> int:
    """The one rule for a batch of ``(global_block, data)`` writes to a
    file of ``total_blocks`` blocks (the list write and the two-phase
    collective write): no block is negative or larger than the data
    area, in-place updates may scatter, and appended blocks form a dense
    run from the current end (the file-level form of the per-constituent
    EFS no-sparse rule).  Returns the file's new total size in blocks."""
    for block, data in writes:
        if block < 0:
            raise BridgeBadRequestError(
                f"{name!r}: negative block {block} in batched write"
            )
        if len(data) > DATA_BYTES_PER_BLOCK:
            raise BridgeBadRequestError(
                f"{name!r}: write of {len(data)} bytes exceeds data "
                f"area {DATA_BYTES_PER_BLOCK}"
            )
    targets = {block for block, _data in writes}
    new_total = max(total_blocks, max(targets) + 1)
    missing = [
        block for block in range(total_blocks, new_total)
        if block not in targets
    ]
    if missing:
        raise BridgeBadRequestError(
            f"{name!r}: batched write appends must be dense; blocks "
            f"{missing[:4]}{'...' if len(missing) > 4 else ''} between "
            f"the current end ({total_blocks}) and {new_total - 1} are "
            "not covered"
        )
    return new_total


class BridgeDirectory:
    """Name-keyed store of interleaved-file entries."""

    def __init__(self, file_id_start: int = 1, file_id_step: int = 1) -> None:
        """``file_id_start``/``file_id_step`` stride the id space so that
        several directories (a partitioned server collection) can allocate
        constituent EFS file numbers on the same LFS set without
        colliding."""
        if file_id_step < 1 or file_id_start < 1:
            raise ValueError("file id start and step must be >= 1")
        self._entries: Dict[str, BridgeFileEntry] = {}
        self._next_file_id = file_id_start
        self._file_id_step = file_id_step

    def allocate_file_id(self) -> int:
        file_id = self._next_file_id
        self._next_file_id += self._file_id_step
        return file_id

    def insert(self, entry: BridgeFileEntry) -> None:
        if entry.name in self._entries:
            raise BridgeFileExistsError(f"bridge file {entry.name!r} exists")
        if len(entry.node_indexes) != entry.width:
            raise ValueError(
                f"{entry.name!r}: {len(entry.node_indexes)} nodes for "
                f"width {entry.width}"
            )
        if len(entry.efs_file_numbers) != entry.width:
            raise ValueError(
                f"{entry.name!r}: {len(entry.efs_file_numbers)} constituent "
                f"file numbers for width {entry.width}"
            )
        self._entries[entry.name] = entry

    def lookup(self, name: str) -> BridgeFileEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise BridgeFileNotFoundError(f"bridge file {name!r} not found")
        return entry

    def remove(self, name: str) -> BridgeFileEntry:
        try:
            return self._entries.pop(name)
        except KeyError:
            raise BridgeFileNotFoundError(f"bridge file {name!r} not found") from None

    def exists(self, name: str) -> bool:
        return name in self._entries

    def holds(self, entry: BridgeFileEntry) -> bool:
        """True while ``entry`` itself — not a later file of the same
        name — is in this directory."""
        return self._entries.get(entry.name) is entry

    def names(self) -> List[str]:
        return sorted(self._entries)

"""Structural information packages returned by the Bridge Server.

``Get Info`` (Table 1) hands a program "a package of information...
sufficient to allow the new program to find the processors attached to
the disks" — that package is :class:`SystemInfo`.  ``Open`` returns the
"LFS file ids" — per-constituent facts collected in :class:`OpenResult`.
Holding an :class:`OpenResult` (plus :class:`SystemInfo`) is exactly what
makes a program a *tool*: it can thereafter talk to the LFS instances
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.addressing import InterleaveMap


@dataclass
class ConstituentInfo:
    """One column of an interleaved file, as stored on one LFS."""

    slot: int
    column: int
    node_index: int
    lfs_port: object  # machine Port of the EFS server
    efs_file_number: int
    size_blocks: int = 0
    head_addr: int = -1


@dataclass
class OpenResult:
    """Everything a client learns by opening an interleaved file."""

    name: str
    file_id: int
    width: int
    start: int
    total_blocks: int
    constituents: List[ConstituentInfo] = field(default_factory=list)
    #: Section 3's scattered layout: blocks follow the server's block
    #: map, not :attr:`interleave` (``get_block_map`` returns the map).
    disordered: bool = False

    @property
    def interleave(self) -> InterleaveMap:
        return InterleaveMap(self.width, self.start)


@dataclass
class LFSHandle:
    """One local file system instance: where it is and how to reach it."""

    node_index: int
    port: object


@dataclass
class SystemInfo:
    """The Get Info package: the middle-layer structure of the system.

    ``server_ports`` is populated by the partitioned fabric's aggregated
    Get Info: every partition's request port, in partition order (empty
    for a single centralized server, whose port is ``server_port``).
    """

    lfs: List[LFSHandle] = field(default_factory=list)
    server_port: Optional[object] = None
    server_ports: List[object] = field(default_factory=list)

    @property
    def width(self) -> int:
        return len(self.lfs)

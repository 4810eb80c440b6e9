"""Typed payloads exchanged with EFS servers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.efs.layout import NULL_ADDR


@dataclass
class ReadResult:
    """Answer to a block read.

    ``next_addr``/``prev_addr`` are the on-disk linked-list pointers; a
    sequential reader passes ``next_addr`` back as the *hint* of its next
    request, which lets the stateless server find the block without any
    directory or list traversal (section 4.3).
    """

    file_number: int
    block_number: int
    data: bytes
    addr: int
    next_addr: int = NULL_ADDR
    prev_addr: int = NULL_ADDR
    global_block: int = 0


@dataclass
class WriteResult:
    """Answer to a block write/append: where the block landed."""

    file_number: int
    block_number: int
    addr: int


@dataclass
class BatchReadResult:
    """Answer to a multi-block ``read_blocks`` request (list I/O).

    ``results`` holds one :class:`ReadResult` per requested block, in
    request order.  ``runs`` counts the maximal groups of *adjacent disk
    addresses* the batch decayed into after sorting — adjacent blocks
    share full-track reads, so runs (not blocks) drive the device cost.
    ``hint_hits`` counts blocks located directly from the threaded hint
    without any list walk (section 4.3's hint reuse, amortized batch-wide).
    """

    file_number: int
    results: List["ReadResult"] = field(default_factory=list)
    runs: int = 0
    hint_hits: int = 0


@dataclass
class BatchWriteResult:
    """Answer to a multi-block ``write_blocks`` request (list I/O)."""

    file_number: int
    results: List["WriteResult"] = field(default_factory=list)
    runs: int = 0
    appended: int = 0


@dataclass
class FileInfo:
    """Answer to an info request (also what Get Info returns per LFS)."""

    file_number: int
    size_blocks: int
    head_addr: int
    global_file_id: int = 0
    width: int = 1
    column: int = 0

"""On-disk block layout for EFS files (paper section 4.3).

Each 1024-byte block carries:

* a 24-byte EFS header — doubly-linked-list pointers plus the owning file
  number and local block number ("each block also contains its file number
  and block number");
* a 40-byte Bridge header "taken from the data storage area of each
  block" — the global identity of the block within its interleaved file
  (global file id, global block number, interleave width, column);
* 960 bytes of user data.

The pointers in the EFS header "lead to blocks that are interpreted as
adjacent within the local context.  In other words, the block pointed to
by the next pointer is p blocks away in the Bridge file."
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Tuple

from repro.config import (
    BLOCK_SIZE,
    BRIDGE_HEADER_SIZE,
    DATA_BYTES_PER_BLOCK,
    EFS_HEADER_SIZE,
)
from repro.errors import EFSCorruptionError

#: Sentinel disk address meaning "no block".
NULL_ADDR = -1

#: Magic tag marking a valid EFS block header.
EFS_MAGIC = 0x45465342  # "EFSB"

#: next, prev, file_number, block_number, magic — the header-only reader.
_EFS_HEADER = struct.Struct("<iiqiI")
#: ...then gfid, gblock, width, start, column, flags — both headers, the
#: full decoder's reader.
_HEADERS = struct.Struct("<iiqiIqqiiii8x")
#: ...then the data area: the whole block in one call (``960s`` pads
#: short data with NULs).
_BLOCK = struct.Struct("<iiqiIqqiiii8x960s")

assert _EFS_HEADER.size == EFS_HEADER_SIZE
assert _HEADERS.size == EFS_HEADER_SIZE + BRIDGE_HEADER_SIZE
assert _BLOCK.size == BLOCK_SIZE


class EFSHeader(NamedTuple):
    """The Cronus-inherited per-block header (local linked-list identity).

    Immutable: decoded headers are memoised beside the cached block and
    shared between requests, so a pointer update builds a new header."""

    next_addr: int = NULL_ADDR
    prev_addr: int = NULL_ADDR
    file_number: int = 0
    block_number: int = 0


class BridgeHeader(NamedTuple):
    """The Bridge extension: the block's identity in the interleaved file.
    Immutable for the same reason as :class:`EFSHeader`."""

    global_file_id: int = 0
    global_block: int = 0
    width: int = 1
    start_node: int = 0
    column: int = 0
    flags: int = 0


#: Where a block's data area starts.
DATA_OFFSET = EFS_HEADER_SIZE + BRIDGE_HEADER_SIZE

#: :class:`EFSHeader`'s fields in order, as the plain tuple ``struct`` makes.
HeaderFields = Tuple[int, int, int, int]


def pack_block(efs: EFSHeader, bridge: BridgeHeader, data: bytes) -> bytes:
    """Assemble one on-disk block; ``data`` is padded to 960 bytes."""
    if len(data) > DATA_BYTES_PER_BLOCK:
        raise ValueError(
            f"block data {len(data)} exceeds {DATA_BYTES_PER_BLOCK} bytes"
        )
    next_addr, prev_addr, file_number, block_number = efs
    gfid, gblock, width, start_node, column, flags = bridge
    return _BLOCK.pack(next_addr, prev_addr, file_number, block_number,
                       EFS_MAGIC, gfid, gblock, width, start_node, column,
                       flags, data)


#: :func:`pack_block` minus its frame, for the append path: the twelve
#: fields in ``_BLOCK`` order (``EFS_MAGIC`` fifth), then the data area.
#: Unlike :func:`pack_block` it truncates over-long data, so its callers
#: check the length first.
pack_fields = _BLOCK.pack


def unpack_header(raw: bytes) -> HeaderFields:
    """Parse only the 24-byte EFS header, validating size and magic —
    what a walk along the block list needs from the blocks it passes.

    Returns ``(next_addr, prev_addr, file_number, block_number)`` as a
    plain tuple, not an :class:`EFSHeader`: building the record costs
    twice the decode, and the walk discards it a link later."""
    if len(raw) != BLOCK_SIZE:
        raise EFSCorruptionError(f"block is {len(raw)} bytes, expected {BLOCK_SIZE}")
    fields = _EFS_HEADER.unpack_from(raw)
    if fields[4] != EFS_MAGIC:
        raise EFSCorruptionError(f"bad block magic {fields[4]:#x}")
    return fields[:4]


def unpack_block(raw: bytes) -> Tuple[EFSHeader, BridgeHeader, bytes]:
    """Parse one on-disk block, validating size and magic as
    :func:`unpack_header` does."""
    if len(raw) != BLOCK_SIZE:
        raise EFSCorruptionError(f"block is {len(raw)} bytes, expected {BLOCK_SIZE}")
    fields = _HEADERS.unpack_from(raw)
    if fields[4] != EFS_MAGIC:
        raise EFSCorruptionError(f"bad block magic {fields[4]:#x}")
    # tuple.__new__ is what ``_make`` runs, minus its Python frame
    return (tuple.__new__(EFSHeader, fields[:4]),
            tuple.__new__(BridgeHeader, fields[5:]), raw[DATA_OFFSET:])

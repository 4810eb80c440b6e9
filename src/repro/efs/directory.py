"""The EFS directory: a flat, hashed, on-disk namespace.

Section 4.3: "EFS is a simple, stateless file system with a flat name
space and no access control.  File names are numbers that are used to hash
into a directory.  ...  A pointer to the first block of a file can be
found in the file's EFS directory entry."

The directory occupies a reserved region of block addresses
``[0, BUCKET_COUNT)`` at the front of the device.  Each bucket block holds
packed fixed-size entries; lookups and updates go through the block cache,
so directory I/O pays realistic device costs (and benefits from caching —
the paper notes directory caching is "less effective for writes than it
is for reads").  A bucket is decoded once per cached copy: its live slots
are the memo kept beside the cached block, and every entry handed out is
a fresh :class:`DirectoryEntry` the caller may change freely.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from itertools import starmap
from typing import Iterable, List, Tuple

from repro.config import BLOCK_SIZE
from repro.errors import (
    EFSFileExistsError,
    EFSFileNotFoundError,
    EFSOutOfSpaceError,
)
from repro.efs.layout import NULL_ADDR

#: file_number, head_addr, flags, gfid, width, column
_ENTRY = struct.Struct("<qiiqii")
_ENTRIES_PER_BUCKET = BLOCK_SIZE // _ENTRY.size  # 32 slots of 32 bytes

#: Directory buckets per device: the reserved region ``[0, 64)``.
BUCKET_COUNT = 64
#: A file number's bucket is ``file_number * _HASH % BUCKET_COUNT``.
_HASH = 0x9E3779B1

#: Marker for an unused entry slot (file numbers are non-negative).
_EMPTY = -1
_EMPTY_SLOT = _ENTRY.pack(_EMPTY, 0, 0, 0, 0, 0)

#: One decoded slot, in ``_ENTRY`` field order.  A bucket decodes to a
#: tuple of these — the memo kept beside the cached bucket block.
_Fields = Tuple[int, int, int, int, int, int]


@dataclass
class DirectoryEntry:
    """One file's directory record."""

    file_number: int
    head_addr: int = NULL_ADDR
    flags: int = 0
    #: Bridge metadata for constituent files (0/1/0 for plain local files).
    global_file_id: int = 0
    width: int = 1
    column: int = 0


def _fields_of(entry: DirectoryEntry) -> _Fields:
    return (
        entry.file_number,
        entry.head_addr,
        entry.flags,
        entry.global_file_id,
        entry.width,
        entry.column,
    )


def _live(slots: Iterable[_Fields]) -> Tuple[_Fields, ...]:
    # Empty slots are marked with file_number = -1; a never-written
    # bucket reads as zeros, which is recognizable by width == 0
    # (every real entry has interleave width >= 1).
    return tuple([fields for fields in slots if fields[0] >= 0 and fields[4] >= 1])


def _pack_bucket(slots: Tuple[_Fields, ...]) -> bytes:
    free_slots = _ENTRIES_PER_BUCKET - len(slots)
    packed = b"".join(starmap(_ENTRY.pack, slots)) + _EMPTY_SLOT * free_slots
    return packed.ljust(BLOCK_SIZE, b"\x00")


def _unpack_bucket(raw: bytes) -> Tuple[_Fields, ...]:
    return _live(_ENTRY.iter_unpack(raw[: _ENTRIES_PER_BUCKET * _ENTRY.size]))


def _slot_of(slots: Tuple[_Fields, ...], file_number: int) -> int:
    """Index of the file's slot, or -1."""
    for index, fields in enumerate(slots):
        if fields[0] == file_number:
            return index
    return -1


def bucket_entries(raw: bytes) -> List[DirectoryEntry]:
    """The live entries of one raw bucket block (for offline checkers)."""
    return [DirectoryEntry(*fields) for fields in _unpack_bucket(raw)]


class Directory:
    """Hashed directory over a reserved on-disk bucket region."""

    def __init__(self, cache) -> None:
        self.cache = cache

    # ------------------------------------------------------------------

    def bucket_of(self, file_number: int) -> int:
        """The bucket block address for a file number."""
        return (file_number * _HASH) % BUCKET_COUNT

    @property
    def first_data_block(self) -> int:
        """First address past the directory region (free-list start)."""
        return BUCKET_COUNT

    # ------------------------------------------------------------------
    # Generator API (all operations do cached device I/O)
    # ------------------------------------------------------------------

    def lookup(self, file_number: int):
        """Find a file's entry or raise :class:`EFSFileNotFoundError`.
        The entry is the caller's own: changing it changes nothing here.

        Every block request runs this, so :meth:`_fetch` and
        :meth:`_slots` are spelled out: a hit enters no frame but the
        cache's ``lookup``."""
        cache = self.cache
        bucket = (file_number * _HASH) % BUCKET_COUNT
        cached = cache.lookup(bucket)
        if cached is None:
            cached = yield from cache.fill(bucket, False)
        elif cache.hit_charge is not None:
            yield cache.hit_charge
        slots = cached.decoded
        if slots is None:
            slots = cached.decoded = _unpack_bucket(cached.raw)
        for fields in slots:
            if fields[0] == file_number:
                return DirectoryEntry(*fields)
        raise EFSFileNotFoundError(f"EFS file {file_number} not found")

    def insert(self, entry: DirectoryEntry):
        """Add a new entry; the file number must be free."""
        if entry.file_number < 0:
            raise ValueError("file numbers must be non-negative")
        bucket = self.bucket_of(entry.file_number)
        slots = self._slots((yield from self._fetch(bucket)))
        if _slot_of(slots, entry.file_number) >= 0:
            raise EFSFileExistsError(f"EFS file {entry.file_number} exists")
        if len(slots) >= _ENTRIES_PER_BUCKET:
            raise EFSOutOfSpaceError(
                f"directory bucket {bucket} full "
                f"({_ENTRIES_PER_BUCKET} entries); use more buckets"
            )
        yield from self._store(bucket, slots + (_fields_of(entry),))

    def update(self, entry: DirectoryEntry):
        """Rewrite an existing entry (e.g. head pointer after first append)."""
        bucket = self.bucket_of(entry.file_number)
        slots = self._slots((yield from self._fetch(bucket)))
        index = _slot_of(slots, entry.file_number)
        if index < 0:
            raise EFSFileNotFoundError(f"EFS file {entry.file_number} not found")
        yield from self._store(
            bucket, slots[:index] + (_fields_of(entry),) + slots[index + 1 :]
        )

    def remove(self, file_number: int):
        bucket = self.bucket_of(file_number)
        slots = self._slots((yield from self._fetch(bucket)))
        remaining = tuple([fields for fields in slots if fields[0] != file_number])
        if len(remaining) == len(slots):
            raise EFSFileNotFoundError(f"EFS file {file_number} not found")
        yield from self._store(bucket, remaining)

    # ------------------------------------------------------------------

    def _fetch(self, bucket: int):
        """The cache's generator for one bucket block; a bucket miss does
        not pull in the rest of its track."""
        return self.cache.fetch(bucket, prefetch=False)

    @staticmethod
    def _slots(entry) -> Tuple[_Fields, ...]:
        """A cached bucket's live slots, decoded at most once per copy."""
        if entry.decoded is None:
            entry.decoded = _unpack_bucket(entry.raw)
        return entry.decoded

    def _store(self, bucket: int, slots: Tuple[_Fields, ...]):
        # Seed the new copy's memo with exactly what it would decode to.
        yield from self.cache.write_through(
            bucket, _pack_bucket(slots), _live(slots)
        )

"""The EFS server: one stateless local file system instance.

This is the middle layer of Bridge (section 4.3), adapted from the Cronus
Elementary File System:

* flat namespace of numeric file names, hashed into an on-disk directory;
* files are doubly linked *circular* lists of blocks; the directory holds
  a pointer to the first block; each block carries its file number and
  block number;
* every request may carry a disk-address *hint*; the server locates a
  block by walking from the closest of three places: the beginning, the
  end (the head's ``prev``), or the hint — provided the hint points into
  the correct file;
* stateless: there is no open-file table; nothing needs to happen at
  open time, and the server can be restarted between any two requests.

Deletion retains the Cronus "resiliency remnant" the paper measures in
Table 2: it walks the file sequentially, re-reading every block from the
device (bypassing the track buffer) and explicitly freeing it — O(n/p)
per LFS at roughly 20 ms per block.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Tuple

from repro.config import DATA_BYTES_PER_BLOCK, SystemConfig
from repro.efs.cache import BlockCache
from repro.efs.directory import Directory, DirectoryEntry
from repro.efs.freelist import FreeList
from repro.efs.layout import (
    DATA_OFFSET,
    EFS_MAGIC,
    NULL_ADDR,
    BridgeHeader,
    EFSHeader,
    HeaderFields,
    pack_block,
    pack_fields,
    unpack_block,
    unpack_header,
)
from repro.efs.messages import (
    BatchReadResult,
    BatchWriteResult,
    FileInfo,
    ReadResult,
    WriteResult,
)
from repro.errors import EFSBlockNotFoundError, EFSCorruptionError
from repro.machine import Response, Server
from repro.sim import Timeout
from repro.storage.base import BlockRequest


_DISTANCE = itemgetter(0)


class EFSServer(Server):
    """One local file system instance bound to a node and its disk."""

    def __init__(self, node, disk, config: SystemConfig) -> None:
        super().__init__(node, f"efs{node.index}")
        self.disk = disk
        self.config = config
        self.cache = BlockCache(
            disk,
            capacity=config.efs_cache_blocks,
            track_blocks=config.efs_track_buffer_blocks,
            hit_cpu=config.cpu.efs_cache_hit,
        )
        self.directory = Directory(self.cache)
        self.freelist = FreeList(
            disk.params.capacity_blocks, start=self.directory.first_data_block
        )
        self._first_data_block = self.directory.first_data_block
        self._capacity_blocks = disk.params.capacity_blocks
        # ``config`` is frozen, so each constant CPU charge is one Timeout
        # for the life of the server, and the write policy is one method.
        self._request_charge = Timeout(config.cpu.efs_request)
        self._link_step_charge = Timeout(config.cpu.efs_link_step)
        self._free_op_charge = Timeout(config.cpu.efs_free_op)
        self._store = (
            self.cache.write_back if config.efs_write_behind
            else self.cache.write_through
        )
        node.lfs_port = self.port
        node.disk = disk

    # ==================================================================
    # Operations (RPC handlers)
    # ==================================================================

    def op_create(self, file_number, global_file_id=0, width=1, column=0):
        """Create an empty file; errors if the number already exists."""
        yield self._request_charge
        entry = DirectoryEntry(
            file_number=file_number,
            head_addr=NULL_ADDR,
            global_file_id=global_file_id,
            width=width,
            column=column,
        )
        yield from self.directory.insert(entry)
        return file_number

    def op_delete(self, file_number):
        """Free every block sequentially (the slow, resilient Cronus walk)."""
        yield self._request_charge
        entry = yield from self.directory.lookup(file_number)
        freed = 0
        addr = entry.head_addr
        write_behind = self.config.efs_write_behind
        cache, disk, freelist = self.cache, self.disk, self.freelist
        while addr != NULL_ADDR:
            # Resilient deletion verifies each block on the device itself
            # rather than trusting cached copies.  (Under write-behind the
            # authoritative copy may still be in the cache, so the walk
            # goes through it there.)  The device read is ``disk.read``,
            # its request yielded here as the cache's miss does.
            if write_behind:
                raw = yield from cache.read(addr, prefetch=False)
            else:
                request = BlockRequest(disk, "read", addr, None)
                yield request
                raw = request.outcome()
            next_addr, _prev, owner, _number = unpack_header(raw)
            if owner != file_number:
                raise self._foreign_block(addr, owner, file_number)
            yield self._free_op_charge
            freelist.free(addr)
            cache.invalidate(addr)
            disk.discard(addr)
            freed += 1
            addr = next_addr
            if addr == entry.head_addr:
                break
        yield from self.directory.remove(file_number)
        return freed

    def op_read(self, file_number, block_number, hint=None):
        """Read one block; the response carries the list pointers as hints."""
        yield self._request_charge
        located = None
        if (hint is not None
                and self._first_data_block <= hint < self._capacity_blocks):
            # _try_hint spelled out as in _locate: a hint into the data
            # region is fetched, decoded and memoised in line, and served
            # only if it names the block and the free list does not hold it
            cache = self.cache
            cached = cache.lookup(hint)
            if cached is None:
                cached = yield from cache.fill(hint)
            elif cache.hit_charge is not None:
                yield cache.hit_charge
            decoded = cached.decoded
            if decoded is None:
                try:
                    decoded = cached.decoded = unpack_block(cached.raw)
                except EFSCorruptionError:
                    pass
            if decoded is not None:
                header = decoded[0]
                freelist = self.freelist
                if (header[2] == file_number and header[3] == block_number
                        and hint < freelist.frontier
                        and hint not in freelist.hole_set):
                    located = (hint, header, decoded[1], decoded[2])
        if located is None:
            entry = yield from self.directory.lookup(file_number)
            located = yield from self._locate(entry, block_number, hint)
        addr, header, bridge, data = located
        result = ReadResult(file_number, block_number, data, addr,
                            header.next_addr, header.prev_addr,
                            bridge.global_block)
        return Response(result, None, len(data))

    def op_write(self, file_number, block_number, data, hint=None):
        """Write block ``block_number``: in-place if it exists, append if it
        is exactly one past the end (no sparse files)."""
        yield self._request_charge
        if len(data) > DATA_BYTES_PER_BLOCK:
            raise ValueError(
                f"write of {len(data)} bytes exceeds data area "
                f"{DATA_BYTES_PER_BLOCK}"
            )
        if hint is not None:
            located = yield from self._try_hint(file_number, block_number, hint)
            if located is not None:
                addr, header, bridge, _old = located
                yield from self._store_block(addr, header, bridge, data)
                return WriteResult(file_number, block_number, addr)
        entry = yield from self.directory.lookup(file_number)
        size = yield from self._file_size(entry)
        if block_number == size:
            block_number, addr = yield from self._append(entry, size, data)
            return WriteResult(file_number, block_number, addr)
        if block_number > size:
            raise EFSBlockNotFoundError(
                f"file {file_number}: cannot write block {block_number} "
                f"past end (size {size}); sparse files are not supported"
            )
        addr, header, bridge, _old = yield from self._locate(
            entry, block_number, hint
        )
        yield from self._store_block(addr, header, bridge, data)
        return WriteResult(file_number, block_number, addr)

    def op_append(self, file_number, data):
        """Append one block at the end of the file."""
        yield self._request_charge
        if len(data) > DATA_BYTES_PER_BLOCK:
            raise ValueError(
                f"append of {len(data)} bytes exceeds data area "
                f"{DATA_BYTES_PER_BLOCK}"
            )
        entry = yield from self.directory.lookup(file_number)
        size = yield from self._file_size(entry)
        block_number, addr = yield from self._append(entry, size, data)
        return WriteResult(file_number, block_number, addr)

    def op_read_blocks(self, file_number, block_numbers, hint=None):
        """Serve many blocks of one file in a single request (list I/O).

        The whole batch pays one request-decode charge instead of one per
        block — the point of batching.  Blocks are located in ascending
        order so each block's on-disk ``next_addr`` seeds the next lookup
        (hint reuse across the batch), and results are returned in the
        *requested* order.  Adjacent located addresses coalesce into runs
        that share full-track reads through the cache.
        """
        yield self._request_charge
        if not block_numbers:
            return Response(value=BatchReadResult(file_number), size=0)
        by_number = {}
        runs = 0
        hint_hits = 0
        last_addr = None
        entry = None
        for block_number in sorted(set(block_numbers)):
            located = yield from self._try_hint(file_number, block_number, hint)
            if located is not None:
                hint_hits += 1
            else:
                if entry is None:
                    entry = yield from self.directory.lookup(file_number)
                located = yield from self._locate(entry, block_number, hint)
            addr, header, bridge, data = located
            by_number[block_number] = ReadResult(
                file_number=file_number,
                block_number=block_number,
                data=data,
                addr=addr,
                next_addr=header.next_addr,
                prev_addr=header.prev_addr,
                global_block=bridge.global_block,
            )
            if last_addr is None or addr != last_addr + 1:
                runs += 1
            last_addr = addr
            hint = header.next_addr
        results = [by_number[number] for number in block_numbers]
        size = sum(len(result.data) for result in results)
        return Response(
            value=BatchReadResult(file_number, results, runs, hint_hits),
            size=size,
        )

    def op_write_blocks(self, file_number, writes, hint=None):
        """Write many ``(block_number, data)`` pairs in a single request.

        Writes apply in ascending block order regardless of the request
        order, so a batch may mix in-place updates with a dense run of
        appends (each append lands exactly one past the current end, the
        same no-sparse-files rule as :meth:`op_write`).  Duplicate block
        numbers keep the *last* value in request order, matching the
        outcome of issuing the writes one by one.
        """
        yield self._request_charge
        if not writes:
            return BatchWriteResult(file_number)
        latest = {}
        for block_number, data in writes:
            if len(data) > DATA_BYTES_PER_BLOCK:
                raise ValueError(
                    f"write of {len(data)} bytes exceeds data area "
                    f"{DATA_BYTES_PER_BLOCK}"
                )
            latest[block_number] = data
        entry = yield from self.directory.lookup(file_number)
        size = yield from self._file_size(entry)
        by_number = {}
        runs = 0
        appended = 0
        last_addr = None
        for block_number in sorted(latest):
            data = latest[block_number]
            if block_number > size:
                raise EFSBlockNotFoundError(
                    f"file {file_number}: cannot write block {block_number} "
                    f"past end (size {size}); sparse files are not supported"
                )
            if block_number == size:
                _number, addr = yield from self._append(entry, size, data)
                size += 1
                appended += 1
            else:
                located = yield from self._try_hint(
                    file_number, block_number, hint
                )
                if located is None:
                    located = yield from self._locate(entry, block_number, hint)
                addr, header, bridge, _old = located
                yield from self._store_block(addr, header, bridge, data)
                hint = header.next_addr
            by_number[block_number] = WriteResult(file_number, block_number, addr)
            if last_addr is None or addr != last_addr + 1:
                runs += 1
            last_addr = addr
        results = [by_number[number] for number, _data in writes]
        return BatchWriteResult(file_number, results, runs, appended)

    def op_info(self, file_number):
        """Size and placement facts about one file."""
        yield self._request_charge
        entry = yield from self.directory.lookup(file_number)
        size = yield from self._file_size(entry)
        return FileInfo(
            file_number=file_number,
            size_blocks=size,
            head_addr=entry.head_addr,
            global_file_id=entry.global_file_id,
            width=entry.width,
            column=entry.column,
        )

    def op_flush(self):
        """Write back all dirty cached blocks (used at quiesce points)."""
        yield from self.cache.flush()
        return None

    # ==================================================================
    # Internals
    # ==================================================================

    @staticmethod
    def _foreign_block(addr: int, owner: int, file_number: int) -> EFSCorruptionError:
        return EFSCorruptionError(
            f"block {addr} belongs to file {owner}, expected {file_number}"
        )

    def _decoded(self, addr: int, entry) -> Tuple[EFSHeader, BridgeHeader, bytes]:
        """``unpack_block`` of a cached block, run at most once per entry.
        The memo of a block in the directory region is the directory's,
        so a stray pointer into it is decoded afresh."""
        if addr < self._first_data_block:
            return unpack_block(entry.raw)
        if entry.decoded is None:
            entry.decoded = unpack_block(entry.raw)
        return entry.decoded

    def _header(self, addr: int, entry) -> HeaderFields:
        """Only the EFS header of a cached block, as ``(next_addr,
        prev_addr, file_number, block_number)``: from the memo when the
        block has been decoded, else 24 bytes of it, unmemoised."""
        if entry.decoded is None or addr < self._first_data_block:
            return unpack_header(entry.raw)
        return entry.decoded[0]

    def _try_hint(self, file_number: int, block_number: int, hint):
        """Serve directly from a hint when it names exactly the right block."""
        if hint is None or not (
                self._first_data_block <= hint < self._capacity_blocks):
            return None  # no hint, NULL_ADDR, or off the data region
        cached = yield from self.cache.fetch(hint)
        try:
            header, bridge, data = self._decoded(hint, cached)
        except EFSCorruptionError:
            return None
        if header.file_number != file_number:
            return None  # hint points outside the file: ignore it
        if header.block_number != block_number:
            return None  # right file, wrong block: the walk can still use it
        freelist = self.freelist
        if hint >= freelist.frontier or hint in freelist.hole_set:
            return None  # a freed block keeps its old header on hostfs
        return hint, header, bridge, data

    def _file_size(self, entry: DirectoryEntry):
        """Size = tail block number + 1; the tail is the head's ``prev``.
        ``cache.fetch`` and :meth:`_header` are spelled out as in
        :meth:`_locate`."""
        head_addr = entry.head_addr
        if head_addr == NULL_ADDR:
            return 0
        cache = self.cache
        first_data_block = self._first_data_block
        cached = cache.lookup(head_addr)
        if cached is None:
            cached = yield from cache.fill(head_addr)
        elif cache.hit_charge is not None:
            yield cache.hit_charge
        if cached.decoded is None or head_addr < first_data_block:
            _next, tail_addr, _owner, number = unpack_header(cached.raw)
        else:
            _next, tail_addr, _owner, number = cached.decoded[0]
        if tail_addr != head_addr:
            cached = cache.lookup(tail_addr)
            if cached is None:
                cached = yield from cache.fill(tail_addr)
            elif cache.hit_charge is not None:
                yield cache.hit_charge
            if cached.decoded is None or tail_addr < first_data_block:
                _next, _prev, _owner, number = unpack_header(cached.raw)
            else:
                _next, _prev, _owner, number = cached.decoded[0]
        return number + 1

    def _locate(self, entry: DirectoryEntry, block_number: int, hint):
        """Walk the list from the closest of beginning / end / hint.

        The walk reads only the EFS header of the blocks it passes and
        decodes in full only the block it returns."""
        if entry.head_addr == NULL_ADDR:
            raise EFSBlockNotFoundError(
                f"file {entry.file_number} is empty; no block {block_number}"
            )
        size = yield from self._file_size(entry)
        if block_number >= size or block_number < 0:
            raise EFSBlockNotFoundError(
                f"file {entry.file_number} has {size} blocks; "
                f"no block {block_number}"
            )
        # Candidate starting points, (distance, addr); the first wins a tie.
        cached = yield from self.cache.fetch(entry.head_addr)
        _next, tail_addr, _owner, _number = self._header(entry.head_addr, cached)
        candidates = [
            (block_number, entry.head_addr),
            (size - 1 - block_number, tail_addr),
        ]
        if hint is not None and hint != NULL_ADDR:
            hinted = yield from self._peek_hint(entry.file_number, hint)
            if hinted is not None:
                candidates.append((abs(block_number - hinted), hint))
        _dist, addr = min(candidates, key=_DISTANCE)
        # The hot loop: two events a link.  ``cache.fetch`` and ``_header``
        # are spelled out so that a step enters no frame but ``lookup``'s.
        lookup, fill = self.cache.lookup, self.cache.fill
        hit_charge = self.cache.hit_charge
        link_step = self._link_step_charge
        first_data_block = self._first_data_block
        file_number = entry.file_number
        while True:
            cached = lookup(addr)
            if cached is None:
                cached = yield from fill(addr)
            elif hit_charge is not None:
                yield hit_charge
            if cached.decoded is None or addr < first_data_block:
                next_addr, prev_addr, owner, number = unpack_header(cached.raw)
            else:
                next_addr, prev_addr, owner, number = cached.decoded[0]
            if owner != file_number:
                raise self._foreign_block(addr, owner, file_number)
            if number == block_number:
                header, bridge, data = self._decoded(addr, cached)
                return addr, header, bridge, data
            yield link_step
            addr = next_addr if number < block_number else prev_addr

    def _peek_hint(self, file_number: int, hint: int):
        """Block number at ``hint`` if it belongs to the file, else None."""
        if not self._first_data_block <= hint < self._capacity_blocks:
            return None
        entry = yield from self.cache.fetch(hint)
        try:
            _next, _prev, owner, number = self._header(hint, entry)
        except EFSCorruptionError:
            return None
        freelist = self.freelist
        if (owner != file_number or hint >= freelist.frontier
                or hint in freelist.hole_set):
            return None  # another file's block, or a freed one
        return number

    def _store_block(
        self, addr: int, header: EFSHeader, bridge: BridgeHeader, data: bytes,
    ):
        """The generator that writes one block, as the write-behind
        configuration says.  The entry it caches is seeded with what the
        block was packed from, so a block this server wrote is not
        unpacked while it stays cached: ``data`` itself when it is
        already the padded data area."""
        raw = pack_block(header, bridge, data)
        if len(data) != DATA_BYTES_PER_BLOCK or type(data) is not bytes:
            data = raw[DATA_OFFSET:]
        return self._store(addr, raw, (header, bridge, data))

    def _append(self, entry: DirectoryEntry, size: int, data: bytes):
        """Link a new block at the tail: two device writes in steady state
        (the new block and the old tail); the head's back-pointer update is
        a lazy write-back.  ``cache.fetch``, ``_decoded`` and
        ``_store_block`` are spelled out as in :meth:`_locate`, each block
        is packed with one :data:`pack_fields` call, and each header is
        ``tuple.__new__(EFSHeader, (next_addr, prev_addr, file_number,
        block_number))``: what the NamedTuple constructor runs, minus its
        Python frame.  Callers have checked the data's length."""
        yield self._free_op_charge
        addr = self.freelist.allocate()
        file_number = entry.file_number
        block_number = size
        width, column = entry.width, entry.column
        global_file_id, global_block = entry.global_file_id, block_number * width + column
        # (global_file_id, global_block, width, start_node, column, flags)
        new_bridge = tuple.__new__(BridgeHeader, (
            global_file_id, global_block, width, 0, column, 0))
        head_addr = entry.head_addr
        if head_addr == NULL_ADDR:  # an empty file: size is 0
            header = tuple.__new__(EFSHeader, (addr, addr, file_number, 0))
            yield from self._store_block(addr, header, new_bridge, data)
            entry.head_addr = addr
            yield from self.directory.update(entry)
            return 0, addr
        cache = self.cache
        first_data_block = self._first_data_block
        cached = cache.lookup(head_addr)
        if cached is None:
            cached = yield from cache.fill(head_addr)
        elif cache.hit_charge is not None:
            yield cache.hit_charge
        decoded = cached.decoded
        if decoded is None or head_addr < first_data_block:
            decoded = self._decoded(head_addr, cached)
        head, head_bridge, head_data = decoded
        tail_addr = head[1]
        new_header = tuple.__new__(
            EFSHeader, (head_addr, tail_addr, file_number, block_number))
        raw = pack_fields(head_addr, tail_addr, file_number, block_number,
                          EFS_MAGIC, global_file_id, global_block, width, 0,
                          column, 0, data)
        if len(data) != DATA_BYTES_PER_BLOCK or type(data) is not bytes:
            data = raw[DATA_OFFSET:]
        store = self._store
        yield from store(addr, raw, (new_header, new_bridge, data))
        # Decoded headers are shared with the cache's memo: a pointer
        # update is a new header, never an assignment.
        if tail_addr == head_addr:
            # Second block of the file: head's next and prev both change.
            head = tuple.__new__(EFSHeader, (addr, addr, head[2], head[3]))
            yield from self._store_block(head_addr, head, head_bridge, head_data)
            return block_number, addr
        cached = cache.lookup(tail_addr)
        if cached is None:
            cached = yield from cache.fill(tail_addr)
        elif cache.hit_charge is not None:
            yield cache.hit_charge
        decoded = cached.decoded
        if decoded is None or tail_addr < first_data_block:
            decoded = self._decoded(tail_addr, cached)
        tail, tail_bridge, tail_data = decoded
        tail = tuple.__new__(EFSHeader, (addr, tail[1], tail[2], tail[3]))
        raw = pack_fields(*tail, EFS_MAGIC, *tail_bridge, tail_data)
        yield from store(tail_addr, raw, (tail, tail_bridge, tail_data))
        head = tuple.__new__(EFSHeader, (head[0], addr, head[2], head[3]))
        raw = pack_fields(*head, EFS_MAGIC, *head_bridge, head_data)
        yield from cache.write_back(head_addr, raw, (head, head_bridge, head_data))
        return block_number, addr

"""Tests for the EFS server: create/read/write/append/delete, hints,
linked-list structure, and timing shape."""

import pytest

from repro.config import DATA_BYTES_PER_BLOCK
from repro.efs import NULL_ADDR, unpack_block
from repro.errors import (
    EFSBlockNotFoundError,
    EFSFileExistsError,
    EFSFileNotFoundError,
)

from tests.efs.conftest import exists


def allocated(freelist):
    return sum(not freelist.is_free(address)
               for address in range(freelist.start, freelist.capacity))


def chunk(tag, index):
    return (f"{tag}-{index}-".encode() * 40)[:DATA_BYTES_PER_BLOCK - 10]


# ---------------------------------------------------------------------------
# Create / exists
# ---------------------------------------------------------------------------


def test_create_and_exists(efs):
    def body():
        yield from efs.client.create(42)
        return (yield from exists(efs.client, 42))

    assert efs.run(body()) is True


def test_exists_false_for_unknown(efs):
    def body():
        return (yield from exists(efs.client, 999))

    assert efs.run(body()) is False


def test_create_duplicate_rejected(efs):
    def body():
        yield from efs.client.create(7)
        try:
            yield from efs.client.create(7)
        except EFSFileExistsError:
            return "caught"

    assert efs.run(body()) == "caught"


def test_new_file_is_empty(efs):
    def body():
        yield from efs.client.create(1)
        info = yield from efs.client.info(1)
        return info

    info = efs.run(body())
    assert info.size_blocks == 0
    assert info.head_addr == NULL_ADDR


# ---------------------------------------------------------------------------
# Append / read
# ---------------------------------------------------------------------------


def test_append_then_read_roundtrip(efs):
    def body():
        yield from efs.client.create(1)
        yield from efs.client.append(1, b"block zero")
        result = yield from efs.client.read(1, 0)
        return result

    result = efs.run(body())
    assert result.data[:10] == b"block zero"
    assert result.block_number == 0
    # single-block circular list points at itself
    assert result.next_addr == result.addr
    assert result.prev_addr == result.addr


def test_multi_block_file_contents(fast_efs):
    def body():
        yield from fast_efs.client.create(2)
        for index in range(10):
            yield from fast_efs.client.append(2, chunk("f2", index))
        chunks = yield from fast_efs.client.read_file(2)
        return chunks

    chunks = fast_efs.run(body())
    assert len(chunks) == 10
    for index, data in enumerate(chunks):
        assert data.startswith(chunk("f2", index))


def test_append_returns_growing_block_numbers(fast_efs):
    def body():
        yield from fast_efs.client.create(3)
        numbers = []
        for index in range(5):
            result = yield from fast_efs.client.append(3, b"x")
            numbers.append(result.block_number)
        return numbers

    assert fast_efs.run(body()) == [0, 1, 2, 3, 4]


def test_info_size_tracks_appends(fast_efs):
    def body():
        yield from fast_efs.client.create(4)
        sizes = []
        for _ in range(3):
            yield from fast_efs.client.append(4, b"d")
            info = yield from fast_efs.client.info(4)
            sizes.append(info.size_blocks)
        return sizes

    assert fast_efs.run(body()) == [1, 2, 3]


def test_read_missing_file(efs):
    def body():
        try:
            yield from efs.client.read(404, 0)
        except EFSFileNotFoundError:
            return "caught"

    assert efs.run(body()) == "caught"


def test_read_past_end(fast_efs):
    def body():
        yield from fast_efs.client.create(5)
        yield from fast_efs.client.append(5, b"only")
        try:
            yield from fast_efs.client.read(5, 1)
        except EFSBlockNotFoundError:
            return "caught"

    assert fast_efs.run(body()) == "caught"


def test_read_empty_file(efs):
    def body():
        yield from efs.client.create(6)
        try:
            yield from efs.client.read(6, 0)
        except EFSBlockNotFoundError:
            return "caught"

    assert efs.run(body()) == "caught"


def test_oversize_append_rejected(efs):
    def body():
        yield from efs.client.create(7)
        try:
            yield from efs.client.append(7, b"z" * (DATA_BYTES_PER_BLOCK + 1))
        except ValueError:
            return "caught"

    assert efs.run(body()) == "caught"


# ---------------------------------------------------------------------------
# Write (in place and append-at-end)
# ---------------------------------------------------------------------------


def test_write_at_size_appends(fast_efs):
    def body():
        yield from fast_efs.client.create(8)
        yield from fast_efs.client.write(8, 0, b"first")
        yield from fast_efs.client.write(8, 1, b"second")
        chunks = yield from fast_efs.client.read_file(8)
        return chunks

    chunks = fast_efs.run(body())
    assert chunks[0].startswith(b"first")
    assert chunks[1].startswith(b"second")


def test_write_in_place_overwrites(fast_efs):
    def body():
        yield from fast_efs.client.create(9)
        for index in range(4):
            yield from fast_efs.client.append(9, chunk("old", index))
        yield from fast_efs.client.write(9, 2, b"REPLACED")
        chunks = yield from fast_efs.client.read_file(9)
        return chunks

    chunks = fast_efs.run(body())
    assert chunks[2].startswith(b"REPLACED")
    assert chunks[1].startswith(chunk("old", 1))
    assert chunks[3].startswith(chunk("old", 3))


def test_overwrite_preserves_links(fast_efs):
    def body():
        yield from fast_efs.client.create(10)
        for index in range(3):
            yield from fast_efs.client.append(10, b"v1")
        before = yield from fast_efs.client.read(10, 1)
        yield from fast_efs.client.write(10, 1, b"v2")
        after = yield from fast_efs.client.read(10, 1)
        return before, after

    before, after = fast_efs.run(body())
    assert after.addr == before.addr
    assert after.next_addr == before.next_addr
    assert after.prev_addr == before.prev_addr


def test_sparse_write_rejected(fast_efs):
    def body():
        yield from fast_efs.client.create(11)
        try:
            yield from fast_efs.client.write(11, 5, b"hole")
        except EFSBlockNotFoundError:
            return "caught"

    assert fast_efs.run(body()) == "caught"


# ---------------------------------------------------------------------------
# Delete
# ---------------------------------------------------------------------------


def test_delete_frees_all_blocks(fast_efs):
    def body():
        yield from fast_efs.client.create(12)
        for index in range(6):
            yield from fast_efs.client.append(12, b"gone")
        before = allocated(fast_efs.server.freelist)
        freed = yield from fast_efs.client.delete(12)
        after = allocated(fast_efs.server.freelist)
        present = yield from exists(fast_efs.client, 12)
        return freed, before - after, present

    freed, delta, present = fast_efs.run(body())
    assert freed == 6
    assert delta == 6
    assert present is False


def test_delete_empty_file(fast_efs):
    def body():
        yield from fast_efs.client.create(13)
        freed = yield from fast_efs.client.delete(13)
        return freed

    assert fast_efs.run(body()) == 0


def test_delete_missing_file(efs):
    def body():
        try:
            yield from efs.client.delete(404)
        except EFSFileNotFoundError:
            return "caught"

    assert efs.run(body()) == "caught"


def test_space_reused_after_delete(fast_efs):
    def body():
        yield from fast_efs.client.create(14)
        for _ in range(4):
            yield from fast_efs.client.append(14, b"a")
        yield from fast_efs.client.delete(14)
        yield from fast_efs.client.create(15)
        for _ in range(4):
            yield from fast_efs.client.append(15, b"b")
        chunks = yield from fast_efs.client.read_file(15)
        return chunks

    chunks = fast_efs.run(body())
    assert all(c.startswith(b"b") for c in chunks)


# ---------------------------------------------------------------------------
# Hints
# ---------------------------------------------------------------------------


def test_exact_hint_skips_directory(fast_efs):
    def body():
        yield from fast_efs.client.create(16)
        results = []
        for index in range(3):
            results.append((yield from fast_efs.client.append(16, b"h")))
        # warm reads done; now count disk ops for a hinted read
        target = yield from fast_efs.client.read(16, 1)
        reads_before = fast_efs.disk.reads
        again = yield from fast_efs.client.read(16, 1, hint=target.addr)
        return target, again, fast_efs.disk.reads - reads_before

    target, again, extra_reads = fast_efs.run(body())
    assert again.data == target.data
    assert extra_reads == 0  # served entirely from cache via the hint


def test_stale_hint_wrong_file_ignored(fast_efs):
    def body():
        yield from fast_efs.client.create(17)
        yield from fast_efs.client.append(17, b"mine")
        yield from fast_efs.client.create(18)
        yield from fast_efs.client.append(18, b"other")
        other = yield from fast_efs.client.read(18, 0)
        # hint points into file 18; reading file 17 must still be correct
        result = yield from fast_efs.client.read(17, 0, hint=other.addr)
        return result.data[:4]

    assert fast_efs.run(body()) == b"mine"


def test_hint_into_same_file_wrong_block_accelerates_walk(fast_efs):
    def body():
        yield from fast_efs.client.create(19)
        for index in range(20):
            yield from fast_efs.client.append(19, chunk("w", index))
        near = yield from fast_efs.client.read(19, 10)
        result = yield from fast_efs.client.read(19, 11, hint=near.addr)
        return result.data

    assert fast_efs.run(body()).startswith(chunk("w", 11))


def test_garbage_hint_ignored(fast_efs):
    def body():
        yield from fast_efs.client.create(20)
        yield from fast_efs.client.append(20, b"safe")
        result = yield from fast_efs.client.read(20, 0, hint=1_000_000)
        return result.data[:4]

    assert fast_efs.run(body()) == b"safe"


# ---------------------------------------------------------------------------
# On-disk structure invariants
# ---------------------------------------------------------------------------


def test_on_disk_circular_doubly_linked_list(fast_efs):
    def body():
        yield from fast_efs.client.create(21)
        for index in range(5):
            yield from fast_efs.client.append(21, chunk("c", index))
        yield from fast_efs.client.flush()
        info = yield from fast_efs.client.info(21)
        return info

    info = fast_efs.run(body())
    disk = fast_efs.disk
    # walk the raw device image
    addr = info.head_addr
    seen = []
    for _ in range(info.size_blocks):
        header, bridge, _data = unpack_block(disk.blocks[addr])
        seen.append((addr, header))
        addr = header.next_addr
    assert addr == info.head_addr  # circular
    numbers = [h.block_number for _a, h in seen]
    assert numbers == [0, 1, 2, 3, 4]
    # prev pointers mirror next pointers
    for index in range(len(seen)):
        addr_here, _h = seen[index]
        _a_next, h_next = seen[(index + 1) % len(seen)]
        assert h_next.prev_addr == addr_here


def test_bridge_headers_carry_global_identity(fast_efs):
    def body():
        yield from fast_efs.client.create(
            22, global_file_id=900, width=4, column=2
        )
        yield from fast_efs.client.append(22, b"g0")
        yield from fast_efs.client.append(22, b"g1")
        yield from fast_efs.client.flush()
        info = yield from fast_efs.client.info(22)
        return info

    info = fast_efs.run(body())
    assert info.global_file_id == 900
    assert info.width == 4
    assert info.column == 2
    header, bridge, _ = unpack_block(fast_efs.disk.blocks[info.head_addr])
    assert bridge.global_file_id == 900
    # local block 0 in column 2 of a width-4 file is global block 2
    assert bridge.global_block == 2
    header2, bridge2, _ = unpack_block(fast_efs.disk.blocks[header.next_addr])
    assert bridge2.global_block == 6  # 1 * 4 + 2


# ---------------------------------------------------------------------------
# Timing shape (the Table 2 phenomena at LFS level)
# ---------------------------------------------------------------------------


def test_sequential_read_beats_disk_latency(efs):
    """Track buffering: the average hinted sequential read must cost less
    than the 15 ms device access time (Table 2 discussion)."""

    def body():
        yield from efs.client.create(30)
        for index in range(64):
            yield from efs.client.append(30, b"r" * 100)
        start = efs.sim.now
        yield from efs.client.read_file(30)
        return (efs.sim.now - start) / 64

    per_block = efs.run(body())
    assert per_block < 0.015
    assert per_block > 0.002


def test_append_costs_about_two_device_writes(efs):
    """Steady-state appends: new block + old-tail pointer update ~= 2
    write-throughs (the head back-pointer is a lazy write-back)."""

    def body():
        yield from efs.client.create(31)
        yield from efs.client.append(31, b"warm")
        yield from efs.client.append(31, b"warm")
        start = efs.sim.now
        for _ in range(10):
            yield from efs.client.append(31, b"x" * 500)
        return (efs.sim.now - start) / 10

    per_block = efs.run(body())
    assert 0.030 <= per_block <= 0.040  # ~31 ms in the paper


def test_random_access_cost_grows_with_distance(efs):
    """Uncached interior blocks require a linked-list walk."""

    def body():
        yield from efs.client.create(32)
        for index in range(120):
            yield from efs.client.append(32, b"d")
        # flush dirty metadata, then blow the cache so walks hit the device
        yield from efs.client.flush()
        efs.server.cache.invalidate_all()
        start = efs.sim.now
        yield from efs.client.read(32, 2)
        near = efs.sim.now - start
        efs.server.cache.invalidate_all()
        start = efs.sim.now
        yield from efs.client.read(32, 60)
        far = efs.sim.now - start
        return near, far

    near, far = efs.run(body())
    assert far > near * 3


def test_delete_costs_about_20ms_per_block(efs):
    def body():
        yield from efs.client.create(33)
        for _ in range(20):
            yield from efs.client.append(33, b"k")
        start = efs.sim.now
        yield from efs.client.delete(33)
        return (efs.sim.now - start) / 20

    per_block = efs.run(body())
    assert 0.015 <= per_block <= 0.025  # paper: 20 ms

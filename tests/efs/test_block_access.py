"""The EFS block-access path: decode once, walk on the header, copies or
immutables out of the memo.

The cache keeps what its readers decoded beside each raw block.  These
tests pin what that must not change: the header-only decoder agrees with
``unpack_block`` (values, and on bad input the exception and its text),
a walk over a damaged list fails the way it always has, and nothing a
caller does to a record it was handed reaches the next request.
"""

import pytest

from repro.config import BLOCK_SIZE
from repro.efs import (
    BridgeHeader,
    EFSHeader,
    pack_block,
    unpack_block,
    unpack_header,
)
from repro.errors import EFSCorruptionError

from tests.efs.conftest import assert_memos_fresh


def _filled(harness, number=5, blocks=12):
    """A file of ``blocks`` blocks; returns their disk addresses in order."""

    def body():
        yield from harness.client.create(number)
        results = yield from harness.client.write_file(
            number, [bytes([i]) * 100 for i in range(blocks)]
        )
        return [result.addr for result in results]

    return harness.run(body())


def _drop_caches(harness):
    harness.run(harness.server.cache.flush())
    harness.server.cache.invalidate_all()


# ---------------------------------------------------------------------------
# Header-only decode against unpack_block as the reference
# ---------------------------------------------------------------------------


def test_header_only_decode_agrees_with_unpack_block():
    header = EFSHeader(next_addr=70, prev_addr=-1, file_number=2 ** 40, block_number=9)
    raw = pack_block(header, BridgeHeader(3, 4, 5, 0, 1), b"payload")
    assert unpack_header(raw) == unpack_block(raw)[0] == header
    assert EFSHeader._make(unpack_header(raw)) == header


@pytest.mark.parametrize(
    "raw",
    [
        b"short",
        b"",
        bytes(BLOCK_SIZE + 1),
        bytes(BLOCK_SIZE),  # right size, zero magic
        pack_block(EFSHeader(), BridgeHeader(), b"x")[:20]
        + b"\xde\xad\xbe\xef"
        + bytes(BLOCK_SIZE - 24),
    ],
    ids=["short", "empty", "long", "zeros", "bad-magic"],
)
def test_header_only_decode_rejects_what_unpack_block_rejects(raw):
    with pytest.raises(EFSCorruptionError) as whole:
        unpack_block(raw)
    with pytest.raises(EFSCorruptionError) as header_only:
        unpack_header(raw)
    assert str(header_only.value) == str(whole.value)


# ---------------------------------------------------------------------------
# Walks over a damaged list raise what they always raised
# ---------------------------------------------------------------------------


def test_walk_across_a_foreign_owner_block_raises_corruption(fast_efs):
    addrs = _filled(fast_efs)
    _drop_caches(fast_efs)
    header, bridge, data = unpack_block(fast_efs.disk.blocks[addrs[3]])
    fast_efs.disk.blocks[addrs[3]] = pack_block(
        header._replace(file_number=77), bridge, data
    )

    def body():
        with pytest.raises(EFSCorruptionError) as failure:
            yield from fast_efs.client.read(5, 4)  # head, 1, 2, 3 (foreign)
        return str(failure.value)

    assert fast_efs.run(body()) == (
        f"block {addrs[3]} belongs to file 77, expected 5"
    )


def test_walk_across_a_corrupt_block_raises_corruption(fast_efs):
    addrs = _filled(fast_efs)
    _drop_caches(fast_efs)
    raw = bytearray(fast_efs.disk.blocks[addrs[9]])
    raw[20:24] = b"\x00\x00\x00\x00"  # the magic word
    fast_efs.disk.blocks[addrs[9]] = bytes(raw)

    def body():
        with pytest.raises(EFSCorruptionError) as failure:
            yield from fast_efs.client.read(5, 8)  # tail (11), 10, 9 (corrupt)
        return str(failure.value)

    assert fast_efs.run(body()) == "bad block magic 0x0"


def test_walk_whose_target_has_a_corrupt_body_still_checks_only_the_header(fast_efs):
    """The Bridge header and data area carry no checksum: a walk passes
    (and returns) a block whose body is garbage, as it always did."""
    addrs = _filled(fast_efs)
    _drop_caches(fast_efs)
    raw = fast_efs.disk.blocks[addrs[2]]
    fast_efs.disk.blocks[addrs[2]] = raw[:24] + b"\xff" * (BLOCK_SIZE - 24)

    def body():
        passed = yield from fast_efs.client.read(5, 4)
        landed = yield from fast_efs.client.read(5, 2)
        return passed.data, landed.data

    passed, landed = fast_efs.run(body())
    assert passed == bytes([4]) * 100 + bytes(860)
    assert landed == b"\xff" * 960


def test_pointer_into_the_directory_region_is_not_read_through_its_memo(fast_efs):
    """A stray ``next`` pointer into a bucket block must fail as a bad
    block, whatever the directory has memoised there."""
    addrs = _filled(fast_efs)
    bucket = fast_efs.server.directory.bucket_of(5)
    _drop_caches(fast_efs)
    header, bridge, data = unpack_block(fast_efs.disk.blocks[addrs[1]])
    fast_efs.disk.blocks[addrs[1]] = pack_block(
        header._replace(next_addr=bucket), bridge, data
    )

    def body():
        with pytest.raises(EFSCorruptionError, match="bad block magic"):
            # looks the file up (the bucket is now cached, decoded), then walks
            yield from fast_efs.client.read(5, 4)

    fast_efs.run(body())


# ---------------------------------------------------------------------------
# What a caller holds is its own
# ---------------------------------------------------------------------------


def test_decoded_headers_cannot_be_assigned_to(fast_efs):
    addrs = _filled(fast_efs)

    def body():
        entry = yield from fast_efs.server.directory.lookup(5)
        return (yield from fast_efs.server._locate(entry, 6, None))

    addr, header, bridge, _data = fast_efs.run(body())
    assert addr == addrs[6]
    with pytest.raises(AttributeError):
        header.next_addr = addrs[0]
    with pytest.raises(AttributeError):
        bridge.global_block = 99

    def again():
        return (yield from fast_efs.client.read(5, 6))

    result = fast_efs.run(again())
    assert (result.next_addr, result.prev_addr) == (addrs[7], addrs[5])
    assert result.global_block == 6


def test_a_looked_up_directory_entry_is_the_callers_own(fast_efs):
    addrs = _filled(fast_efs)
    directory = fast_efs.server.directory

    def lookup():
        return (yield from directory.lookup(5))

    mine = fast_efs.run(lookup())
    mine.head_addr = addrs[4]
    mine.width = 9
    theirs = fast_efs.run(lookup())
    assert theirs is not mine
    assert (theirs.head_addr, theirs.width) == (addrs[0], 1)

    def read():
        return (yield from fast_efs.client.read(5, 0))

    assert fast_efs.run(read()).addr == addrs[0]


def test_an_inserted_entry_is_copied_not_kept(fast_efs):
    from repro.efs import DirectoryEntry

    directory = fast_efs.server.directory
    entry = DirectoryEntry(file_number=21, width=2, column=1)

    def body():
        yield from directory.insert(entry)
        entry.column = 0  # the caller goes on using its record
        return (yield from directory.lookup(21))

    assert fast_efs.run(body()).column == 1


# ---------------------------------------------------------------------------
# The memo is only ever a decode of the bytes beside it
# ---------------------------------------------------------------------------


def test_blocks_the_server_wrote_are_cached_already_decoded(fast_efs):
    addrs = _filled(fast_efs, blocks=3)
    entries = fast_efs.server.cache._entries
    for addr in addrs:
        assert entries[addr].decoded == unpack_block(entries[addr].raw)
    assert entries[fast_efs.server.directory.bucket_of(5)].decoded is not None
    assert_memos_fresh(fast_efs.server)


def test_a_walk_leaves_passed_blocks_undecoded(fast_efs):
    addrs = _filled(fast_efs)
    _drop_caches(fast_efs)

    def body():
        return (yield from fast_efs.client.read(5, 5))  # head .. 5

    fast_efs.run(body())
    entries = fast_efs.server.cache._entries
    assert entries[addrs[5]].decoded == unpack_block(entries[addrs[5]].raw)
    assert all(entries[addr].decoded is None for addr in addrs[:5])
    assert_memos_fresh(fast_efs.server)

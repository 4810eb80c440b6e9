"""Tests for the on-disk block layout and the free list."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BLOCK_SIZE, DATA_BYTES_PER_BLOCK
from repro.efs import (
    NULL_ADDR,
    BridgeHeader,
    EFSHeader,
    FreeList,
    pack_block,
    unpack_block,
)
from repro.errors import EFSCorruptionError, EFSOutOfSpaceError


# ---------------------------------------------------------------------------
# Layout
# ---------------------------------------------------------------------------


def test_block_constants():
    assert DATA_BYTES_PER_BLOCK == 960  # 1024 - 24 - 40, per section 4.3


def test_pack_unpack_roundtrip():
    efs = EFSHeader(next_addr=7, prev_addr=3, file_number=42, block_number=9)
    bridge = BridgeHeader(
        global_file_id=1001, global_block=95, width=8, start_node=2, column=5
    )
    raw = pack_block(efs, bridge, b"payload")
    assert len(raw) == BLOCK_SIZE
    efs2, bridge2, data = unpack_block(raw)
    assert efs2 == efs
    assert bridge2 == bridge
    assert data[:7] == b"payload"
    assert data[7:] == b"\x00" * (DATA_BYTES_PER_BLOCK - 7)


def test_pack_rejects_oversize_data():
    with pytest.raises(ValueError):
        pack_block(EFSHeader(), BridgeHeader(), b"x" * (DATA_BYTES_PER_BLOCK + 1))


def test_pack_accepts_exactly_full_data():
    raw = pack_block(EFSHeader(), BridgeHeader(), b"y" * DATA_BYTES_PER_BLOCK)
    _e, _b, data = unpack_block(raw)
    assert data == b"y" * DATA_BYTES_PER_BLOCK


def test_unpack_rejects_wrong_size():
    with pytest.raises(EFSCorruptionError):
        unpack_block(b"short")


def test_unpack_rejects_bad_magic():
    raw = bytearray(pack_block(EFSHeader(), BridgeHeader(), b""))
    raw[20] ^= 0xFF  # corrupt the magic word
    with pytest.raises(EFSCorruptionError):
        unpack_block(bytes(raw))


def test_null_addr_packs():
    efs = EFSHeader(next_addr=NULL_ADDR, prev_addr=NULL_ADDR)
    efs2, _b, _d = unpack_block(pack_block(efs, BridgeHeader(), b""))
    assert efs2.next_addr == NULL_ADDR
    assert efs2.prev_addr == NULL_ADDR


@settings(max_examples=50)
@given(
    next_addr=st.integers(-1, 2**31 - 1),
    prev_addr=st.integers(-1, 2**31 - 1),
    file_number=st.integers(0, 2**62),
    block_number=st.integers(0, 2**31 - 1),
    data=st.binary(max_size=DATA_BYTES_PER_BLOCK),
)
def test_layout_roundtrip_property(next_addr, prev_addr, file_number, block_number, data):
    efs = EFSHeader(next_addr, prev_addr, file_number, block_number)
    bridge = BridgeHeader(file_number, block_number * 4 + 1, 4, 0, 1)
    efs2, bridge2, data2 = unpack_block(pack_block(efs, bridge, data))
    assert efs2 == efs
    assert bridge2 == bridge
    assert data2[: len(data)] == data
    assert set(data2[len(data):]) <= {0}


# ---------------------------------------------------------------------------
# Free list
# ---------------------------------------------------------------------------


def test_freelist_allocates_lowest_first():
    freelist = FreeList(capacity=100, start=10)
    assert [freelist.allocate() for _ in range(3)] == [10, 11, 12]


def test_freelist_respects_reserved_region():
    freelist = FreeList(capacity=100, start=64)
    assert freelist.allocate() == 64
    with pytest.raises(ValueError):
        freelist.free(5)


def test_freelist_free_and_reuse():
    freelist = FreeList(capacity=16, start=0)
    addresses = [freelist.allocate() for _ in range(16)]
    assert addresses == list(range(16))
    with pytest.raises(EFSOutOfSpaceError):
        freelist.allocate()
    freelist.free(7)
    assert freelist.allocate() == 7


def test_freelist_double_free_rejected():
    freelist = FreeList(capacity=8)
    address = freelist.allocate()
    freelist.free(address)
    with pytest.raises(ValueError):
        freelist.free(address)


def test_freelist_counts():
    freelist = FreeList(capacity=10, start=2)
    assert [freelist.is_free(a) for a in range(1, 11)] == [False] + [True] * 8 + [False]
    freelist.allocate()
    freelist.allocate()
    assert [freelist.is_free(a) for a in range(2, 10)] == [False] * 2 + [True] * 6


def test_freelist_bad_region_rejected():
    with pytest.raises(ValueError):
        FreeList(capacity=5, start=9)


def test_freelist_iter_free_sorted():
    freelist = FreeList(capacity=6)
    for _ in range(6):
        freelist.allocate()
    freelist.free(4)
    freelist.free(1)
    assert [a for a in range(6) if freelist.is_free(a)] == [1, 4]


@settings(max_examples=50)
@given(st.lists(st.one_of(st.just("alloc"), st.integers(0, 31)), max_size=200))
def test_freelist_invariants_property(ops):
    """Allocated and free sets always partition the region; no address is
    ever handed out twice without an intervening free; and against a
    plain set as the reference, every allocation is the lowest free
    address (an integer op frees the allocated address of that rank)."""
    capacity, start = 32, 3
    freelist = FreeList(capacity=capacity, start=start)
    allocated = set()
    free = set(range(start, capacity))
    for op in ops:
        if op == "alloc":
            if not free:
                with pytest.raises(EFSOutOfSpaceError):
                    freelist.allocate()
            else:
                address = freelist.allocate()
                assert address not in allocated
                assert address == min(free)
                allocated.add(address)
                free.discard(address)
        elif allocated:
            victim = sorted(allocated)[op % len(allocated)]
            allocated.discard(victim)
            free.add(victim)
            freelist.free(victim)
            with pytest.raises(ValueError):
                freelist.free(victim)
        assert [a for a in range(-1, capacity + 2) if freelist.is_free(a)] == sorted(free)
        assert freelist.allocated() == sorted(allocated)

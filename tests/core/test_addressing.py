"""Tests for interleaved-file addressing, including the paper's key
guarantee: p consecutive blocks always land on p distinct LFS instances."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import InterleaveMap


def test_basic_mapping_no_offset():
    imap = InterleaveMap(width=4, start=0)
    assert imap.locate(0) == (0, 0)
    assert imap.locate(1) == (1, 0)
    assert imap.locate(4) == (0, 1)
    assert imap.locate(11) == (3, 2)


def test_mapping_with_start_offset():
    # "block zero belongs to LFS k": n -> LFS (n + k) mod p
    imap = InterleaveMap(width=4, start=2)
    assert imap.slot_of(0) == 2
    assert imap.slot_of(1) == 3
    assert imap.slot_of(2) == 0
    assert imap.local_block(5) == 1


def test_width_one_degenerates_to_sequential():
    imap = InterleaveMap(width=1)
    for n in range(5):
        assert imap.locate(n) == (0, n)


def test_invalid_parameters():
    with pytest.raises(ValueError):
        InterleaveMap(width=0)
    with pytest.raises(ValueError):
        InterleaveMap(width=4, start=4)
    with pytest.raises(ValueError):
        InterleaveMap(width=4, start=-1)


def test_negative_block_rejected():
    imap = InterleaveMap(width=4)
    with pytest.raises(ValueError):
        imap.slot_of(-1)
    with pytest.raises(ValueError):
        imap.global_block(0, -1)
    with pytest.raises(ValueError):
        imap.blocks_on_slot(0, -1)
    with pytest.raises(ValueError):
        imap.blocks_on_slot(4, 8)


def test_column_of_slot():
    imap = InterleaveMap(width=4, start=1)
    # slot 1 holds column 0 (blocks 0, 4, 8...)
    assert imap.column_of_slot(1) == 0
    assert imap.column_of_slot(0) == 3


def test_constituent_sizes_balanced():
    imap = InterleaveMap(width=4)
    assert imap.constituent_sizes(8) == [2, 2, 2, 2]
    assert imap.constituent_sizes(10) == [3, 3, 2, 2]
    assert imap.constituent_sizes(0) == [0, 0, 0, 0]


def test_constituent_sizes_with_start():
    imap = InterleaveMap(width=4, start=3)
    # blocks 0,1 -> slots 3,0
    assert imap.constituent_sizes(2) == [1, 0, 0, 1]


def test_total_from_sizes_roundtrip():
    imap = InterleaveMap(width=4, start=1)
    for total in range(20):
        assert imap.total_from_sizes(imap.constituent_sizes(total)) == total


def test_total_from_sizes_rejects_illegal_prefix():
    imap = InterleaveMap(width=4)
    with pytest.raises(ValueError):
        imap.total_from_sizes([0, 1, 0, 0])  # block 0 missing
    with pytest.raises(ValueError):
        imap.total_from_sizes([2, 0, 0, 0])  # not round robin
    with pytest.raises(ValueError):
        imap.total_from_sizes([1, 1])  # wrong length


@settings(max_examples=200)
@given(
    width=st.integers(1, 64),
    start=st.integers(0, 63),
    block=st.integers(0, 10_000),
)
def test_roundtrip_property(width, start, block):
    """global -> (slot, local) -> global is the identity."""
    start %= width
    imap = InterleaveMap(width, start)
    slot, local = imap.locate(block)
    assert 0 <= slot < width
    assert imap.global_block(slot, local) == block


@settings(max_examples=200)
@given(
    width=st.integers(1, 64),
    start=st.integers(0, 63),
    base=st.integers(0, 10_000),
)
def test_consecutive_blocks_hit_distinct_slots(width, start, base):
    """Round-robin guarantees p consecutive blocks on p different nodes —
    the property hashing cannot give (section 3)."""
    start %= width
    imap = InterleaveMap(width, start)
    slots = {imap.slot_of(base + i) for i in range(width)}
    assert len(slots) == width


@settings(max_examples=100)
@given(
    width=st.integers(1, 16),
    start=st.integers(0, 15),
    total=st.integers(0, 500),
)
def test_sizes_partition_total(width, start, total):
    start %= width
    imap = InterleaveMap(width, start)
    sizes = imap.constituent_sizes(total)
    assert sum(sizes) == total
    assert max(sizes) - min(sizes) <= 1

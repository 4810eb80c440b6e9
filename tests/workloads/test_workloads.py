"""Tests for workload generators and file builders."""

import pytest

from repro.config import DATA_BYTES_PER_BLOCK
from repro.harness.builders import BridgeSystem
from repro.storage import FixedLatency
from repro.tools.sort import key_of
from repro.workloads import (
    build_file,
    build_record_file,
    pattern_chunks,
    read_file,
    record_chunks,
    text_chunks,
    uniform_keys,
)

from tests.helpers import (
    build_text_file,
    few_distinct_keys,
    reversed_keys,
    sorted_keys,
)


def make_system():
    return BridgeSystem(4, seed=81, disk_latency=FixedLatency(0.0005))


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def test_uniform_keys_deterministic():
    assert uniform_keys(10, seed=3) == uniform_keys(10, seed=3)
    assert uniform_keys(10, seed=3) != uniform_keys(10, seed=4)


def test_sorted_and_reversed_keys():
    keys = sorted_keys(20, seed=1)
    assert keys == sorted(keys)
    rev = reversed_keys(20, seed=1)
    assert rev == sorted(rev, reverse=True)
    assert sorted(rev) == keys


def test_few_distinct_keys():
    keys = few_distinct_keys(100, distinct=5, seed=2)
    assert len(set(keys)) <= 5
    assert len(keys) == 100


def test_record_chunks_shape():
    chunks = record_chunks([7, 3])
    assert all(len(c) == DATA_BYTES_PER_BLOCK for c in chunks)
    assert key_of(chunks[0]) == 7
    assert key_of(chunks[1]) == 3


def test_text_chunks_fit_blocks():
    chunks = text_chunks(5, seed=1)
    assert len(chunks) == 5
    assert all(len(c) <= DATA_BYTES_PER_BLOCK for c in chunks)
    assert all(b"\n" in c for c in chunks)


def test_text_chunks_needle_placement():
    chunks = text_chunks(9, seed=2, needle=b"MARK", needle_every=3)
    hits = [i for i, c in enumerate(chunks) if b"MARK" in c]
    assert hits == [0, 3, 6]


def test_pattern_chunks_self_identifying():
    chunks = pattern_chunks(3, stamp=b"XY")
    assert chunks[2].startswith(b"XY-00000002|")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def test_build_and_read_roundtrip():
    system = make_system()
    chunks = pattern_chunks(7)
    file_id = build_file(system, "f", chunks)
    assert file_id >= 1
    back = read_file(system, "f")
    assert len(back) == 7
    for original, copy in zip(chunks, back):
        assert copy.startswith(original)


def test_build_record_file_keys_in_order():
    system = make_system()
    keys = [9, 1, 5]
    build_record_file(system, "recs", keys)
    back = [key_of(r) for r in read_file(system, "recs")]
    assert back == keys


def test_build_text_file_with_needles():
    system = make_system()
    build_text_file(system, "log", 6, seed=3, needle=b"HIT", needle_every=2)
    back = read_file(system, "log")
    assert sum(1 for c in back if b"HIT" in c) == 3


def test_build_file_with_subset_slots():
    system = make_system()
    build_file(system, "narrow", pattern_chunks(4), node_slots=[1, 2])
    client = system.naive_client()

    def body():
        return (yield from client.open("narrow"))

    opened = system.run(body())
    assert opened.width == 2
    assert [c.node_index for c in opened.constituents] == [1, 2]

"""Tests for the Bridge Server: file management and the naive view."""

import pytest

from repro.errors import (
    BridgeBadRequestError,
    BridgeFileExistsError,
    BridgeFileNotFoundError,
)
from tests.core.conftest import make_system
from tests.efs.conftest import exists


def data_for(index):
    return f"block-{index:05d}|".encode() * 3


# ---------------------------------------------------------------------------
# Create / Delete / Open
# ---------------------------------------------------------------------------


def test_create_makes_constituents_on_every_lfs(fast_system):
    client = fast_system.naive_client()

    def body():
        file_id = yield from client.create("alpha")
        present = []
        for slot in range(fast_system.width):
            efs = fast_system.efs_client(slot, node=fast_system.client_node)
            present.append((yield from exists(efs, file_id)))
        return file_id, present

    file_id, present = fast_system.run(body())
    assert file_id >= 1
    assert present == [True] * 4


def test_create_duplicate_rejected(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("dup")
        try:
            yield from client.create("dup")
        except BridgeFileExistsError:
            return "caught"

    assert fast_system.run(body()) == "caught"


def test_create_with_width_subset(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("narrow", width=2)
        result = yield from client.open("narrow")
        return result

    result = fast_system.run(body())
    assert result.width == 2
    assert [c.node_index for c in result.constituents] == [0, 1]


def test_create_with_explicit_slots(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("picked", node_slots=[1, 3])
        result = yield from client.open("picked")
        return result

    result = fast_system.run(body())
    assert [c.node_index for c in result.constituents] == [1, 3]


def test_create_rejects_bad_slots(fast_system):
    client = fast_system.naive_client()

    def body():
        try:
            yield from client.create("bad", node_slots=[0, 9])
        except BridgeBadRequestError:
            return "caught"

    assert fast_system.run(body()) == "caught"


def test_create_rejects_bad_start(fast_system):
    client = fast_system.naive_client()

    def body():
        try:
            yield from client.create("bad-start", width=2, start=5)
        except BridgeBadRequestError:
            return "caught"

    assert fast_system.run(body()) == "caught"


def test_open_unknown_file(fast_system):
    client = fast_system.naive_client()

    def body():
        try:
            yield from client.open("ghost")
        except BridgeFileNotFoundError:
            return "caught"

    assert fast_system.run(body()) == "caught"


def test_delete_removes_everything(fast_system):
    client = fast_system.naive_client()

    def body():
        file_id = yield from client.create("victim")
        for index in range(8):
            yield from client.seq_write("victim", data_for(index))
        freed = yield from client.delete("victim")
        remains = []
        for slot in range(fast_system.width):
            efs = fast_system.efs_client(slot, node=fast_system.client_node)
            remains.append((yield from exists(efs, file_id)))
        try:
            yield from client.open("victim")
        except BridgeFileNotFoundError:
            reopened = False
        return freed, remains, reopened

    freed, remains, reopened = fast_system.run(body())
    assert freed == 8
    assert remains == [False] * 4
    assert reopened is False


def test_delete_unknown_file(fast_system):
    client = fast_system.naive_client()

    def body():
        try:
            yield from client.delete("ghost")
        except BridgeFileNotFoundError:
            return "caught"

    assert fast_system.run(body()) == "caught"


# ---------------------------------------------------------------------------
# Naive sequential view
# ---------------------------------------------------------------------------


def test_write_then_read_roundtrip(fast_system):
    client = fast_system.naive_client()
    payload = [data_for(i) for i in range(13)]  # not a multiple of width

    def body():
        yield from client.create("seq")
        yield from client.write_all("seq", payload)
        chunks = yield from client.read_all("seq")
        return chunks

    chunks = fast_system.run(body())
    assert len(chunks) == 13
    for expected, actual in zip(payload, chunks):
        assert actual.startswith(expected)


def test_blocks_distributed_round_robin(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("rr")
        for index in range(8):
            yield from client.seq_write("rr", data_for(index))
        result = yield from client.open("rr")
        return result

    result = fast_system.run(body())
    assert result.total_blocks == 8
    assert [c.size_blocks for c in result.constituents] == [2, 2, 2, 2]


def test_seq_read_eof_signalling(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("short")
        yield from client.seq_write("short", b"only block")
        yield from client.open("short")
        first = yield from client.seq_read("short")
        second = yield from client.seq_read("short")
        return first, second

    first, second = fast_system.run(body())
    assert first[0] == 0 and first[1].startswith(b"only block")
    assert second == (None, None)


def test_open_resets_cursor(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("rewind")
        yield from client.seq_write("rewind", b"A")
        yield from client.seq_write("rewind", b"B")
        yield from client.open("rewind")
        yield from client.seq_read("rewind")
        yield from client.open("rewind")  # rewind
        block_number, data = yield from client.seq_read("rewind")
        return block_number, data

    block_number, data = fast_system.run(body())
    assert block_number == 0
    assert data.startswith(b"A")


def test_random_read(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("rand")
        for index in range(9):
            yield from client.seq_write("rand", data_for(index))
        yield from client.open("rand")
        data5 = yield from client.random_read("rand", 5)
        data0 = yield from client.random_read("rand", 0)
        data8 = yield from client.random_read("rand", 8)
        return data5, data0, data8

    data5, data0, data8 = fast_system.run(body())
    assert data5.startswith(data_for(5))
    assert data0.startswith(data_for(0))
    assert data8.startswith(data_for(8))


def test_random_read_out_of_range(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("bounds")
        yield from client.seq_write("bounds", b"x")
        yield from client.open("bounds")
        try:
            yield from client.random_read("bounds", 1)
        except BridgeBadRequestError:
            return "caught"

    assert fast_system.run(body()) == "caught"


def test_random_write_in_place(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("rw")
        for index in range(6):
            yield from client.seq_write("rw", data_for(index))
        yield from client.open("rw")
        yield from client.random_write("rw", 3, b"PATCHED")
        chunks = yield from client.read_all("rw")
        return chunks

    chunks = fast_system.run(body())
    assert chunks[3].startswith(b"PATCHED")
    assert chunks[2].startswith(data_for(2))


def test_random_write_extends_at_end(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("grow")
        yield from client.seq_write("grow", b"0")
        yield from client.open("grow")
        yield from client.random_write("grow", 1, b"1")
        result = yield from client.open("grow")
        return result.total_blocks

    assert fast_system.run(body()) == 2


def test_random_write_beyond_end_rejected(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("sparse")
        try:
            yield from client.random_write("sparse", 3, b"hole")
        except BridgeBadRequestError:
            return "caught"

    assert fast_system.run(body()) == "caught"


def test_open_sees_tool_side_appends(fast_system):
    """Tools write directly to LFS instances; the next open must re-sync."""
    client = fast_system.naive_client()

    def body():
        file_id = yield from client.create("shared", width=2)
        # a "tool" appends one block to each constituent behind the
        # server's back, in round-robin order (slots 0 then 1)
        for slot in range(2):
            efs = fast_system.efs_client(slot)
            yield from efs.append(file_id, data_for(slot))
        result = yield from client.open("shared")
        chunks = yield from client.read_all("shared")
        return result.total_blocks, chunks

    total, chunks = fast_system.run(body())
    assert total == 2
    assert chunks[0].startswith(data_for(0))
    assert chunks[1].startswith(data_for(1))


def test_get_info_lists_all_lfs(fast_system):
    client = fast_system.naive_client()

    def body():
        return (yield from client.get_info())

    info = fast_system.run(body())
    assert info.width == 4
    assert [h.node_index for h in info.lfs] == [0, 1, 2, 3]
    assert info.server_port is fast_system.bridge.port


def test_interleaving_with_nonzero_start(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("offset", start=2)
        for index in range(5):
            yield from client.seq_write("offset", data_for(index))
        result = yield from client.open("offset")
        chunks = yield from client.read_all("offset")
        return result, chunks

    result, chunks = fast_system.run(body())
    assert result.start == 2
    # block 0 lives on slot 2
    assert result.constituents[2].size_blocks == 2
    assert result.constituents[1].size_blocks == 1
    for index in range(5):
        assert chunks[index].startswith(data_for(index))


def test_many_files_coexist(fast_system):
    client = fast_system.naive_client()

    def body():
        for name in ("one", "two", "three"):
            yield from client.create(name)
            yield from client.seq_write(name, name.encode())
        out = {}
        for name in ("one", "two", "three"):
            chunks = yield from client.read_all(name)
            out[name] = chunks[0]
        return out

    out = fast_system.run(body())
    for name in ("one", "two", "three"):
        assert out[name].startswith(name.encode())


def test_width_one_file_on_wide_system(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("solo", width=1)
        for index in range(4):
            yield from client.seq_write("solo", data_for(index))
        result = yield from client.open("solo")
        return result

    result = fast_system.run(body())
    assert result.width == 1
    assert result.constituents[0].size_blocks == 4

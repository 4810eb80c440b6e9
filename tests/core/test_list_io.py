"""Server-level list I/O: one batched EFS message per constituent LFS."""

import pytest

from repro.config import DATA_BYTES_PER_BLOCK
from repro.errors import BridgeBadRequestError, ProcessError
from repro.workloads import build_file, pattern_chunks, strided_pattern

from tests.core.conftest import make_system


def padded_chunks(count, stamp=b"BLK"):
    """pattern_chunks padded to the full data area: EFS reads always
    return the zero-padded 960-byte data area, so full-size chunks make
    exact equality comparisons valid."""
    return [
        chunk.ljust(DATA_BYTES_PER_BLOCK, b"\x00")
        for chunk in pattern_chunks(count, stamp=stamp)
    ]


def efs_requests(system):
    return sum(server.requests_served for server in system.efs_servers)


def payload(tag):
    return bytes([tag % 251]) * 960


# ---------------------------------------------------------------------------
# list_read
# ---------------------------------------------------------------------------


def test_list_read_returns_request_order(fast_system):
    chunks = padded_chunks(32)
    build_file(fast_system, "f", chunks)
    client = fast_system.naive_client()

    def body():
        return (yield from client.list_read("f", [9, 2, 2, 31, 0]))

    assert fast_system.run(body()) == [
        chunks[9], chunks[2], chunks[2], chunks[31], chunks[0]
    ]


def test_strided_256_blocks_at_most_p_batched_requests():
    """The headline claim: 256 single-block strided accesses over p = 8
    LFS cost at most 8 batched EFS requests, versus 256 naive RPCs."""
    p = 8
    system = make_system(p)
    blocks = 512
    chunks = padded_chunks(blocks)
    build_file(system, "f", chunks)
    client = system.naive_client()
    pattern = strided_pattern(start=0, stride=2, count=256)
    assert len(pattern) == 256

    def open_file():
        yield from client.open("f")

    system.run(open_file())

    before = efs_requests(system)

    def naive():
        data = []
        for block in pattern:
            data.append((yield from client.random_read("f", block)))
        return data

    naive_data = system.run(naive())
    naive_requests = efs_requests(system) - before
    assert naive_requests == 256

    before = efs_requests(system)

    def listio():
        return (yield from client.list_read("f", pattern))

    listio_data = system.run(listio())
    listio_requests = efs_requests(system) - before
    assert listio_requests <= p
    assert listio_data == naive_data


def test_list_read_empty(fast_system):
    build_file(fast_system, "f", padded_chunks(4))
    client = fast_system.naive_client()

    def body():
        return (yield from client.list_read("f", []))

    assert fast_system.run(body()) == []


def test_list_read_out_of_bounds(fast_system):
    build_file(fast_system, "f", padded_chunks(4))
    client = fast_system.naive_client()

    def body():
        yield from client.list_read("f", [0, 4])

    with pytest.raises(ProcessError) as excinfo:
        fast_system.run(body())
    assert isinstance(excinfo.value.__cause__, BridgeBadRequestError)


def test_list_read_disordered_file(fast_system):
    """Disordered files route through the block map, not the interleave."""
    client = fast_system.naive_client()
    chunks = padded_chunks(16)

    def body():
        yield from client.create("scrambled", disordered=True)
        yield from client.write_all("scrambled", chunks)
        yield from client.open("scrambled")
        return (yield from client.list_read("scrambled", [13, 1, 7]))

    assert fast_system.run(body()) == [chunks[13], chunks[1], chunks[7]]


# ---------------------------------------------------------------------------
# list_write
# ---------------------------------------------------------------------------


def test_list_write_scatter_updates(fast_system):
    chunks = padded_chunks(16)
    build_file(fast_system, "f", chunks)
    client = fast_system.naive_client()

    def body():
        total = yield from client.list_write(
            "f", [(3, payload(1)), (11, payload(2))]
        )
        data = yield from client.list_read("f", [3, 11, 4])
        return total, data

    total, data = fast_system.run(body())
    assert total == 16
    assert data == [payload(1), payload(2), chunks[4]]


def test_list_write_dense_append_grows_file(fast_system):
    build_file(fast_system, "f", padded_chunks(8))
    client = fast_system.naive_client()

    def body():
        total = yield from client.list_write(
            "f", [(9, payload(9)), (8, payload(8)), (10, payload(10))]
        )
        data = yield from client.list_read("f", [8, 9, 10])
        return total, data

    total, data = fast_system.run(body())
    assert total == 11
    assert data == [payload(8), payload(9), payload(10)]


def test_list_write_pattern_with_chunks(fast_system):
    build_file(fast_system, "f", padded_chunks(12))
    client = fast_system.naive_client()
    pattern = strided_pattern(0, 4, 3)

    def body():
        yield from client.list_write(
            "f", zip(pattern, [payload(20), payload(21), payload(22)])
        )
        return (yield from client.list_read("f", [0, 4, 8]))

    assert fast_system.run(body()) == [payload(20), payload(21), payload(22)]


def test_list_write_rejects_sparse_append(fast_system):
    build_file(fast_system, "f", padded_chunks(8))
    client = fast_system.naive_client()

    def body():
        yield from client.list_write("f", [(12, payload(0))])

    with pytest.raises(ProcessError) as excinfo:
        fast_system.run(body())
    assert isinstance(excinfo.value.__cause__, BridgeBadRequestError)


def test_list_write_rejects_disordered(fast_system):
    client = fast_system.naive_client()

    def body():
        yield from client.create("scrambled", disordered=True)
        yield from client.write_all("scrambled", padded_chunks(4))
        yield from client.list_write("scrambled", [(0, payload(0))])

    with pytest.raises(ProcessError) as excinfo:
        fast_system.run(body())
    assert isinstance(excinfo.value.__cause__, BridgeBadRequestError)


def test_list_write_is_batched_per_slot(fast_system):
    build_file(fast_system, "f", padded_chunks(32))
    client = fast_system.naive_client()

    def open_file():
        yield from client.open("f")

    fast_system.run(open_file())
    before = efs_requests(fast_system)

    def body():
        yield from client.list_write(
            "f", [(block, payload(block)) for block in range(16)]
        )

    fast_system.run(body())
    # 16 writes over p=4 slots -> exactly 4 batched write_blocks requests.
    assert efs_requests(fast_system) - before == 4


def test_list_write_fanout_limit_still_correct():
    """A bounded gather window changes pacing, not results."""
    from repro.config import DEFAULT_CONFIG

    system = make_system(4, config=DEFAULT_CONFIG.with_changes(
        bridge_fanout_limit=1
    ))
    chunks = padded_chunks(16)
    build_file(system, "f", chunks)
    client = system.naive_client()
    pattern = list(range(16))

    def body():
        yield from client.list_write(
            "f", [(b, payload(b)) for b in pattern]
        )
        return (yield from client.list_read("f", pattern))

    assert system.run(body()) == [payload(b) for b in pattern]

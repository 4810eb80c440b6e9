"""Batched EFS operations: read_blocks / write_blocks (list I/O, S17)."""

from repro.config import DATA_BYTES_PER_BLOCK
from repro.errors import EFSBlockNotFoundError, EFSFileNotFoundError

from tests.efs.conftest import write_blocks


def chunk(index):
    return (f"blk-{index}-".encode() * 160)[:DATA_BYTES_PER_BLOCK]


def pad(data):
    """EFS data areas come back zero-padded to the full 960 bytes."""
    return data.ljust(DATA_BYTES_PER_BLOCK, b"\x00")


def build(harness, file_number, blocks):
    def body():
        yield from harness.client.create(file_number)
        for index in range(blocks):
            yield from harness.client.append(file_number, chunk(index))

    harness.run(body())


# ---------------------------------------------------------------------------
# read_blocks
# ---------------------------------------------------------------------------


def test_read_blocks_request_order_preserved(fast_efs):
    build(fast_efs, 1, 8)

    def body():
        return (yield from fast_efs.client.read_blocks(1, [5, 0, 3]))

    batch = fast_efs.run(body())
    assert [r.block_number for r in batch.results] == [5, 0, 3]
    assert [r.data for r in batch.results] == [chunk(5), chunk(0), chunk(3)]


def test_read_blocks_duplicates_served_once_returned_twice(fast_efs):
    build(fast_efs, 1, 4)

    def body():
        return (yield from fast_efs.client.read_blocks(1, [2, 2, 0]))

    batch = fast_efs.run(body())
    assert [r.data for r in batch.results] == [chunk(2), chunk(2), chunk(0)]


def test_read_blocks_is_one_request(fast_efs):
    build(fast_efs, 1, 16)
    before = fast_efs.server.requests_served

    def body():
        return (yield from fast_efs.client.read_blocks(1, list(range(16))))

    batch = fast_efs.run(body())
    assert fast_efs.server.requests_served - before == 1
    assert len(batch.results) == 16


def test_read_blocks_hint_reuse_across_batch(fast_efs):
    """A fresh sequential file is one contiguous run: after the first
    lookup every subsequent block is found through the threaded hint."""
    build(fast_efs, 1, 12)

    def body():
        info = yield from fast_efs.client.info(1)
        return (
            yield from fast_efs.client.read_blocks(
                1, list(range(12)), hint=info.head_addr
            )
        )

    batch = fast_efs.run(body())
    assert batch.hint_hits == 12
    assert batch.runs == 1  # contiguous allocation -> one run


def test_read_blocks_runs_count_gaps(fast_efs):
    build(fast_efs, 1, 12)

    def body():
        # 0,1 contiguous; 6; 10 — three runs after ascending sort.
        return (yield from fast_efs.client.read_blocks(1, [10, 0, 1, 6]))

    assert fast_efs.run(body()).runs == 3


def test_read_blocks_empty_list(fast_efs):
    build(fast_efs, 1, 2)

    def body():
        return (yield from fast_efs.client.read_blocks(1, []))

    batch = fast_efs.run(body())
    assert batch.results == []


def test_read_blocks_unknown_file(fast_efs):
    def body():
        try:
            yield from fast_efs.client.read_blocks(404, [0])
        except EFSFileNotFoundError:
            return "caught"

    assert fast_efs.run(body()) == "caught"


def test_read_blocks_past_end(fast_efs):
    build(fast_efs, 1, 4)

    def body():
        try:
            yield from fast_efs.client.read_blocks(1, [0, 4])
        except EFSBlockNotFoundError:
            return "caught"

    assert fast_efs.run(body()) == "caught"


def test_read_blocks_cheaper_than_single_reads(efs):
    """The batch pays one request-decode charge instead of n."""
    build(efs, 1, 8)
    build(efs, 2, 8)

    def singles():
        start = efs.sim.now
        hint = None
        for block in range(8):
            result = yield from efs.client.read(1, block, hint=hint)
            hint = result.next_addr
        return efs.sim.now - start

    def batched():
        start = efs.sim.now
        yield from efs.client.read_blocks(2, list(range(8)))
        return efs.sim.now - start

    single_time = efs.run(singles())
    batch_time = efs.run(batched())
    assert batch_time < single_time


# ---------------------------------------------------------------------------
# write_blocks
# ---------------------------------------------------------------------------


def test_write_blocks_in_place_and_append(fast_efs):
    build(fast_efs, 1, 4)

    def body():
        batch = yield from write_blocks(
            fast_efs.client, 1, [(1, b"one"), (4, b"four"), (5, b"five")]
        )
        data = yield from fast_efs.client.read_blocks(1, [1, 4, 5])
        return batch, data

    batch, data = fast_efs.run(body())
    assert batch.appended == 2
    assert [r.block_number for r in batch.results] == [1, 4, 5]
    assert [r.data for r in data.results] == [pad(b"one"), pad(b"four"), pad(b"five")]


def test_write_blocks_is_one_request(fast_efs):
    build(fast_efs, 1, 2)
    before = fast_efs.server.requests_served

    def body():
        yield from write_blocks(
            fast_efs.client, 1, [(block, chunk(block)) for block in range(2, 10)]
        )

    fast_efs.run(body())
    assert fast_efs.server.requests_served - before == 1


def test_write_blocks_duplicate_last_value_wins(fast_efs):
    build(fast_efs, 1, 4)

    def body():
        yield from write_blocks(
            fast_efs.client, 1, [(2, b"first"), (2, b"second")]
        )
        return (yield from fast_efs.client.read_blocks(1, [2]))

    assert [r.data for r in fast_efs.run(body()).results] == [pad(b"second")]


def test_write_blocks_rejects_sparse(fast_efs):
    build(fast_efs, 1, 4)

    def body():
        try:
            yield from write_blocks(fast_efs.client, 1, [(6, b"hole")])
        except EFSBlockNotFoundError:
            return "caught"

    assert fast_efs.run(body()) == "caught"


def test_write_blocks_rejects_oversized_data(fast_efs):
    build(fast_efs, 1, 1)

    def body():
        try:
            yield from write_blocks(
                fast_efs.client, 1, [(0, b"x" * (DATA_BYTES_PER_BLOCK + 1))]
            )
        except ValueError:
            return "caught"

    assert fast_efs.run(body()) == "caught"


def test_write_blocks_empty_list(fast_efs):
    build(fast_efs, 1, 1)

    def body():
        return (yield from write_blocks(fast_efs.client, 1, []))

    batch = fast_efs.run(body())
    assert batch.results == []
    assert batch.appended == 0


def test_write_blocks_mixed_order_applies_ascending(fast_efs):
    """Appends mixed with updates in any request order still succeed:
    writes apply in ascending block order, so the dense append run at
    the end of the file lands before higher blocks are touched."""
    build(fast_efs, 1, 3)

    def body():
        yield from write_blocks(
            fast_efs.client, 1, [(4, b"later"), (3, b"earlier"), (0, b"update")]
        )
        return (yield from fast_efs.client.read_blocks(1, [0, 3, 4]))

    batch = fast_efs.run(body())
    assert [r.data for r in batch.results] == [
        pad(b"update"), pad(b"earlier"), pad(b"later")]

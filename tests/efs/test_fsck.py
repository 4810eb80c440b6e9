"""Tests for the EFS consistency checker — and, through it, for the
on-disk invariants of every mutating operation."""

import pytest

from repro.config import BLOCK_SIZE
from repro.efs.fsck import check_efs, check_system
from repro.efs.layout import BridgeHeader, EFSHeader, pack_block, unpack_block
from tests.efs.conftest import EFSHarness


def run_ops(efs, body):
    efs.run(body())
    return check_efs(efs.server)


def test_clean_after_creates_and_appends(fast_efs):
    def body():
        for number in (1, 2, 3):
            yield from fast_efs.client.create(number)
            for i in range(5):
                yield from fast_efs.client.append(number, b"x%d" % i)

    report = run_ops(fast_efs, body)
    assert report.clean, report.errors
    assert report.files_checked == 3
    assert report.blocks_checked == 15


def test_clean_after_deletes(fast_efs):
    def body():
        for number in (1, 2):
            yield from fast_efs.client.create(number)
            for _ in range(4):
                yield from fast_efs.client.append(number, b"d")
        yield from fast_efs.client.delete(1)

    report = run_ops(fast_efs, body)
    assert report.clean, report.errors
    assert report.files_checked == 1


def test_clean_after_overwrites(fast_efs):
    def body():
        yield from fast_efs.client.create(9)
        for i in range(6):
            yield from fast_efs.client.append(9, b"v1")
        for i in (0, 3, 5):
            yield from fast_efs.client.write(9, i, b"v2")

    report = run_ops(fast_efs, body)
    assert report.clean, report.errors


def test_clean_after_interleaved_churn(fast_efs):
    """Create/append/delete churn across files must leave no orphans."""

    def body():
        for round_index in range(3):
            for number in range(4):
                yield from fast_efs.client.create(100 + number)
                for i in range(round_index + 2):
                    yield from fast_efs.client.append(100 + number, b"c")
            for number in range(0, 4, 2):
                yield from fast_efs.client.delete(100 + number)
            for number in range(1, 4, 2):
                yield from fast_efs.client.delete(100 + number)

    report = run_ops(fast_efs, body)
    assert report.clean, report.errors


def test_detects_corrupted_link():
    efs = EFSHarness(access_time=0.0001)

    def body():
        yield from efs.client.create(5)
        for _ in range(4):
            yield from efs.client.append(5, b"ok")
        yield from efs.client.flush()

    efs.run(body())
    # find the head and smash its next pointer on the raw device
    report_before = check_efs(efs.server)
    assert report_before.clean

    def corrupt():
        info = yield from efs.client.info(5)
        return info.head_addr

    head = efs.run(corrupt())
    header, bridge, data = unpack_block(efs.disk.blocks[head])
    header = header._replace(next_addr=head)  # short-circuit the list
    efs.disk.blocks[head] = pack_block(header, bridge, data[:10])
    efs.server.cache.invalidate_all()

    report = check_efs(efs.server)
    assert not report.clean
    assert any("unreachable" in e or "prev" in e for e in report.errors)


def test_detects_cross_file_claim():
    efs = EFSHarness(access_time=0.0001)

    def body():
        yield from efs.client.create(1)
        yield from efs.client.append(1, b"mine")
        yield from efs.client.flush()

    efs.run(body())

    def find_head():
        info = yield from efs.client.info(1)
        return info.head_addr

    head = efs.run(find_head())
    # forge the block to claim it belongs to file 2
    header, bridge, data = unpack_block(efs.disk.blocks[head])
    header = header._replace(file_number=2)
    efs.disk.blocks[head] = pack_block(header, bridge, data[:10])
    efs.server.cache.invalidate_all()

    report = check_efs(efs.server)
    assert not report.clean
    assert any("owned by" in e for e in report.errors)


def test_detects_orphan_block():
    efs = EFSHarness(access_time=0.0001)

    def body():
        yield from efs.client.create(1)
        yield from efs.client.append(1, b"a")

    efs.run(body())
    # leak an allocation
    efs.server.freelist.allocate()
    report = check_efs(efs.server)
    assert not report.clean
    assert any("unreachable" in e for e in report.errors)


def test_sees_through_dirty_cache(fast_efs):
    """Blocks still dirty in the cache (head back-pointers) must not be
    reported as inconsistencies: the checker sees the post-write-back
    image."""

    def body():
        yield from fast_efs.client.create(7)
        for _ in range(6):
            yield from fast_efs.client.append(7, b"w")
        # no flush: head prev-pointer updates are still dirty

    report = run_ops(fast_efs, body)
    assert report.clean, report.errors


def test_check_system_covers_all_lfs():
    from repro.harness.builders import BridgeSystem
    from repro.storage import FixedLatency
    from repro.workloads import build_file, pattern_chunks

    system = BridgeSystem(4, seed=111, disk_latency=FixedLatency(0.0005))
    build_file(system, "spread", pattern_chunks(10))
    reports = check_system(system)
    assert len(reports) == 4
    assert all(r.clean for r in reports)
    assert sum(r.blocks_checked for r in reports) == 10


def test_clean_after_full_sort_workload():
    """The heaviest mutator we have: the sort tool's scratch churn must
    leave every LFS structurally clean."""
    from repro.harness.builders import BridgeSystem
    from repro.storage import FixedLatency
    from repro.tools import SortTool
    from repro.workloads import build_record_file, uniform_keys

    system = BridgeSystem(4, seed=113, disk_latency=FixedLatency(0.0005))
    build_record_file(system, "u", uniform_keys(32, seed=7))
    tool = SortTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("u", "s"))

    system.run(body())
    for report in check_system(system):
        assert report.clean, report.errors


# ---------------------------------------------------------------------------
# One corruption per complaint: a clean image broken one way per row.
# Two arms have no row because no static image reaches them — they are
# defence in depth behind a check that fires first: "claimed by files"
# (a block's header names one file, so the ownership check refuses every
# other claimant) and "next chain does not close" (a revisited block
# fails the numbering check).
# ---------------------------------------------------------------------------


def _rewrite(efs, addr, bridge_changes=None, **header_changes):
    """Repack the block at ``addr`` with some header fields replaced."""
    header, bridge, data = unpack_block(efs.disk.blocks[addr])
    efs.disk.blocks[addr] = pack_block(
        header._replace(**header_changes),
        bridge._replace(**(bridge_changes or {})), data,
    )


def _move_head_into_directory(efs, addrs):
    def body():
        entry = yield from efs.server.directory.lookup(1)
        entry.head_addr = 0
        yield from efs.server.directory.update(entry)

    efs.run(body())


def _point_past_the_written_blocks(efs, addrs):
    _rewrite(efs, addrs[1], next_addr=efs.disk.params.capacity_blocks - 1)


def _smash_block(efs, addrs):
    efs.disk.blocks[addrs[2]] = bytes(BLOCK_SIZE)


CORRUPTIONS = {
    "head outside data region": (
        _move_head_into_directory, "head 0 outside data region"),
    "block never written": (
        _point_past_the_written_blocks, "never written"),
    "undecodable block": (_smash_block, "bad block magic"),
    "wrong block number": (
        lambda efs, addrs: _rewrite(efs, addrs[2], block_number=9),
        "numbered 9, expected 2"),
    "next cycle that misses the head": (
        lambda efs, addrs: _rewrite(efs, addrs[2], next_addr=addrs[1]),
        "numbered 1, expected 3"),
    "wrong bridge id": (
        lambda efs, addrs: _rewrite(efs, addrs[1], {"global_file_id": 77}),
        "bridge id 77 != "),
    "wrong global block": (
        lambda efs, addrs: _rewrite(efs, addrs[1], {"global_block": 55}),
        "global 55 != 1"),
    "live block on the free list": (
        lambda efs, addrs: efs.server.freelist.free(addrs[3]),
        "is on the free list"),
}


def _assert_complaint(efs, row):
    """Build file 1 (four blocks) on a flushed, cache-cold image, break
    it the row's way, and expect the row's complaint."""
    corrupt, complaint = CORRUPTIONS[row]

    def body():
        yield from efs.client.create(1)
        for index in range(4):
            yield from efs.client.append(1, b"b%d" % index)
        yield from efs.client.flush()
        return (yield from efs.client.info(1)).head_addr

    addrs = [efs.run(body())]
    efs.server.cache.invalidate_all()
    assert check_efs(efs.server).clean
    while len(addrs) < 4:
        addrs.append(unpack_block(efs.disk.blocks[addrs[-1]])[0].next_addr)
    corrupt(efs, addrs)
    efs.server.cache.invalidate_all()
    report = check_efs(efs.server)
    assert any(complaint in error for error in report.errors), report.errors


@pytest.mark.parametrize("row", sorted(CORRUPTIONS))
def test_each_corruption_draws_its_complaint(row):
    _assert_complaint(EFSHarness(access_time=0.0001), row)


def test_corruption_is_seen_on_hostfs(tmp_path):
    efs = EFSHarness(access_time=0.0001,
                     storage={"kind": "hostfs", "root": tmp_path})
    _assert_complaint(efs, "wrong block number")


# ---------------------------------------------------------------------------
# S25: the same structural invariants against every registered driver
# ---------------------------------------------------------------------------


ALL_DRIVER_KINDS = ("ram", "hostfs", "object")


def _driver_spec(kind, tmp_path):
    if kind == "hostfs":
        return {"kind": "hostfs", "root": tmp_path}
    return kind


@pytest.fixture(params=ALL_DRIVER_KINDS)
def driver_efs(request, tmp_path):
    spec = _driver_spec(request.param, tmp_path)
    return EFSHarness(access_time=0.0001, storage=spec)


def test_clean_after_churn_on_every_driver(driver_efs):
    """Create/append/delete churn leaves a clean EFS on every backend."""
    efs = driver_efs

    def body():
        for number in range(1, 5):
            yield from efs.client.create(number)
            for i in range(number):
                yield from efs.client.append(number, b"x%d" % i)
        yield from efs.client.delete(2)
        yield from efs.client.flush()

    efs.run(body())
    report = check_efs(efs.server)
    assert report.clean, report.errors
    assert report.files_checked == 3


def test_detects_corruption_on_every_driver(driver_efs):
    """The fsck corruption probe pokes ``disk.blocks`` directly — the
    driver contract requires a mutable block mapping on every backend."""
    efs = driver_efs

    def body():
        yield from efs.client.create(5)
        for _ in range(4):
            yield from efs.client.append(5, b"ok")
        yield from efs.client.flush()

    efs.run(body())
    assert check_efs(efs.server).clean

    def find_head():
        info = yield from efs.client.info(5)
        return info.head_addr

    head = efs.run(find_head())
    header, bridge, data = unpack_block(efs.disk.blocks[head])
    header = header._replace(next_addr=head)  # short-circuit the list
    efs.disk.blocks[head] = pack_block(header, bridge, data[:10])
    efs.server.cache.invalidate_all()

    report = check_efs(efs.server)
    assert not report.clean

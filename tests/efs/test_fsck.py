"""Tests for the EFS consistency checker — and, through it, for the
on-disk invariants of every mutating operation."""

import pytest

from repro.config import BLOCK_SIZE
from repro.efs.fsck import check_efs, check_system
from repro.efs.layout import BridgeHeader, EFSHeader, pack_block, unpack_block
from repro.errors import EFSBlockNotFoundError, ProcessError
from tests.efs.conftest import EFSHarness
from tests.helpers import reference_fsck


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


# ---------------------------------------------------------------------------
# fsck visits only the blocks in use: it must say what the O(capacity)
# reference says, complaint for complaint, on every planted fault.
# ---------------------------------------------------------------------------


def _churned():
    """Files 1 (6 blocks), 2 (4) and 3 (3) appended in turn, then file 2
    deleted: its four blocks are holes below the frontier, their bytes
    discarded.  Head back-pointers stay dirty in the cache.  Returns the
    harness and each file's block addresses (file 2's are the holes)."""
    efs = EFSHarness(access_time=0.0001)
    sizes = {1: 6, 2: 4, 3: 3}

    def body():
        addrs = {}
        for number, size in sizes.items():
            yield from efs.client.create(number)
            addrs[number] = []
            for index in range(size):
                written = yield from efs.client.append(number, b"f%d" % index)
                addrs[number].append(written.addr)
        yield from efs.client.delete(2)
        return addrs

    return efs, efs.run(body())


def _orphan_between_holes(efs, addrs):
    freelist = efs.server.freelist
    first, orphan = freelist.allocate(), freelist.allocate()
    freelist.free(first)
    assert freelist.is_free(orphan - 1) and freelist.is_free(orphan + 1)
    return f"block {orphan} allocated but unreachable"


def _freed_holes(efs, addrs):
    zeros = bytes(BLOCK_SIZE)
    assert all(efs.disk.blocks[addr] == zeros for addr in addrs[2])
    return None


def _dirty_cached_block(efs, addrs):
    addr = addrs[1][2]
    header, bridge, data = unpack_block(efs.disk.blocks[addr])
    raw = pack_block(header._replace(block_number=9), bridge, data)
    assert efs.server.cache.write_back(addr, raw) == ()
    assert efs.server.cache._entries[addr].dirty
    return "numbered 9, expected 2"


def _file_block_on_the_free_list(efs, addrs):
    efs.server.freelist.free(addrs[1][1])
    return f"block {addrs[1][1]} is on the free list"


def _foreign_owner(efs, addrs):
    addr = addrs[3][1]
    efs.server.cache.invalidate(addr)
    _rewrite(efs, addr, file_number=1)
    return "owned by 1"


PLANTED = {
    "orphan between holes": _orphan_between_holes,
    "freed holes": _freed_holes,
    "dirty cached block": _dirty_cached_block,
    "file block on the free list": _file_block_on_the_free_list,
    "foreign owner": _foreign_owner,
}


def _same_as_reference(server):
    report, reference = check_efs(server), reference_fsck(server)
    assert report.errors == reference.errors
    assert report.files_checked == reference.files_checked
    assert report.blocks_checked == reference.blocks_checked
    return report


@pytest.mark.parametrize("fault", sorted(PLANTED))
def test_fsck_agrees_with_the_reference_on_a_planted_fault(fault):
    efs, addrs = _churned()
    assert _same_as_reference(efs.server).clean
    complaint = PLANTED[fault](efs, addrs)
    report = _same_as_reference(efs.server)
    if complaint is None:
        assert report.clean, report.errors
    else:
        assert any(complaint in error for error in report.errors), report.errors


def test_fsck_agrees_with_the_reference_on_every_fault_at_once():
    efs, addrs = _churned()
    complaints = [plant(efs, addrs) for plant in PLANTED.values()]
    report = _same_as_reference(efs.server)
    for complaint in filter(None, complaints):
        assert any(complaint in error for error in report.errors), report.errors


def test_a_stale_hint_into_a_discarded_block_reads_the_right_bytes(fast_efs):
    """File 1 is deleted and made again, two blocks long, in the lowest
    two of its old four blocks.  A hint at its old block 3 now names a
    discarded block: it fails to decode, so the server walks the list,
    where the old bytes would have passed the owner check and served a
    block the file no longer has."""
    efs = fast_efs

    def body():
        yield from efs.client.create(1)
        old = []
        for index in range(4):
            written = yield from efs.client.append(1, b"old%d" % index)
            old.append(written.addr)
        yield from efs.client.delete(1)
        yield from efs.client.create(1)
        for index in range(2):
            yield from efs.client.append(1, b"new%d" % index)
        return old

    old = efs.run(body())
    stale = old[3]
    assert efs.disk.blocks[stale] == bytes(BLOCK_SIZE)

    def read(block_number):
        return (yield from efs.client.read(1, block_number, hint=stale))

    result = efs.run(read(1))
    assert result.data.startswith(b"new1") and result.addr == old[1]
    with pytest.raises(ProcessError) as missing:
        efs.run(read(3))
    assert isinstance(missing.value.__cause__, EFSBlockNotFoundError)


def _remade_two_blocks_long(efs):
    """File 1 appended four blocks, deleted, and made again two blocks
    long; returns its old block 3's address, now on the free list (on
    ``hostfs`` its old bytes, header and all, are still there)."""
    def body():
        yield from efs.client.create(1)
        old = []
        for index in range(4):
            written = yield from efs.client.append(1, b"old%d" % index)
            old.append(written.addr)
        yield from efs.client.delete(1)
        yield from efs.client.create(1)
        for index in range(2):
            yield from efs.client.append(1, b"new%d" % index)
        return old[3]

    stale = efs.run(body())
    assert efs.server.freelist.is_free(stale)
    return stale


def test_a_stale_hint_into_a_freed_block_reads_nothing(driver_efs):
    efs = driver_efs
    stale = _remade_two_blocks_long(efs)

    def read():
        return (yield from efs.client.read(1, 3, hint=stale))

    with pytest.raises(ProcessError) as missing:
        efs.run(read())
    assert isinstance(missing.value.__cause__, EFSBlockNotFoundError)


def test_a_stale_hint_into_a_freed_block_writes_nothing(driver_efs):
    efs = driver_efs
    stale = _remade_two_blocks_long(efs)

    def write():
        return (yield from efs.client.write(1, 3, b"XXXX", hint=stale))

    with pytest.raises(ProcessError) as refused:
        efs.run(write())
    assert isinstance(refused.value.__cause__, EFSBlockNotFoundError)
    assert "past end" in str(refused.value.__cause__)

    def info():
        return (yield from efs.client.info(1))

    assert efs.run(info()).size_blocks == 2
    assert efs.server.freelist.is_free(stale)
    assert check_efs(efs.server).clean


def test_a_delete_drops_the_bytes_in_memory_and_keeps_the_file_on_hostfs(
        driver_efs):
    efs = driver_efs

    def body():
        yield from efs.client.create(1)
        addrs = []
        for index in range(3):
            written = yield from efs.client.append(1, b"x%d" % index)
            addrs.append(written.addr)
        yield from efs.client.flush()
        before = [efs.disk.blocks[addr] for addr in addrs]
        yield from efs.client.delete(1)
        return addrs, before

    addrs, before = efs.run(body())
    after = [efs.disk.blocks[addr] for addr in addrs]
    assert set(addrs) <= set(efs.disk.blocks)  # every driver keeps the key
    if efs.disk.kind == "hostfs":
        assert after == before
    else:
        assert after == [bytes(BLOCK_SIZE)] * 3
    assert check_efs(efs.server).clean

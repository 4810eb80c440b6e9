"""Tests for the EFS block cache (LRU, write-back, track prefetch)."""

import pytest

from repro.efs import BlockCache
from repro.sim import Simulator
from repro.storage import DiskParameters, FixedLatency, SimulatedDisk


def make(capacity=4, track_blocks=4, access_time=0.015, hit_cpu=0.0):
    sim = Simulator(seed=5)
    params = DiskParameters(name="d", capacity_blocks=256)
    disk = SimulatedDisk(sim, params, FixedLatency(access_time))
    cache = BlockCache(disk, capacity=capacity, track_blocks=track_blocks,
                       hit_cpu=hit_cpu)
    return sim, disk, cache


def test_miss_then_hit():
    sim, disk, cache = make(track_blocks=1)
    disk.blocks.update({3: b"A" * 1024})

    def body():
        first = yield from cache.read(3)
        second = yield from cache.read(3)
        return first, second, sim.now

    first, second, elapsed = sim.run_process(body())
    assert first == second == b"A" * 1024
    assert cache.hits == 1 and cache.misses == 1
    assert elapsed == pytest.approx(0.015)  # only one device access
    assert disk.reads == 1


def test_track_prefetch_serves_siblings_without_io():
    sim, disk, cache = make(track_blocks=4)
    disk.blocks.update({i: bytes([i]) * 1024 for i in range(8)})

    def body():
        yield from cache.read(0)  # pulls track 0-3
        for sibling in (1, 2, 3):
            yield from cache.read(sibling)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == pytest.approx(0.015)
    assert cache.misses == 1 and cache.hits == 3
    assert disk.reads == 1


def test_prefetch_skips_unwritten_siblings():
    sim, disk, cache = make(track_blocks=4)
    disk.blocks.update({0: b"x" * 1024})  # 1-3 never written

    def body():
        yield from cache.read(0)
        yield from cache.read(1)  # miss: nothing was prefetched for it

    sim.run_process(body())
    assert cache.misses == 2


def test_prefetch_disabled_flag():
    sim, disk, cache = make(track_blocks=4)
    disk.blocks.update({i: b"x" * 1024 for i in range(4)})

    def body():
        yield from cache.read(0, prefetch=False)
        yield from cache.read(1)

    sim.run_process(body())
    assert cache.misses == 2


def test_lru_eviction_order():
    sim, disk, cache = make(capacity=2, track_blocks=1)
    disk.blocks.update({i: bytes([i]) * 1024 for i in range(3)})

    def body():
        yield from cache.read(0)
        yield from cache.read(1)
        yield from cache.read(2)  # evicts 0
        yield from cache.read(0)  # miss again

    sim.run_process(body())
    assert cache.misses == 4
    assert cache.evictions >= 1


def test_write_through_is_clean_and_cached():
    sim, disk, cache = make(track_blocks=1)

    def body():
        yield from cache.write_through(5, b"W" * 1024)
        data = yield from cache.read(5)
        return data

    assert sim.run_process(body()) == b"W" * 1024
    assert disk.writes == 1
    assert cache.hits == 1  # the read was served from cache


def test_write_back_defers_device_write():
    sim, disk, cache = make(track_blocks=1)

    def body():
        yield from cache.write_back(5, b"B" * 1024)
        return sim.now

    elapsed = sim.run_process(body())
    assert elapsed == 0.0  # no device I/O yet
    assert disk.writes == 0
    assert cache.peek(5) == b"B" * 1024


def test_dirty_block_flushed_on_eviction():
    sim, disk, cache = make(capacity=2, track_blocks=1)
    disk.blocks.update({0: b"0" * 1024, 1: b"1" * 1024})

    def body():
        yield from cache.write_back(9, b"D" * 1024)
        yield from cache.read(0)
        yield from cache.read(1)  # capacity 2: evicts dirty 9

    sim.run_process(body())
    assert disk.writes == 1
    assert disk.blocks[9] == b"D" * 1024
    assert cache._writebacks.value == 1


def test_flush_writes_all_dirty():
    sim, disk, cache = make(capacity=8, track_blocks=1)

    def body():
        yield from cache.write_back(3, b"a" * 1024)
        yield from cache.write_back(1, b"b" * 1024)
        yield from cache.flush()

    sim.run_process(body())
    assert disk.blocks[3] == b"a" * 1024
    assert disk.blocks[1] == b"b" * 1024
    assert disk.writes == 2

    # flushing again writes nothing new
    def body2():
        yield from cache.flush()

    sim.run_process(body2())
    assert disk.writes == 2


def test_invalidate_removes_entry():
    sim, disk, cache = make(track_blocks=1)
    disk.blocks.update({4: b"z" * 1024})

    def body():
        yield from cache.read(4)
        cache.invalidate(4)
        yield from cache.read(4)

    sim.run_process(body())
    assert cache.misses == 2


def test_invalidate_all():
    sim, disk, cache = make(track_blocks=1)
    disk.blocks.update({1: b"m" * 1024})

    def body():
        yield from cache.read(1)
        cache.invalidate_all()

    sim.run_process(body())
    assert not cache._entries


def test_hit_cpu_charged():
    sim, disk, cache = make(track_blocks=1, hit_cpu=0.001)
    disk.blocks.update({0: b"h" * 1024})

    def body():
        yield from cache.read(0)
        start = sim.now
        yield from cache.read(0)
        return sim.now - start

    assert sim.run_process(body()) == pytest.approx(0.001)


def test_hit_rate():
    sim, disk, cache = make(track_blocks=1)
    disk.blocks.update({0: b"r" * 1024})

    def body():
        for _ in range(4):
            yield from cache.read(0)

    sim.run_process(body())
    assert (cache.hits, cache.misses) == (3, 1)


def test_capacity_validation():
    sim = Simulator()
    params = DiskParameters(name="d", capacity_blocks=8)
    disk = SimulatedDisk(sim, params, FixedLatency(0.001))
    with pytest.raises(ValueError):
        BlockCache(disk, capacity=0)
    with pytest.raises(ValueError):
        BlockCache(disk, track_blocks=0)


def test_prefetch_never_overwrites_dirty_entry():
    """A track prefetch must not clobber newer write-back data with the
    stale on-device image."""
    sim, disk, cache = make(capacity=8, track_blocks=4)
    disk.blocks.update({i: b"old" + bytes(1021) for i in range(4)})

    def body():
        yield from cache.write_back(1, b"new" + bytes(1021))
        yield from cache.read(0)  # prefetches the track, must skip 1
        data = yield from cache.read(1)
        return data

    assert sim.run_process(body())[:3] == b"new"


def test_write_through_does_not_drop_pending_dirty_state():
    # Regression for the dirty-bit expression in _install: a block with
    # an unflushed write-back that is re-installed "clean" by a
    # write_through must stay dirty — flush must still write the final
    # cached contents so eviction/flush semantics never silently lose a
    # pending write-back.  Sticky-dirty shows as one more device write.
    sim, disk, cache = make(track_blocks=1)

    def body():
        yield from cache.write_back(5, b"B" * 1024)
        yield from cache.write_through(5, b"C" * 1024)
        assert disk.writes == 1  # the write_through itself
        yield from cache.flush()
        assert disk.writes == 2 and cache._writebacks.value == 1  # still dirty
        yield from cache.flush()

    sim.run_process(body())
    assert disk.blocks[5] == b"C" * 1024
    assert disk.writes == 2 and cache._writebacks.value == 1  # clean after a flush


def test_write_back_after_write_through_stays_dirty_until_flush():
    sim, disk, cache = make(track_blocks=1)

    def body():
        yield from cache.write_through(7, b"T" * 1024)
        yield from cache.flush()
        assert disk.writes == 1 and cache._writebacks.value == 0  # it was clean
        yield from cache.write_back(7, b"U" * 1024)
        assert disk.blocks[7] == b"T" * 1024  # device still has the old data
        yield from cache.flush()
        assert disk.writes == 2 and cache._writebacks.value == 1  # it was dirty
        yield from cache.flush()

    sim.run_process(body())
    assert disk.blocks[7] == b"U" * 1024
    assert disk.writes == 2 and cache._writebacks.value == 1  # clean after a flush


def test_dirty_victim_survives_a_failed_write_back():
    """Regression: the LRU victim used to be dropped (and counted) before
    its write-back ran, so a failed device lost the only copy."""
    from repro.errors import DeviceFailedError, ProcessError

    sim, disk, cache = make(capacity=1, track_blocks=1)

    def doomed():
        yield from cache.write_back(5, b"D" * 1024)
        disk.fail()
        yield from cache.write_back(6, b"E" * 1024)  # must evict dirty 5

    with pytest.raises(ProcessError) as failure:
        sim.run_process(doomed())
    assert isinstance(failure.value.__cause__, DeviceFailedError)
    assert cache.peek(5) == b"D" * 1024  # still cached, still dirty
    assert cache.evictions == 0 and cache._writebacks.value == 0

    disk.repair()
    sim.run_process(cache.flush())
    assert disk.blocks[5] == b"D" * 1024
    assert cache._writebacks.value == 1


def test_dirty_eviction_counts_and_order_when_the_write_succeeds():
    sim, disk, cache = make(capacity=1, track_blocks=1)

    def body():
        yield from cache.write_back(5, b"D" * 1024)
        yield from cache.write_back(6, b"E" * 1024)
        return sim.now

    assert sim.run_process(body()) == pytest.approx(0.015)  # one device write
    assert disk.blocks[5] == b"D" * 1024 and disk.writes == 1
    assert cache.peek(5) is None and cache.peek(6) == b"E" * 1024
    assert cache.evictions == 1 and cache._writebacks.value == 1


# ---------------------------------------------------------------------------
# S25: cache coherence against every registered driver
# ---------------------------------------------------------------------------


ALL_DRIVER_KINDS = ("ram", "hostfs", "object")


def make_on_driver(kind, tmp_path, capacity=4, track_blocks=1):
    from repro.storage import make_driver

    spec = {"kind": "hostfs", "root": tmp_path} if kind == "hostfs" else kind
    sim = Simulator(seed=5)
    disk = make_driver(spec, sim, name="d", capacity_blocks=256)
    cache = BlockCache(disk, capacity=capacity, track_blocks=track_blocks)
    return sim, disk, cache


@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_miss_then_hit_on_every_driver(kind, tmp_path):
    """A hit never touches the device, regardless of the backend."""
    sim, disk, cache = make_on_driver(kind, tmp_path)
    disk.blocks.update({3: b"A" * 1024})

    def body():
        first = yield from cache.read(3)
        second = yield from cache.read(3)
        return first, second

    first, second = sim.run_process(body())
    assert first == second == b"A" * 1024
    assert cache.hits == 1 and cache.misses == 1
    assert disk.reads == 1


@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_write_back_flush_reaches_device_on_every_driver(kind, tmp_path):
    """Deferred write-back lands on the backing store at flush time —
    for hostfs that means the bytes are really in the block file."""
    sim, disk, cache = make_on_driver(kind, tmp_path)

    def body():
        yield from cache.write_back(5, b"B" * 1024)
        before = disk.writes
        yield from cache.flush()
        return before

    before = sim.run_process(body())
    assert before == 0  # deferred until flush
    assert disk.writes == 1
    assert bytes(disk.blocks[5]).startswith(b"B" * 1024)


@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_invalidate_rereads_device_on_every_driver(kind, tmp_path):
    """After invalidate_all, a read must consult the device again and
    observe out-of-band changes to the underlying blocks."""
    sim, disk, cache = make_on_driver(kind, tmp_path)
    disk.blocks.update({9: b"old" + b"\x00" * 1021})

    def warm():
        return (yield from cache.read(9))

    assert sim.run_process(warm()).startswith(b"old")
    disk.blocks[9] = b"new" + b"\x00" * 1021
    cache.invalidate_all()

    def reread():
        return (yield from cache.read(9))

    assert sim.run_process(reread()).startswith(b"new")
    assert disk.reads == 2

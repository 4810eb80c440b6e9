"""Tests for the simulated disk, latency models, and schedulers."""

import pytest

from repro.errors import BadBlockAddressError, DeviceFailedError
from repro.sim import Simulator, Timeout
from repro.storage import (
    DiskGeometry,
    DiskParameters,
    FixedLatency,
    GeometricLatency,
    SimulatedDisk,
    make_scheduler,
    wren_geometric,
)
from repro.storage.parameters import ROTATION_TIME


def make_disk(sim=None, capacity=1024, access_time=0.015, scheduler=None):
    sim = sim or Simulator(seed=3)
    params = DiskParameters(name="test-disk", capacity_blocks=capacity)
    disk = SimulatedDisk(
        sim, params, FixedLatency(access_time), scheduler=scheduler
    )
    return sim, disk


# ---------------------------------------------------------------------------
# Basic read/write
# ---------------------------------------------------------------------------


def test_write_then_read_roundtrip():
    sim, disk = make_disk()

    def body():
        yield from disk.write(5, b"hello")
        data = yield from disk.read(5)
        return data

    assert sim.run_process(body()) == b"hello"


def test_unwritten_block_reads_zeros():
    sim, disk = make_disk()

    def body():
        return (yield from disk.read(0))

    data = sim.run_process(body())
    assert data == b"\x00" * 1024


def test_each_access_costs_fixed_latency():
    sim, disk = make_disk(access_time=0.015)

    def body():
        yield from disk.write(1, b"a")
        yield from disk.read(1)
        return sim.now

    assert sim.run_process(body()) == pytest.approx(0.030)


def test_out_of_range_read_raises():
    sim, disk = make_disk(capacity=10)

    def body():
        try:
            yield from disk.read(10)
        except BadBlockAddressError:
            return "caught"

    assert sim.run_process(body()) == "caught"


def test_negative_block_raises():
    sim, disk = make_disk(capacity=10)

    def body():
        try:
            yield from disk.read(-1)
        except BadBlockAddressError:
            return "caught"

    assert sim.run_process(body()) == "caught"


def test_oversize_write_raises():
    sim, disk = make_disk()

    def body():
        try:
            yield from disk.write(0, b"x" * 2000)
        except BadBlockAddressError:
            return "caught"

    assert sim.run_process(body()) == "caught"


def test_requests_are_serialized_on_one_arm():
    sim, disk = make_disk(access_time=0.010)
    finish_times = []

    def reader(block):
        yield from disk.read(block)
        finish_times.append(sim.now)

    for block in range(3):
        sim.spawn(reader(block))
    sim.run()
    assert finish_times == pytest.approx([0.010, 0.020, 0.030])


def test_stats_counters():
    sim, disk = make_disk(access_time=0.010)

    def body():
        yield from disk.write(0, b"a")
        yield from disk.read(0)
        yield from disk.read(1)

    sim.run_process(body())
    assert disk.reads == 2
    assert disk.writes == 1
    assert disk.total_operations == 3
    assert disk.busy_time == pytest.approx(0.030)
    assert disk.utilization() == pytest.approx(1.0)
    assert disk.service_times.count == 3


def test_wait_time_measured_under_contention():
    sim, disk = make_disk(access_time=0.010)

    def reader():
        yield from disk.read(0)

    sim.spawn(reader())
    sim.spawn(reader())
    sim.run()
    assert disk.wait_times.max == pytest.approx(0.010)


def test_load_image_installs_contents_without_time():
    """The raw image (``store.blocks``) is written around the clock."""
    sim, disk = make_disk()
    disk.blocks.update({3: b"abc", 7: b"xyz"})

    def body():
        data = yield from disk.read(3)
        return data

    assert sim.run_process(body()) == b"abc"
    assert sim.now == pytest.approx(0.015)


# ---------------------------------------------------------------------------
# Fault injection
# ---------------------------------------------------------------------------


def test_failed_disk_errors_requests():
    sim, disk = make_disk()
    disk.fail()

    def body():
        try:
            yield from disk.read(0)
        except DeviceFailedError:
            return "dead"

    assert sim.run_process(body()) == "dead"


def test_fail_flushes_queued_requests():
    sim, disk = make_disk(access_time=1.0)
    outcomes = []

    def reader():
        try:
            yield from disk.read(0)
            outcomes.append("ok")
        except DeviceFailedError:
            outcomes.append("dead")

    def killer():
        yield Timeout(0.1)
        disk.fail()

    sim.spawn(reader())
    sim.spawn(reader())
    sim.spawn(killer())
    sim.run()
    # first request is already in service and completes; the queued one dies
    assert outcomes == ["dead", "ok"] or outcomes == ["ok", "dead"]
    assert "dead" in outcomes


def test_repair_restores_service_and_contents():
    sim, disk = make_disk()

    def body():
        yield from disk.write(2, b"persist")
        disk.fail()
        try:
            yield from disk.read(2)
        except DeviceFailedError:
            pass
        disk.repair()
        return (yield from disk.read(2))

    assert sim.run_process(body()) == b"persist"


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


def test_fixed_latency_rejects_negative():
    with pytest.raises(ValueError):
        FixedLatency(-1.0)


def test_geometric_latency_zero_seek_same_cylinder():
    geometry = DiskGeometry(cylinders=10, tracks_per_cylinder=2, blocks_per_track=4)
    model = GeometricLatency(geometry)
    assert model.seek_time(0, 1) == 0.0  # same track
    assert model.seek_time(0, 4) == 0.0  # same cylinder, other track
    assert model.seek_time(0, 8) > 0.0  # next cylinder


def test_geometric_latency_seek_grows_with_distance():
    geometry = DiskGeometry(cylinders=100, tracks_per_cylinder=1, blocks_per_track=4)
    model = GeometricLatency(geometry)
    near = model.seek_time(0, 4)
    far = model.seek_time(0, 396)
    assert far > near > 0


def test_geometric_access_includes_rotation_and_transfer():
    import random

    geometry = DiskGeometry(cylinders=10, tracks_per_cylinder=1, blocks_per_track=4)
    model = GeometricLatency(geometry)
    rng = random.Random(0)
    time, pos = model.access(rng, 0, 1, now=0.0)
    assert pos == 1
    sector_time = ROTATION_TIME / 4
    # sector 1 at angle 0: wait 1/4 rotation, then one sector transfer
    assert time == pytest.approx(ROTATION_TIME / 4 + sector_time)


def test_geometry_locate_roundtrip_and_bounds():
    geometry = DiskGeometry(cylinders=4, tracks_per_cylinder=3, blocks_per_track=5)
    assert geometry.capacity_blocks == 60
    assert geometry.locate(0) == (0, 0, 0)
    assert geometry.locate(5) == (0, 1, 0)
    assert geometry.locate(15) == (1, 0, 0)
    assert geometry.locate(59) == (3, 2, 4)
    with pytest.raises(ValueError):
        geometry.locate(60)


def test_presets():
    params_geo, latency_geo = wren_geometric()
    assert params_geo.geometry is not None
    assert params_geo.capacity_blocks == params_geo.geometry.capacity_blocks
    assert latency_geo.geometry is params_geo.geometry


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


class _Req:
    def __init__(self, block):
        self.block = block


def test_fcfs_takes_first():
    scheduler = make_scheduler("fcfs")
    pending = [_Req(50), _Req(10), _Req(90)]
    assert scheduler.select(pending, head_position=0) == 0


def test_sstf_takes_nearest():
    scheduler = make_scheduler("sstf")
    pending = [_Req(50), _Req(10), _Req(90)]
    assert scheduler.select(pending, head_position=15) == 1
    assert scheduler.select(pending, head_position=80) == 2


def test_elevator_sweeps_then_reverses():
    scheduler = make_scheduler("elevator")
    pending = [_Req(50), _Req(10), _Req(90)]
    first = scheduler.select(pending, head_position=40)
    assert pending[first].block == 50
    pending_high = [_Req(10), _Req(5)]
    index = scheduler.select(pending_high, head_position=95)
    assert pending_high[index].block == 10  # reversed, takes nearest below


def test_unknown_scheduler_rejected():
    with pytest.raises(ValueError):
        make_scheduler("lifo")


def test_sstf_reduces_total_service_time_vs_fcfs():
    """With a geometric disk, SSTF must beat FCFS on a scattered batch."""

    def run(scheduler_name):
        sim = Simulator(seed=9)
        params, latency = wren_geometric(capacity_blocks=4096)
        disk = SimulatedDisk(
            sim, params, latency, scheduler=make_scheduler(scheduler_name)
        )
        blocks = [3000, 10, 2900, 40, 2800, 70, 2700, 100]

        def reader(block):
            yield from disk.read(block)

        for block in blocks:
            sim.spawn(reader(block))
        sim.run()
        return sim.now

    assert run("sstf") < run("fcfs")

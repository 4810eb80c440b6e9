"""Tests for the synchronized storage-array baseline."""

import pytest

from repro.errors import BadBlockAddressError, DeviceFailedError
from repro.sim import Simulator
from repro.storage import StorageArray
from repro.storage.parameters import ROTATION_TIME, SEEK_MIN


def make_array(members=4, **kwargs):
    sim = Simulator(seed=11)
    array = StorageArray(sim, members, capacity_blocks=256, **kwargs)
    return sim, array


def test_roundtrip():
    sim, array = make_array()

    def body():
        yield from array.write(9, b"data")
        return (yield from array.read(9))

    assert sim.run_process(body()) == b"data"


def test_unwritten_reads_zeros():
    sim, array = make_array()

    def body():
        return (yield from array.read(0))

    assert sim.run_process(body()) == b"\x00" * 1024


def test_out_of_range():
    sim, array = make_array()

    def body():
        try:
            yield from array.read(1000)
        except BadBlockAddressError:
            return "caught"

    assert sim.run_process(body()) == "caught"


def test_needs_at_least_one_member():
    sim = Simulator()
    with pytest.raises(ValueError):
        StorageArray(sim, 0, capacity_blocks=16)


def test_single_member_failure_kills_device():
    sim, array = make_array()
    array.fail()

    def body():
        try:
            yield from array.read(0)
        except DeviceFailedError:
            return "dead"

    assert sim.run_process(body()) == "dead"


def test_expected_positioning_grows_with_members():
    _sim, small = make_array(members=2)
    _sim2, big = make_array(members=16)
    assert big.expected_positioning() > small.expected_positioning()
    # d/(d+1) formula
    assert small.expected_positioning() == pytest.approx(0.0167 * 2 / 3)


def test_sampled_positioning_tracks_analytic_mean():
    _sim, array = make_array(members=8)
    samples = [array.sample_positioning() for _ in range(4000)]
    mean = sum(samples) / len(samples)
    assert mean == pytest.approx(array.expected_positioning(), rel=0.05)


def test_positioning_worse_than_single_drive_but_transfer_scales():
    """The paper's point: arrays maximize rotational latency."""
    sim, array = make_array(members=12, transfer_time=0.012)

    def body():
        yield from array.read(0)
        return sim.now

    service = sim.run_process(body())
    # transfer shrank to 1 ms, but positioning pushes toward a full rotation
    assert service > SEEK_MIN + ROTATION_TIME / 2
    assert array.total_operations == 1
    assert array.busy_time == pytest.approx(service)

"""Tests for the rotating-parity redundancy subsystem (S16)."""

import pytest

from repro.efs.layout import DATA_BYTES_PER_BLOCK
from repro.errors import DeviceFailedError, ProcessError
from repro.harness.builders import BridgeSystem
from repro.redundancy import (
    FaultInjector,
    OnlineRebuild,
    ParityFile,
    ParityGeometry,
    files_lost_fraction_parity,
    xor_blocks,
)
from repro.storage import FixedLatency
from repro.workloads import pattern_chunks

from tests.helpers import failed


def make_system(p=4, seed=20, **kwargs):
    return BridgeSystem(p, seed=seed, disk_latency=FixedLatency(0.0005),
                        **kwargs)


def drop_caches(system):
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()


def build_parity_file(system, name, chunks):
    pfile = ParityFile(system, name)

    def setup():
        yield from pfile.create()
        yield from pfile.write_all(chunks)

    system.run(setup(), name="parity-setup")
    return pfile


def read_all(system, pfile):
    def body():
        return (yield from pfile.read_all())

    return system.run(body(), name="read-all")


def matches(read_back, originals):
    return len(read_back) == len(originals) and all(
        got.startswith(want) for got, want in zip(read_back, originals)
    )


# ---------------------------------------------------------------------------
# XOR and geometry
# ---------------------------------------------------------------------------


def test_xor_blocks_is_self_inverse():
    a, b = b"hello world", b"parity"
    p = xor_blocks(a, b)
    # XORing the parity with one part recovers the other (zero-padded)
    assert xor_blocks(p, b).startswith(a)
    assert xor_blocks(p, a).startswith(b)


def test_xor_blocks_pads_and_treats_none_as_zeros():
    assert xor_blocks(b"\x01", b"\x01\x02") == b"\x00\x02"
    assert xor_blocks(None, b"\x07") == b"\x07"
    assert xor_blocks() == b""
    assert xor_blocks(b"ab", b"ab") == b"\x00\x00"


def test_geometry_requires_width_three():
    with pytest.raises(ValueError):
        ParityGeometry(2)
    ParityGeometry(3)  # minimum viable


@pytest.mark.parametrize("call", [
    lambda geo: geo.parity_slot(-1),
    lambda geo: geo.data_slot(0, 3),
    lambda geo: geo.stripes_for(-1),
    lambda geo: geo.stripe_of(-1),
    lambda geo: geo.logical_of(0, 4),
])
def test_geometry_rejects_out_of_range_arguments(call):
    with pytest.raises(ValueError):
        call(ParityGeometry(4))


def test_parity_slot_rotates_round_robin():
    geo = ParityGeometry(4)
    assert [geo.parity_slot(s) for s in range(8)] == [0, 1, 2, 3, 0, 1, 2, 3]


def test_locate_logical_of_round_trip():
    geo = ParityGeometry(5)
    for logical in range(37):
        stripe, slot = geo.locate(logical)
        assert slot != geo.parity_slot(stripe)
        assert geo.logical_of(stripe, slot) == logical
    # the parity slot holds no logical block
    for stripe in range(6):
        assert geo.logical_of(stripe, geo.parity_slot(stripe)) is None


def test_physical_blocks_count_full_stripe_capacity():
    geo = ParityGeometry(4)
    assert geo.data_per_stripe == 3
    assert geo.stripes_for(0) == 0
    assert geo.stripes_for(3) == 1
    assert geo.stripes_for(4) == 2


def test_files_lost_fraction_parity():
    assert files_lost_fraction_parity(8, 0) == 0.0
    assert files_lost_fraction_parity(8, 1) == 0.0  # single failure: safe
    assert files_lost_fraction_parity(8, 2) == 1.0  # double failure: fatal


# ---------------------------------------------------------------------------
# Healthy path
# ---------------------------------------------------------------------------


def test_healthy_write_read_round_trip():
    system = make_system()
    chunks = pattern_chunks(10)
    pfile = build_parity_file(system, "plain-sailing", chunks)
    read_back, stats = read_all(system, pfile)
    assert matches(read_back, chunks)
    assert stats.degraded == 0
    assert stats.errors_detected == 0


def test_storage_blocks_include_rotating_parity():
    system = make_system()
    pfile = build_parity_file(system, "priced", pattern_chunks(10))

    def body():
        return (yield from pfile.storage_blocks())

    # on disk: the 10 data blocks plus one parity block per stripe
    assert system.run(body()) == 10 + pfile.geometry.stripes_for(10)


def test_overwrite_updates_parity_via_read_modify_write():
    system = make_system()
    chunks = pattern_chunks(6)
    pfile = build_parity_file(system, "rmw", chunks)
    before = pfile.parity_rmw_reads
    replacement = b"REWRITTEN" * 10

    def overwrite():
        yield from pfile.write_block(2, replacement)

    system.run(overwrite())
    # old data + old parity were both read back for the delta update
    assert pfile.parity_rmw_reads >= before + 2
    # ... and the new value reconstructs correctly with its slot dead
    drop_caches(system)
    _stripe, slot = pfile.geometry.locate(2)
    with failed(FaultInjector(system), slot):
        read_back, _stats = read_all(system, pfile)
    assert read_back[2].startswith(replacement)


def test_write_block_validates_arguments():
    system = make_system()
    pfile = build_parity_file(system, "strict", pattern_chunks(3))

    def past_end():
        yield from pfile.write_block(5, b"sparse?")

    with pytest.raises(ProcessError) as info:
        system.run(past_end())
    assert isinstance(info.value.__cause__, ValueError)

    def oversize():
        yield from pfile.write_block(0, b"x" * (DATA_BYTES_PER_BLOCK + 1))

    with pytest.raises(ProcessError) as info:
        system.run(oversize())
    assert isinstance(info.value.__cause__, ValueError)


# ---------------------------------------------------------------------------
# Degraded reads
# ---------------------------------------------------------------------------


def test_degraded_read_reconstructs_exact_content():
    system = make_system()
    chunks = pattern_chunks(8)
    pfile = build_parity_file(system, "survivor", chunks)
    healthy, _stats = read_all(system, pfile)
    drop_caches(system)
    with failed(FaultInjector(system), 1):
        degraded, stats = read_all(system, pfile)
    assert degraded == healthy  # byte-identical, padding included
    assert matches(degraded, chunks)
    # 8 blocks at p=4: slot 1 held logical 0 and 7
    assert stats.degraded == 2
    assert stats.peer_reads == 2 * 3


def test_degraded_reconstruction_is_traced_like_every_fan_out():
    """Reconstruction fetches a stripe's peers through ``gather_settled``:
    with obs on, each peer read is a ``gather.*`` leg under its
    ``degraded_read`` span, and obs off replays the same events."""
    def run(obs):
        system = make_system(seed=1, obs=obs)
        pfile = build_parity_file(system, "traced", pattern_chunks(12))
        with failed(FaultInjector(system), 1):
            read_all(system, pfile)
        return system

    bare, traced = run(False), run(True)
    assert (traced.sim.events_executed, traced.sim.now) == (
        bare.sim.events_executed, bare.sim.now)
    spans = traced.obs.spans
    reconstructions = {s.id for s in spans if s.name == "degraded_read"}
    legs = [s for s in spans
            if s.parent_id in reconstructions and s.name.startswith("gather.")]
    # 12 blocks at p = 4: slot 1 holds data in 3 of the 4 stripes, and
    # each reconstruction reads the 3 surviving peers.
    assert len(reconstructions) == 3
    assert len(legs) == 9


def test_degraded_read_detects_midstream_device_errors(monkeypatch):
    """Even if the failure check is stale, the DeviceFailedError raised by
    the read itself routes the block to reconstruction."""
    system = make_system()
    chunks = pattern_chunks(8)
    pfile = build_parity_file(system, "stale-view", chunks)
    drop_caches(system)
    monkeypatch.setattr(pfile, "slot_failed", lambda slot: False)
    with failed(FaultInjector(system), 1):
        read_back, stats = read_all(system, pfile)
    assert matches(read_back, chunks)
    assert stats.errors_detected == 2
    assert stats.degraded == 2


def test_double_failure_is_fatal():
    system = make_system()
    pfile = build_parity_file(system, "doomed", pattern_chunks(8))
    drop_caches(system)
    injector = FaultInjector(system)
    injector.fail_slot(1)
    injector.fail_slot(2)

    def read():
        return (yield from pfile.read_all())

    with pytest.raises(ProcessError) as info:
        system.run(read())
    assert isinstance(info.value.__cause__, DeviceFailedError)


# ---------------------------------------------------------------------------
# Degraded writes
# ---------------------------------------------------------------------------


def test_degraded_write_folds_new_value_into_parity():
    system = make_system()
    chunks = pattern_chunks(8)
    pfile = build_parity_file(system, "write-through-fire", chunks)
    drop_caches(system)
    _stripe, slot = pfile.geometry.locate(0)
    replacement = b"WRITTEN WHILE DOWN"
    injector = FaultInjector(system)
    injector.fail_slot(slot)

    def update():
        yield from pfile.write_block(0, replacement)

    system.run(update())
    assert pfile.degraded_writes == 1
    # the degraded read sees the *new* value (reconstructed from parity)
    read_back, _stats = read_all(system, pfile)
    assert read_back[0].startswith(replacement)
    injector.repair_slot(slot)
    # the system's scheme is "none": rebuilds here are started by hand
    assert system.redundancy.rebuilds == []


def test_degraded_append_grows_the_file():
    system = make_system()
    chunks = pattern_chunks(6)
    pfile = build_parity_file(system, "still-growing", chunks)
    drop_caches(system)
    extra = pattern_chunks(3, stamp=b"NEW")
    with failed(FaultInjector(system), 2):

        def append():
            yield from pfile.write_all(extra)

        system.run(append())
        assert pfile.logical_blocks == 9
        read_back, _stats = read_all(system, pfile)
    assert matches(read_back, chunks + extra)


def test_degraded_write_with_parity_slot_down_is_double_failure():
    system = make_system()
    pfile = build_parity_file(system, "no-room", pattern_chunks(8))
    drop_caches(system)
    stripe, slot = pfile.geometry.locate(0)
    injector = FaultInjector(system)
    injector.fail_slot(slot)
    injector.fail_slot(pfile.geometry.parity_slot(stripe))

    def update():
        yield from pfile.write_block(0, b"nowhere to put this")

    with pytest.raises(ProcessError) as info:
        system.run(update())
    assert isinstance(info.value.__cause__, DeviceFailedError)


# ---------------------------------------------------------------------------
# Online rebuild
# ---------------------------------------------------------------------------


def run_rebuild(system, pfile, slot):
    rebuild = OnlineRebuild(pfile, slot)

    def body():
        return (yield from rebuild.run())

    return system.run(body(), name="rebuild"), rebuild


def test_rebuild_restores_constituent_and_content():
    system = make_system()
    chunks = pattern_chunks(11)  # partial tail stripe on purpose
    pfile = build_parity_file(system, "phoenix", chunks)
    drop_caches(system)
    injector = FaultInjector(system)
    injector.fail_slot(2)

    def update():
        # logical 1 lives on slot 2 of stripe 0: a degraded overwrite,
        # leaving slot 2's on-disk copy stale until the sweep fixes it
        yield from pfile.write_block(1, b"rebuilt value")

    system.run(update())
    injector.repair_slot(2)
    stats, rebuild = run_rebuild(system, pfile, 2)
    assert rebuild.progress.finished_at is not None
    assert rebuild.progress.rebuilt_stripes == rebuild.progress.total_stripes
    assert stats.blocks_written > 0
    # after the sweep, direct reads (no reconstruction) see fresh data
    drop_caches(system)
    read_back, rstats = read_all(system, pfile)
    assert read_back[1].startswith(b"rebuilt value")
    assert rstats.degraded == 0
    for got, want in zip(read_back[2:], chunks[2:]):
        assert got.startswith(want)


def test_rebuild_validates_slot_and_rate():
    system = make_system()
    pfile = build_parity_file(system, "checked", pattern_chunks(4))
    with pytest.raises(ValueError):
        OnlineRebuild(pfile, 9)


# ---------------------------------------------------------------------------
# S25: degraded parity reads against every registered storage driver
# ---------------------------------------------------------------------------


ALL_DRIVER_KINDS = ("ram", "hostfs", "object")


def _fabric_spec(kind, tmp_path):
    if kind == "hostfs":
        return {"kind": "hostfs", "root": tmp_path}
    return kind


@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_degraded_read_reconstructs_on_every_driver(kind, tmp_path):
    """Fail one constituent and read through reconstruction — the parity
    path only sees the kernel contract, so every backend must survive."""
    system = make_system(storage=_fabric_spec(kind, tmp_path))
    chunks = pattern_chunks(8)
    pfile = build_parity_file(system, "survivor", chunks)
    healthy, _stats = read_all(system, pfile)
    drop_caches(system)
    with failed(FaultInjector(system), 1):
        degraded, stats = read_all(system, pfile)
    assert degraded == healthy
    assert matches(degraded, chunks)
    assert stats.degraded == 2
    assert stats.peer_reads == 2 * 3


@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_degraded_write_and_rebuild_on_every_driver(kind, tmp_path):
    """Degraded writes fold into parity and the online rebuild restores
    the constituent byte-for-byte on every backend."""
    system = make_system(storage=_fabric_spec(kind, tmp_path))
    chunks = pattern_chunks(8)
    pfile = build_parity_file(system, "healed", chunks)
    injector = FaultInjector(system)
    injector.fail_slot(2)
    new_value = b"Z" * DATA_BYTES_PER_BLOCK

    def degraded_write():
        yield from pfile.write_block(0, new_value)

    system.run(degraded_write(), name="degraded-write")
    injector.repair_slot(2)
    _stats, rebuild = run_rebuild(system, pfile, 2)
    assert rebuild.progress.finished_at is not None
    drop_caches(system)
    read_back, stats = read_all(system, pfile)
    assert read_back[0] == new_value
    assert stats.degraded == 0  # fully healthy again

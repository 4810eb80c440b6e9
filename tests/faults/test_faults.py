"""Tests for fault injection, survival math, and mirroring."""

import pytest

from repro.errors import DeviceFailedError, ProcessError
from repro.harness.builders import BridgeSystem
from repro.redundancy import (
    FaultInjector,
    MirroredFile,
    files_lost_fraction_interleaved,
    files_lost_fraction_mirrored,
    files_lost_fraction_single_node,
    shadow_name,
)
from repro.storage import FixedLatency
from repro.workloads import build_file, pattern_chunks

from tests.helpers import failed, failed_slots


def make_system(p=4, seed=61):
    return BridgeSystem(p, seed=seed, disk_latency=FixedLatency(0.0005))


# ---------------------------------------------------------------------------
# Injection mechanics
# ---------------------------------------------------------------------------


def test_fail_slot_breaks_reads_of_interleaved_file():
    system = make_system()
    chunks = pattern_chunks(8)
    build_file(system, "doomed", chunks)
    client = system.naive_client()
    injector = FaultInjector(system)
    # drop caches so reads must touch the device
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
    injector.fail_slot(2)

    def body():
        yield from client.open("doomed")  # hits the failed disk

    with pytest.raises(ProcessError) as info:
        system.run(body())
    assert isinstance(info.value.__cause__, DeviceFailedError)


def test_repair_restores_access():
    system = make_system()
    build_file(system, "file", pattern_chunks(8))
    injector = FaultInjector(system)
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
    with failed(injector, 1):
        assert system.disks[1].failed
    assert not system.disks[1].failed
    client = system.naive_client()

    def body():
        return (yield from client.read_all("file"))

    chunks = system.run(body())
    assert len(chunks) == 8


def test_failed_context_manager_repairs_on_error():
    system = make_system()
    injector = FaultInjector(system)
    with pytest.raises(RuntimeError):
        with failed(injector, 3):
            raise RuntimeError("workload blew up")
    assert failed_slots(system) == []
    assert not system.disks[3].failed


def test_injector_notifies_listeners():
    """The system's redundancy manager hears the repair transition, not
    the failure: under parity, only leaving ``failed`` starts a rebuild."""
    system = BridgeSystem(4, seed=61, disk_latency=FixedLatency(0.0005),
                          redundancy="parity")
    rfile = system.redundant_file("watched")

    def setup():
        yield from rfile.create()
        yield from rfile.write_all(pattern_chunks(6))

    system.run(setup())
    injector = FaultInjector(system)
    with failed(injector, 2):
        assert failed_slots(system) == [2]
        assert system.redundancy.rebuilds == []
    assert failed_slots(system) == []
    assert [r.progress.slot for r in system.redundancy.rebuilds] == [2]


# ---------------------------------------------------------------------------
# Survival math
# ---------------------------------------------------------------------------


def test_interleaved_loses_everything():
    assert files_lost_fraction_interleaved(32, 1) == 1.0
    assert files_lost_fraction_interleaved(32, 0) == 0.0


def test_single_node_files_lose_fractionally():
    assert files_lost_fraction_single_node(32, 1) == pytest.approx(1 / 32)
    assert files_lost_fraction_single_node(4, 2) == pytest.approx(0.5)
    assert files_lost_fraction_single_node(4, 9) == 1.0


def test_mirrored_survives_single_failure():
    assert files_lost_fraction_mirrored(8, 1) == 0.0
    assert files_lost_fraction_mirrored(8, 2) == pytest.approx(2 / 7)


# ---------------------------------------------------------------------------
# Mirroring end to end
# ---------------------------------------------------------------------------


def test_mirrored_file_survives_one_disk_failure():
    system = make_system(4)
    mirrored = MirroredFile(system, "precious")
    chunks = pattern_chunks(8)

    def setup():
        yield from mirrored.create()
        yield from mirrored.write_all(chunks)

    system.run(setup())
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()

    def read():
        return (yield from mirrored.read_all())

    with failed(FaultInjector(system), 1):
        recovered, stats = system.run(read())
    assert len(recovered) == 8
    for original, copy in zip(chunks, recovered):
        assert copy.startswith(original)
    assert stats.fallbacks == 2  # slot 1 held blocks 1 and 5 of 8
    assert stats.blocks == 8


def test_mirrored_storage_costs_double():
    system = make_system(4)
    mirrored = MirroredFile(system, "costly")

    def body():
        yield from mirrored.create()
        yield from mirrored.write_all(pattern_chunks(6))
        return (yield from mirrored.storage_blocks())

    assert system.run(body()) == 12


def test_mirrored_copies_on_distinct_nodes():
    """Block n's home is slot n mod p; its shadow is slot (n+1) mod p."""
    system = make_system(4)
    mirrored = MirroredFile(system, "placed")

    def body():
        yield from mirrored.create()
        yield from mirrored.write_all(pattern_chunks(4))
        client = system.naive_client()
        home = yield from client.open("placed")
        shadow = yield from client.open(shadow_name("placed"))
        return home, shadow

    home, shadow = system.run(body())
    assert home.start == 0
    assert shadow.start == 1
    imap_home = home.interleave
    imap_shadow = shadow.interleave
    for block in range(4):
        assert imap_home.slot_of(block) != imap_shadow.slot_of(block)


def test_unmirrored_file_dies_where_mirrored_survives():
    system = make_system(4)
    build_file(system, "naked", pattern_chunks(8))
    mirrored = MirroredFile(system, "armored")

    def setup():
        yield from mirrored.create()
        yield from mirrored.write_all(pattern_chunks(8))

    system.run(setup())
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()
    FaultInjector(system).fail_slot(0)

    client = system.naive_client()

    def read_naked():
        chunks = []
        for block in range(8):
            chunks.append((yield from client.random_read("naked", block)))
        return chunks

    with pytest.raises(ProcessError) as info:
        system.run(read_naked())
    assert isinstance(info.value.__cause__, DeviceFailedError)

    def read_armored():
        return (yield from mirrored.read_all())

    recovered, _stats = system.run(read_armored())
    assert len(recovered) == 8


def test_mirroring_requires_width_two():
    system = BridgeSystem(1, seed=1)
    with pytest.raises(ValueError):
        MirroredFile(system, "x")

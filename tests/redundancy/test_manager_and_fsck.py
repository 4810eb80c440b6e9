"""The redundancy knob, manager wiring, and post-rebuild fsck."""

import pytest

from repro.efs.fsck import check_system
from repro.harness.builders import BridgeSystem
from repro.redundancy import (
    SCHEMES,
    FaultInjector,
    MirroredFile,
    ParityFile,
    PlainFile,
    RedundancyManager,
)
from repro.storage import FixedLatency
from repro.workloads import pattern_chunks

from tests.helpers import failed, failed_slots


def make_system(p=4, seed=33, **kwargs):
    return BridgeSystem(p, seed=seed, disk_latency=FixedLatency(0.0005),
                        **kwargs)


def drop_caches(system):
    for efs in system.efs_servers:
        system.run(efs.cache.flush(), name="flush")
        efs.cache.invalidate_all()


def build(system, rfile, chunks):
    def setup():
        yield from rfile.create()
        yield from rfile.write_all(chunks)

    system.run(setup(), name="setup")


def read_all(system, rfile):
    def body():
        return (yield from rfile.read_all())

    return system.run(body(), name="read")


# ---------------------------------------------------------------------------
# The scheme knob
# ---------------------------------------------------------------------------


def test_builder_knob_selects_file_class():
    expected = {"none": PlainFile, "mirror": MirroredFile, "parity": ParityFile}
    assert set(SCHEMES) == set(expected)
    for scheme, cls in expected.items():
        system = make_system(redundancy=scheme)
        assert system.redundancy.scheme == scheme
        assert isinstance(system.redundant_file("f"), cls)


def test_unknown_scheme_is_rejected():
    system = make_system()
    with pytest.raises(ValueError):
        RedundancyManager(system, "raid6")
    with pytest.raises(ValueError):
        make_system(redundancy="erasure")


def test_every_scheme_round_trips_content():
    chunks = pattern_chunks(9)
    for scheme in SCHEMES:
        system = make_system(redundancy=scheme)
        rfile = system.redundant_file("payload")
        build(system, rfile, chunks)
        read_back, _stats = read_all(system, rfile)
        assert len(read_back) == 9
        for got, want in zip(read_back, chunks):
            assert got.startswith(want), scheme


def test_plain_file_reports_no_stats():
    system = make_system(redundancy="none")
    rfile = system.redundant_file("bare")
    build(system, rfile, pattern_chunks(4))
    read_back, stats = read_all(system, rfile)
    assert len(read_back) == 4
    assert stats is None


def test_manager_tracks_failed_slots():
    """The device's own flag is the one record of a failed disk: every
    injector on the system reads the same slots."""
    system = make_system(redundancy="parity")
    injector = FaultInjector(system)
    assert failed_slots(system) == []
    injector.fail_slot(3)
    assert system.disks[3].failed
    assert failed_slots(system) == [3]
    injector.repair_slot(3)
    assert failed_slots(system) == []


def test_failing_a_failed_slot_is_one_event():
    system = make_system(redundancy="parity")
    build(system, system.redundant_file("twice"), pattern_chunks(8))
    injector = FaultInjector(system)
    injector.fail_slot(3)
    injector.fail_slot(3)
    assert failed_slots(system) == [3]
    # the transition is the device's, whichever injector causes it
    FaultInjector(system).repair_slot(3)
    injector.repair_slot(3)
    assert failed_slots(system) == []
    assert len(system.redundancy.rebuilds) == 1


def test_repairing_a_healthy_slot_rebuilds_nothing():
    """Only a repair that ends a failure is a transition: a rebuild of
    a slot that never failed would rewrite healthy blocks from parity."""
    system = make_system(redundancy="parity")
    build(system, system.redundant_file("intact"), pattern_chunks(8))
    FaultInjector(system).repair_slot(2)
    assert system.redundancy.rebuilds == []


# ---------------------------------------------------------------------------
# Auto-rebuild on repair + fsck (the acceptance lifecycle)
# ---------------------------------------------------------------------------


def test_repair_auto_starts_rebuild_under_parity():
    system = make_system(redundancy="parity")
    rfile = system.redundant_file("healing")
    build(system, rfile, pattern_chunks(8))
    drop_caches(system)
    injector = FaultInjector(system)
    with failed(injector, 1):
        pass
    assert len(system.redundancy.rebuilds) == 1
    system.sim.run()  # drain the spawned sweep
    assert system.redundancy.rebuilds[0].progress.finished_at is not None


def test_fsck_clean_after_fail_degraded_writes_repair_rebuild():
    """The full S16 story: fail a slot, keep writing, repair, rebuild
    online, and the strict-layout fsck finds nothing wrong."""
    system = make_system(redundancy="parity")
    rfile = system.redundant_file("ledger")
    chunks = pattern_chunks(10)
    build(system, rfile, chunks)
    drop_caches(system)

    injector = FaultInjector(system)
    injector.fail_slot(2)

    # degraded traffic: one overwrite onto the dead slot, two appends
    stripe0_logical = rfile.geometry.logical_of(0, 2)
    replacement = b"DEGRADED OVERWRITE"
    extra = pattern_chunks(2, stamp=b"APP")

    def degraded_traffic():
        if stripe0_logical is not None:
            yield from rfile.write_block(stripe0_logical, replacement)
        yield from rfile.write_all(extra)

    system.run(degraded_traffic(), name="degraded-traffic")
    expected = list(chunks)
    if stripe0_logical is not None:
        expected[stripe0_logical] = replacement
    expected += extra

    injector.repair_slot(2)  # auto-starts the online rebuild
    system.sim.run()
    assert system.redundancy.rebuilds
    assert all(r.progress.finished_at is not None
               for r in system.redundancy.rebuilds)

    drop_caches(system)
    read_back, stats = read_all(system, rfile)
    assert len(read_back) == len(expected)
    for got, want in zip(read_back, expected):
        assert got.startswith(want)
    # nothing needed reconstruction: the rebuild restored the slot
    degraded_before = stats.degraded
    read_again, stats = read_all(system, rfile)
    assert stats.degraded == degraded_before
    assert read_again == read_back

    reports = check_system(system)
    assert len(reports) == system.width
    assert all(report.clean for report in reports), [
        report for report in reports if not report.clean
    ]

"""Unit tests driving LocalSorter directly against one LFS."""

import pytest

from repro.config import DEFAULT_CONFIG
from repro.efs import EFSClient, EFSServer
from repro.efs.fsck import check_efs
from repro.machine import Machine
from repro.sim import Simulator
from repro.storage import DiskParameters, FixedLatency, SimulatedDisk
from repro.tools.sort import LocalSorter, key_of, make_record


def make_lfs(buffer_records=8):
    config = DEFAULT_CONFIG.with_changes(sort_buffer_records=buffer_records)
    sim = Simulator(seed=131)
    machine = Machine(sim, 1, config=config)
    node = machine.node(0)
    disk = SimulatedDisk(
        sim, DiskParameters(name="d", capacity_blocks=4096), FixedLatency(1e-4)
    )
    server = EFSServer(node, disk, config)
    client = EFSClient(node, server.port)
    return sim, node, server, client, config


def run_local_sort(keys, buffer_records=8, use_hints=True):
    sim, node, server, client, config = make_lfs(buffer_records)

    def body():
        yield from client.create(1)
        for key in keys:
            yield from client.append(1, make_record(key))
        yield from client.create(2)
        sorter = LocalSorter(node, server.port, config,
                             scratch_base=10**9, use_hints=use_hints)
        report = yield from sorter.sort(1, 2, slot=0)
        chunks = yield from client.read_file(2)
        return report, [key_of(c) for c in chunks]

    report, out_keys = sim.run_process(body())
    fsck = check_efs(server)
    assert fsck.clean, fsck.errors
    return report, out_keys, fsck.files_checked


def test_single_run_in_core_only():
    keys = [9, 2, 7, 4]
    report, out, files = run_local_sort(keys, buffer_records=8)
    assert out == sorted(keys)
    assert report.runs == 1
    assert report.merge_passes == 0
    assert files == 2  # source and output: no scratch left behind


def test_two_runs_one_pass():
    keys = list(range(16, 0, -1))
    report, out, _ = run_local_sort(keys, buffer_records=8)
    assert out == sorted(keys)
    assert report.runs == 2
    assert report.merge_passes == 1


def test_five_runs_three_passes_with_bye():
    keys = [(i * 37) % 101 for i in range(40)]
    report, out, files = run_local_sort(keys, buffer_records=8)
    assert out == sorted(keys)
    assert report.runs == 5
    assert report.merge_passes == 3  # ceil(log2(5))
    assert files == 2


def test_empty_source():
    report, out, _ = run_local_sort([], buffer_records=8)
    assert out == []
    assert report.records == 0
    assert report.runs == 0


def test_exactly_buffer_sized():
    keys = [5, 1, 3, 2, 4, 0, 7, 6]
    report, out, _ = run_local_sort(keys, buffer_records=8)
    assert out == sorted(keys)
    assert report.runs == 1


def test_duplicates_stable_count():
    keys = [3, 1, 3, 1, 3, 1, 3, 1, 3, 1]
    _report, out, _ = run_local_sort(keys, buffer_records=4)
    assert out == sorted(keys)


def test_report_carries_slot_and_timing():
    report, _out, _ = run_local_sort([4, 2, 6], buffer_records=8)
    assert report.slot == 0
    assert report.elapsed > 0
    assert report.records == 3


def test_hints_off_same_result():
    keys = [(i * 13) % 64 for i in range(24)]
    _r1, out_hints, _ = run_local_sort(keys, buffer_records=8, use_hints=True)
    _r2, out_plain, _ = run_local_sort(keys, buffer_records=8, use_hints=False)
    assert out_hints == out_plain == sorted(keys)


def test_expected_merge_passes_matches_reports():
    from tests.helpers import expected_merge_passes

    for count, buffer_records in ((40, 8), (16, 8), (7, 8), (65, 8)):
        keys = list(range(count, 0, -1))
        report, out, _ = run_local_sort(keys, buffer_records=buffer_records)
        assert out == sorted(keys)
        assert report.merge_passes == expected_merge_passes(count, buffer_records)

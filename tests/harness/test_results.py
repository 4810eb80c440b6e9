"""Tests for the result records and the builder's validation paths."""

import pytest

from repro.harness.builders import BridgeSystem, paper_system
from repro.harness.results import (
    CopyRun,
    SortRun,
    Table2Measurement,
    TokenSaturationRun,
    ViewsRun,
)


def test_copy_run_throughput():
    run = CopyRun(p=4, blocks=100, elapsed=10.0)
    assert run.records_per_second == 10.0
    assert CopyRun(p=4, blocks=0, elapsed=0.0).records_per_second == 0.0


def test_sort_run_throughput():
    run = SortRun(p=2, records=60, local_sort_seconds=20.0,
                  merge_seconds=10.0, total_seconds=30.0)
    assert run.records_per_second == 2.0


def test_table2_per_block_delete():
    m = Table2Measurement(
        p=4, file_blocks=100, open_ms=80.0, read_ms_per_block=9.0,
        write_ms_per_block=31.0, create_ms=215.0, delete_ms_total=500.0,
    )
    assert m.delete_ms_per_block_per_lfs == pytest.approx(500.0 / 25)


def test_views_run_throughput_map():
    run = ViewsRun(p=2, blocks=100, naive_seconds=10.0,
                   parallel_open_seconds=5.0, tool_seconds=4.0,
                   virtual_parallel_seconds=6.0)
    throughput = run.as_throughput()
    assert throughput["naive"] == 10.0
    assert throughput["tool"] == 25.0
    assert set(throughput) == {"naive", "parallel-open", "tool", "virtual(t=2p)"}


def test_token_run_rate():
    run = TokenSaturationRun(width=8, records=80, elapsed=4.0)
    assert run.records_per_second == 20.0


def test_builder_validation():
    with pytest.raises(ValueError):
        BridgeSystem(0)
    with pytest.raises(ValueError):
        BridgeSystem(2, bridge_server_count=0)


def test_builder_layout():
    system = BridgeSystem(3)
    assert system.width == 3
    assert len(system.machine) == 5  # 3 LFS + 1 server + 1 client
    assert system.server_node.index == 3
    assert system.client_node.index == 4
    assert [d.name for d in system.disks] == ["disk0", "disk1", "disk2"]
    assert all(n.lfs_port is not None for n in system.lfs_nodes)


def test_paper_system_uses_15ms_disks():
    system = paper_system(2)
    assert system.disks[0].latency.access_time == 0.015


def test_disk_utilization_helpers():
    from repro.workloads import build_file, pattern_chunks

    system = BridgeSystem(2)
    build_file(system, "u", pattern_chunks(8))
    assert system.total_disk_ops() > 0
    utils = system.disk_utilizations()
    assert len(utils) == 2
    assert all(0.0 <= u <= 1.0 for u in utils)

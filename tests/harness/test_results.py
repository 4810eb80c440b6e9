"""Tests for the builder's validation paths and layout."""

import pytest

from repro.harness.builders import BridgeSystem, paper_system


def test_builder_validation():
    with pytest.raises(ValueError):
        BridgeSystem(0)
    with pytest.raises(ValueError):
        BridgeSystem(2, bridge_server_count=0)


def test_builder_layout():
    system = BridgeSystem(3)
    assert system.width == 3
    assert len(system.machine.nodes) == 5  # 3 LFS + 1 server + 1 client
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

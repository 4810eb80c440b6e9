"""Noncontiguous pattern generators (S17): shapes, validation, and what
each shape costs through the naive view."""

import pytest

from repro.harness.builders import BridgeSystem
from repro.workloads import (
    build_file,
    hotspot_pattern,
    pattern_chunks,
    scatter_pattern,
    strided_pattern,
)


# ---------------------------------------------------------------------------
# strided_pattern
# ---------------------------------------------------------------------------


def test_strided_pattern_single_blocks():
    assert strided_pattern(0, 4, 4) == [0, 4, 8, 12]


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(start=0, stride=0, count=4),
        dict(start=0, stride=-2, count=4),
        dict(start=0, stride=4, count=0),
        dict(start=0, stride=4, count=-1),
        dict(start=-1, stride=4, count=4),
    ],
)
def test_strided_pattern_validation(kwargs):
    with pytest.raises(ValueError):
        strided_pattern(**kwargs)


# ---------------------------------------------------------------------------
# scatter_pattern
# ---------------------------------------------------------------------------


def test_scatter_pattern_distinct_sorted_in_bounds():
    pattern = scatter_pattern(100, 30, seed=5)
    assert len(pattern) == 30
    assert len(set(pattern)) == 30
    assert pattern == sorted(pattern)
    assert all(0 <= block < 100 for block in pattern)


def test_scatter_pattern_deterministic_by_seed():
    assert scatter_pattern(64, 16, seed=3) == scatter_pattern(64, 16, seed=3)
    assert scatter_pattern(64, 16, seed=3) != scatter_pattern(64, 16, seed=4)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(file_blocks=0, count=1),
        dict(file_blocks=10, count=0),
        dict(file_blocks=10, count=11),
    ],
)
def test_scatter_pattern_validation(kwargs):
    with pytest.raises(ValueError):
        scatter_pattern(**kwargs)


# ---------------------------------------------------------------------------
# hotspot_pattern
# ---------------------------------------------------------------------------


def test_hotspot_pattern_concentrates_accesses():
    pattern = hotspot_pattern(1000, 500, hot_fraction=0.1, hot_weight=0.9,
                              seed=11)
    assert len(pattern) == 500
    in_hot = sum(1 for block in pattern if block < 100)
    assert in_hot > 400  # ~90% + the uniform tail's spillover


def test_hotspot_pattern_bounds():
    pattern = hotspot_pattern(50, 200, seed=2)
    assert all(0 <= block < 50 for block in pattern)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(file_blocks=0, count=1),
        dict(file_blocks=10, count=0),
        dict(file_blocks=10, count=5, hot_fraction=0.0),
        dict(file_blocks=10, count=5, hot_fraction=1.5),
        dict(file_blocks=10, count=5, hot_weight=-0.1),
        dict(file_blocks=10, count=5, hot_weight=1.1),
    ],
)
def test_hotspot_pattern_validation(kwargs):
    with pytest.raises(ValueError):
        hotspot_pattern(**kwargs)


# ---------------------------------------------------------------------------
# Naive-view cost of a pattern (section 3's bet)
# ---------------------------------------------------------------------------


def ms_per_access(pattern, blocks):
    """Mean simulated ms of one naive ``random_read`` per pattern entry,
    on a freshly built p = 4 file with every EFS cache dropped (real
    15 ms disks)."""
    system = BridgeSystem(4, seed=141)
    build_file(system, "traced", pattern_chunks(blocks))
    system.drop_efs_caches()
    client = system.naive_client()

    def body():
        yield from client.open("traced")
        start = system.sim.now
        for block in pattern:
            yield from client.random_read("traced", block)
        return system.sim.now - start

    return system.run(body()) / len(pattern) * 1e3


def test_sequential_cheaper_than_random():
    """The paper's bet: linked-list files reward sequential access and
    punish random access (Table 2's read vs the 'very slow random
    access' of section 3)."""
    seq = ms_per_access(strided_pattern(0, 1, 64), 64)
    rand = ms_per_access(hotspot_pattern(64, 64, hot_fraction=1.0, seed=3), 64)
    assert rand > seq * 1.5


def test_hot_set_cheaper_than_uniform_random_due_to_cache():
    """Hotspot patterns re-touch cached blocks; uniform random does not."""
    hot = ms_per_access(hotspot_pattern(96, 128, seed=9), 96)
    uniform = ms_per_access(
        hotspot_pattern(96, 128, hot_fraction=1.0, seed=9), 96
    )
    assert hot < uniform

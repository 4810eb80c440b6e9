"""Tests for metrics, paper models, fitting, and table formatting."""

import pytest

from repro.analysis import (
    PAPER_FILE_BLOCKS,
    PAPER_TABLE3_COPY_SECONDS,
    PAPER_TABLE4_SORT_MINUTES,
    efficiency,
    fit_line,
    format_table,
    is_superlinear,
    scaling_table,
    speedup,
    speedup_series,
)
from repro.tools.sort import SortCostModel


# ---------------------------------------------------------------------------
# Paper constants
# ---------------------------------------------------------------------------


def test_paper_file_blocks():
    assert PAPER_FILE_BLOCKS == 10922


def test_paper_table3_is_nearly_linear():
    series = speedup_series(PAPER_TABLE3_COPY_SECONDS)
    assert series[2] == 1.0
    assert series[32] == pytest.approx(311.6 / 21.6)
    # 16x more processors, >14x speedup
    assert series[32] > 14.0


def test_paper_table4_local_sort_superlinear():
    local = {p: row[0] for p, row in PAPER_TABLE4_SORT_MINUTES.items()}
    assert is_superlinear(local)


def test_paper_table4_merge_modest():
    merge = {p: row[1] for p, row in PAPER_TABLE4_SORT_MINUTES.items()}
    assert not is_superlinear(merge)
    series = speedup_series(merge)
    assert series[32] < 4.0  # 17 -> 4.45 min: only ~3.8x over 16x procs


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def test_speedup_and_efficiency():
    assert speedup(100.0, 25.0) == 4.0
    assert efficiency(100.0, 2, 25.0, 8) == pytest.approx(1.0)
    assert efficiency(100.0, 2, 50.0, 8) == pytest.approx(0.5)


def test_efficiency_validates_processors():
    with pytest.raises(ValueError):
        efficiency(1.0, 0, 1.0, 4)


def test_scaling_table():
    points = scaling_table({2: 100.0, 4: 50.0, 8: 30.0}, units=1000)
    assert [p.p for p in points] == [2, 4, 8]
    assert points[0].speedup == 1.0
    assert points[1].speedup == 2.0
    assert points[1].efficiency == pytest.approx(1.0)
    assert points[2].throughput == pytest.approx(1000 / 30.0)
    assert scaling_table({}, 10) == []


def test_is_superlinear():
    assert is_superlinear({2: 100.0, 4: 40.0, 8: 15.0})
    assert not is_superlinear({2: 100.0, 4: 60.0})


def test_fit_line():
    intercept, slope = fit_line([2, 4, 8, 16], [145 + 17.5 * p for p in (2, 4, 8, 16)])
    assert intercept == pytest.approx(145.0)
    assert slope == pytest.approx(17.5)


def test_fit_line_validations():
    with pytest.raises(ValueError):
        fit_line([1], [2])
    with pytest.raises(ValueError):
        fit_line([3, 3], [1, 2])


# ---------------------------------------------------------------------------
# Sort cost model
# ---------------------------------------------------------------------------


def test_sort_model_local_passes():
    model = SortCostModel()
    assert model.local_merge_passes(5461, 512) == 4
    assert model.local_merge_passes(341, 512) == 0


def test_sort_model_local_superlinear_shape():
    model = SortCostModel()
    times = {
        p: model.local_sort_time(10922, p, 512) for p in (2, 4, 8, 16, 32)
    }
    assert is_superlinear(times)


def test_sort_model_merge_decreases_with_width():
    model = SortCostModel()
    times = {p: model.merge_phase_time(10922, p) for p in (2, 4, 8, 16, 32)}
    assert times[2] > times[8] > times[32]
    # but far from linearly
    assert times[2] / times[32] < 16


def test_sort_model_saturation_width():
    model = SortCostModel(write_time=0.036, token_hop_time=0.003)
    assert model.saturation_width() == pytest.approx(12.0)


def test_sort_model_zero_records():
    model = SortCostModel()
    assert model.run_formation_time(0, 512) == 0.0
    assert model.merge_phase_time(100, 1) == 0.0


# ---------------------------------------------------------------------------
# Formatting
# ---------------------------------------------------------------------------


def test_format_table_basic():
    text = format_table(
        ["p", "time"], [[2, 311.6], [32, 21.6]], title="Copy"
    )
    lines = text.splitlines()
    assert lines[0] == "Copy"
    assert "311.6" in text
    assert "21.6" in text
    assert lines[2].startswith("-")


def test_format_table_aligns_columns():
    text = format_table(["a"], [[1000000.0]])
    assert "1,000,000" in text


# ---------------------------------------------------------------------------
# S23: batched metadata RPC model
# ---------------------------------------------------------------------------


def test_metadata_buckets_cover_every_name():
    from repro.analysis import metadata_partition_buckets

    names = [f"m-{i}" for i in range(40)]
    buckets = metadata_partition_buckets(names, 4)
    assert sum(buckets.values()) == len(names)
    assert set(buckets) <= {0, 1, 2, 3}
    # single partition: everything lands in bucket 0
    assert metadata_partition_buckets(names, 1) == {0: len(names)}


def test_metadata_buckets_follow_a_custom_ring():
    # the buckets follow the ring a fresh fabric routes with: the rigid
    # mod-k ring, here at a partition count other than the cover test's
    from repro.analysis import metadata_partition_buckets
    from repro.core.ring import ModuloRing

    names = [f"m-{i}" for i in range(24)]
    ring = ModuloRing(3)
    buckets = metadata_partition_buckets(names, 3)
    expected = {}
    for name in names:
        partition = ring.partition_of(name)
        expected[partition] = expected.get(partition, 0) + 1
    assert buckets == expected


def test_batched_rpc_count_windows():
    import math

    from repro.analysis import batched_rpc_count, metadata_partition_buckets

    names = [f"m-{i}" for i in range(50)]
    buckets = metadata_partition_buckets(names, 4)
    # window 0 = unbounded: one RPC per touched partition
    assert batched_rpc_count(names, 4, window=0) == len(buckets)
    for window in (1, 3, 7, 16, 100):
        assert batched_rpc_count(names, 4, window=window) == sum(
            math.ceil(count / window) for count in buckets.values()
        )
    # window 1 degenerates to the per-name count
    assert batched_rpc_count(names, 4, window=1) == len(names)


def test_metadata_model_validates_arguments():
    from repro.analysis import batched_rpc_count, metadata_partition_buckets

    with pytest.raises(ValueError):
        metadata_partition_buckets(["x"], 0)
    with pytest.raises(ValueError):
        batched_rpc_count(["x"], 2, window=-1)

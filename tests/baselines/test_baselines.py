"""Tests for the baseline systems: sequential FS, striping, placements."""

import pytest

from repro.baselines import (
    ChunkedPlacement,
    HashedPlacement,
    RoundRobinPlacement,
    SequentialSystem,
    StripedSystem,
    expected_distinct_nodes_hashed,
    measured_batch_parallelism,
    prob_all_distinct_hashed,
    sequential_window_rounds,
)
from repro.workloads import pattern_chunks


# ---------------------------------------------------------------------------
# Sequential FS
# ---------------------------------------------------------------------------


def test_sequential_copy_preserves_contents():
    system = SequentialSystem(seed=1)
    chunks = pattern_chunks(10)
    src = system.build_file(chunks)
    result = system.copy_file(src)
    assert result.blocks == 10
    copied = system.run(system.client().read_file(src + 1))
    for original, copy in zip(chunks, copied):
        assert copy.startswith(original)


def test_sequential_copy_time_linear_in_n():
    system = SequentialSystem(seed=2)
    small = system.build_file(pattern_chunks(8))
    large = system.build_file(pattern_chunks(32))
    time_small = system.copy_file(small).elapsed
    time_large = system.copy_file(large).elapsed
    ratio = time_large / time_small
    assert 3.0 < ratio < 5.0  # O(n): 4x the blocks ~ 4x the time


def test_sequential_file_numbers_unique():
    system = SequentialSystem()
    assert system.allocate_file_number() != system.allocate_file_number()


# ---------------------------------------------------------------------------
# Striping
# ---------------------------------------------------------------------------


def test_striped_roundtrip():
    system = StripedSystem(4, seed=3)
    chunks = pattern_chunks(16)
    system.build_file("s", chunks)
    blocks, _elapsed = system.copy_file("s", "t")
    assert blocks == 16


def test_striping_distributes_across_disks():
    system = StripedSystem(4, seed=4)
    system.build_file("s", pattern_chunks(16))
    writes = [disk.writes for disk in system.disks]
    assert writes == [4, 4, 4, 4]


def test_striping_beats_single_disk_sequential_read():
    def copy_time(d):
        system = StripedSystem(d, seed=5)
        system.build_file("s", pattern_chunks(64))
        _blocks, elapsed = system.copy_file("s", "t")
        return elapsed

    assert copy_time(4) < copy_time(1)


def test_striping_saturates_at_fs_software_throughput():
    """Section 2: striped files are limited by the FS software.  Past the
    point where disks overlap fully, more disks stop helping."""

    def copy_time(d):
        system = StripedSystem(d, seed=6)
        system.build_file("s", pattern_chunks(128))
        _blocks, elapsed = system.copy_file("s", "t")
        return elapsed

    speedup_low = copy_time(1) / copy_time(4)    # disks still the bottleneck
    speedup_high = copy_time(16) / copy_time(32)  # software now dominates
    assert speedup_low > 3.0
    assert speedup_high < 1.4


def test_striping_needs_a_disk():
    import repro.baselines.striping as striping
    from repro.machine import Machine
    from repro.sim import Simulator
    from repro.config import DEFAULT_CONFIG

    sim = Simulator()
    machine = Machine(sim, 1, config=DEFAULT_CONFIG)
    with pytest.raises(ValueError):
        striping.StripedServer(machine.node(0), [], DEFAULT_CONFIG)


# ---------------------------------------------------------------------------
# Distribution strategies
# ---------------------------------------------------------------------------


def test_round_robin_consecutive_always_distinct():
    placement = RoundRobinPlacement(8)
    assert measured_batch_parallelism(placement, 256, 8) == 8.0
    assert sequential_window_rounds(placement, 256, 8) == 1.0


def test_hashed_consecutive_rarely_distinct():
    placement = HashedPlacement(8, salt=1)
    parallelism = measured_batch_parallelism(placement, 4096, 8)
    assert parallelism < 6.5  # well below the ideal 8
    assert sequential_window_rounds(placement, 4096, 8) > 1.3


def test_hashed_probability_formula():
    # p=8, window 8: 8!/8^8
    import math

    expected = math.factorial(8) / 8**8
    assert prob_all_distinct_hashed(8, 8) == pytest.approx(expected)
    assert prob_all_distinct_hashed(8, 8) < 0.0025  # "extremely low"
    assert prob_all_distinct_hashed(4, 5) == 0.0
    assert prob_all_distinct_hashed(4, 1) == 1.0


def test_expected_distinct_formula_matches_measurement():
    placement = HashedPlacement(8, salt=7)
    analytic = expected_distinct_nodes_hashed(8, 8)
    measured = measured_batch_parallelism(placement, 8192, 8)
    assert measured == pytest.approx(analytic, rel=0.08)


def test_chunked_no_parallelism_within_chunk():
    placement = ChunkedPlacement(4)
    # file of 64 blocks: chunks of 16; any window of 4 falls in one chunk
    assert measured_batch_parallelism(placement, 64, 4) == 1.0
    assert sequential_window_rounds(placement, 64, 4) == 4.0


def test_chunked_append_forces_reorganization():
    placement = ChunkedPlacement(4)
    moves = placement.append_moves(64, 128)
    assert moves > 0
    assert RoundRobinPlacement(4).append_moves(64, 128) == 0
    assert HashedPlacement(4).append_moves(64, 128) == 0


def test_chunked_node_mapping():
    placement = ChunkedPlacement(4)
    assert placement.node_of(0, 64) == 0
    assert placement.node_of(15, 64) == 0
    assert placement.node_of(16, 64) == 1
    assert placement.node_of(63, 64) == 3


def test_placements_reject_zero_nodes():
    with pytest.raises(ValueError):
        RoundRobinPlacement(0)
    with pytest.raises(ValueError):
        ChunkedPlacement(0)
    with pytest.raises(ValueError):
        HashedPlacement(0)

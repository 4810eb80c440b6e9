"""Tests for the merge-sort tool: records, local sort, the Figure-4 token
merge, and the full two-phase tool."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.efs import check_system
from repro.tools.sort import SortTool, key_of, make_record
from repro.workloads import build_record_file, read_file, uniform_keys
from tests.helpers import (
    expected_merge_passes,
    few_distinct_keys,
    is_sorted,
    payload_of,
    reversed_keys,
    sorted_keys,
)
from tests.tools.conftest import make_system


def run_sort(system, keys, source="unsorted", dest="sorted", **tool_kwargs):
    build_record_file(system, source, keys)
    tool = SortTool(
        system.client_node, system.bridge.port, system.config, **tool_kwargs
    )

    def body():
        return (yield from tool.run(source, dest))

    result = system.run(body(), name="sorttool")
    output = read_file(system, dest)
    return result, output


def assert_sorted_permutation(keys, output):
    assert len(output) == len(keys)
    out_keys = [key_of(record) for record in output]
    assert out_keys == sorted(keys)


# ---------------------------------------------------------------------------
# Record codec
# ---------------------------------------------------------------------------


def test_record_roundtrip():
    record = make_record(1234, b"payload")
    assert len(record) == 960
    assert key_of(record) == 1234
    assert payload_of(record) == b"payload"


def test_record_key_bounds():
    with pytest.raises(ValueError):
        make_record(-1)
    with pytest.raises(ValueError):
        make_record(2**64)
    make_record(2**64 - 1)  # max is fine


def test_record_oversize_payload():
    with pytest.raises(ValueError):
        make_record(0, b"x" * 953)


def test_is_sorted_helper():
    assert is_sorted([make_record(1), make_record(1), make_record(2)])
    assert not is_sorted([make_record(2), make_record(1)])
    assert is_sorted([])


def test_expected_merge_passes():
    assert expected_merge_passes(100, 512) == 0
    assert expected_merge_passes(1024, 512) == 1
    assert expected_merge_passes(2048, 512) == 2
    assert expected_merge_passes(513, 512) == 1


# ---------------------------------------------------------------------------
# Full tool, various widths and workloads
# ---------------------------------------------------------------------------


def test_sort_p2_uniform():
    system = make_system(2)
    keys = uniform_keys(30, seed=1)
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    assert result.records == 30
    assert result.width == 2
    assert len(result.passes) == 1


def test_sort_p4_uniform():
    system = make_system(4)
    keys = uniform_keys(50, seed=2)
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    assert len(result.passes) == 2  # log2(4)


def test_sort_p8_uniform():
    system = make_system(8)
    keys = uniform_keys(64, seed=3)
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    assert len(result.passes) == 3


def test_sort_p1_local_only():
    system = make_system(1)
    keys = uniform_keys(20, seed=4)
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    assert result.merge_time == 0.0
    assert result.passes == []


def test_sort_p3_odd_width_with_byes():
    system = make_system(3)
    keys = uniform_keys(31, seed=5)
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    assert len(result.passes) == 2  # (1,1)+bye then (2,1)


def test_sort_already_sorted_input():
    system = make_system(4)
    keys = sorted_keys(40, seed=6)
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_reverse_sorted_input():
    system = make_system(4)
    keys = reversed_keys(40, seed=7)
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_duplicate_keys():
    system = make_system(4)
    keys = few_distinct_keys(48, distinct=3, seed=8)
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_all_equal_keys():
    system = make_system(4)
    keys = [99] * 24
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_single_record():
    system = make_system(4)
    keys = [7]
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_empty_file():
    system = make_system(4)
    result, output = run_sort(system, [])
    assert output == []
    assert result.records == 0


def test_sort_fewer_records_than_width():
    system = make_system(8)
    keys = uniform_keys(3, seed=9)
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_ragged_distribution():
    """Record count not a multiple of p: constituents differ in size."""
    system = make_system(4)
    keys = uniform_keys(29, seed=10)
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_intermediate_files_cleaned_up():
    system = make_system(4)
    keys = uniform_keys(32, seed=11)
    run_sort(system, keys)

    def body():
        client = system.naive_client()
        info = yield from client.get_info()
        return info

    system.run(body())
    assert sorted(system.bridge.directory.names()) == ["sorted", "unsorted"]
    # scratch EFS files must be gone too: each LFS holds exactly the two
    # bridge files' constituents
    assert [report.files_checked for report in check_system(system)] == [
        2] * system.width


def test_sort_output_interleaved_across_all_nodes():
    system = make_system(4)
    keys = uniform_keys(32, seed=12)
    run_sort(system, keys)

    def body():
        client = system.naive_client()
        return (yield from client.open("sorted"))

    result = system.run(body())
    assert result.width == 4
    assert result.start == 0
    assert [c.size_blocks for c in result.constituents] == [8, 8, 8, 8]


def test_sort_with_multiple_local_runs():
    """Force run formation + local merge passes with a small buffer."""
    from repro.config import DEFAULT_CONFIG

    config = DEFAULT_CONFIG.with_changes(sort_buffer_records=4)
    system = make_system(2, config=config)
    keys = uniform_keys(40, seed=13)  # 20 records/node, c=4 -> 5 runs
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    for report in result.local_reports:
        assert report.runs == 5
        assert report.merge_passes == 3  # ceil(log2(5))


def test_sort_file_that_fits_one_run_goes_straight_to_the_destination():
    """Ten records per node against a 512-record buffer: each local sort
    forms its one run in the destination itself — no scratch file, no
    merge pass, nothing to move — and leaves every LFS clean."""
    from repro.efs.fsck import check_system

    system = make_system(4)
    keys = uniform_keys(40, seed=17)
    result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)
    assert result.records == 40
    for report in result.local_reports:
        assert (report.records, report.runs, report.merge_passes) == (10, 1, 0)
    for report in check_system(system):
        assert report.clean, report.errors


def test_sort_without_hints_still_correct_but_slower():
    system_hints = make_system(2, seed=50)
    keys = uniform_keys(24, seed=14)
    result_hints, output_hints = run_sort(system_hints, keys)

    system_nohints = make_system(2, seed=50)
    result_nohints, output_nohints = run_sort(
        system_nohints, keys, use_hints=False
    )
    assert_sorted_permutation(keys, output_hints)
    assert_sorted_permutation(keys, output_nohints)
    assert result_nohints.local_sort_time >= result_hints.local_sort_time


def test_sort_phase_times_sum_to_total():
    system = make_system(4)
    keys = uniform_keys(32, seed=15)
    result, _output = run_sort(system, keys)
    overhead = result.total_time - (result.local_sort_time + result.merge_time)
    assert overhead >= 0
    assert overhead < result.total_time * 0.1


def test_sort_merge_stats_record_counts():
    system = make_system(4)
    keys = uniform_keys(32, seed=16)
    result, _output = run_sort(system, keys)
    # pass 1: two merges of 16; pass 2: one merge of 32
    assert [sorted(m.records for m in p.merges) for p in result.passes] == [
        [16, 16],
        [32],
    ]


@settings(max_examples=10, deadline=None)
@given(
    keys=st.lists(st.integers(0, 2**32), min_size=0, max_size=40),
    width=st.sampled_from([2, 3, 4]),
)
def test_sort_property_random_inputs(keys, width):
    """The tool output is always the sorted permutation of the input."""
    system = make_system(width, seed=abs(hash(tuple(keys))) % 1000)
    _result, output = run_sort(system, keys)
    assert_sorted_permutation(keys, output)


def test_sort_payloads_travel_with_keys():
    system = make_system(2)
    keys = [5, 3, 9, 1]
    build_record_file(system, "pl", keys)
    original = {key_of(r): payload_of(r) for r in read_file(system, "pl")}
    tool = SortTool(system.client_node, system.bridge.port, system.config)

    def body():
        return (yield from tool.run("pl", "pl-sorted"))

    system.run(body())
    output = read_file(system, "pl-sorted")
    for record in output:
        assert payload_of(record) == original[key_of(record)]

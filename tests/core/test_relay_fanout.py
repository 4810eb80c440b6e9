"""Relay fan-out edge cases: empty work lists, degenerate width,
and heterogeneous per-entry results."""

from repro.machine import Client
from repro.workloads import build_file, pattern_chunks


def relay_entries(system, slots, args_for):
    """Build relay work-list entries for the given LFS slots."""
    return [
        {
            "efs_port": system.efs_servers[slot].port,
            "relay_port": system.relays[slot].port,
            "args": args_for(slot),
        }
        for slot in slots
    ]


def call_relay(system, entries, method):
    """Send the work list to the relay heading it (the Bridge Server's
    contract: the head relay handles ``entries[0]`` itself)."""
    client = Client(system.client_node, "relay-test")
    head = entries[0]["relay_port"] if entries else system.relays[0].port

    def body():
        return (
            yield from client.call(
                head, "relay", entries=entries, relay_method=method
            )
        )

    return system.run(body())


def test_relay_empty_entry_list(fast_system):
    assert call_relay(fast_system, [], "info") == []


def test_relay_single_entry_degenerate(fast_system):
    """One LFS: the relay handles its own slot and forwards nothing."""
    build_file(fast_system, "f", pattern_chunks(4))
    entries = relay_entries(
        fast_system, [0], lambda slot: {"file_number": 1}
    )
    results = call_relay(fast_system, entries, "info")
    assert len(results) == 1
    assert results[0].file_number == 1


def test_relay_full_width_results_in_entry_order(fast_system):
    build_file(fast_system, "f", pattern_chunks(8))
    slots = [2, 0, 3, 1]  # deliberately shuffled entry order
    entries = relay_entries(
        fast_system, slots, lambda slot: {"file_number": 1}
    )
    results = call_relay(fast_system, entries, "info")
    assert [info.column for info in results] == slots


def test_relay_mixed_size_responses(fast_system):
    """Entries may return differently sized results (here: batches of
    different lengths per constituent) and still come back in order."""
    # 10 blocks over p=4: constituents hold 3, 3, 2, 2 blocks.
    build_file(fast_system, "f", pattern_chunks(10))
    counts = {0: 3, 1: 3, 2: 2, 3: 2}
    entries = relay_entries(
        fast_system,
        [0, 1, 2, 3],
        lambda slot: {
            "file_number": 1,
            "block_numbers": list(range(counts[slot])),
        },
    )
    results = call_relay(fast_system, entries, "read_blocks")
    assert [len(batch.results) for batch in results] == [3, 3, 2, 2]
    for batch in results:
        assert all(result.data for result in batch.results)
